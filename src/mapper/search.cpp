#include "mapper/search.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/status.hpp"
#include "common/trace.hpp"
#include "mapper/bound.hpp"
#include "mapper/cache.hpp"
#include "verif/fault.hpp"

namespace nnbaton {

MappingChoice
evaluateMapping(const ConvLayer &layer, const AcceleratorConfig &cfg,
                const TechnologyModel &tech, const Mapping &mapping,
                const AnalysisOptions &options)
{
    MappingChoice choice;
    choice.mapping = mapping;
    choice.analysis = analyzeMapping(layer, cfg, mapping, options);
    choice.energy = computeEnergy(choice.analysis.counts, cfg, tech);
    choice.runtime = estimateRuntime(layer, cfg, choice.analysis, tech);
    return choice;
}

namespace {

/**
 * Candidates are consumed in fixed blocks: pruning decisions use the
 * incumbent frozen at the block boundary, and cancellation is polled
 * once per block.  The block size fixes the `evaluated` and `pruned`
 * counters that the golden files and perfbench pins record, so it
 * must stay a constant.
 */
constexpr size_t kPruneBlock = 32;

/** Relative slack before a bound may prune, absorbing the rounding
 *  difference between the bound's and the accounting's float paths
 *  when a floor is exactly tight. */
constexpr double kPruneMargin = 1.0 + 1e-9;

double
scoreOf(const MappingChoice &c, Objective objective)
{
    return objective == Objective::MinEnergy ? c.energy.total()
                                             : c.edp();
}

/** True when NNBATON_INCREMENTAL_CHECK is set (and not "0"): every
 *  table bound and score is then re-derived without the table.  Read
 *  once per process. */
bool
tableCrossCheck()
{
    static const bool on = [] {
        const char *v = std::getenv("NNBATON_INCREMENTAL_CHECK");
        return v != nullptr && v[0] != '\0' &&
               !(v[0] == '0' && v[1] == '\0');
    }();
    return on;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** Panics unless @p bound, table candidate @p c's bound as pickBest()
 *  priced or reused it, equals scoreLowerBound() bit for bit. */
void
checkTableBound(const ConvLayer &layer, const AcceleratorConfig &cfg,
                const TechnologyModel &tech,
                const MemoryAxisTable::Candidate &c, Objective objective,
                double bound)
{
    const double fresh =
        scoreLowerBound(layer, cfg, tech, c.mapping, objective);
    if (!sameBits(bound, fresh)) {
        panic("memory-axis table bound cross-check divergence on %s "
              "%s (%s): table %.17g, scoreLowerBound %.17g",
              layer.name.c_str(), c.mapping.toString().c_str(),
              cfg.toString().c_str(), bound, fresh);
    }
}

/** Panics unless @p fills and @p score, table candidate @p c's fills
 *  and its score as pickBest() priced or reused it, equal
 *  evaluateMapping()'s bit for bit. */
void
checkTableScore(const ConvLayer &layer, const AcceleratorConfig &cfg,
                const TechnologyModel &tech,
                const MemoryAxisTable::Candidate &c, Objective objective,
                const MemoryAxisTable::Fills &fills, double score)
{
    const MappingChoice full = evaluateMapping(layer, cfg, tech, c.mapping);
    if (full.analysis.wl1.fillBytes != fills[0] ||
        full.analysis.al1.fillBytes != fills[1] ||
        full.analysis.al2.fillBytes != fills[2] ||
        !sameBits(scoreOf(full, objective), score)) {
        panic("memory-axis table cross-check divergence on %s %s "
              "(%s):\n  table: fills %lld/%lld/%lld, score %.17g\n"
              "  full:  fills %lld/%lld/%lld, score %.17g",
              layer.name.c_str(), c.mapping.toString().c_str(),
              cfg.toString().c_str(), static_cast<long long>(fills[0]),
              static_cast<long long>(fills[1]),
              static_cast<long long>(fills[2]), score,
              static_cast<long long>(full.analysis.wl1.fillBytes),
              static_cast<long long>(full.analysis.al1.fillBytes),
              static_cast<long long>(full.analysis.al2.fillBytes),
              scoreOf(full, objective));
    }
}

/**
 * The exhaustive search over one candidate sequence: @p table's view
 * when the cache supplied one, else @p candidates.  Table candidates
 * are bounded and scored from their stored terms at this search's
 * buffer rates, the others through scoreLowerBound() and
 * evaluateMapping(); either way only the winner is materialised, so
 * both sources return the same winner and the same work counters.
 */
std::optional<MappingChoice>
pickBest(const ConvLayer &layer, const AcceleratorConfig &cfg,
         const TechnologyModel &tech,
         const std::vector<Mapping> &candidates,
         const MemoryAxisTable::View *table, Objective objective,
         const SearchOptions &search, SearchStats *stats)
{
    NNBATON_TRACE_SCOPE("mapper.pick_best");

    SearchStats local;
    SearchStats &st = stats ? *stats : local;
    const bool prune = search.boundPruning;
    int64_t evaluated_here = 0;
    int64_t pruned_here = 0;

    bool found = false;
    size_t best_index = 0;
    double best_score = std::numeric_limits<double>::max();

    const bool cross_check = table && tableCrossCheck();
    const BufferRates rates = table ? bufferRates(cfg, tech) : BufferRates{};

    // A table bound reads only the candidate's Terms, and a table score
    // only its Terms and fills: the configuration, technology, rates
    // and objective are fixed for the call.  Loop-order variants sit
    // next to each other in a view and share one Terms, so a candidate
    // whose key equals the last priced one's takes that value, with
    // the same bits, and a run of them is priced once.
    const MemoryAxisTable::Terms *bound_terms = nullptr;
    double last_bound = 0;
    const MemoryAxisTable::Terms *score_terms = nullptr;
    MemoryAxisTable::Fills score_fills{};
    double last_score = 0;

    const auto bound_of = [&](size_t i) {
        if (!table)
            return scoreLowerBound(layer, cfg, tech, candidates[i],
                                   objective);
        const MemoryAxisTable::Candidate &c = *(*table)[i];
        if (c.terms != bound_terms) {
            bound_terms = c.terms;
            last_bound =
                priceLowerBound(c.terms->bound, cfg, tech, rates, objective);
        }
        if (cross_check)
            checkTableBound(layer, cfg, tech, c, objective, last_bound);
        return last_bound;
    };
    const auto score_of = [&](size_t i) {
        if (!table)
            return scoreOf(evaluateMapping(layer, cfg, tech, candidates[i]),
                           objective);
        const MemoryAxisTable::Candidate &c = *(*table)[i];
        const MemoryAxisTable::Fills fills = c.fills(cfg);
        if (c.terms != score_terms || fills != score_fills) {
            score_terms = c.terms;
            score_fills = fills;
            last_score = c.terms->score(fills, cfg, tech, rates, objective);
        }
        if (cross_check)
            checkTableScore(layer, cfg, tech, c, objective, fills,
                            last_score);
        return last_score;
    };

    const size_t n = table ? table->size() : candidates.size();
    size_t survivors[kPruneBlock];

    for (size_t base = 0; base < n; base += kPruneBlock) {
        // Cancellation granularity: one poll per prune block, so a
        // fired deadline stops even a single huge layer search within
        // ~kPruneBlock evaluations.  Unwinding here is safe: no result
        // outlives its mapModel() call, so a later (post-resume)
        // search recomputes it.
        if (search.cancel && search.cancel->cancelled())
            throwStatus(search.cancel->toStatus());
        if (verif::faultPlanArmed())
            verif::injectSearchBlockFault();

        const size_t count = std::min(kPruneBlock, n - base);
        size_t survivor_count = 0;

        // Pruning pass against the block-boundary incumbent.
        for (size_t i = base; i < base + count; ++i) {
            if (prune && found &&
                bound_of(i) >= best_score * kPruneMargin) {
                ++pruned_here;
                continue;
            }
            survivors[survivor_count++] = i;
        }

        // Score the survivors in candidate order and reduce as we go;
        // strict '<' keeps the earliest candidate on score ties.
        for (size_t j = 0; j < survivor_count; ++j) {
            const size_t i = survivors[j];
            const double score = score_of(i);
            if (!found || score < best_score) {
                found = true;
                best_index = i;
                best_score = score;
            }
        }
        evaluated_here += static_cast<int64_t>(survivor_count);
    }
    std::optional<MappingChoice> best;
    if (found) {
        best = evaluateMapping(layer, cfg, tech,
                               table ? (*table)[best_index]->mapping
                                     : candidates[best_index]);
    }

    st.evaluated += evaluated_here;
    st.pruned += pruned_here;

    // Mirror the SearchStats work counters into the metrics registry
    // (totals stay equal by construction).
    static obs::Counter &m_evaluated =
        obs::MetricsRegistry::instance().counter(
            "mapper.candidates.evaluated");
    static obs::Counter &m_pruned =
        obs::MetricsRegistry::instance().counter(
            "mapper.candidates.pruned");
    m_evaluated.add(evaluated_here);
    m_pruned.add(pruned_here);

    return best;
}

/**
 * One layer search.  @p table is the cache's memory-axis view for
 * this search, or null to enumerate the candidates.
 */
std::optional<MappingChoice>
runLayerSearch(const ConvLayer &layer, const AcceleratorConfig &cfg,
               const TechnologyModel &tech, SearchEffort effort,
               Objective objective, const SearchOptions &search,
               SearchStats *stats, const MemoryAxisTable::View *table)
{
    std::vector<Mapping> candidates;
    if (!table) {
        NNBATON_TRACE_SCOPE("mapper.candidates");
        candidates = enumerateCandidates(layer, cfg, effort);
    }
    return pickBest(layer, cfg, tech, candidates, table, objective,
                    search, stats);
}

} // namespace

std::optional<MappingChoice>
searchLayer(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const TechnologyModel &tech, SearchEffort effort,
            Objective objective, const SearchOptions &search,
            SearchStats *stats)
{
    return runLayerSearch(layer, cfg, tech, effort, objective, search,
                          stats, /*table=*/nullptr);
}

std::optional<MappingChoice>
searchLayerWithSpatial(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech, PackagePartition pkg,
                       ChipletPartition chip, SearchEffort effort,
                       Objective objective)
{
    const std::vector<Mapping> candidates =
        enumerateCandidatesFor(layer, cfg, effort, pkg, chip);
    return pickBest(layer, cfg, tech, candidates, /*table=*/nullptr,
                    objective, SearchOptions{}, /*stats=*/nullptr);
}

ModelMappingResult
mapModel(const Model &model, const AcceleratorConfig &cfg,
         const TechnologyModel &tech, SearchEffort effort,
         Objective objective, const SearchOptions &search,
         MappingCache *cache)
{
    NNBATON_TRACE_SCOPE("mapper.map_model");

    ModelMappingResult result;
    result.cost.modelName = model.name();

    // Layers with identical shapes (repeated residual blocks) share
    // one search.  Everything else a search reads is fixed for the
    // call, so the table key, which adds only the fixed geometry and
    // effort to the shape, keys the memo.
    std::vector<std::pair<MappingCache::Key, std::optional<MappingChoice>>>
        memo;
    const size_t layers = model.layers().size();
    memo.reserve(layers);
    result.choices.reserve(layers);
    result.cost.layers.reserve(layers);

    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &m_hits = reg.counter("mapper.cache.hits");
    static obs::Counter &m_misses = reg.counter("mapper.cache.misses");

    for (const ConvLayer &layer : model.layers()) {
        if (search.cancel && search.cancel->cancelled())
            throwStatus(search.cancel->toStatus());
        NNBATON_TRACE_SCOPE("mapper.layer_search");
        const MappingCache::Key key =
            MappingCache::tableKey(layer, cfg, effort);
        auto hit = std::find_if(memo.begin(), memo.end(),
                                [&](const auto &m) {
                                    return m.first == key;
                                });
        if (hit != memo.end()) {
            ++result.stats.cacheHits;
            m_hits.add();
        } else {
            // From the second search of this (shape, geometry,
            // effort) in the caller's cache on, the search reads its
            // candidates and fills from a memory-axis table.
            std::shared_ptr<const MemoryAxisTable::View> table;
            if (cache)
                table = cache->tableView(layer, cfg, effort);
            memo.emplace_back(
                key, runLayerSearch(layer, cfg, tech, effort, objective,
                                    search, &result.stats, table.get()));
            hit = memo.end() - 1;
            ++result.stats.cacheMisses;
            m_misses.add();
        }

        const std::optional<MappingChoice> &choice = hit->second;
        if (!choice) {
            // The caller decides whether infeasibility is worth
            // reporting (the DSE sweeps hit this by design).
            result.feasible = false;
            continue;
        }
        LayerCost lc;
        lc.layerName = layer.name;
        lc.energy = choice->energy;
        lc.cycles = choice->runtime.cycles;
        lc.utilization = choice->runtime.utilization;
        result.cost.add(std::move(lc));
        result.choices.push_back(*choice);
    }
    return result;
}

} // namespace nnbaton
