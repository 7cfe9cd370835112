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

/** Table candidate @p c's lower bound; with @p cross_check it must
 *  equal scoreLowerBound() bit for bit, or the process panics. */
double
tableBound(const ConvLayer &layer, const AcceleratorConfig &cfg,
           const TechnologyModel &tech, const BufferRates &rates,
           const MemoryAxisTable::Candidate &c, Objective objective,
           bool cross_check)
{
    const double bound =
        priceLowerBound(c.terms->bound, cfg, tech, rates, objective);
    if (cross_check) {
        const double fresh =
            scoreLowerBound(layer, cfg, tech, c.mapping, objective);
        if (!sameBits(bound, fresh)) {
            panic("memory-axis table bound cross-check divergence on %s "
                  "%s (%s): table %.17g, scoreLowerBound %.17g",
                  layer.name.c_str(), c.mapping.toString().c_str(),
                  cfg.toString().c_str(), bound, fresh);
        }
    }
    return bound;
}

/** Table candidate @p c's score; with @p cross_check it is re-derived
 *  through evaluateMapping() and must match bit for bit, fills
 *  included, or the process panics. */
double
tableScore(const ConvLayer &layer, const AcceleratorConfig &cfg,
           const TechnologyModel &tech, const BufferRates &rates,
           const MemoryAxisTable::Candidate &c, Objective objective,
           bool cross_check)
{
    const double score = c.score(cfg, tech, rates, objective);
    if (cross_check) {
        const MappingChoice full =
            evaluateMapping(layer, cfg, tech, c.mapping);
        const int64_t wl1 =
            c.wl1Fill(cfg.core.wl1Bytes * c.mapping.chipSplit.parts());
        const int64_t al1 = c.al1Fill(cfg.core.al1Bytes);
        const int64_t al2 = c.al2Fill(cfg.chiplet.al2Bytes);
        if (full.analysis.wl1.fillBytes != wl1 ||
            full.analysis.al1.fillBytes != al1 ||
            full.analysis.al2.fillBytes != al2 ||
            !sameBits(scoreOf(full, objective), score)) {
            panic("memory-axis table cross-check divergence on %s %s "
                  "(%s):\n  table: fills %lld/%lld/%lld, score %.17g\n"
                  "  full:  fills %lld/%lld/%lld, score %.17g",
                  layer.name.c_str(), c.mapping.toString().c_str(),
                  cfg.toString().c_str(), static_cast<long long>(wl1),
                  static_cast<long long>(al1),
                  static_cast<long long>(al2), score,
                  static_cast<long long>(full.analysis.wl1.fillBytes),
                  static_cast<long long>(full.analysis.al1.fillBytes),
                  static_cast<long long>(full.analysis.al2.fillBytes),
                  scoreOf(full, objective));
        }
    }
    return score;
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
        {
            NNBATON_TRACE_SCOPE("mapper.bound_prune");
            for (size_t i = 0; i < count; ++i) {
                if (prune && found) {
                    const double bound =
                        table ? tableBound(layer, cfg, tech, rates,
                                           *(*table)[base + i], objective,
                                           cross_check)
                              : scoreLowerBound(layer, cfg, tech,
                                                candidates[base + i],
                                                objective);
                    if (bound >= best_score * kPruneMargin) {
                        ++pruned_here;
                        continue;
                    }
                }
                survivors[survivor_count++] = base + i;
            }
        }

        // Score the survivors in candidate order and reduce as we go;
        // strict '<' keeps the earliest candidate on score ties.
        {
            NNBATON_TRACE_SCOPE("mapper.c3p_analysis");
            for (size_t j = 0; j < survivor_count; ++j) {
                const size_t i = survivors[j];
                const double score =
                    table ? tableScore(layer, cfg, tech, rates,
                                       *(*table)[i], objective,
                                       cross_check)
                          : scoreOf(evaluateMapping(layer, cfg, tech,
                                                    candidates[i]),
                                    objective);
                if (!found || score < best_score) {
                    found = true;
                    best_index = i;
                    best_score = score;
                }
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
