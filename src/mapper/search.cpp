#include "mapper/search.hpp"

#include <bit>
#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "common/trace.hpp"
#include "mapper/anneal.hpp"
#include "mapper/bound.hpp"
#include "mapper/cache.hpp"
#include "verif/fault.hpp"

namespace nnbaton {

const char *
toString(SearchMode mode)
{
    switch (mode) {
      case SearchMode::Exhaustive:
        return "exhaustive";
      case SearchMode::Anneal:
        return "anneal";
    }
    panic("bad SearchMode");
}

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
 * incumbent frozen at the block boundary, so they depend only on the
 * candidate order — never on the thread count or timing — and the
 * parallel search is bit-identical to the serial one (counters
 * included).  The block size trades pruning strength (incumbent
 * refreshes) against parallel width; it must stay a constant.
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
         const SearchOptions &search, ThreadPool *pool,
         SearchStats *stats)
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
    double scores[kPruneBlock];
    size_t survivors[kPruneBlock];
    size_t survivor_count = 0;

    for (size_t base = 0; base < n; base += kPruneBlock) {
        // Cancellation granularity: one poll per prune block, so a
        // fired deadline stops even a single huge layer search within
        // ~kPruneBlock evaluations.  Unwinding here is safe: the
        // compute-once cache does not latch an entry whose factory
        // throws, so a later (post-resume) search recomputes it.
        if (search.cancel && search.cancel->cancelled())
            throwStatus(search.cancel->toStatus());
        if (verif::faultPlanArmed())
            verif::injectSearchBlockFault();

        const size_t count = std::min(kPruneBlock, n - base);

        // Pruning pass against the block-boundary incumbent.
        {
            NNBATON_TRACE_SCOPE("mapper.bound_prune");
            survivor_count = 0;
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
                survivors[survivor_count++] = i;
            }
        }

        // Score the survivors, in parallel when a pool is available
        // (indices write disjoint slots; no ordering: the evaluator is
        // stateless, so any lane may score any index).
        {
            NNBATON_TRACE_SCOPE("mapper.c3p_analysis");
            const auto evaluate = [&](size_t i) {
                scores[i] =
                    table ? tableScore(layer, cfg, tech, rates,
                                       *(*table)[base + i], objective,
                                       cross_check)
                          : scoreOf(evaluateMapping(layer, cfg, tech,
                                                    candidates[base + i]),
                                    objective);
            };
            if (pool) {
                pool->parallelFor(
                    static_cast<int64_t>(survivor_count),
                    [&](int64_t j) {
                        evaluate(survivors[static_cast<size_t>(j)]);
                    });
            } else {
                for (size_t j = 0; j < survivor_count; ++j)
                    evaluate(survivors[j]);
            }
        }
        evaluated_here += static_cast<int64_t>(survivor_count);

        // Deterministic reduction in candidate order; strict '<'
        // keeps the earliest candidate on score ties, matching the
        // serial search.
        for (size_t j = 0; j < survivor_count; ++j) {
            const size_t i = survivors[j];
            if (!found || scores[i] < best_score) {
                found = true;
                best_index = base + i;
                best_score = scores[i];
            }
        }
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
    // (totals stay equal by construction) and keep a histogram of how
    // many candidates the bound killed per search — the pruning
    // effectiveness distribution.
    static obs::Counter &m_evaluated =
        obs::MetricsRegistry::instance().counter(
            "mapper.candidates.evaluated");
    static obs::Counter &m_pruned =
        obs::MetricsRegistry::instance().counter(
            "mapper.candidates.pruned");
    static obs::Histogram &m_prune_hist =
        obs::MetricsRegistry::instance().histogram(
            "mapper.prune.pruned_per_search");
    m_evaluated.add(evaluated_here);
    m_pruned.add(pruned_here);
    if (prune)
        m_prune_hist.record(pruned_here);

    return best;
}

/**
 * Strategy dispatch for one layer search.  @p table (Exhaustive only)
 * is the cache's memory-axis view for this search, or null to
 * enumerate.
 */
std::optional<MappingChoice>
runLayerSearch(const ConvLayer &layer, const AcceleratorConfig &cfg,
               const TechnologyModel &tech, SearchEffort effort,
               Objective objective, const SearchOptions &search,
               ThreadPool *pool, SearchStats *stats,
               const MemoryAxisTable::View *table)
{
    switch (search.mode) {
      case SearchMode::Exhaustive: {
        std::vector<Mapping> candidates;
        if (!table) {
            NNBATON_TRACE_SCOPE("mapper.candidates");
            candidates = enumerateCandidates(layer, cfg, effort);
        }
        return pickBest(layer, cfg, tech, candidates, table, objective,
                        search, pool, stats);
      }
      case SearchMode::Anneal: {
        const CandidateSpace space(layer, cfg, effort);
        return searchAnneal(layer, cfg, tech, space, objective, search,
                            stats);
      }
    }
    panic("bad SearchMode");
}

} // namespace

std::optional<MappingChoice>
searchLayer(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const TechnologyModel &tech, SearchEffort effort,
            Objective objective)
{
    return searchLayer(layer, cfg, tech, effort, objective,
                       SearchOptions{});
}

std::optional<MappingChoice>
searchLayer(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const TechnologyModel &tech, SearchEffort effort,
            Objective objective, const SearchOptions &search,
            SearchStats *stats)
{
    std::unique_ptr<ThreadPool> pool;
    if (search.threads > 1 && !ThreadPool::inParallelRegion())
        pool = std::make_unique<ThreadPool>(search.threads);
    return runLayerSearch(layer, cfg, tech, effort, objective, search,
                          pool.get(), stats, /*table=*/nullptr);
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
                    objective, SearchOptions{}, /*pool=*/nullptr,
                    /*stats=*/nullptr);
}

ModelMappingResult
mapModel(const Model &model, const AcceleratorConfig &cfg,
         const TechnologyModel &tech, SearchEffort effort,
         Objective objective)
{
    return mapModel(model, cfg, tech, effort, objective,
                    SearchOptions{});
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
    // one search result.  Without an external cache, a private one
    // scopes the memoization to this call, as before.
    MappingCache private_cache;
    MappingCache &shared = cache ? *cache : private_cache;

    std::unique_ptr<ThreadPool> pool;
    if (search.threads > 1 && !ThreadPool::inParallelRegion())
        pool = std::make_unique<ThreadPool>(search.threads);

    static obs::Histogram &m_layer_us =
        obs::MetricsRegistry::instance().histogram(
            "mapper.layer_search_us");

    for (const ConvLayer &layer : model.layers()) {
        if (search.cancel && search.cancel->cancelled())
            throwStatus(search.cancel->toStatus());
        const MappingCache::Key key =
            MappingCache::makeKey(layer, cfg, tech, effort, objective,
                                  search.mode, search.annealSeed);
        const uint64_t t0 =
            search.detailedMetrics ? obs::traceNowNs() : 0;
        bool hit = false;
        const std::optional<MappingChoice> choice =
            shared.lookupOrCompute(
                key,
                [&] {
                    // From the second miss of this (shape, geometry,
                    // effort) on, an exhaustive search reads its
                    // candidates and fills from the cache's
                    // memory-axis table.
                    std::shared_ptr<const MemoryAxisTable::View> table;
                    if (search.mode == SearchMode::Exhaustive)
                        table = shared.tableView(layer, cfg, effort);
                    return runLayerSearch(layer, cfg, tech, effort,
                                          objective, search, pool.get(),
                                          &result.stats, table.get());
                },
                &hit);
        ++(hit ? result.stats.cacheHits : result.stats.cacheMisses);
        if (search.detailedMetrics) {
            m_layer_us.record(static_cast<int64_t>(
                (obs::traceNowNs() - t0) / 1000));
        }

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
