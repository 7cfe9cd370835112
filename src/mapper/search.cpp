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

/** Panics unless table candidate @p c of a block pruned on its floor
 *  priced at @p floor has a scoreLowerBound() at or above both the
 *  floor and the prune @p threshold. */
void
checkFloorPrune(const ConvLayer &layer, const AcceleratorConfig &cfg,
                const TechnologyModel &tech,
                const MemoryAxisTable::Candidate &c, Objective objective,
                double floor, double threshold)
{
    const double fresh =
        scoreLowerBound(layer, cfg, tech, c.mapping, objective);
    if (!(fresh >= floor && fresh >= threshold)) {
        panic("memory-axis table floor cross-check divergence on %s %s "
              "(%s): block floor %.17g, threshold %.17g, "
              "scoreLowerBound %.17g",
              layer.name.c_str(), c.mapping.toString().c_str(),
              cfg.toString().c_str(), floor, threshold, fresh);
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
 * Cancellation granularity: one poll per prune block, so a fired
 * deadline stops even a single huge layer search within ~kPruneBlock
 * evaluations.  Unwinding here is safe: no result outlives its
 * mapModel() call, so a later (post-resume) search recomputes it.
 */
void
pollBlock(const SearchOptions &search)
{
    if (search.cancel && search.cancel->cancelled())
        throwStatus(search.cancel->toStatus());
    if (verif::faultPlanArmed())
        verif::injectSearchBlockFault();
}

/** A search's best candidate so far.  Offered in candidate order,
 *  strict '<' keeps the earliest candidate on score ties. */
struct Incumbent
{
    bool found = false;
    size_t index = 0;
    double score = std::numeric_limits<double>::max();

    void offer(size_t i, double s)
    {
        if (!found || s < score) {
            found = true;
            index = i;
            score = s;
        }
    }
};

/** Count a finished search's work into @p stats and the registry's
 *  mirrors of it (totals stay equal by construction), and evaluate its
 *  @p winner, if any. */
std::optional<MappingChoice>
finishSearch(const ConvLayer &layer, const AcceleratorConfig &cfg,
             const TechnologyModel &tech, const Mapping *winner,
             int64_t evaluated, int64_t pruned, SearchStats *stats)
{
    std::optional<MappingChoice> best;
    if (winner)
        best = evaluateMapping(layer, cfg, tech, *winner);
    if (stats) {
        stats->evaluated += evaluated;
        stats->pruned += pruned;
    }
    static obs::Counter &m_evaluated =
        obs::MetricsRegistry::instance().counter(
            "mapper.candidates.evaluated");
    static obs::Counter &m_pruned =
        obs::MetricsRegistry::instance().counter(
            "mapper.candidates.pruned");
    m_evaluated.add(evaluated);
    m_pruned.add(pruned);
    return best;
}

/**
 * The exhaustive search over enumerated @p candidates, bounded through
 * scoreLowerBound() and scored through evaluateMapping(): only the
 * winner is materialised.
 */
std::optional<MappingChoice>
pickBest(const ConvLayer &layer, const AcceleratorConfig &cfg,
         const TechnologyModel &tech,
         const std::vector<Mapping> &candidates, Objective objective,
         const SearchOptions &search, SearchStats *stats)
{
    NNBATON_TRACE_SCOPE("mapper.pick_best");
    int64_t evaluated = 0;
    int64_t pruned = 0;
    Incumbent best;
    size_t survivors[kPruneBlock];
    for (size_t base = 0; base < candidates.size(); base += kPruneBlock) {
        pollBlock(search);
        const size_t end = std::min(candidates.size(), base + kPruneBlock);

        // Pruning pass against the block-boundary incumbent.
        const bool bounded = search.boundPruning && best.found;
        const double threshold = best.score * kPruneMargin;
        size_t survivor_count = 0;
        for (size_t i = base; i < end; ++i) {
            if (bounded && scoreLowerBound(layer, cfg, tech, candidates[i],
                                           objective) >= threshold) {
                ++pruned;
                continue;
            }
            survivors[survivor_count++] = i;
        }

        // Score the survivors in candidate order.
        for (size_t j = 0; j < survivor_count; ++j) {
            const size_t i = survivors[j];
            best.offer(i, scoreOf(evaluateMapping(layer, cfg, tech,
                                                  candidates[i]),
                                  objective));
        }
        evaluated += static_cast<int64_t>(survivor_count);
    }
    return finishSearch(layer, cfg, tech,
                        best.found ? &candidates[best.index] : nullptr,
                        evaluated, pruned, stats);
}

/**
 * pickBest() over a memory-axis @p view, walking its plan
 * (MemoryAxisTable::Plan) at this search's buffer rates.  Per block,
 * once an incumbent exists, one price of the block's floor prunes all
 * its members while @p tech keeps the bound monotone
 * (boundIsMonotone()); otherwise one price per distinct Terms prunes
 * or keeps that Terms' members.  Each surviving group is scored once
 * and offered as its first member.  The incumbent is frozen over a
 * block and a group's members score alike, so the winner, its score
 * and the counters are those of pickBest() over the same candidates.
 */
std::optional<MappingChoice>
walkPlan(const ConvLayer &layer, const AcceleratorConfig &cfg,
         const TechnologyModel &tech, const MemoryAxisTable::View &view,
         Objective objective, const SearchOptions &search,
         SearchStats *stats)
{
    NNBATON_TRACE_SCOPE("mapper.pick_best");
    using Table = MemoryAxisTable;
    const Table::Plan &plan = view.plan;
    const BufferRates rates = bufferRates(cfg, tech);
    const bool floors = boundIsMonotone(tech);
    const bool cross_check = tableCrossCheck();
    int64_t evaluated = 0;
    int64_t pruned = 0;
    Incumbent best;

    // A bound reads only its Terms, and a score only its Terms and
    // fills: the configuration, technology, rates and objective are
    // fixed for the call.  Neighbouring blocks often share Terms, so
    // a price whose key equals the last one's takes its value, with
    // the same bits.
    const Table::Terms *bound_terms = nullptr;
    double last_bound = 0;
    const Table::Terms *score_terms = nullptr;
    Table::Fills score_fills{};
    double last_score = 0;

    for (size_t b = 0; b < plan.blockCount; ++b) {
        pollBlock(search);
        const Table::Plan::Block &block = plan.blocks[b];
        const size_t t0 = b ? plan.blocks[b - 1].termsEnd : 0;
        const size_t g0 = b ? plan.blocks[b - 1].groupsEnd : 0;
        const size_t base = b * kPruneBlock;
        const size_t end = std::min(view.size(), base + kPruneBlock);

        // Bit k set: the block's k-th distinct Terms survives.
        uint32_t kept = ~uint32_t{0};
        if (search.boundPruning && best.found) {
            const double threshold = best.score * kPruneMargin;
            if (floors) {
                const double floor = priceLowerBound(block.floor, cfg, tech,
                                                     rates, objective);
                if (floor >= threshold) {
                    pruned += static_cast<int64_t>(end - base);
                    for (size_t i = base; cross_check && i < end; ++i) {
                        checkFloorPrune(layer, cfg, tech, *view[i],
                                        objective, floor, threshold);
                    }
                    continue;
                }
            }
            kept = 0;
            for (size_t t = t0; t < block.termsEnd; ++t) {
                if (plan.terms[t] != bound_terms) {
                    bound_terms = plan.terms[t];
                    last_bound = priceLowerBound(bound_terms->bound, cfg,
                                                 tech, rates, objective);
                }
                if (last_bound >= threshold)
                    pruned += plan.termMembers[t];
                else
                    kept |= uint32_t{1} << (t - t0);
                for (size_t i = base; cross_check && i < end; ++i) {
                    if (view[i]->terms == bound_terms)
                        checkTableBound(layer, cfg, tech, *view[i],
                                        objective, last_bound);
                }
            }
        }

        // Score the surviving groups in first-member order.
        for (size_t g = g0; g < block.groupsEnd; ++g) {
            const Table::Plan::Group &group = plan.groups[g];
            if (!(kept >> group.terms & 1))
                continue;
            const Table::Candidate &c = *view[group.first];
            const Table::Fills fills = c.fills(cfg);
            if (c.terms != score_terms || fills != score_fills) {
                score_terms = c.terms;
                score_fills = fills;
                last_score =
                    c.terms->score(fills, cfg, tech, rates, objective);
            }
            for (size_t i = base; cross_check && i < end; ++i) {
                if (view[i]->sharesScore(c))
                    checkTableScore(layer, cfg, tech, *view[i], objective,
                                    fills, last_score);
            }
            evaluated += group.count;
            best.offer(group.first, last_score);
        }
    }
    return finishSearch(layer, cfg, tech,
                        best.found ? &view[best.index]->mapping : nullptr,
                        evaluated, pruned, stats);
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
    if (table)
        return walkPlan(layer, cfg, tech, *table, objective, search, stats);
    std::vector<Mapping> candidates;
    {
        NNBATON_TRACE_SCOPE("mapper.candidates");
        candidates = enumerateCandidates(layer, cfg, effort);
    }
    return pickBest(layer, cfg, tech, candidates, objective, search, stats);
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
    return pickBest(layer, cfg, tech, candidates, objective, SearchOptions{},
                    /*stats=*/nullptr);
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
