/**
 * @file
 * The post-design mapping search: for a fixed hardware configuration,
 * find the per-layer mapping minimising energy (or EDP) by exhaustive
 * evaluation of the candidate space (paper sections IV-D, V-C).
 */

#ifndef NNBATON_MAPPER_SEARCH_HPP
#define NNBATON_MAPPER_SEARCH_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/config.hpp"
#include "c3p/access.hpp"
#include "common/cancel.hpp"
#include "cost/energy.hpp"
#include "cost/ledger.hpp"
#include "mapper/candidates.hpp"
#include "nn/model.hpp"
#include "sim/runtime.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

class MappingCache; // mapper/cache.hpp
class ThreadPool;   // common/parallel.hpp

/** Search objective. */
enum class Objective
{
    MinEnergy, //!< minimise total energy (the paper's default)
    MinEdp,    //!< minimise energy-delay product
};

/**
 * Search strategy over the candidate grid (docs/search.md).
 * Exhaustive is the reference; Anneal is an opt-in stochastic mode
 * whose result depends on SearchOptions::annealSeed.  The retired
 * "bnb" name parses to Exhaustive, which returns the winners bnb was
 * required to match bit for bit.
 */
enum class SearchMode
{
    Exhaustive, //!< flat enumerate-then-evaluate with per-candidate
                //!< bound pruning (the default)
    Anneal,     //!< seeded simulated annealing; approximate
};

const char *toString(SearchMode mode);

/**
 * Work counters for the mapping search.  All counters are
 * deterministic: pruning decisions are made at fixed block boundaries
 * independent of the thread count, and the cross-design-point cache
 * computes every unique key exactly once, so serial and parallel runs
 * report identical totals.
 */
struct SearchStats
{
    int64_t evaluated = 0;   //!< candidates given the full C3P analysis
    int64_t pruned = 0;      //!< candidates skipped by the score bound
    int64_t cacheHits = 0;   //!< layer searches served from the cache
    int64_t cacheMisses = 0; //!< layer searches actually run

    SearchStats &operator+=(const SearchStats &other)
    {
        evaluated += other.evaluated;
        pruned += other.pruned;
        cacheHits += other.cacheHits;
        cacheMisses += other.cacheMisses;
        return *this;
    }
};

/** Execution options for the mapping search. */
struct SearchOptions
{
    /** Total threads (including the caller); <= 1 runs serially.
     *  Results are bit-identical across thread counts. */
    int threads = 1;

    /** Skip candidates whose cheap score lower bound (mapper/
     *  bound.hpp) cannot beat the incumbent.  Sound: never changes
     *  the selected mapping. */
    bool boundPruning = true;

    /** Search strategy (docs/search.md); Anneal is approximate and
     *  seeded. */
    SearchMode mode = SearchMode::Exhaustive;

    /** RNG seed for SearchMode::Anneal; the per-layer RNG mixes this
     *  with the layer/config fingerprint so equal seeds reproduce
     *  equal results. */
    uint64_t annealSeed = 1;

    /** Annealing move budget per layer search. */
    int annealIterations = 400;

    /** Record latency histograms (per-layer search time) into the
     *  obs metrics registry (the --metrics CLI flag).  Observation
     *  only: adds clock reads but never changes results. */
    bool detailedMetrics = false;

    /**
     * Cooperative cancellation, polled at prune-block boundaries and
     * between layers.  Borrowed, may be null.  A fired token unwinds
     * the search with StatusError(Cancelled / DeadlineExceeded); the
     * sweep engine maps that to a skipped design point.
     */
    const CancelToken *cancel = nullptr;
};

/** A fully evaluated mapping for one layer. */
struct MappingChoice
{
    Mapping mapping;
    AccessAnalysis analysis;
    EnergyBreakdown energy; //!< pJ
    RuntimeResult runtime;

    double edp() const { return energy.total() * runtime.cycles; }
};

// A result is copied per scored candidate and per cache entry, so it
// holds no heap state: per-buffer critical-point vectors once cost the
// fig15 sweep about 100 MB of its 610 MB peak RSS.
static_assert(std::is_trivially_copyable_v<MappingChoice>);

/**
 * Evaluate one specific mapping (no search): analyzeMapping(), then
 * computeEnergy() and estimateRuntime().  The one per-mapping
 * evaluator — a pure function of its arguments that any thread may
 * call on any mapping in any order.
 */
MappingChoice evaluateMapping(const ConvLayer &layer,
                              const AcceleratorConfig &cfg,
                              const TechnologyModel &tech,
                              const Mapping &mapping,
                              const AnalysisOptions &options = {});

/**
 * Search the best mapping for one layer.  Returns std::nullopt when
 * no legal candidate exists (the configuration cannot run the layer).
 */
std::optional<MappingChoice>
searchLayer(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const TechnologyModel &tech,
            SearchEffort effort = SearchEffort::Exhaustive,
            Objective objective = Objective::MinEnergy);

/**
 * searchLayer() with explicit execution options: candidate evaluation
 * parallelised across @p search.threads lanes and (optionally)
 * score-bound pruned.  @p stats, when non-null, accumulates work
 * counters.
 */
std::optional<MappingChoice>
searchLayer(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const TechnologyModel &tech, SearchEffort effort,
            Objective objective, const SearchOptions &search,
            SearchStats *stats = nullptr);

/**
 * Search the best mapping for one layer restricted to a spatial
 * combination (figure 11 study).
 */
std::optional<MappingChoice>
searchLayerWithSpatial(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech, PackagePartition pkg,
                       ChipletPartition chip,
                       SearchEffort effort = SearchEffort::Exhaustive,
                       Objective objective = Objective::MinEnergy);

/** Whole-model mapping result. */
struct ModelMappingResult
{
    ModelCost cost;
    std::vector<MappingChoice> choices; //!< one per layer, model order
    bool feasible = true; //!< false if any layer had no legal mapping
    SearchStats stats;    //!< work counters for this call
};

/**
 * Map every layer of @p model with a per-layer search.  Layers with
 * identical shapes share one search (ResNet-style repeated blocks),
 * which the result re-expands to model order.
 */
ModelMappingResult
mapModel(const Model &model, const AcceleratorConfig &cfg,
         const TechnologyModel &tech,
         SearchEffort effort = SearchEffort::Exhaustive,
         Objective objective = Objective::MinEnergy);

/**
 * mapModel() with explicit execution options.  When @p cache is
 * non-null the per-layer memoization uses that (thread-safe,
 * cross-design-point) cache instead of a private one, so repeated
 * shapes are searched once per unique (shape, config) across every
 * caller sharing the cache — the DSE sweep's dominant saving.
 */
ModelMappingResult
mapModel(const Model &model, const AcceleratorConfig &cfg,
         const TechnologyModel &tech, SearchEffort effort,
         Objective objective, const SearchOptions &search,
         MappingCache *cache = nullptr);

} // namespace nnbaton

#endif // NNBATON_MAPPER_SEARCH_HPP
