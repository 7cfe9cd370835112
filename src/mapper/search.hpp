/**
 * @file
 * The post-design mapping search: for a fixed hardware configuration,
 * find the per-layer mapping minimising energy (or EDP) by exhaustive
 * evaluation of the candidate space (paper sections IV-D, V-C).
 */

#ifndef NNBATON_MAPPER_SEARCH_HPP
#define NNBATON_MAPPER_SEARCH_HPP

#include <cstddef>
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

/**
 * Candidates are searched in fixed blocks: pruning decisions use the
 * incumbent frozen at the block boundary, and cancellation is polled
 * once per block.  The block size fixes the `evaluated` and `pruned`
 * counters that the golden files and perfbench pins record, so it
 * must stay a constant.  Memory-axis search plans are cut at the same
 * boundaries (MemoryAxisTable::Plan).
 */
inline constexpr size_t kPruneBlock = 32;

/** Search objective. */
enum class Objective
{
    MinEnergy, //!< minimise total energy (the paper's default)
    MinEdp,    //!< minimise energy-delay product
};

/**
 * Work counters for the mapping search.  All counters are
 * deterministic: pruning decisions are made at fixed block
 * boundaries, a memory-axis table returns the same counters as
 * enumeration, and repeats are counted within one mapModel() call, so
 * the totals do not depend on what a shared cache held before.
 */
struct SearchStats
{
    int64_t evaluated = 0;   //!< candidates given the full C3P analysis
    int64_t pruned = 0;      //!< candidates skipped by the score bound
    int64_t cacheHits = 0;   //!< layers answered by an earlier layer of
                             //!< the same shape in the model
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
    /** Read by nothing: a search runs on its caller's thread.  Kept
     *  only so callers that still set it compile. */
    int threads = 1;

    /** Skip candidates whose cheap score lower bound (mapper/
     *  bound.hpp) cannot beat the incumbent.  Sound: never changes
     *  the selected mapping. */
    bool boundPruning = true;

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

// A result is copied per scored candidate and per memoised shape, so it
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
 * Search the best mapping for one layer, on the calling thread.
 * Returns std::nullopt when no legal candidate exists (the
 * configuration cannot run the layer).  @p stats, when non-null,
 * accumulates work counters.
 */
std::optional<MappingChoice>
searchLayer(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const TechnologyModel &tech,
            SearchEffort effort = SearchEffort::Exhaustive,
            Objective objective = Objective::MinEnergy,
            const SearchOptions &search = {},
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
 * Map every layer of @p model with a per-layer search, on the calling
 * thread.  Layers with identical shapes share one search
 * (ResNet-style repeated blocks), which the result re-expands to
 * model order.  No result outlives the call.
 *
 * When @p cache is non-null, the searches draw their candidates from
 * its memory-axis tables (thread-safe, shared across design points),
 * so a shape searched again at another memory allocation of the same
 * compute geometry skips enumeration — the DSE sweep's dominant
 * saving.  Results and counters are the same with or without it.
 */
ModelMappingResult
mapModel(const Model &model, const AcceleratorConfig &cfg,
         const TechnologyModel &tech,
         SearchEffort effort = SearchEffort::Exhaustive,
         Objective objective = Objective::MinEnergy,
         const SearchOptions &search = {},
         MappingCache *cache = nullptr);

} // namespace nnbaton

#endif // NNBATON_MAPPER_SEARCH_HPP
