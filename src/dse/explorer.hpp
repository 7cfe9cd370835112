/**
 * @file
 * The pre-design flow: sweep the table II space under MAC-count and
 * chiplet-area budgets, evaluate each design with the optimal
 * per-layer mapping, and report energy / runtime / EDP (paper
 * sections IV-D and VI-B), on the sweep driver (dse/driver.hpp).
 */

#ifndef NNBATON_DSE_EXPLORER_HPP
#define NNBATON_DSE_EXPLORER_HPP

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "arch/area.hpp"
#include "common/cancel.hpp"
#include "cost/ledger.hpp"
#include "dse/space.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

/**
 * One evaluated hardware design.  A sweep ranks designs by their model
 * totals; cost.layers, the per-layer ledger, is kept only for the
 * sweep's bestEdp() and bestEnergy() points (see SweepWinners) and is
 * empty on every other point of a DseResult.
 */
struct DesignPoint
{
    ComputeAllocation compute;
    MemoryAllocation memory;
    AreaBreakdown area; //!< per-chiplet area
    ModelCost cost;     //!< whole-model cost with optimal mappings
    double clockGhz = 0.5; //!< core clock used for runtime reporting,
                           //!< taken from the TechnologyModel

    double edp() const { return cost.edp(); }

    /** Runtime in milliseconds at the technology model's clock. */
    double runtimeMs() const { return cost.runtimeMs(clockGhz); }

    /** e.g. "2-8-16-16 | A-L1 32K W-L1 144K A-L2 64K | 2.86mm2". */
    std::string toString() const;
};

/**
 * The two winners among design points offered in sweep order: the
 * first point with the least EDP and the first with the least energy.
 * A later point wins only on a strictly smaller score, so a tie goes
 * to the earlier point.  DseResult::bestEdp() and bestEnergy() and the
 * sweep lanes, which keep a per-layer ledger for these points only,
 * apply this one rule.
 */
class SweepWinners
{
  public:
    /** Offer the point at @p index; indices must increase. */
    void offer(size_t index, const DesignPoint &point);

    std::optional<size_t> edp() const { return edp_; }
    std::optional<size_t> energy() const { return energy_; }

    /** True when the point at @p index is either winner. */
    bool has(size_t index) const
    {
        return edp_ == index || energy_ == index;
    }

  private:
    std::optional<size_t> edp_;
    std::optional<size_t> energy_;
    double edpScore_ = std::numeric_limits<double>::max();
    double energyScore_ = std::numeric_limits<double>::max();
};

/** The search effort a sweep runs at: Fast under proportional memory
 *  (figure 14), Sketch on the table II grid.  The CLI and the daemon
 *  both derive it this way; a fabric sweep must, because its workers
 *  rebuild the effort from the proportional flag. */
SearchEffort sweepEffort(bool proportional_mem);

/** Sweep options. */
struct DseOptions
{
    int64_t totalMacs = 2048;       //!< required MAC units
    double areaLimitMm2 = 0.0;      //!< per-chiplet; <= 0: unconstrained
    bool proportionalMem = false;   //!< figure 14 mode (vs table II grid)
    SearchEffort effort = SearchEffort::Fast;
    Objective objective = Objective::MinEnergy;

    /** Local lanes for the sweep (including the caller); <= 1 runs
     *  serially.  Under coordinateSweep() they evaluate only what a
     *  lost fleet left.  Results are bit-identical across thread
     *  counts. */
    int threads = 1;

    /** Score-bound pruning inside the mapping search (sound). */
    bool boundPruning = true;

    /**
     * Progress heartbeat period in seconds (--progress[=secs]; <= 0
     * disables).  A sweep-side thread logs points done/total,
     * points/sec, ETA and cache-hit / prune rates every period and
     * mirrors them as dse.progress.* gauges, so a long sweep, local
     * or distributed, is monitorable mid-flight.  Observation only:
     * never changes results.
     */
    double progressSeconds = 0.0;

    /**
     * Fail-fast mode (--strict): the first design point whose
     * evaluation throws aborts the whole sweep by rethrowing.  The
     * default quarantines such points into DseResult::poisoned and
     * keeps sweeping.
     */
    bool strict = false;

    /** Checkpoint file; empty disables checkpointing. */
    std::string checkpointPath;

    /** Flush the checkpoint every N completed design points (the
     *  final flush always happens). */
    int checkpointEvery = 32;

    /** Resume from this checkpoint; empty starts fresh.  Throws
     *  StatusError(FailedPrecondition) when the file was written for
     *  a different model or options. */
    std::string resumePath;

    /**
     * Cooperative cancellation (deadline / SIGINT).  Borrowed, may be
     * null.  Once it fires, remaining design points are skipped, the
     * sweep finishes collection and returns with complete == false.
     */
    CancelToken *cancel = nullptr;

    /**
     * Shared memory-axis tables (borrowed, may be null).  The sweep
     * defaults to a private cache scoped to one explore() call; a
     * long-lived caller (the serving daemon) passes its process-wide
     * cache here so tables stay warm across sweeps.  Tables hold no
     * technology or objective state, so sharing them is safe, and
     * results and work counters do not depend on what the cache held
     * before.
     */
    MappingCache *cache = nullptr;
};

/** A design point whose evaluation threw (quarantined, not fatal). */
struct PoisonedPoint
{
    ComputeAllocation compute;
    MemoryAllocation memory;
    int64_t sweepIndex = 0; //!< position in the deterministic sweep
                            //!< order — rerun with the same options to
                            //!< reproduce
    std::string error;      //!< the captured Status, stringified
};

/** Sweep result. */
struct DseResult
{
    /** Valid designs in sweep order.  Only the bestEdp() and
     *  bestEnergy() points carry a per-layer ledger, whatever the lane
     *  count, unit size or resume split. */
    std::vector<DesignPoint> points;
    int64_t swept = 0;               //!< combos considered
    int64_t areaRejected = 0;        //!< failed the area budget
    int64_t infeasible = 0;          //!< no legal mapping for a layer

    /** Mapping-search work counters, summed over the sweep;
     *  deterministic across thread counts (see SearchStats). */
    SearchStats search;

    /** Wall-clock seconds spent in explore() (not deterministic). */
    double elapsedSeconds = 0.0;

    /** Memory-axis tables resident in the sweep's cache at the end. */
    int64_t cacheEntries = 0;

    /** Design points whose evaluation threw, quarantined with the
     *  error (empty under --strict, which rethrows instead). */
    std::vector<PoisonedPoint> poisoned;

    /** Points not evaluated because cancellation / deadline fired. */
    int64_t skipped = 0;

    /** Points restored from a --resume checkpoint (their search work
     *  counters are not re-counted; see dse/checkpoint.hpp). */
    int64_t resumed = 0;

    /** False when the sweep was cut short (skipped > 0). */
    bool complete = true;

    /** Index of the minimum-EDP point, if any. */
    std::optional<size_t> bestEdp() const;

    /** Index of the minimum-energy point, if any. */
    std::optional<size_t> bestEnergy() const;
};

/**
 * Run the pre-design sweep for @p model.
 *
 * Resilience: a design point whose evaluation throws is quarantined
 * into DseResult::poisoned (unless options.strict), a fired
 * options.cancel token skips the remaining points and marks the
 * result incomplete, and options.checkpointPath / resumePath persist
 * and restore evaluated points so an interrupted sweep resumed with
 * identical options reproduces the same points, classification counts
 * and winner bit-for-bit.
 */
DseResult explore(const Model &model, const DseOptions &options,
                  const TechnologyModel &tech);

} // namespace nnbaton

#endif // NNBATON_DSE_EXPLORER_HPP
