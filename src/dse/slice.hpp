/**
 * @file
 * The sweep decomposed into its order-independent pieces, so one
 * design-point evaluation pipeline serves both places a unit of the
 * sweep is evaluated:
 *
 *  - a local lane of the sweep driver (dse/driver.hpp), which runs
 *    explore() and whatever units a lost fabric fleet left;
 *  - the serve daemon's `sweepUnit` op, which evaluates one unit on
 *    behalf of a remote lane.
 *
 * The contract that makes distribution safe: enumerateSweepTasks() is
 * a pure function of DseOptions (deterministic order), every task is
 * evaluated independently, and collectSweepOutcomes() folds a full
 * outcome vector into a DseResult in task order.  Any partition of
 * the index space, evaluated anywhere, merges back bit-identically to
 * the serial sweep.
 */

#ifndef NNBATON_DSE_SLICE_HPP
#define NNBATON_DSE_SLICE_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "mapper/cache.hpp"

namespace nnbaton {

/** One enumerated design point, in deterministic sweep order. */
struct SweepTask
{
    ComputeAllocation compute;
    MemoryAllocation memory;
};

/**
 * The sweep's task index space: the table II grid (or the
 * proportional-memory diagonal) flattened in the canonical order that
 * indexes checkpoints, work units and poisoned-point reports.  Task i
 * is found by index arithmetic over the compute x memory grid, so a
 * fabric worker materialises just its unit.
 */
class SweepTaskSpace
{
  public:
    /** Throws StatusError(InvalidArgument) when no compute allocation
     *  yields the requested MAC count. */
    explicit SweepTaskSpace(const DseOptions &options);

    /** Number of tasks. */
    int64_t size() const;

    /** Tasks [begin, end): slot k holds task begin + k.  Throws
     *  StatusError(InvalidArgument) unless 0 <= begin <= end <=
     *  size(). */
    std::vector<SweepTask> range(int64_t begin, int64_t end) const;

  private:
    std::vector<ComputeAllocation> computes_;
    std::span<const MemoryAllocation> memories_; //!< empty when proportional
    bool proportional_ = false;
};

/** The full task list for @p options, SweepTaskSpace order.  Throws
 *  like SweepTaskSpace's constructor. */
std::vector<SweepTask> enumerateSweepTasks(const DseOptions &options);

/** One contiguous slice [begin, end) of the task enumeration, the
 *  unit a sweep lane claims (dse/lease.hpp). */
struct WorkUnit
{
    int64_t id = -1;
    int64_t begin = 0;
    int64_t end = 0;

    int64_t points() const { return end - begin; }
};

/** Per-design-point evaluation outcome, kept in sweep order so any
 *  parallel or distributed collection is bit-identical to serial.
 *  The one record of a settled point: checkpoints and the fabric's
 *  sweepUnit replies carry it through writeSweepOutcomeJson()
 *  (dse/checkpoint.hpp). */
struct SweepPointOutcome
{
    enum Kind
    {
        AreaRejected,
        Infeasible,
        Valid,
        Poisoned, //!< evaluation threw; quarantined with the error
        Skipped,  //!< not evaluated (cancellation / deadline)
    };
    Kind kind = AreaRejected;
    DesignPoint point;
    SearchStats stats;
    std::string error;     //!< Poisoned only: the captured Status
    bool restored = false; //!< prefilled from a checkpoint
};

/**
 * Evaluate one task.  Propagates exceptions (the caller owns
 * quarantine policy); honours options.cancel through the mapping
 * search.
 */
SweepPointOutcome evaluateSweepPoint(const Model &model,
                                     const DseOptions &options,
                                     const TechnologyModel &tech,
                                     const SweepTask &task,
                                     MappingCache &cache);

/**
 * Evaluate a contiguous slice of the sweep serially: @p slice holds
 * tasks [begin, begin + slice.size()), and slot k of the result holds
 * task begin + k's outcome, under the sweep's fault policy, so a
 * slice evaluated remotely merges without translation.  Each point
 * first passes through verif::injectPointFault with its absolute
 * sweep index.  A Cancelled or DeadlineExceeded error marks it
 * Skipped; any other error is rethrown under options.strict and
 * otherwise quarantines the point as Poisoned with its status text.
 * A fired options.cancel marks the remaining slots Skipped.
 */
std::vector<SweepPointOutcome>
evaluateSweepSlice(const Model &model, const DseOptions &options,
                   const TechnologyModel &tech,
                   std::span<const SweepTask> slice, int64_t begin,
                   MappingCache &cache);

/**
 * Fold a full outcome vector (one slot per task, sweep order) into a
 * DseResult: points, classification counters, poisoned list, summed
 * SearchStats and the complete flag.  cacheEntries / elapsedSeconds
 * are the caller's to fill.  Consumes the outcomes (points are moved
 * out).
 */
DseResult collectSweepOutcomes(const std::vector<SweepTask> &tasks,
                               std::vector<SweepPointOutcome> &outcomes);

} // namespace nnbaton

#endif // NNBATON_DSE_SLICE_HPP
