/**
 * @file
 * The one sweep driver: explore() and the fabric coordinator are this
 * driver with different lanes.  Lanes claim contiguous WorkUnits of
 * the task enumeration from one LeaseTable (dse/lease.hpp): a local
 * lane evaluates its unit with evaluateSweepSlice(), a remote lane
 * (fabric/coordinator.cpp) ships it to a serve worker.  The first
 * completion of a unit settles it; finish() folds the outcomes in task
 * order, so the result is bit-identical to the serial sweep however
 * the units were scattered.
 */

#ifndef NNBATON_DSE_DRIVER_HPP
#define NNBATON_DSE_DRIVER_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"
#include "dse/lease.hpp"
#include "dse/slice.hpp"
#include "mapper/cache.hpp"

namespace nnbaton {

/** One heartbeat's figures, derived by computeProgressStats(). */
struct ProgressStats
{
    int64_t done = 0;     //!< points complete, restored included
    int64_t total = 0;    //!< points in the sweep
    int64_t restored = 0; //!< points seeded from the resume checkpoint
    int64_t fresh = 0;    //!< points actually computed this run
    int64_t remaining = 0;

    /** Throughput of *this run*: fresh points over elapsed time.
     *  Restored points cost no sweep time, so counting them would
     *  inflate the rate right after a resume. */
    double pointsPerSec = 0.0;

    /** Remaining work over this run's fresh rate; 0 when finished and
     *  also 0 (unknown) before the first fresh point lands. */
    double etaSeconds = 0.0;

    bool finished() const { return remaining == 0; }
};

/** Heartbeat figures from raw counters; @p done includes the
 *  @p restored points.  Negative inputs and done < restored are
 *  clamped, so an inconsistent read never yields a negative rate or
 *  ETA. */
ProgressStats computeProgressStats(int64_t done, int64_t total,
                                   int64_t restored,
                                   double elapsed_seconds);

class SweepDriver
{
  public:
    /**
     * Enumerate and fingerprint the sweep, open options.checkpointPath,
     * restore options.resumePath, chunk the rest into units of
     * @p unitPoints (<= 0: several units for each of @p lanes, at most
     * 32 points) leased for @p leaseSeconds, and start the --progress
     * heartbeat.  Throws like enumerateSweepTasks() and
     * restoreSweepCheckpoint().  Borrows its arguments.
     */
    SweepDriver(const Model &model, const DseOptions &options,
                const TechnologyModel &tech, int64_t unitPoints,
                size_t lanes, double leaseSeconds);

    SweepDriver(const SweepDriver &) = delete;
    SweepDriver &operator=(const SweepDriver &) = delete;

    const std::string &fingerprint() const { return fingerprint_; }

    /** The table every lane claims its units from. */
    LeaseTable &leases() { return leases_; }

    /**
     * Settle finished @p unit: unless an earlier completion did (then
     * false), take @p outcomes (slot k holds task unit.begin + k) into
     * the sweep with the ledgers of the unit's winners only
     * (keepWinnerLedgers()), checkpoint them and count them, Skipped
     * points excepted, as progress.  @p carried holds search counters
     * the outcomes do not (a remote unit's aggregate).
     */
    bool settle(const WorkUnit &unit,
                std::vector<SweepPointOutcome> outcomes,
                const SearchStats &carried = {});

    /**
     * Run options.threads local lanes until every unit is settled or
     * the sweep is cancelled; returns the units they settled.  Under
     * options.strict the first point that throws stops every lane at
     * its next claim and is rethrown here.
     */
    int64_t runLocalLanes();

    /**
     * End the sweep once every lane has: the last heartbeat, unsettled
     * units' points marked Skipped, collection, the checkpoint's final
     * flush, warnings and the dse.points.* metrics.
     */
    DseResult finish();

  private:
    /** One heartbeat line and the dse.progress.* gauges. */
    void emitProgress();

    const Model &model_;
    const DseOptions &options_;
    const TechnologyModel &tech_;
    const std::chrono::steady_clock::time_point start_;
    const std::vector<SweepTask> tasks_;
    const std::string fingerprint_;
    CheckpointSink sink_;
    std::vector<SweepPointOutcome> outcomes_; //!< one slot per task
    const int64_t restored_; //!< points restored from the resume
    LeaseTable leases_;

    MappingCache ownCache_;
    MappingCache &cache_; //!< options.cache, else ownCache_

    std::mutex statsMutex_;
    SearchStats carried_;      //!< settled counters no outcome holds
    SearchStats settledStats_; //!< every settled unit's counters
    int64_t done_;             //!< restored plus settled points

    std::jthread heartbeat_; //!< last member: stops and joins first
};

} // namespace nnbaton

#endif // NNBATON_DSE_DRIVER_HPP
