/**
 * @file
 * The distributed sweep coordinator: the fault-tolerant counterpart of
 * explore() (dse/explorer.hpp) that shards the fingerprinted design
 * space across `nn-baton serve` workers instead of local threads.
 *
 * The determinism contract is inherited from dse/slice.hpp: the
 * coordinator enumerates the same task list as a local sweep, leases
 * contiguous units of it to workers (fabric/lease.hpp), validates
 * every response against the sweep and technology fingerprints
 * (fabric/wire.hpp), and folds the completed outcome vector with the
 * same collectSweepOutcomes() a local sweep uses — so the merged
 * report is bit-identical to a single-process run no matter how units
 * were scattered, retried, stolen or re-evaluated.
 *
 * Fault tolerance, by layer:
 *
 *  - per-attempt: WorkerClient retries transient failures with
 *    exponential backoff and quarantines misbehaving endpoints;
 *  - per-unit: leases expire and units are re-issued to other
 *    workers (work stealing), first completion wins;
 *  - per-sweep: when every worker is quarantined the remaining units
 *    degrade to local in-process evaluation, and the coordinator's
 *    checkpoint (same format as --checkpoint, interchangeable with a
 *    local sweep's) lets a killed coordinator resume mid-sweep.
 */

#ifndef NNBATON_FABRIC_COORDINATOR_HPP
#define NNBATON_FABRIC_COORDINATOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "fabric/worker.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"

namespace nnbaton {
namespace fabric {

/** Coordinator knobs. */
struct FabricOptions
{
    /** Worker endpoints ("host:port" or Unix socket paths). */
    std::vector<std::string> workers;

    /** Design points per leased unit; <= 0 picks a size that gives
     *  each worker several units to steal from. */
    int64_t unitPoints = 0;

    /** Lease TTL before an unfinished unit becomes stealable.  Should
     *  comfortably exceed a unit's evaluation time; expiry is the
     *  crash/straggler recovery path, not the common case. */
    double leaseSeconds = 60.0;

    /** Per-worker connect/IO/retry/quarantine policy. */
    WorkerPolicy worker;
};

/** What the fabric did, for logs / tests / metrics. */
struct FabricStats
{
    int64_t units = 0;             //!< work units in the sweep
    int64_t unitsDispatched = 0;   //!< claim → worker call attempts
    int64_t unitsCompleted = 0;    //!< first completions by workers
    int64_t retries = 0;           //!< worker attempt retries
    int64_t leasesExpired = 0;     //!< re-issues of expired leases
    int64_t workersQuarantined = 0;
    int64_t duplicateCompletions = 0; //!< late finishes, dropped
    int64_t localFallbackUnits = 0;   //!< units evaluated in-process
};

/**
 * Run the pre-design sweep for @p model distributed across
 * @p fabric.workers.  Honours the same DseOptions resilience surface
 * as explore(): checkpointPath / resumePath (same file format — the
 * two are interchangeable), cancel, strict (local fallback only;
 * remote workers always quarantine poisoned points).  Throws
 * StatusError like explore() does for unusable inputs.
 */
DseResult coordinateSweep(const Model &model, const DseOptions &options,
                          const TechnologyModel &tech,
                          const FabricOptions &fabric,
                          FabricStats *statsOut = nullptr);

} // namespace fabric
} // namespace nnbaton

#endif // NNBATON_FABRIC_COORDINATOR_HPP
