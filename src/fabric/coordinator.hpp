/**
 * @file
 * The distributed sweep coordinator: the sweep driver
 * (dse/driver.hpp) with one remote lane per `nn-baton serve` worker.
 *
 * The determinism contract is the driver's: the coordinator leases
 * contiguous units of the same task enumeration a local sweep walks,
 * validates every response against the sweep and technology
 * fingerprints (fabric/wire.hpp), and settles it through the same
 * first-completion-wins path a local lane uses — so the merged report
 * is bit-identical to a single-process run no matter how units were
 * scattered, retried, stolen or re-evaluated.
 *
 * Fault tolerance, by layer:
 *
 *  - per-attempt: WorkerClient re-sends its outstanding units
 *    (kUnitsInFlight per lane) on a fresh connection after
 *    exponential backoff, and quarantines misbehaving endpoints;
 *  - per-unit: leases expire and units are re-issued to other
 *    workers (work stealing), first completion wins;
 *  - per-sweep: once every worker is quarantined the driver's local
 *    lanes evaluate the remaining units, and the checkpoint (the same
 *    file a local sweep writes) lets a killed coordinator resume.
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
     *  comfortably exceed two units' evaluation time (a lane's second
     *  unit waits behind its first); expiry is the crash/straggler
     *  recovery path, not the common case. */
    double leaseSeconds = 60.0;

    /** Per-worker connect/IO/retry/quarantine policy. */
    WorkerPolicy worker;
};

/** What the fabric did, for logs / tests / metrics. */
struct FabricStats
{
    int64_t units = 0;             //!< work units in the sweep
    int64_t unitsDispatched = 0;   //!< units claimed for workers
    int64_t unitsCompleted = 0;    //!< first completions by workers
    int64_t retries = 0; //!< failed worker attempts that were retried
    int64_t leasesExpired = 0;     //!< re-issues of expired leases
    int64_t workersQuarantined = 0;
    int64_t duplicateCompletions = 0; //!< late finishes, dropped
    int64_t localFallbackUnits = 0;   //!< units evaluated in-process
};

/**
 * Run the pre-design sweep for @p model distributed across
 * @p fabric.workers.  Honours the same DseOptions surface as
 * explore(): checkpointPath / resumePath (same file format — the two
 * are interchangeable), cancel, progressSeconds, and threads and
 * strict for the local lanes (remote workers always quarantine
 * poisoned points).  Throws StatusError like explore() does for
 * unusable inputs, and INVALID_ARGUMENT for an effort the workers
 * cannot rebuild.
 */
DseResult coordinateSweep(const Model &model, const DseOptions &options,
                          const TechnologyModel &tech,
                          const FabricOptions &fabric,
                          FabricStats *statsOut = nullptr);

} // namespace fabric
} // namespace nnbaton

#endif // NNBATON_FABRIC_COORDINATOR_HPP
