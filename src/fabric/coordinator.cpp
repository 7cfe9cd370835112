#include "fabric/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "dse/driver.hpp"
#include "fabric/wire.hpp"
#include "nn/parser.hpp"

namespace nnbaton {
namespace fabric {

DseResult
coordinateSweep(const Model &model, const DseOptions &options,
                const TechnologyModel &tech,
                const FabricOptions &fabric, FabricStats *statsOut)
{
    // The effort does not travel: a worker rebuilds it from the
    // proportional flag, so under any other effort every worker would
    // fail the fingerprint gate and the whole sweep would run here.
    if (options.effort != sweepEffort(options.proportionalMem)) {
        throwStatus(errInvalidArgument(
            "fabric: a distributed sweep runs at the effort its workers "
            "derive (Fast under proportional memory, else Sketch), not "
            "effort %d",
            static_cast<int>(options.effort)));
    }

    // The same driver as explore(): the units partition the index
    // space a local sweep walks, which is the whole bit-identity
    // argument, and a checkpoint from either resumes in the other.
    SweepDriver driver(model, options, tech, fabric.unitPoints,
                       fabric.workers.size(), fabric.leaseSeconds);
    LeaseTable &table = driver.leases();
    const std::string &fingerprint = driver.fingerprint();
    const std::string techFp = techFingerprintHex(tech);
    const std::string modelText = writeModelText(model);
    inform("fabric: %lld unit(s) across %zu worker(s)",
           static_cast<long long>(table.size()), fabric.workers.size());

    FabricStats stats;
    stats.units = table.size();
    std::atomic<int64_t> dispatched{0};
    std::atomic<int64_t> completed{0};
    std::atomic<int64_t> retriesTotal{0};
    std::atomic<int64_t> quarantined{0};

    // One remote lane per worker, keeping kUnitsInFlight units
    // outstanding on its connection so the worker evaluates the next
    // unit while the lane decodes and settles the last reply.
    const auto workerMain = [&](const std::string &endpoint) {
        WorkerClient client(endpoint, fabric.worker);
        for (;;) {
            // Only an idle lane waits for a claim: one that still
            // holds a unit must not wait on its own live lease at the
            // sweep's tail.
            while (client.outstanding() < kUnitsInFlight) {
                std::optional<WorkUnit> unit =
                    client.outstanding() == 0 ? table.claim(options.cancel)
                                              : table.tryClaim();
                if (!unit)
                    break;
                dispatched.fetch_add(1, std::memory_order_relaxed);
                client.submit(*unit, encodeSweepUnitRequest(
                                         modelText, options, tech, *unit,
                                         fingerprint, techFp));
            }
            if (client.outstanding() == 0)
                break; // every unit complete, or cancelled

            const WorkUnit unit = client.oldest();
            StatusOr<SweepUnitResult> result =
                client.receive(fingerprint, techFp, options.cancel);
            if (!result.ok()) {
                // This worker is not going to finish its units: hand
                // every one back so peers can steal them without
                // waiting out the leases.
                for (const WorkUnit &held : client.takeOutstanding())
                    table.release(held.id);
                if (client.quarantined()) {
                    warn("fabric: %s", result.status().toString().c_str());
                    quarantined.fetch_add(1, std::memory_order_relaxed);
                }
                break; // quarantined or cancelled — this lane is done
            }
            SweepUnitResult unitResult = std::move(result).value();
            if (driver.settle(unit, std::move(unitResult.outcomes),
                              unitResult.stats))
                completed.fetch_add(1, std::memory_order_relaxed);
        }
        retriesTotal.fetch_add(client.retries(),
                               std::memory_order_relaxed);
    };

    std::vector<std::thread> lanes;
    lanes.reserve(fabric.workers.size());
    if (table.size() > 0) {
        for (const std::string &endpoint : fabric.workers)
            lanes.emplace_back(workerMain, endpoint);
    }
    for (std::thread &lane : lanes)
        lane.join();

    // Whatever the fleet did not finish (every worker quarantined, or
    // no workers at all) goes to the driver's local lanes, in parallel
    // on options.threads, now that no remote lane is left to race.
    if (!table.allDone() &&
        !(options.cancel && options.cancel->cancelled())) {
        warn("fabric: evaluating %zu leftover unit(s) on %d local "
             "lane(s)",
             table.incompleteUnits().size(), std::max(1, options.threads));
        stats.localFallbackUnits = driver.runLocalLanes();
    }
    DseResult result = driver.finish();

    stats.unitsDispatched = dispatched.load();
    stats.unitsCompleted = completed.load();
    stats.retries = retriesTotal.load();
    stats.leasesExpired = table.leasesExpired();
    stats.workersQuarantined = quarantined.load();
    stats.duplicateCompletions = table.duplicateCompletions();

    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.counter("fabric.units.dispatched").add(stats.unitsDispatched);
    reg.counter("fabric.units.completed").add(stats.unitsCompleted);
    reg.counter("fabric.units.local_fallback")
        .add(stats.localFallbackUnits);
    reg.counter("fabric.retries").add(stats.retries);
    reg.counter("fabric.leases.expired").add(stats.leasesExpired);
    reg.counter("fabric.workers.quarantined")
        .add(stats.workersQuarantined);
    reg.counter("fabric.duplicate_completions")
        .add(stats.duplicateCompletions);

    if (statsOut != nullptr)
        *statsOut = stats;
    return result;
}

} // namespace fabric
} // namespace nnbaton
