#include "fabric/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "dse/checkpoint.hpp"
#include "dse/slice.hpp"
#include "fabric/lease.hpp"
#include "fabric/wire.hpp"
#include "mapper/cache.hpp"
#include "nn/parser.hpp"

namespace nnbaton {
namespace fabric {

namespace {

/** Unit size when the caller did not pick one: small enough that
 *  every worker gets several units (so stealing has something to
 *  steal and a crashed worker forfeits little work), large enough
 *  that framing cost stays negligible. */
int64_t
autoUnitPoints(int64_t remaining, size_t workers)
{
    const int64_t lanes = static_cast<int64_t>(workers ? workers : 1);
    return std::clamp<int64_t>(remaining / (lanes * 4), 1, 32);
}

} // namespace

DseResult
coordinateSweep(const Model &model, const DseOptions &options,
                const TechnologyModel &tech,
                const FabricOptions &fabric, FabricStats *statsOut)
{
    const auto start = std::chrono::steady_clock::now();

    // Identical enumeration and identity to explore(): the unit
    // space is a partition of the same index space a local sweep
    // walks, which is the whole bit-identity argument.
    const std::vector<SweepTask> tasks = enumerateSweepTasks(options);
    const std::string fingerprint = sweepFingerprint(model, options);
    const std::string techFp = techFingerprintHex(tech);
    const std::string modelText = writeModelText(model);

    CheckpointSink sink(options.checkpointPath, options.checkpointEvery,
                        fingerprint);
    std::vector<SweepPointOutcome> outcomes(tasks.size());

    // Resume exactly like explore() — the checkpoint formats are the
    // same file, so a sweep started locally can finish distributed
    // and vice versa.
    int64_t resumedPoints = 0;
    if (!options.resumePath.empty()) {
        resumedPoints = restoreSweepCheckpoint(
            options.resumePath, model, options, tasks, outcomes, sink);
        inform("fabric: restored %lld of %zu design points from %s",
               static_cast<long long>(resumedPoints), tasks.size(),
               options.resumePath.c_str());
    }

    // Chunk the un-restored index runs into contiguous work units.
    const int64_t remaining =
        static_cast<int64_t>(tasks.size()) - resumedPoints;
    const int64_t unitPoints =
        fabric.unitPoints > 0
            ? fabric.unitPoints
            : autoUnitPoints(remaining, fabric.workers.size());
    std::vector<WorkUnit> units;
    for (int64_t i = 0; i < static_cast<int64_t>(tasks.size());) {
        if (outcomes[i].restored) {
            ++i;
            continue;
        }
        int64_t end = i;
        while (end < static_cast<int64_t>(tasks.size()) &&
               !outcomes[end].restored &&
               end - i < unitPoints)
            ++end;
        units.push_back(WorkUnit{
            static_cast<int64_t>(units.size()), i, end});
        i = end;
    }
    inform("fabric: %zu unit(s) of <=%lld point(s) across %zu "
           "worker(s)",
           units.size(), static_cast<long long>(unitPoints),
           fabric.workers.size());

    FabricStats stats;
    stats.units = static_cast<int64_t>(units.size());

    LeaseTable table(units, fabric.leaseSeconds);
    std::mutex mergeMutex;
    SearchStats remoteStats;
    std::atomic<int64_t> dispatched{0};
    std::atomic<int64_t> completed{0};
    std::atomic<int64_t> retriesTotal{0};
    std::atomic<int64_t> quarantined{0};

    const auto workerMain = [&](const std::string &endpoint) {
        WorkerClient client(endpoint, fabric.worker);
        while (std::optional<WorkUnit> unit =
                   table.claim(options.cancel)) {
            dispatched.fetch_add(1, std::memory_order_relaxed);
            const std::string request = encodeSweepUnitRequest(
                modelText, options, tech, *unit, fingerprint, techFp);
            StatusOr<SweepUnitResult> result = client.callUnit(
                request, *unit, fingerprint, techFp, options.cancel);
            if (result.ok()) {
                // First completion wins; the winner is the only
                // writer of this unit's outcome slots and checkpoint
                // entries, so a late duplicate can never tear them.
                if (!table.complete(unit->id))
                    continue;
                SweepUnitResult unitResult = std::move(result).value();
                for (int64_t k = 0; k < unit->points(); ++k) {
                    const int64_t i = unit->begin + k;
                    outcomes[i] = std::move(
                        unitResult.outcomes[static_cast<size_t>(k)]);
                    sink.record(designPointKey(tasks[i].compute,
                                               tasks[i].memory),
                                outcomes[i]);
                }
                {
                    std::lock_guard<std::mutex> lock(mergeMutex);
                    remoteStats += unitResult.stats;
                }
                completed.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            // This worker is not going to finish the unit: hand it
            // back immediately so a peer can steal it without
            // waiting out the lease.
            table.release(unit->id);
            if (client.quarantined()) {
                warn("fabric: %s", result.status().toString().c_str());
                quarantined.fetch_add(1, std::memory_order_relaxed);
            }
            break; // quarantined or cancelled — this lane is done
        }
        retriesTotal.fetch_add(client.retries(),
                               std::memory_order_relaxed);
    };

    std::vector<std::thread> lanes;
    lanes.reserve(fabric.workers.size());
    if (!units.empty()) {
        for (const std::string &endpoint : fabric.workers)
            lanes.emplace_back(workerMain, endpoint);
    }
    for (std::thread &lane : lanes)
        lane.join();

    // Whatever the fleet did not finish (every worker quarantined,
    // or no workers at all) degrades to in-process evaluation —
    // same slice evaluator the serve daemon runs, same outcomes.
    MappingCache localCache;
    MappingCache &cache = options.cache ? *options.cache : localCache;
    const auto cancelledNow = [&] {
        return options.cancel && options.cancel->cancelled();
    };
    std::vector<WorkUnit> leftover = table.incompleteUnits();
    if (!leftover.empty() && !cancelledNow()) {
        if (!fabric.localFallback) {
            sink.finish(false);
            throwStatus(errUnavailable(
                "fabric: %zu unit(s) unfinished and every worker "
                "lost (local fallback disabled)",
                leftover.size()));
        }
        warn("fabric: evaluating %zu leftover unit(s) locally",
             leftover.size());
        for (const WorkUnit &unit : leftover) {
            if (cancelledNow())
                break;
            std::vector<SweepPointOutcome> local = evaluateSweepSlice(
                model, options, tech,
                std::span<const SweepTask>(tasks).subspan(
                    static_cast<size_t>(unit.begin),
                    static_cast<size_t>(unit.points())),
                unit.begin, cache);
            for (int64_t k = 0; k < unit.points(); ++k) {
                const int64_t i = unit.begin + k;
                outcomes[i] =
                    std::move(local[static_cast<size_t>(k)]);
                sink.record(designPointKey(tasks[i].compute,
                                           tasks[i].memory),
                            outcomes[i]);
            }
            table.complete(unit.id);
            ++stats.localFallbackUnits;
        }
        leftover = table.incompleteUnits();
    }

    // A cancelled sweep leaves units unfinished; their slots must be
    // Skipped explicitly (the default outcome kind means something
    // else) so the collection pass counts them as such.
    for (const WorkUnit &unit : leftover) {
        for (int64_t i = unit.begin; i < unit.end; ++i) {
            if (!outcomes[i].restored)
                outcomes[i].kind = SweepPointOutcome::Skipped;
        }
    }

    DseResult result = collectSweepOutcomes(tasks, outcomes);
    result.search += remoteStats;
    result.cacheEntries = static_cast<int64_t>(cache.size());
    sink.finish(result.complete);

    stats.unitsDispatched = dispatched.load();
    stats.unitsCompleted = completed.load();
    stats.retries = retriesTotal.load();
    stats.leasesExpired = table.leasesExpired();
    stats.workersQuarantined = quarantined.load();
    stats.duplicateCompletions = table.duplicateCompletions();

    if (!result.poisoned.empty()) {
        warn("fabric: %zu design point(s) poisoned (first: %s)",
             result.poisoned.size(),
             result.poisoned.front().error.c_str());
    }
    if (!result.complete) {
        warn("fabric: stopped early (%lld of %lld points skipped): %s",
             static_cast<long long>(result.skipped),
             static_cast<long long>(result.swept),
             options.cancel
                 ? options.cancel->toStatus().toString().c_str()
                 : "cancelled");
    }

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

    result.elapsedSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (statsOut != nullptr)
        *statsOut = stats;
    return result;
}

} // namespace fabric
} // namespace nnbaton
