#include "dse/explorer.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "common/trace.hpp"
#include "dse/checkpoint.hpp"
#include "dse/progress.hpp"
#include "dse/slice.hpp"
#include "mapper/cache.hpp"
#include "verif/fault.hpp"

namespace nnbaton {

SearchEffort
sweepEffort(bool proportional_mem)
{
    return proportional_mem ? SearchEffort::Fast : SearchEffort::Sketch;
}

std::string
DesignPoint::toString() const
{
    return strprintf(
        "%d-%d-%d-%d | O-L1 %lldB A-L1 %lldK W-L1 %lldK A-L2 %lldK | "
        "%.2f mm2 | %.3f mJ %.3f ms",
        compute.chiplets, compute.cores, compute.lanes,
        compute.vectorSize, static_cast<long long>(memory.ol1Bytes),
        static_cast<long long>(memory.al1Bytes / 1024),
        static_cast<long long>(memory.wl1Bytes / 1024),
        static_cast<long long>(memory.al2Bytes / 1024), area.total(),
        cost.energyMj(), runtimeMs());
}

std::optional<size_t>
DseResult::bestEdp() const
{
    std::optional<size_t> best;
    double best_v = std::numeric_limits<double>::max();
    for (size_t i = 0; i < points.size(); ++i) {
        if (points[i].edp() < best_v) {
            best_v = points[i].edp();
            best = i;
        }
    }
    return best;
}

std::optional<size_t>
DseResult::bestEnergy() const
{
    std::optional<size_t> best;
    double best_v = std::numeric_limits<double>::max();
    for (size_t i = 0; i < points.size(); ++i) {
        if (points[i].cost.energy.total() < best_v) {
            best_v = points[i].cost.energy.total();
            best = i;
        }
    }
    return best;
}

DseResult
explore(const Model &model, const DseOptions &options,
        const TechnologyModel &tech)
{
    NNBATON_TRACE_SCOPE("dse.explore");
    const auto start = std::chrono::steady_clock::now();

    // Flatten the sweep into an index space first; the evaluation
    // order then no longer matters and the collection pass below
    // reproduces the serial ordering exactly.  The same enumeration
    // feeds the fabric coordinator, which is what lets a distributed
    // sweep merge bit-identically with this one.
    const std::vector<SweepTask> tasks = enumerateSweepTasks(options);
    debugLog("explore: %zu design points to evaluate on %d lane(s)",
             tasks.size(), options.threads);

    const std::string fingerprint = sweepFingerprint(model, options);
    CheckpointSink sink(options.checkpointPath, options.checkpointEvery,
                        fingerprint);

    std::vector<SweepPointOutcome> outcomes(tasks.size());

    // Restore previously evaluated points before spawning workers.
    int64_t resumedPoints = 0;
    if (!options.resumePath.empty()) {
        resumedPoints = restoreSweepCheckpoint(
            options.resumePath, model, options, tasks, outcomes, sink);
        inform("resume: restored %lld of %zu design points from %s",
               static_cast<long long>(resumedPoints), tasks.size(),
               options.resumePath.c_str());
    }

    // Progress heartbeat (--progress): workers bump relaxed atomics,
    // a sweep-side thread turns them into a log line and
    // dse.progress.* gauges every period.  Observation only — the
    // counters feed nothing back into the sweep.
    std::atomic<int64_t> progressDone{resumedPoints};
    std::atomic<int64_t> progressHits{0};
    std::atomic<int64_t> progressMisses{0};
    std::atomic<int64_t> progressEvaluated{0};
    std::atomic<int64_t> progressPruned{0};
    const auto emitProgress = [&] {
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   start)
                                   .count();
        const ProgressStats ps = computeProgressStats(
            progressDone.load(std::memory_order_relaxed),
            static_cast<int64_t>(tasks.size()), resumedPoints,
            elapsed);
        const int64_t hits =
            progressHits.load(std::memory_order_relaxed);
        const int64_t misses =
            progressMisses.load(std::memory_order_relaxed);
        const int64_t evaluated =
            progressEvaluated.load(std::memory_order_relaxed);
        const int64_t pruned =
            progressPruned.load(std::memory_order_relaxed);
        const double hitRate =
            hits + misses
                ? static_cast<double>(hits) / (hits + misses)
                : 0.0;
        const double pruneRate =
            evaluated + pruned
                ? static_cast<double>(pruned) / (evaluated + pruned)
                : 0.0;
        inform("progress: %lld/%lld points (%lld restored), %.1f/s, "
               "eta %.0fs, cache hit %.1f%%, pruned %.1f%%",
               static_cast<long long>(ps.done),
               static_cast<long long>(ps.total),
               static_cast<long long>(ps.restored), ps.pointsPerSec,
               ps.etaSeconds, 100.0 * hitRate, 100.0 * pruneRate);
        obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
        reg.gauge("dse.progress.done")
            .set(static_cast<double>(ps.done));
        reg.gauge("dse.progress.total")
            .set(static_cast<double>(ps.total));
        reg.gauge("dse.progress.restored")
            .set(static_cast<double>(ps.restored));
        reg.gauge("dse.progress.points_per_sec").set(ps.pointsPerSec);
        reg.gauge("dse.progress.eta_seconds").set(ps.etaSeconds);
        reg.gauge("dse.progress.cache_hit_rate").set(hitRate);
        reg.gauge("dse.progress.prune_rate").set(pruneRate);
    };
    // RAII so a --strict rethrow from the pool cannot leak a thread
    // still referencing this frame.
    struct Heartbeat
    {
        std::mutex m;
        std::condition_variable cv;
        bool stopRequested = false;
        std::thread thread;

        void
        stop()
        {
            if (!thread.joinable())
                return;
            {
                std::lock_guard<std::mutex> lock(m);
                stopRequested = true;
            }
            cv.notify_all();
            thread.join();
        }

        ~Heartbeat() { stop(); }
    } heartbeat;
    if (options.progressSeconds > 0) {
        heartbeat.thread = std::thread([&] {
            std::unique_lock<std::mutex> lock(heartbeat.m);
            const auto period = std::chrono::duration<double>(
                options.progressSeconds);
            while (!heartbeat.cv.wait_for(
                lock, period,
                [&] { return heartbeat.stopRequested; })) {
                emitProgress();
            }
        });
    }

    // One cache of memory-axis tables serves every design point: the
    // table II grid revisits each compute geometry at every memory
    // allocation.  Search results are reused only within a point, by
    // repeated layer shapes (mapModel() memoises those).
    MappingCache localCache;
    MappingCache &cache = options.cache ? *options.cache : localCache;
    ThreadPool pool(options.threads);
    pool.parallelFor(
        static_cast<int64_t>(tasks.size()), [&](int64_t i) {
            SweepPointOutcome &out = outcomes[i];
            if (out.restored)
                return;
            if (options.cancel && options.cancel->cancelled()) {
                out.kind = SweepPointOutcome::Skipped;
                progressDone.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            out = evaluateSweepPointGuarded(model, options, tech,
                                            tasks[i], i, cache);
            if (out.kind == SweepPointOutcome::Skipped)
                return;
            sink.record(designPointKey(tasks[i].compute,
                                       tasks[i].memory),
                        out);
            progressDone.fetch_add(1, std::memory_order_relaxed);
            progressHits.fetch_add(out.stats.cacheHits,
                                   std::memory_order_relaxed);
            progressMisses.fetch_add(out.stats.cacheMisses,
                                     std::memory_order_relaxed);
            progressEvaluated.fetch_add(out.stats.evaluated,
                                        std::memory_order_relaxed);
            progressPruned.fetch_add(out.stats.pruned,
                                     std::memory_order_relaxed);
            verif::notifyPointCompleted(options.cancel);
        });

    if (options.progressSeconds > 0) {
        heartbeat.stop();
        emitProgress(); // final 100% line and gauge values
    }

    // Deterministic collection in sweep order.
    DseResult result = collectSweepOutcomes(tasks, outcomes);
    result.cacheEntries = static_cast<int64_t>(cache.size());
    sink.finish(result.complete);

    if (!result.poisoned.empty()) {
        warn("explore: %zu design point(s) poisoned (first: %s)",
             result.poisoned.size(),
             result.poisoned.front().error.c_str());
    }
    if (!result.complete) {
        warn("explore: stopped early (%lld of %lld points skipped): %s",
             static_cast<long long>(result.skipped),
             static_cast<long long>(result.swept),
             options.cancel
                 ? options.cancel->toStatus().toString().c_str()
                 : "cancelled");
    }

    // Sweep-level metrics, mirrored once per explore() call.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.counter("dse.points.swept").add(result.swept);
    reg.counter("dse.points.valid")
        .add(static_cast<int64_t>(result.points.size()));
    reg.counter("dse.points.area_rejected").add(result.areaRejected);
    reg.counter("dse.points.infeasible").add(result.infeasible);
    reg.counter("dse.points.poisoned")
        .add(static_cast<int64_t>(result.poisoned.size()));
    reg.counter("dse.points.skipped").add(result.skipped);
    reg.counter("dse.points.resumed").add(result.resumed);
    reg.gauge("dse.cache_entries")
        .set(static_cast<double>(result.cacheEntries));
    result.elapsedSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return result;
}

} // namespace nnbaton
