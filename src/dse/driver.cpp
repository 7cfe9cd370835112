#include "dse/driver.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <optional>
#include <span>
#include <stop_token>
#include <utility>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"

namespace nnbaton {

namespace {

/**
 * The sweep-level metrics finish() mirrors, registered once.  The
 * driver's constructor registers them, before any lane builds a
 * table: registry nodes made at the end of a process's first sweep
 * land among the freed tables and split the heap's free space, which
 * raised the peak RSS of later sweeps in the same process, and of
 * their exports, by about 6.5 MB (glibc malloc, fig15 windows).
 */
struct PointMetrics
{
    obs::Counter *swept, *valid, *areaRejected, *infeasible, *poisoned,
        *skipped, *resumed;
    obs::Gauge *cacheEntries;

    PointMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
        swept = &reg.counter("dse.points.swept");
        valid = &reg.counter("dse.points.valid");
        areaRejected = &reg.counter("dse.points.area_rejected");
        infeasible = &reg.counter("dse.points.infeasible");
        poisoned = &reg.counter("dse.points.poisoned");
        skipped = &reg.counter("dse.points.skipped");
        resumed = &reg.counter("dse.points.resumed");
        cacheEntries = &reg.gauge("dse.cache_entries");
    }
};

PointMetrics &
pointMetrics()
{
    static PointMetrics m;
    return m;
}

/** Unit size when the caller did not pick one: small enough that
 *  every lane gets several units (so stealing has something to steal,
 *  lanes finish together and a crashed worker forfeits little work),
 *  and at most 32 points. */
int64_t
autoUnitPoints(int64_t remaining, size_t lanes)
{
    const int64_t n = static_cast<int64_t>(lanes ? lanes : 1);
    return std::clamp<int64_t>(remaining / (n * 4), 1, 32);
}

/** The un-restored index runs of @p outcomes, cut into contiguous
 *  units of at most @p unitPoints points, in sweep order. */
std::vector<WorkUnit>
chunkUnits(const std::vector<SweepPointOutcome> &outcomes,
           int64_t unitPoints)
{
    std::vector<WorkUnit> units;
    for (int64_t i = 0; i < static_cast<int64_t>(outcomes.size()); ++i) {
        if (outcomes[i].restored)
            continue;
        if (units.empty() || units.back().end != i ||
            units.back().points() == unitPoints)
            units.push_back(WorkUnit{static_cast<int64_t>(units.size()), i, i});
        ++units.back().end;
    }
    return units;
}

} // namespace

ProgressStats
computeProgressStats(int64_t done, int64_t total, int64_t restored,
                     double elapsed_seconds)
{
    ProgressStats s;
    s.total = std::max<int64_t>(0, total);
    s.done = std::clamp<int64_t>(done, 0, s.total);
    s.restored = std::clamp<int64_t>(restored, 0, s.done);
    s.fresh = s.done - s.restored;
    s.remaining = s.total - s.done;
    s.pointsPerSec =
        elapsed_seconds > 0.0
            ? static_cast<double>(s.fresh) / elapsed_seconds
            : 0.0;
    s.etaSeconds = s.remaining > 0 && s.pointsPerSec > 0.0
                       ? static_cast<double>(s.remaining) /
                             s.pointsPerSec
                       : 0.0;
    return s;
}

SweepDriver::SweepDriver(const Model &model, const DseOptions &options,
                         const TechnologyModel &tech, int64_t unitPoints,
                         size_t lanes, double leaseSeconds)
    : model_(model), options_(options), tech_(tech),
      start_(std::chrono::steady_clock::now()),
      tasks_(enumerateSweepTasks(options)),
      fingerprint_(sweepFingerprint(model, options)),
      sink_(options.checkpointPath, options.checkpointEvery, fingerprint_),
      outcomes_(tasks_.size()),
      restored_(options.resumePath.empty()
                    ? 0
                    : restoreSweepCheckpoint(options.resumePath, model,
                                             options, tasks_, outcomes_,
                                             sink_)),
      leases_(chunkUnits(outcomes_,
                         unitPoints > 0
                             ? unitPoints
                             : autoUnitPoints(
                                   static_cast<int64_t>(tasks_.size()) -
                                       restored_,
                                   lanes)),
              leaseSeconds),
      cache_(options.cache ? *options.cache : ownCache_), done_(restored_)
{
    pointMetrics();
    if (!options_.resumePath.empty()) {
        inform("resume: restored %lld of %zu design points from %s",
               static_cast<long long>(restored_), tasks_.size(),
               options_.resumePath.c_str());
    }
    debugLog("sweep: %zu design points, %lld to evaluate in %lld unit(s)",
             tasks_.size(),
             static_cast<long long>(tasks_.size()) - restored_,
             static_cast<long long>(leases_.size()));

    // Progress heartbeat (--progress): lanes update the settled
    // counters, this thread turns them into a log line and
    // dse.progress.* gauges every period.  Observation only — nothing
    // it reads feeds back into the sweep.
    if (options_.progressSeconds > 0) {
        heartbeat_ = std::jthread([this](std::stop_token stop) {
            std::mutex m;
            std::condition_variable_any cv;
            std::unique_lock<std::mutex> lock(m);
            const auto period =
                std::chrono::duration<double>(options_.progressSeconds);
            while (!cv.wait_for(lock, stop, period,
                                [&] { return stop.stop_requested(); }))
                emitProgress();
        });
    }
}

void
SweepDriver::emitProgress()
{
    int64_t done = 0;
    SearchStats s;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        done = done_;
        s = settledStats_;
    }
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    const ProgressStats ps = computeProgressStats(
        done, static_cast<int64_t>(tasks_.size()), restored_, elapsed);
    const auto ratio = [](int64_t part, int64_t whole) {
        return whole ? static_cast<double>(part) / whole : 0.0;
    };
    const double hitRate = ratio(s.cacheHits, s.cacheHits + s.cacheMisses);
    const double pruneRate = ratio(s.pruned, s.evaluated + s.pruned);
    inform("progress: %lld/%lld points (%lld restored), %.1f/s, "
           "eta %.0fs, cache hit %.1f%%, pruned %.1f%%",
           static_cast<long long>(ps.done),
           static_cast<long long>(ps.total),
           static_cast<long long>(ps.restored), ps.pointsPerSec,
           ps.etaSeconds, 100.0 * hitRate, 100.0 * pruneRate);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.gauge("dse.progress.done").set(static_cast<double>(ps.done));
    reg.gauge("dse.progress.total").set(static_cast<double>(ps.total));
    reg.gauge("dse.progress.restored")
        .set(static_cast<double>(ps.restored));
    reg.gauge("dse.progress.points_per_sec").set(ps.pointsPerSec);
    reg.gauge("dse.progress.eta_seconds").set(ps.etaSeconds);
    reg.gauge("dse.progress.cache_hit_rate").set(hitRate);
    reg.gauge("dse.progress.prune_rate").set(pruneRate);
}

bool
SweepDriver::settle(const WorkUnit &unit,
                    std::vector<SweepPointOutcome> outcomes,
                    const SearchStats &carried)
{
    // First completion wins; the winner is the only writer of this
    // unit's outcome slots and checkpoint records, so a late
    // duplicate can never tear them.
    if (!leases_.complete(unit.id))
        return false;
    // A remote unit's reply may carry more ledgers than this build's
    // lanes keep (earlier builds sent one per valid point).
    keepWinnerLedgers(outcomes);
    SearchStats unitStats = carried;
    int64_t settled = 0;
    for (int64_t k = 0; k < unit.points(); ++k) {
        const int64_t i = unit.begin + k;
        SweepPointOutcome &out = outcomes_[i];
        out = std::move(outcomes[static_cast<size_t>(k)]);
        unitStats += out.stats;
        if (out.kind == SweepPointOutcome::Skipped)
            continue;
        sink_.record(tasks_[i], out);
        ++settled;
    }
    std::lock_guard<std::mutex> lock(statsMutex_);
    carried_ += carried;
    settledStats_ += unitStats;
    done_ += settled;
    return true;
}

int64_t
SweepDriver::runLocalLanes()
{
    // A lane claims until the table drains or the sweep is cancelled.
    // A lane that throws (--strict) also fires `stop`, so the others
    // end at their next claim instead of draining the table.
    CancelToken stop;
    stop.linkParent(options_.cancel);
    std::atomic<int64_t> settled{0};
    runLanes(options_.threads, [&] {
        try {
            while (std::optional<WorkUnit> unit = leases_.claim(&stop)) {
                std::vector<SweepPointOutcome> outcomes = evaluateSweepSlice(
                    model_, options_, tech_,
                    std::span<const SweepTask>(tasks_).subspan(
                        static_cast<size_t>(unit->begin),
                        static_cast<size_t>(unit->points())),
                    unit->begin, cache_);
                if (settle(*unit, std::move(outcomes)))
                    settled.fetch_add(1, std::memory_order_relaxed);
            }
        } catch (...) {
            stop.requestCancel();
            throw;
        }
    });
    return settled.load();
}

DseResult
SweepDriver::finish()
{
    if (heartbeat_.joinable()) {
        heartbeat_.request_stop();
        heartbeat_.join();
        emitProgress(); // final line and gauge values
    }

    // A unit no lane settled (the sweep was cancelled) still holds the
    // default outcome kind, which means something else: mark its
    // points Skipped so the collection counts them as such.
    for (const WorkUnit &unit : leases_.incompleteUnits()) {
        for (int64_t i = unit.begin; i < unit.end; ++i)
            outcomes_[i].kind = SweepPointOutcome::Skipped;
    }

    // Deterministic collection in sweep order.
    DseResult result = collectSweepOutcomes(tasks_, outcomes_);
    result.search += carried_;
    result.cacheEntries = static_cast<int64_t>(cache_.size());
    sink_.finish(result.complete);

    if (!result.poisoned.empty()) {
        warn("sweep: %zu design point(s) poisoned (first: %s)",
             result.poisoned.size(),
             result.poisoned.front().error.c_str());
    }
    if (!result.complete) {
        warn("sweep: stopped early (%lld of %lld points skipped): %s",
             static_cast<long long>(result.skipped),
             static_cast<long long>(result.swept),
             options_.cancel
                 ? options_.cancel->toStatus().toString().c_str()
                 : "cancelled");
    }

    // Sweep-level metrics, mirrored once per sweep.
    PointMetrics &m = pointMetrics();
    m.swept->add(result.swept);
    m.valid->add(static_cast<int64_t>(result.points.size()));
    m.areaRejected->add(result.areaRejected);
    m.infeasible->add(result.infeasible);
    m.poisoned->add(static_cast<int64_t>(result.poisoned.size()));
    m.skipped->add(result.skipped);
    m.resumed->add(result.resumed);
    m.cacheEntries->set(static_cast<double>(result.cacheEntries));
    result.elapsedSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    return result;
}

} // namespace nnbaton
