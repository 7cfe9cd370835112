/**
 * @file
 * The `sweep` and `fabric` workloads: the figure 15 pre-design sweep
 * of a three-layer DarkNet-19 window, run in-process at one thread
 * (`sweep`) and distributed over two freshly started one-lane `serve`
 * workers (`fabric`).  Both give the same pinned answer, so the
 * fabric's cost over the sweep is distribution cost alone.
 */

#include <cstdio>
#include <optional>

#include "baton/baton.hpp"
#include "daemon.hpp"
#include "dse/checkpoint.hpp"
#include "dse/slice.hpp"
#include "dse/space.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/wire.hpp"
#include "inputs.hpp"
#include "mapper/cache.hpp"
#include "nn/parser.hpp"
#include "replay.hpp"
#include "serve/protocol.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nnbaton;

namespace {

/** Set-ups taken before every op and after the last, so that setup_s
 *  (their median) samples the same stretch of the host's time as the
 *  ops: a shared host runs the same code up to half again as fast in
 *  some minutes as in others. */
constexpr int kSweepSetUpsPerOp = 3;
constexpr int kFabricSetUpsPerOp = 6;

/** Wall time, CPU time and answers of repeated sweep ops. */
struct SweepPass
{
    int64_t ops = 0;
    int64_t points = 0;
    double seconds = 0.0;
    double cpuSec = 0.0;
    Tally tally;
    std::string digest;
    PreDesignReport last; //!< the traced op's answer

    /** Both 0 when no op gave an answer (the run then reports failed
     *  ops). */
    double pointsPerSec() const
    {
        return points > 0 ? points / seconds : 0.0;
    }
    double cpuMsPerPoint() const
    {
        return points > 0 ? cpuSec * 1e3 / points : 0.0;
    }
};

/** Check one sweep answer and count its design points. */
void
checkSweepAnswer(const Options &o, const SweepInput &in,
                 const PreDesignReport &report, const std::string &answer,
                 SweepPass &pass)
{
    tallySweepAnswer(o.pins, in.key, in.model, in.options, report, answer,
                     pass.tally);
    pass.points += report.sweep.swept;
    pass.digest = digestHex(answer);
}

/** Add kSweepSetUpsPerOp cold set-ups of `sweep` to @p setups, each
 *  in a fresh process of this executable (coldSweepSetUp). */
void
coldSetUps(const Options &o, std::vector<double> &setups)
{
    for (int i = 0; i < kSweepSetUpsPerOp; ++i) {
        const std::string out = runChild(
            o.selfExe, {"--cold-setup", "--seed", std::to_string(o.seed)},
            o.workFile("setup-stderr"));
        setups.push_back(std::stod(out));
    }
}

/** One sweep op (PreDesignFlow::run + lean export), added to @p pass. */
void
sweepOp(const Options &o, const SweepInput &in, SweepPass &pass)
{
    const double cpu0 = processCpuSec();
    const double t0 = nowSec();
    PreDesignReport report;
    std::string answer;
    try {
        report = PreDesignFlow(in.options).run(in.model);
        answer = leanPreExport(report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: sweep op threw: %s\n", e.what());
        pass.tally.add(1, 1);
        return;
    }
    pass.seconds += nowSec() - t0;
    pass.cpuSec += processCpuSec() - cpu0;
    ++pass.ops;
    checkSweepAnswer(o, in, report, answer, pass);
}

/** The sweep as explore() runs it, one public step at a time, with a
 *  span around each call. */
SweepPass
tracedSweep(const Options &o, const SweepInput &in)
{
    SweepPass pass;
    const TechnologyModel &tech = defaultTech();
    const double t0 = nowSec();
    PreDesignReport report;
    std::string answer;
    try {
        SpanScope root("bench.sweep", 1);
        std::vector<SweepTask> tasks;
        {
            SpanScope span("dse.enumerateSweepTasks", 1);
            tasks = enumerateSweepTasks(in.options);
        }
        MappingCache cache;
        std::vector<SweepPointOutcome> outcomes(tasks.size());
        for (size_t i = 0; i < tasks.size(); ++i) {
            SpanScope span("dse.evaluateSweepPoint", i + 1);
            try {
                outcomes[i] = evaluateSweepPoint(in.model, in.options, tech,
                                                 tasks[i], cache);
            } catch (const std::exception &e) {
                outcomes[i] = SweepPointOutcome();
                outcomes[i].kind = SweepPointOutcome::Poisoned;
                outcomes[i].error = e.what();
            }
        }
        {
            SpanScope span("dse.collectSweepOutcomes", 1);
            report.sweep = collectSweepOutcomes(tasks, outcomes);
            report.sweep.cacheEntries = static_cast<int64_t>(cache.size());
            if (auto best = report.sweep.bestEdp())
                report.recommended = report.sweep.points[*best];
        }
        {
            SpanScope span("baton.exportPreDesign", 1);
            answer = leanPreExport(report);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: traced sweep threw: %s\n", e.what());
        pass.tally.add(1, 1);
        return pass;
    }
    pass.seconds = nowSec() - t0;
    pass.ops = 1;
    checkSweepAnswer(o, in, report, answer, pass);
    pass.last = std::move(report);
    return pass;
}

/** Configurations of the valid design points of @p report. */
std::vector<AcceleratorConfig>
validConfigs(const PreDesignReport &report)
{
    std::vector<AcceleratorConfig> out;
    for (const DesignPoint &p : report.sweep.points)
        out.push_back(makeConfig(p.compute, p.memory));
    return out;
}

/** dse and mapper counters of one sweep answer (exact per seed). */
void
addSweepCounts(RunResult &r, const DseResult &sweep)
{
    r.add("dse.points", static_cast<double>(sweep.swept), "count", 1);
    r.add("dse.valid", static_cast<double>(sweep.points.size()), "count",
          1);
    addSearchCounts(r, sweep.search);
}

/** Stage replays on a seeded sample of the sweep's searched pairs. */
void
replaySweepStages(RunResult &r, const Options &o, const SweepInput &in,
                  const PreDesignReport &report)
{
    const std::vector<SearchPair> pairs =
        samplePairs(searchedPairs(in.model, validConfigs(report)),
                    kReplayPairs, o.seed);
    const ReplayStats st =
        replayStages(pairs, in.options.effort, in.options.objective);
    addStageMetrics(r, st);
    printTopShapes(o.workload, st);
}

/** One fabric op: two cold workers, one coordinated sweep. */
struct FabricOp
{
    double setupSec = 0.0;
    double seconds = 0.0;
    double cpuSec = 0.0; //!< coordinator plus workers
    double workerPeakRssMb = 0.0;
    fabric::FabricStats stats;
    std::string accessLogs[2];
};

/**
 * Start both workers cold and wait until each answers a ping.  Returns
 * their set-up time: the sum of each worker's own start, from entering
 * its daemon body to listening, timed inside it.  Process creation and
 * the first round trip are left out: they are hand-offs between CPUs,
 * which on a shared host moved the median of the whole start by a
 * third between two sets of runs, while the workers' own start held.
 */
double
startWorkers(const Options &o, const std::string &tag,
             std::optional<DaemonProcess> (&workers)[2],
             std::string (&accessLogs)[2])
{
    double seconds = 0.0;
    for (int w = 0; w < 2; ++w) {
        accessLogs[w] =
            o.workFile("fabric-access-" + tag + "-" + std::to_string(w));
        std::remove(accessLogs[w].c_str());
        workers[w].emplace(o.selfExe, 1, accessLogs[w],
                           o.workFile("daemon-stderr"));
        LineClient client(workers[w]->port());
        std::string reply;
        if (!client.call("{\"op\":\"ping\"}", reply))
            throw std::runtime_error("fabric worker does not answer");
        seconds += workers[w]->startSec();
    }
    return seconds;
}

/** Add kFabricSetUpsPerOp worker set-ups to @p setups, stopping the
 *  workers after each. */
void
workerSetUps(const Options &o, std::vector<double> &setups)
{
    for (int i = 0; i < kFabricSetUpsPerOp; ++i) {
        std::optional<DaemonProcess> workers[2];
        std::string logs[2];
        setups.push_back(startWorkers(o, "setup", workers, logs));
        for (auto &w : workers)
            w->stop();
    }
}

FabricOp
fabricOp(const Options &o, const SweepInput &in, SweepPass &pass, int index)
{
    FabricOp op;
    std::optional<DaemonProcess> workers[2];
    {
        SpanScope span("fabric.startWorkers", index + 1);
        op.setupSec =
            startWorkers(o, std::to_string(index), workers, op.accessLogs);
    }

    fabric::FabricOptions fabricOptions;
    fabricOptions.workers = {workers[0]->endpoint(), workers[1]->endpoint()};
    const double cpu0 = processCpuSec();
    const double t1 = nowSec();
    PreDesignReport report;
    std::string answer;
    bool threw = false;
    try {
        {
            SpanScope span("fabric.coordinateSweep", index + 1);
            report.sweep = fabric::coordinateSweep(in.model, in.options,
                                                   defaultTech(),
                                                   fabricOptions, &op.stats);
        }
        if (auto best = report.sweep.bestEdp())
            report.recommended = report.sweep.points[*best];
        SpanScope span("baton.exportPreDesign", index + 1);
        answer = leanPreExport(report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: fabric op threw: %s\n", e.what());
        threw = true;
    }
    op.seconds = nowSec() - t1;
    op.cpuSec = processCpuSec() - cpu0;
    {
        SpanScope span("fabric.stopWorkers", index + 1);
        for (auto &w : workers) {
            const DaemonUsage u = w->stop();
            op.cpuSec += u.cpuSec;
            op.workerPeakRssMb = std::max(op.workerPeakRssMb, u.peakRssMb);
        }
    }
    if (threw) {
        pass.tally.add(1, 1);
        return op;
    }
    pass.seconds += op.seconds;
    pass.cpuSec += op.cpuSec;
    ++pass.ops;
    checkSweepAnswer(o, in, report, answer, pass);
    pass.last = std::move(report);
    return op;
}

/**
 * Re-encode every unit's request, send it to a fresh one-lane worker
 * and re-parse its answer, timing the wire steps; @p transportUs
 * receives each round trip minus the worker's own durationUs for it.
 * False when a request or answer does not parse.
 */
bool
replayWire(const Options &o, const SweepInput &in, int64_t units,
           std::vector<double> &transportUs)
{
    const TechnologyModel &tech = defaultTech();
    const std::vector<SweepTask> tasks = enumerateSweepTasks(in.options);
    const int64_t n = static_cast<int64_t>(tasks.size());
    const int64_t size = (n + units - 1) / units;
    const std::string modelText = writeModelText(in.model);
    const std::string sweepFp = sweepFingerprint(in.model, in.options);
    const std::string techFp = fabric::techFingerprintHex(tech);
    const std::string accessLog = o.workFile("fabric-access-wire");
    std::remove(accessLog.c_str());
    DaemonProcess worker(o.selfExe, 1, accessLog,
                         o.workFile("daemon-stderr"));
    std::vector<double> rttUs;
    bool ok = true;
    {
        LineClient client(worker.port());
        for (int64_t id = 0, begin = 0; ok && begin < n;
             ++id, begin += size) {
            const fabric::WorkUnit unit{id, begin, std::min(n, begin + size)};
            std::string request;
            {
                SpanScope span("fabric.encodeSweepUnitRequest", id + 1);
                request = fabric::encodeSweepUnitRequest(
                    modelText, in.options, tech, unit, sweepFp, techFp);
            }
            {
                SpanScope span("serve.parseRequest", id + 1);
                ok = serve::parseRequest(request).ok();
            }
            std::string response;
            const int64_t t0 = nowNs();
            ok = ok && client.call(request, response);
            rttUs.push_back((nowNs() - t0) * 1e-3);
            SpanScope span("fabric.parseSweepUnitResponse", id + 1);
            ok = ok && fabric::parseSweepUnitResponse(response, unit, sweepFp,
                                                      techFp)
                           .ok();
        }
    }
    worker.stop();
    size_t i = 0;
    for (const AccessEntry &e : readAccessLog(accessLog)) {
        if (e.op == "sweepUnit" && i < rttUs.size())
            transportUs.push_back(rttUs[i++] - e.durationUs);
    }
    return ok && transportUs.size() == rttUs.size();
}

} // namespace

double
coldSweepSetUp(uint64_t seed)
{
    const double t0 = nowSec();
    const SweepInput in = makeSweepInput(seed);
    return nowSec() - t0;
}

RunResult
runSweep(const Options &o)
{
    RunResult r;
    const SweepInput in = makeSweepInput(o.seed);
    if (!o.trace) {
        // Each op, with the set-ups before it, runs on the next CPU in
        // turn.  On a shared host one CPU can run this single thread up
        // to a third slower than another for minutes, and the scheduler
        // keeps a lone thread where it is, so a run that stayed on one
        // CPU would measure that CPU's neighbours more than the program.
        const std::vector<int> cpus = allowedCpus();
        std::vector<double> setups;
        SweepPass pass;
        size_t turn = 0;
        do {
            if (!cpus.empty())
                pinToCpu(cpus[turn++ % cpus.size()]);
            coldSetUps(o, setups);
            sweepOp(o, in, pass);
        } while (pass.seconds < o.seconds && pass.tally.failed == 0);
        coldSetUps(o, setups);
        r.tally = pass.tally;
        r.add("setup_s", medianOfRepeats(setups), "s",
              static_cast<int64_t>(setups.size()));
        r.add("ops_per_s", pass.pointsPerSec(), "1/s", pass.ops);
        r.add("cpu_ms_per_op", pass.cpuMsPerPoint(), "ms", pass.ops);
        r.add("peak_rss_mb", peakRssMb(), "MB", 1);
        std::printf("answer_digest %s %s\n", in.key.c_str(),
                    pass.digest.c_str());
        return r;
    }

    SweepPass untraced;
    sweepOp(o, in, untraced);
    tracer().setEnabled(true);
    const SweepPass traced = tracedSweep(o, in);
    r.tally = untraced.tally;
    r.tally.add(traced.tally.attempted, traced.tally.failed);
    if (untraced.points == 0 || traced.points == 0) {
        // An op threw: nothing below has data.
        finishTrace(r, o);
        return r;
    }
    if (traced.digest != untraced.digest) {
        std::fprintf(stderr, "perfbench: traced sweep answer differs\n");
        r.tally.failed += traced.points;
    }
    addTracingOverhead(r, untraced.pointsPerSec(), traced.pointsPerSec());
    addSweepCounts(r, traced.last.sweep);
    addSpanMean(r, "dse.point_us", "dse.evaluateSweepPoint", 1e3, "us");
    r.add("dse.collect_ms",
          (spanMean("dse.enumerateSweepTasks", 1e6) +
           spanMean("dse.collectSweepOutcomes", 1e6)),
          "ms", 2);
    addSpanMean(r, "baton.export_ms", "baton.exportPreDesign", 1e6, "ms");
    r.add("baton.export_kb", leanPreExport(traced.last).size() / 1024.0,
          "kB", 1);
    for (int i = 0; i < 20; ++i) {
        SpanScope span("nn.makeDarkNet19", i + 1);
        makeDarkNet19(in.model.inputResolution());
    }
    addSpanMean(r, "nn.model_build_us", "nn.makeDarkNet19", 1e3, "us");
    replaySweepStages(r, o, in, traced.last);
    finishTrace(r, o);
    return r;
}

RunResult
runFabric(const Options &o)
{
    RunResult r;
    const SweepInput in = makeSweepInput(o.seed);
    SweepPass pass;
    std::vector<double> setups, rss;
    int index = 0;
    do {
        if (!o.trace)
            workerSetUps(o, setups);
        const FabricOp op = fabricOp(o, in, pass, index++);
        setups.push_back(op.setupSec);
        rss.push_back(op.workerPeakRssMb);
    } while (!o.trace && pass.seconds < o.seconds && pass.tally.failed == 0);

    if (!o.trace) {
        workerSetUps(o, setups);
        r.tally = pass.tally;
        r.add("setup_s", medianOfRepeats(setups), "s",
              static_cast<int64_t>(setups.size()));
        r.add("ops_per_s", pass.pointsPerSec(), "1/s", pass.ops);
        r.add("cpu_ms_per_op", pass.cpuMsPerPoint(), "ms", pass.ops);
        r.add("peak_rss_mb", medianOfRepeats(rss), "MB",
              static_cast<int64_t>(rss.size()));
        std::printf("answer_digest %s %s\n", in.key.c_str(),
                    pass.digest.c_str());
        return r;
    }

    const double untracedRate = pass.pointsPerSec();
    tracer().setEnabled(true);
    SweepPass traced;
    const FabricOp op = fabricOp(o, in, traced, index);
    tracer().setEnabled(false);
    r.tally = pass.tally;
    r.tally.add(traced.tally.attempted, traced.tally.failed);
    if (traced.points == 0 || op.stats.units == 0) {
        // The traced op threw or ran no unit: nothing below has data.
        r.tally.failed = std::max<int64_t>(r.tally.failed, 1);
        finishTrace(r, o);
        return r;
    }
    addTracingOverhead(r, untracedRate, traced.pointsPerSec());
    addSweepCounts(r, traced.last.sweep);

    std::vector<double> unitUs;
    int64_t errors = 0, refused = 0;
    for (const std::string &log : op.accessLogs) {
        for (const AccessEntry &e : readAccessLog(log)) {
            if (e.op != "sweepUnit")
                continue;
            unitUs.push_back(e.durationUs);
            errors += e.outcome != "OK";
            refused += e.outcome == "UNAVAILABLE";
        }
    }
    double busyUs = 0.0;
    for (double us : unitUs)
        busyUs += us;
    const int64_t units = static_cast<int64_t>(unitUs.size());
    r.add("fabric.units", static_cast<double>(op.stats.units), "count", 1);
    r.add("fabric.dispatched", static_cast<double>(op.stats.unitsDispatched),
          "count", 1);
    r.add("fabric.retries", static_cast<double>(op.stats.retries), "count",
          1);
    r.add("fabric.leases_expired",
          static_cast<double>(op.stats.leasesExpired), "count", 1);
    r.add("fabric.local_fallback_units",
          static_cast<double>(op.stats.localFallbackUnits), "count", 1);
    r.add("fabric.unit_ms", units ? busyUs * 1e-3 / units : 0.0, "ms", units);
    r.add("fabric.worker_busy_ratio", busyUs * 1e-6 / (2.0 * op.seconds),
          "ratio", units);
    r.add("serve.handle_us_p50", percentile(unitUs, 50).value_or(0.0), "us",
          units);
    r.add("serve.handle_us_p99", percentile(unitUs, 99).value_or(0.0), "us",
          units);
    r.add("serve.errors", static_cast<double>(errors), "count", units);
    r.add("serve.refused", static_cast<double>(refused), "count", units);

    // The same seed's in-process sweep, for the fabric's efficiency.
    SweepPass local;
    sweepOp(o, in, local);
    r.tally.add(local.tally.attempted, local.tally.failed);
    if (local.digest != traced.digest) {
        std::fprintf(stderr, "perfbench: fabric and sweep answers differ\n");
        r.tally.failed += traced.points;
    }
    r.add("fabric.efficiency",
          local.points > 0 ? untracedRate / (2.0 * local.pointsPerSec())
                           : 0.0,
          "ratio", 1);

    tracer().setEnabled(true);
    std::vector<double> transportUs;
    r.tally.add(1, replayWire(o, in, op.stats.units, transportUs) ? 0 : 1);
    r.add("serve.transport_us_p50",
          percentile(transportUs, 50).value_or(0.0), "us",
          static_cast<int64_t>(transportUs.size()));
    addSpanMean(r, "fabric.wire.encode_us", "fabric.encodeSweepUnitRequest",
                1e3, "us");
    addSpanMean(r, "fabric.wire.decode_us", "fabric.parseSweepUnitResponse",
                1e3, "us");
    addSpanMean(r, "serve.parse_us", "serve.parseRequest", 1e3, "us");
    addSpanMean(r, "baton.export_ms", "baton.exportPreDesign", 1e6, "ms");
    r.add("baton.export_kb", leanPreExport(traced.last).size() / 1024.0,
          "kB", 1);
    const std::string modelText = writeModelText(in.model);
    for (int i = 0; i < 20; ++i) {
        SpanScope span("nn.parseModelString", i + 1);
        parseModelString(modelText);
    }
    addSpanMean(r, "nn.model_build_us", "nn.parseModelString", 1e3, "us");
    replaySweepStages(r, o, in, traced.last);
    finishTrace(r, o);
    return r;
}

} // namespace perfbench
