/**
 * @file
 * Figure 15 reproduction: full design space exploration for 4096-MAC
 * multichip accelerators over the table II memory grid, under a
 * 3 mm^2 chiplet-area constraint, for three benchmarks.  The paper
 * finds 5800 valid points out of >100k sweeps, the optimum always at
 * the 2-8-16-16 computation allocation, and model-dependent memory
 * allocations.
 *
 * This harness prints the energy/runtime scatter summarised per
 * chiplet count (the figure's colour classes) plus the optimum design
 * per model, then times the same sweep serially and with the parallel
 * engine, verifies the two produce bit-identical results, and writes
 * the timings and search counters to BENCH_dse.json.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>

#include "baton/baton.hpp"
#include "mapper/search.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "common/util.hpp"

using namespace nnbaton;

namespace {

DseOptions
figureOptions()
{
    DseOptions opt;
    opt.totalMacs = 4096;
    opt.areaLimitMm2 = 3.0;
    opt.effort = SearchEffort::Sketch;
    opt.objective = Objective::MinEdp;
    return opt;
}

void
printModel(const Model &model, int threads)
{
    std::printf("\n--- model %s @%d ---\n", model.name().c_str(),
                model.inputResolution());
    DseOptions opt = figureOptions();
    opt.threads = threads;
    const DseResult r = explore(model, opt, defaultTech());
    std::printf("sweep: %lld combos, %zu valid, %lld over area, %lld "
                "infeasible (%.2f s)\n",
                static_cast<long long>(r.swept), r.points.size(),
                static_cast<long long>(r.areaRejected),
                static_cast<long long>(r.infeasible),
                r.elapsedSeconds);
    std::printf("search: %lld evaluated, %lld pruned, %lld cache hits "
                "/ %lld misses (%lld tables)\n",
                static_cast<long long>(r.search.evaluated),
                static_cast<long long>(r.search.pruned),
                static_cast<long long>(r.search.cacheHits),
                static_cast<long long>(r.search.cacheMisses),
                static_cast<long long>(r.cacheEntries));

    // The figure's colour classes: summarise the valid cloud per N_P.
    struct Class
    {
        int n = 0;
        double best_energy = 1e300;
        double best_runtime = 1e300;
    };
    std::map<int, Class> classes;
    for (const auto &p : r.points) {
        Class &c = classes[p.compute.chiplets];
        ++c.n;
        c.best_energy = std::min(c.best_energy, p.cost.energyMj());
        c.best_runtime = std::min(c.best_runtime, p.runtimeMs());
    }
    TextTable t({"chiplets", "valid points", "best energy mJ",
                 "best runtime ms"});
    for (const auto &[np, c] : classes) {
        t.newRow()
            .add(static_cast<int64_t>(np))
            .add(static_cast<int64_t>(c.n))
            .add(c.best_energy, 3)
            .add(c.best_runtime, 3);
    }
    t.print(std::cout);

    if (auto best = r.bestEdp()) {
        std::printf("optimum (min EDP) under 3 mm^2: %s\n",
                    r.points[*best].toString().c_str());
    }
}

void
printFigure(int threads)
{
    std::printf("=== Figure 15: 4096-MAC design space exploration "
                "(table II grid, 3 mm^2 limit) ===\n");
    printModel(makeVgg16(512), threads);
    printModel(makeResNet50(512), threads);
    printModel(makeDarkNet19(224), threads);
    std::printf(
        "\nexpected shape: designs with fewer chiplets trade area for "
        "lower EDP (layered point clouds); the optimal computation "
        "allocation under the constraint is stable across models "
        "while the recommended memory allocation is model-dependent "
        "(larger A-L1 for 512-input models, smaller W-L1 for "
        "DarkNet@224) (paper section VI-B.2).\n\n");
}

/** Same sweep classification and bit-identical design points. */
bool
samePoints(const DseResult &a, const DseResult &b)
{
    if (a.swept != b.swept || a.areaRejected != b.areaRejected ||
        a.infeasible != b.infeasible ||
        a.points.size() != b.points.size())
        return false;
    for (size_t i = 0; i < a.points.size(); ++i) {
        const DesignPoint &p = a.points[i];
        const DesignPoint &q = b.points[i];
        if (p.compute.chiplets != q.compute.chiplets ||
            p.compute.cores != q.compute.cores ||
            p.compute.lanes != q.compute.lanes ||
            p.compute.vectorSize != q.compute.vectorSize ||
            p.memory.ol1Bytes != q.memory.ol1Bytes ||
            p.memory.al1Bytes != q.memory.al1Bytes ||
            p.memory.wl1Bytes != q.memory.wl1Bytes ||
            p.memory.al2Bytes != q.memory.al2Bytes)
            return false;
        // Bit-identical scores, not approximately equal.
        if (p.cost.energy.total() != q.cost.energy.total() ||
            p.edp() != q.edp())
            return false;
    }
    return true;
}

/** Everything the engine promises to keep thread-count independent. */
bool
identicalResults(const DseResult &a, const DseResult &b)
{
    return samePoints(a, b) &&
           a.search.evaluated == b.search.evaluated &&
           a.search.pruned == b.search.pruned &&
           a.search.cacheHits == b.search.cacheHits &&
           a.search.cacheMisses == b.search.cacheMisses;
}

/**
 * Serial-vs-parallel timing on the DarkNet@224 sweep (the smallest of
 * the three), with the determinism cross-check the parallel engine
 * guarantees.  Writes BENCH_dse.json for machine consumption.
 */
void
benchSweep(int threads)
{
    const Model model = makeDarkNet19(224);
    DseOptions opt = figureOptions();

    // The timed serial and parallel sweeps run with tracing disabled,
    // keeping the numbers comparable across revisions.  A third,
    // traced parallel sweep measures the tracing-enabled overhead, and
    // its span histograms (the registry is reset just before it) give
    // the per-phase breakdown for BENCH_dse.json.  The histograms count
    // every span.  The trace keeps each thread's newest 2^20 spans and
    // overwrites older ones, so it still holds the one dse.explore
    // span, which ends last.
    opt.threads = 1;
    const DseResult serial = explore(model, opt, defaultTech());
    opt.threads = threads;
    const DseResult parallel = explore(model, opt, defaultTech());

    obs::MetricsRegistry::instance().reset();
    obs::setTracingEnabled(true);
    const DseResult traced = explore(model, opt, defaultTech());
    obs::setTracingEnabled(false);
    obs::MetricsSnapshot phases;
    phases.histograms = obs::spanHistograms();
    int64_t explore_spans = 0;
    obs::forEachTraceEvent([&](const obs::TraceEvent &e) {
        explore_spans += std::string_view(e.name) == "dse.explore";
    });

    const bool identical = identicalResults(serial, parallel) &&
                           identicalResults(parallel, traced);
    const double speedup =
        parallel.elapsedSeconds > 0.0
            ? serial.elapsedSeconds / parallel.elapsedSeconds
            : 0.0;
    const double trace_overhead =
        parallel.elapsedSeconds > 0.0
            ? traced.elapsedSeconds / parallel.elapsedSeconds - 1.0
            : 0.0;

    std::printf("=== DSE sweep engine: serial vs %d threads "
                "(darknet19@224) ===\n",
                threads);
    std::printf("serial:   %.2f s\n", serial.elapsedSeconds);
    std::printf("parallel: %.2f s  (speedup %.2fx)\n",
                parallel.elapsedSeconds, speedup);
    std::printf("traced:   %.2f s  (tracing overhead %+.1f%%)\n",
                traced.elapsedSeconds, 100.0 * trace_overhead);
    std::printf("results bit-identical: %s\n",
                identical ? "yes" : "NO (BUG)");

    std::printf("%s", obs::formatMetrics(phases).c_str());

    std::ofstream out("BENCH_dse.json");
    JsonWriter j(out);
    j.beginObject();
    j.field("model", model.name());
    j.field("resolution", model.inputResolution());
    j.field("threads", threads);
    j.field("hardware_threads", hardwareThreads());
    j.field("serial_seconds", serial.elapsedSeconds);
    j.field("parallel_seconds", parallel.elapsedSeconds);
    j.field("speedup", speedup);
    j.field("traced_seconds", traced.elapsedSeconds);
    j.field("trace_overhead", trace_overhead);
    j.field("trace_dropped_events", obs::droppedTraceEvents());
    j.field("trace_explore_spans", explore_spans);
    j.field("identical", identical);
    j.key("sweep").beginObject();
    j.field("swept", serial.swept);
    j.field("valid", static_cast<int64_t>(serial.points.size()));
    j.field("area_rejected", serial.areaRejected);
    j.field("infeasible", serial.infeasible);
    j.endObject();
    j.key("search").beginObject();
    j.field("evaluated", serial.search.evaluated);
    j.field("pruned", serial.search.pruned);
    j.field("cache_hits", serial.search.cacheHits);
    j.field("cache_misses", serial.search.cacheMisses);
    j.field("cache_entries", serial.cacheEntries);
    j.endObject();
    j.key("phases");
    obs::writeMetricsJson(j, phases);
    j.endObject();
    out << "\n";
    std::printf("wrote BENCH_dse.json\n\n");
}

void
BM_Fig15SingleConfig(benchmark::State &state)
{
    const Model model = makeDarkNet19(224);
    const AcceleratorConfig cfg =
        makeConfig({2, 8, 16, 16},
                   MemoryAllocation{96, 32_KB, 144_KB, 128_KB});
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapModel(model, cfg, defaultTech(),
                                          SearchEffort::Fast));
    }
}
BENCHMARK(BM_Fig15SingleConfig)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    // --sweep-only: just the timed sweeps + BENCH_dse.json (the CI
    // mode-block check), skipping the figure tables and gbench runs.
    bool sweep_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--sweep-only")
            sweep_only = true;
    }
    const int threads = std::max(4, hardwareThreads());
    if (!sweep_only)
        printFigure(threads);
    benchSweep(threads);
    if (sweep_only)
        return 0;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
