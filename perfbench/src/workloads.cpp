#include "workloads.hpp"

#include <cstdio>
#include <set>

#include "trace.hpp"

namespace perfbench {

std::string
Options::workFile(const std::string &stem) const
{
    return workDir + "/" + stem + "-" + workload + "-" +
           std::to_string(seed) + (trace ? "-trace" : "") + ".log";
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> metrics =
        {
            {"dse.points", "count"},
            {"dse.valid", "count"},
            {"dse.point_us", "us"},
            {"dse.collect_ms", "ms"},
            {"mapper.cache.hits", "count"},
            {"mapper.cache.misses", "count"},
            {"mapper.evaluated", "count"},
            {"mapper.pruned", "count"},
            {"mapper.prune_ratio", "ratio"},
            {"mapper.search_ms", "ms"},
            {"mapper.search_ns_per_candidate", "ns"},
            {"mapper.candidates", "count"},
            {"mapper.enumerate_us", "us"},
            {"mapper.bound_ns", "ns"},
            {"mapper.lane_busy_ratio", "ratio"},
            {"c3p.analyze_ns", "ns"},
            {"cost.energy_ns", "ns"},
            {"sim.runtime_ns", "ns"},
            {"nn.model_build_us", "us"},
            {"baton.export_ms", "ms"},
            {"baton.export_kb", "kB"},
            {"serve.parse_us", "us"},
            {"serve.handle_us_p50", "us"},
            {"serve.handle_us_p99", "us"},
            {"serve.transport_us_p50", "us"},
            {"serve.errors", "count"},
            {"serve.refused", "count"},
            {"fabric.units", "count"},
            {"fabric.dispatched", "count"},
            {"fabric.retries", "count"},
            {"fabric.leases_expired", "count"},
            {"fabric.local_fallback_units", "count"},
            {"fabric.unit_ms", "ms"},
            {"fabric.worker_busy_ratio", "ratio"},
            {"fabric.wire.encode_us", "us"},
            {"fabric.wire.decode_us", "us"},
            {"fabric.efficiency", "ratio"},
            {"trace.overhead_pct", "%"},
        };
    return metrics;
}

double
spanMean(const std::string &name, double unitNs)
{
    const auto totals = tracer().byName();
    auto it = totals.find(name);
    if (it == totals.end() || it->second.calls == 0)
        return 0.0;
    return static_cast<double>(it->second.totalNs) / it->second.calls /
           unitNs;
}

void
addSpanMean(RunResult &r, const std::string &metric, const std::string &span,
            double unitNs, const std::string &unit)
{
    const auto totals = tracer().byName();
    auto it = totals.find(span);
    const int64_t calls = it == totals.end() ? 0 : it->second.calls;
    r.add(metric,
          calls ? static_cast<double>(it->second.totalNs) / calls / unitNs
                : 0.0,
          unit, calls);
}

void
addSearchCounts(RunResult &r, const nnbaton::SearchStats &s)
{
    r.add("mapper.cache.hits", static_cast<double>(s.cacheHits), "count", 1);
    r.add("mapper.cache.misses", static_cast<double>(s.cacheMisses), "count",
          1);
    r.add("mapper.evaluated", static_cast<double>(s.evaluated), "count", 1);
    r.add("mapper.pruned", static_cast<double>(s.pruned), "count", 1);
    const int64_t all = s.evaluated + s.pruned;
    r.add("mapper.prune_ratio",
          all ? static_cast<double>(s.pruned) / static_cast<double>(all) : 0.0,
          "ratio", 1);
}

void
addTracingOverhead(RunResult &r, double untracedOpsPerSec,
                   double tracedOpsPerSec)
{
    r.add("trace.overhead_pct",
          untracedOpsPerSec > 0
              ? 100.0 * (1.0 - tracedOpsPerSec / untracedOpsPerSec)
              : 0.0,
          "%", 2);
}

void
finishTrace(RunResult &r, const Options &o)
{
    std::set<std::string> have;
    for (const Metric &m : r.metrics)
        have.insert(m.name);
    for (const auto &[name, unit] : layerMetrics()) {
        if (!have.count(name))
            r.add(name, 0.0, unit, 0);
    }
    for (const auto &[layer, t] : tracer().byLayer()) {
        std::printf("layer_self_ms %s %.3f (spans=%lld calls=%lld)\n",
                    layer.c_str(), t.selfNs * 1e-6,
                    static_cast<long long>(t.spans),
                    static_cast<long long>(t.calls));
    }
    const std::string path = o.workDir + "/spans-" + o.workload + "-" +
                             std::to_string(o.seed) + ".json";
    if (tracer().write(path))
        std::printf("spans %s\n", path.c_str());
    else
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

} // namespace perfbench
