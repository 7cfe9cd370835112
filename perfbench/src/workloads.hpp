/**
 * @file
 * The workloads, `sweep` and `fabric`.  Each runs in a closed loop
 * (every caller waits for its reply) and reports, with tracing off,
 * the end-to-end metrics setup_s, ops_per_s, cpu_ms_per_op and
 * peak_rss_mb.  A traced run
 * instead repeats the end-to-end pass untraced and traced (their gap
 * is the tracing overhead), replays the module calls stage by stage
 * and reports the per-layer metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "mapper/search.hpp"
#include "harness.hpp"

namespace perfbench {

/** (layer, configuration) pairs the stage replays sample. */
constexpr size_t kReplayPairs = 48;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir; //!< access logs, daemon stderr, span files
    std::string selfExe; //!< this executable, started as `--daemon`
    Pins pins;

    /** A per-run file under workDir. */
    std::string workFile(const std::string &stem) const;
};

RunResult runSweep(const Options &o);
RunResult runFabric(const Options &o);

/**
 * One cold set-up of `sweep`, run by `perfbench --cold-setup` in a
 * fresh process: build the seed's inputs.  Returns the seconds that
 * took.  Lazy first-use costs of the flow fall in the first op.
 */
double coldSweepSetUp(uint64_t seed);

/** Every per-layer metric with its unit, in report order. */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/** Add every per-layer metric @p r lacks as 0 (layers a workload does
 *  not exercise), and print the layers' self times. */
void finishTrace(RunResult &r, const Options &o);

/** Mean duration, in units of @p unitNs, of the calls the spans named
 *  @p name cover; 0 when there are none. */
double spanMean(const std::string &name, double unitNs);

/** Add @p metric: spanMean(@p span, @p unitNs) with the calls covered
 *  as its sample count. */
void addSpanMean(RunResult &r, const std::string &metric,
                 const std::string &span, double unitNs,
                 const std::string &unit);

/** The mapper counters of @p stats: cache hits and misses, evaluated
 *  and pruned candidates, and the pruned share. */
void addSearchCounts(RunResult &r, const nnbaton::SearchStats &stats);

/** Tracing overhead in percent of the untraced ops/s. */
void addTracingOverhead(RunResult &r, double untracedOpsPerSec,
                        double tracedOpsPerSec);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
