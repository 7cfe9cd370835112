/**
 * @file
 * Measurement helpers shared by every workload of the benchmark:
 * clocks, resource usage, the percentile rule, the answer digest, the
 * seeded RNG and the result record printed at the end of a run.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Monotonic time in nanoseconds. */
int64_t nowNs();

/** Monotonic time in seconds. */
double nowSec();

/** User plus system CPU seconds of this process (all threads). */
double processCpuSec();

/**
 * Peak resident set in MB of process @p pid (0: this process), read
 * from its VmHWM; -1 when unreadable.  Not ru_maxrss: Linux carries
 * the high-water mark of the memory a process had before exec over
 * into ru_maxrss, so a spawned child's would start at its parent's
 * peak.
 */
double peakRssMb(int pid = 0);

/** The CPUs the calling thread may run on. */
std::vector<int> allowedCpus();

/** Run the calling thread, and processes it starts, on @p cpu only. */
void pinToCpu(int cpu);

/** The 1-minute load average, or -1 when unavailable. */
double loadAverage1();

/** Seconds the hypervisor spent running other guests on the CPUs of
 *  this guest (steal time, all CPUs), or -1 when unavailable. */
double stealSec();

/**
 * The @p p-th percentile (0 < p < 100, nearest-rank) of @p samples,
 * or nothing when fewer than ten samples lie beyond it: a percentile
 * read off a handful of samples is one sample, not a distribution.
 */
std::optional<double> percentile(std::vector<double> samples, double p);

/** Median of a few repeated measurements (no minimum sample count). */
double medianOfRepeats(std::vector<double> samples);

/** 64-bit FNV-1a digest of @p bytes as 16 hex digits. */
std::string digestHex(std::string_view bytes);

/** SplitMix64: small, seedable, identical on every platform. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t next();

    /** Uniform integer in [0, n). */
    size_t below(size_t n) { return static_cast<size_t>(next() % n); }

    /** Fisher-Yates shuffle. */
    template <typename T> void shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t state_;
};

/**
 * Ops attempted and failed.  An op fails when it throws, returns an
 * error envelope or refusal, yields a poisoned or skipped design
 * point, or gives a wrong answer.
 */
struct Tally
{
    int64_t attempted = 0;
    int64_t failed = 0;

    /** Count @p ops ops of which @p bad failed. */
    void add(int64_t ops, int64_t bad)
    {
        attempted += ops;
        failed += bad;
    }
};

/** One reported metric with the number of samples behind it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
};

/** What one benchmark run reports. */
struct RunResult
{
    Tally tally;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit, int64_t samples)
    {
        metrics.push_back({name, value, unit, samples});
    }
};

/** A number as JSON (non-finite values become null). */
std::string jsonNumber(double v);

/** A string as a quoted JSON string. */
std::string jsonString(std::string_view s);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
