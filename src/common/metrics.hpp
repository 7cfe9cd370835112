/**
 * @file
 * A thread-safe metrics registry for the DSE/mapping pipeline:
 * counters (monotonic) and gauges (last-written value), plus the
 * fixed log2-bucket histograms that time trace spans.
 *
 * Instruments register by name ("subsystem.what", dot-separated) and
 * are process-wide; hot paths should cache the returned reference in
 * a function-local static so the name lookup happens once:
 *
 * @code
 *   static obs::Counter &evals =
 *       obs::MetricsRegistry::instance().counter(
 *           "mapper.candidates.evaluated");
 *   evals.add(survivors);
 * @endcode
 *
 * Updates are relaxed atomics (lock-free, no ordering guarantees
 * between different instruments); registration and snapshotting take
 * a registry mutex.  reset() zeroes every registered instrument so
 * tests and benches can measure deltas.
 * The histograms are the span ledgers: snapshot() reports every trace
 * span as a "<span>_ns" histogram (common/trace), so phases need no
 * timer of their own and no histogram registers by name.
 */

#ifndef NNBATON_COMMON_METRICS_HPP
#define NNBATON_COMMON_METRICS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace nnbaton {

class JsonWriter;  // common/json.hpp
struct JsonValue;  // common/json.hpp

namespace obs {

/** A monotonically increasing counter. */
class Counter
{
  public:
    void
    add(int64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    int64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        v_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<int64_t> v_{0};
};

/** A last-written-value gauge. */
class Gauge
{
  public:
    void
    set(double v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        v_.store(0.0, std::memory_order_relaxed);
    }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * A histogram over non-negative integers with fixed log2 buckets:
 * bucket 0 holds values <= 0 and bucket k >= 1 holds
 * [2^(k-1), 2^k - 1], so bucket 1 is exactly {1}, bucket 2 is {2,3},
 * bucket 3 is {4..7}, and the last bucket absorbs everything above
 * 2^(kBuckets-2).  Each is one span name's slot in one thread's
 * ledger (common/trace), written by that thread alone.
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 64;

    /** Bucket index for @p v (see the class comment for the bounds). */
    static int bucketIndex(int64_t v);

    /** Smallest value mapping to bucket @p b (0 for bucket 0). */
    static int64_t bucketLowerBound(int b);

    /** Largest value mapping to bucket @p b. */
    static int64_t bucketUpperBound(int b);

    /** Add one sample.  Only one thread may record into a histogram:
     *  relaxed loads and stores, no read-modify-write, so a reader may
     *  see a sample half recorded. */
    void
    record(int64_t v)
    {
        const auto add = [](std::atomic<int64_t> &a, int64_t d) {
            a.store(a.load(std::memory_order_relaxed) + d,
                    std::memory_order_relaxed);
        };
        add(buckets_[bucketIndex(v)], 1);
        add(count_, 1);
        add(sum_, v);
        if (v < min_.load(std::memory_order_relaxed))
            min_.store(v, std::memory_order_relaxed);
        if (v > max_.load(std::memory_order_relaxed))
            max_.store(v, std::memory_order_relaxed);
    }

    int64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    int64_t
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** Smallest recorded value (0 when the histogram is empty). */
    int64_t
    minValue() const
    {
        return count() ? min_.load(std::memory_order_relaxed) : 0;
    }

    /** Largest recorded value (0 when the histogram is empty). */
    int64_t
    maxValue() const
    {
        return count() ? max_.load(std::memory_order_relaxed) : 0;
    }

    int64_t
    bucketCount(int b) const
    {
        return buckets_[b].load(std::memory_order_relaxed);
    }

    void reset();

  private:
    static constexpr int64_t kInt64Max = INT64_MAX;
    static constexpr int64_t kInt64Min = INT64_MIN;

    std::array<std::atomic<int64_t>, kBuckets> buckets_{};
    std::atomic<int64_t> count_{0};
    std::atomic<int64_t> sum_{0};
    std::atomic<int64_t> min_{kInt64Max};
    std::atomic<int64_t> max_{kInt64Min};
};

/** A point-in-time copy of one histogram. */
struct HistogramSnapshot
{
    std::string name;
    int64_t count = 0;
    int64_t sum = 0;
    int64_t minValue = 0; //!< smallest recorded value (0 when empty)
    int64_t maxValue = 0; //!< largest recorded value (0 when empty)
    std::array<int64_t, Histogram::kBuckets> buckets{};

    double
    mean() const
    {
        return count ? static_cast<double>(sum) / count : 0.0;
    }

    /** Add @p h's current samples (the name stays). */
    void merge(const Histogram &h);

    /**
     * Estimate the @p q quantile (q in [0,1]) from the log2 buckets by
     * linear interpolation inside the containing bucket, with the
     * bucket bounds clamped to [minValue, maxValue] so the estimate is
     * exact whenever the containing bucket holds a single distinct
     * value (and q=0 / q=1 return the true min / max).  Returns 0 for
     * an empty histogram.  The error is bounded by the width of the
     * containing bucket.
     */
    double quantile(double q) const;
};

/** A point-in-time copy of every registered instrument. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, int64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSnapshot> histograms;
};

/** The process-wide instrument registry. */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Find-or-create; references stay valid for the process. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /** Zero every registered instrument and span histogram (names
     *  stay registered).  Not safe while spans are being recorded. */
    void reset();

    /** Every counter and gauge, then spanHistograms(). */
    MetricsSnapshot snapshot() const;

  private:
    MetricsRegistry() = default;

    mutable std::mutex m_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

/** Render a snapshot as a column-aligned table (the --metrics view). */
std::string formatMetrics(const MetricsSnapshot &snapshot);

/** Write a snapshot as one JSON object value (key set by caller). */
void writeMetricsJson(JsonWriter &j, const MetricsSnapshot &snapshot);

/**
 * Write a snapshot in the Prometheus text exposition format: one
 * `# TYPE` line per metric, names prefixed "nnbaton_" with dots
 * mapped to underscores, counters suffixed "_total", and histograms
 * expanded into cumulative `_bucket{le="..."}` series (ending in
 * le="+Inf") plus `_sum` / `_count` and p50/p90/p99 gauges.
 */
void writePrometheus(std::ostream &os, const MetricsSnapshot &snapshot);

/**
 * Rebuild a snapshot from the writeMetricsJson() document (the bare
 * object, as returned by the serve `metrics` op).  Strict about
 * structure so a scraping client fails loudly on drift.
 */
StatusOr<MetricsSnapshot> metricsSnapshotFromJson(const JsonValue &root);

} // namespace obs
} // namespace nnbaton

#endif // NNBATON_COMMON_METRICS_HPP
