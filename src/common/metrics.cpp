#include "common/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"

namespace nnbaton {
namespace obs {

int
Histogram::bucketIndex(int64_t v)
{
    if (v <= 0)
        return 0;
    // bit_width(v) = floor(log2(v)) + 1, so 1 -> 1, 2..3 -> 2, etc.
    const int b = std::bit_width(static_cast<uint64_t>(v));
    return b < kBuckets ? b : kBuckets - 1;
}

int64_t
Histogram::bucketLowerBound(int b)
{
    if (b <= 0)
        return 0;
    return int64_t(1) << (b - 1);
}

int64_t
Histogram::bucketUpperBound(int b)
{
    if (b <= 0)
        return 0;
    if (b >= kBuckets - 1)
        return std::numeric_limits<int64_t>::max();
    return (int64_t(1) << b) - 1;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(kInt64Max, std::memory_order_relaxed);
    max_.store(kInt64Min, std::memory_order_relaxed);
}

void
HistogramSnapshot::merge(const Histogram &h)
{
    const int64_t n = h.count();
    if (!n)
        return;
    minValue = count ? std::min(minValue, h.minValue()) : h.minValue();
    maxValue = count ? std::max(maxValue, h.maxValue()) : h.maxValue();
    count += n;
    sum += h.sum();
    for (int b = 0; b < Histogram::kBuckets; ++b)
        buckets[b] += h.bucketCount(b);
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count <= 0)
        return 0.0;
    if (q <= 0.0)
        return static_cast<double>(minValue);
    if (q >= 1.0)
        return static_cast<double>(maxValue);
    // The continuous rank in (0, count]; the containing bucket is the
    // first one whose cumulative count reaches it.
    const double rank = q * static_cast<double>(count);
    int64_t cumulative = 0;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
        const int64_t n = buckets[b];
        if (!n)
            continue;
        if (static_cast<double>(cumulative + n) >= rank) {
            // Clamp the bucket bounds into [minValue, maxValue]: the
            // last bucket's nominal upper bound is INT64_MAX, and a
            // bucket holding only the min (or max) collapses to the
            // exact value.  Both bounds need both clamps — bucket 0's
            // nominal range is [0, 0], so for all-negative recordings
            // max-only/min-only clamping would leave lo or hi at 0 and
            // interpolate outside the observed range entirely.
            const double lo = static_cast<double>(std::min(
                std::max(Histogram::bucketLowerBound(b), minValue),
                maxValue));
            const double hi = static_cast<double>(std::max(
                std::min(Histogram::bucketUpperBound(b), maxValue),
                minValue));
            const double frac =
                (rank - static_cast<double>(cumulative)) /
                static_cast<double>(n);
            return lo + frac * (hi - lo);
        }
        cumulative += n;
    }
    return static_cast<double>(maxValue);
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry r;
    return r;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(m_);
    std::unique_ptr<Counter> &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(m_);
    std::unique_ptr<Gauge> &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(m_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    resetSpanHistograms();
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot s;
    std::lock_guard<std::mutex> lock(m_);
    for (const auto &[name, c] : counters_)
        s.counters.emplace_back(name, c->value());
    for (const auto &[name, g] : gauges_)
        s.gauges.emplace_back(name, g->value());
    for (HistogramSnapshot &hs : spanHistograms())
        s.histograms.push_back(std::move(hs));
    return s;
}

std::string
formatMetrics(const MetricsSnapshot &snapshot)
{
    std::ostringstream ss;
    TextTable t({"metric", "kind", "value", "detail"});
    for (const auto &[name, v] : snapshot.counters)
        t.newRow().add(name).add("counter").add(v).add("");
    for (const auto &[name, v] : snapshot.gauges)
        t.newRow().add(name).add("gauge").add(v, 3).add("");
    for (const HistogramSnapshot &h : snapshot.histograms) {
        t.newRow()
            .add(h.name)
            .add("histogram")
            .add(h.count)
            .add(strprintf(
                "sum %lld mean %.1f min %lld max %lld p50 %.1f "
                "p90 %.1f p99 %.1f",
                static_cast<long long>(h.sum), h.mean(),
                static_cast<long long>(h.minValue),
                static_cast<long long>(h.maxValue), h.quantile(0.50),
                h.quantile(0.90), h.quantile(0.99)));
    }
    t.print(ss);
    return ss.str();
}

void
writeMetricsJson(JsonWriter &j, const MetricsSnapshot &snapshot)
{
    j.beginObject();
    j.key("counters").beginObject();
    for (const auto &[name, v] : snapshot.counters)
        j.field(name, v);
    j.endObject();
    j.key("gauges").beginObject();
    for (const auto &[name, v] : snapshot.gauges)
        j.field(name, v);
    j.endObject();
    j.key("histograms").beginObject();
    for (const HistogramSnapshot &h : snapshot.histograms) {
        j.key(h.name).beginObject();
        j.field("count", h.count);
        j.field("sum", h.sum);
        j.field("mean", h.mean());
        j.field("min", h.minValue);
        j.field("max", h.maxValue);
        j.field("p50", h.quantile(0.50));
        j.field("p90", h.quantile(0.90));
        j.field("p99", h.quantile(0.99));
        j.key("buckets").beginArray();
        for (int b = 0; b < Histogram::kBuckets; ++b) {
            if (!h.buckets[b])
                continue;
            j.beginObject();
            j.field("lo", Histogram::bucketLowerBound(b));
            j.field("hi", Histogram::bucketUpperBound(b));
            j.field("n", h.buckets[b]);
            j.endObject();
        }
        j.endArray();
        j.endObject();
    }
    j.endObject();
    j.endObject();
}

namespace {

/** "serve.request_ns" -> "nnbaton_serve_request_ns". */
std::string
promName(const std::string &name)
{
    std::string out = "nnbaton_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

} // namespace

void
writePrometheus(std::ostream &os, const MetricsSnapshot &snapshot)
{
    for (const auto &[name, v] : snapshot.counters) {
        const std::string n = promName(name) + "_total";
        os << "# TYPE " << n << " counter\n";
        os << n << " " << v << "\n";
    }
    for (const auto &[name, v] : snapshot.gauges) {
        const std::string n = promName(name);
        os << "# TYPE " << n << " gauge\n";
        os << n << " " << strprintf("%.9g", v) << "\n";
    }
    for (const HistogramSnapshot &h : snapshot.histograms) {
        const std::string n = promName(h.name);
        os << "# TYPE " << n << " histogram\n";
        int64_t cumulative = 0;
        for (int b = 0; b < Histogram::kBuckets; ++b) {
            if (!h.buckets[b])
                continue;
            cumulative += h.buckets[b];
            os << n << "_bucket{le=\""
               << Histogram::bucketUpperBound(b) << "\"} "
               << cumulative << "\n";
        }
        os << n << "_bucket{le=\"+Inf\"} " << h.count << "\n";
        os << n << "_sum " << h.sum << "\n";
        os << n << "_count " << h.count << "\n";
        // Precomputed quantiles as gauges: histogram_quantile() can
        // derive them from the buckets, but exporting them makes a
        // bare scrape (or a curl) immediately SLO-readable.
        for (const auto &[suffix, q] :
             {std::pair<const char *, double>{"_p50", 0.50},
              {"_p90", 0.90},
              {"_p99", 0.99}}) {
            const std::string qn = n + suffix;
            os << "# TYPE " << qn << " gauge\n";
            os << qn << " " << strprintf("%.9g", h.quantile(q))
               << "\n";
        }
    }
}

namespace {

StatusOr<int64_t>
jsonInt(const char *what, const JsonValue &v)
{
    if (!v.isNumber() || v.number != std::floor(v.number)) {
        return errInvalidArgument("metrics json: %s must be an integer",
                                  what);
    }
    return static_cast<int64_t>(v.number);
}

} // namespace

StatusOr<MetricsSnapshot>
metricsSnapshotFromJson(const JsonValue &root)
{
    if (!root.isObject())
        return errInvalidArgument("metrics json: not an object");
    const JsonValue *counters = root.find("counters");
    const JsonValue *gauges = root.find("gauges");
    const JsonValue *histograms = root.find("histograms");
    if (!counters || !counters->isObject() || !gauges ||
        !gauges->isObject() || !histograms || !histograms->isObject()) {
        return errInvalidArgument(
            "metrics json: needs counters/gauges/histograms objects");
    }

    MetricsSnapshot s;
    for (const auto &[name, v] : counters->object) {
        StatusOr<int64_t> n = jsonInt(name.c_str(), v);
        if (!n.ok())
            return n.status();
        s.counters.emplace_back(name, n.value());
    }
    for (const auto &[name, v] : gauges->object) {
        if (!v.isNumber()) {
            return errInvalidArgument(
                "metrics json: gauge %s must be a number", name.c_str());
        }
        s.gauges.emplace_back(name, v.number);
    }
    for (const auto &[name, v] : histograms->object) {
        if (!v.isObject()) {
            return errInvalidArgument(
                "metrics json: histogram %s must be an object",
                name.c_str());
        }
        HistogramSnapshot hs;
        hs.name = name;
        for (const auto &[what, member] :
             {std::pair<const char *, int64_t *>{"count", &hs.count},
              {"sum", &hs.sum},
              {"min", &hs.minValue},
              {"max", &hs.maxValue}}) {
            const JsonValue *m = v.find(what);
            if (!m) {
                return errInvalidArgument(
                    "metrics json: histogram %s misses '%s'",
                    name.c_str(), what);
            }
            StatusOr<int64_t> n = jsonInt(what, *m);
            if (!n.ok())
                return n.status();
            *member = n.value();
        }
        const JsonValue *buckets = v.find("buckets");
        if (!buckets || !buckets->isArray()) {
            return errInvalidArgument(
                "metrics json: histogram %s misses 'buckets'",
                name.c_str());
        }
        for (const JsonValue &b : buckets->array) {
            const JsonValue *lo = b.find("lo");
            const JsonValue *n = b.find("n");
            if (!b.isObject() || !lo || !n) {
                return errInvalidArgument(
                    "metrics json: histogram %s has a malformed bucket",
                    name.c_str());
            }
            StatusOr<int64_t> loV = jsonInt("lo", *lo);
            StatusOr<int64_t> nV = jsonInt("n", *n);
            if (!loV.ok())
                return loV.status();
            if (!nV.ok())
                return nV.status();
            // A bucket is identified by its lower bound; indices
            // reconstruct exactly because lower bounds are unique.
            hs.buckets[Histogram::bucketIndex(loV.value())] = nV.value();
        }
        s.histograms.push_back(std::move(hs));
    }
    return s;
}

} // namespace obs
} // namespace nnbaton
