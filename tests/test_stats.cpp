/**
 * @file
 * Tests for the serving-grade metrics additions: histogram min/max
 * tracking, quantile estimation from the log2 buckets (exact cases
 * plus a property check against a sorted-vector oracle), the JSON
 * snapshot round-trip used by `nn-baton stats`, and a format lint of
 * the Prometheus text exposition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"

using namespace nnbaton;

namespace {

/** Snapshot a standalone histogram (no registry involvement). */
obs::HistogramSnapshot
snapshotOf(const obs::Histogram &h, const std::string &name = "h")
{
    obs::HistogramSnapshot s;
    s.name = name;
    s.count = h.count();
    s.sum = h.sum();
    s.minValue = h.minValue();
    s.maxValue = h.maxValue();
    for (int b = 0; b < obs::Histogram::kBuckets; ++b)
        s.buckets[b] = h.bucketCount(b);
    return s;
}

/** Deterministic LCG so the property test needs no <random>. */
uint64_t
nextRand(uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
}

} // namespace

TEST(Stats, HistogramTracksMinAndMax)
{
    obs::Histogram h;
    EXPECT_EQ(h.minValue(), 0); // empty reads as 0, not INT64_MAX
    EXPECT_EQ(h.maxValue(), 0);
    h.record(42);
    EXPECT_EQ(h.minValue(), 42);
    EXPECT_EQ(h.maxValue(), 42);
    h.record(7);
    h.record(1000);
    EXPECT_EQ(h.minValue(), 7);
    EXPECT_EQ(h.maxValue(), 1000);
    h.reset();
    EXPECT_EQ(h.count(), 0);
    EXPECT_EQ(h.minValue(), 0);
    EXPECT_EQ(h.maxValue(), 0);
}

TEST(Stats, QuantileEmptyAndEdges)
{
    obs::Histogram h;
    EXPECT_DOUBLE_EQ(snapshotOf(h).quantile(0.5), 0.0);
    h.record(3);
    h.record(900);
    const obs::HistogramSnapshot s = snapshotOf(h);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 3.0);   // q<=0 is the true min
    EXPECT_DOUBLE_EQ(s.quantile(-1.0), 3.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 900.0); // q>=1 is the true max
    EXPECT_DOUBLE_EQ(s.quantile(2.0), 900.0);
}

TEST(Stats, QuantileExactWhenBucketHoldsOneDistinctValue)
{
    // All samples equal: the min/max clamp collapses the containing
    // bucket to the exact value for every q.
    obs::Histogram h;
    for (int i = 0; i < 10; ++i)
        h.record(5);
    const obs::HistogramSnapshot s = snapshotOf(h);
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(s.quantile(q), 5.0) << q;
}

TEST(Stats, QuantileExactWhenAllSamplesEqualAndNegative)
{
    // Negative recordings all land in bucket 0, whose nominal bounds
    // are [0, 0]; before both bounds were clamped into
    // [minValue, maxValue] a min==max histogram of -5s interpolated
    // between 0 (the unclamped nominal lower bound) and -5 instead of
    // collapsing to the exact value.
    obs::Histogram h;
    for (int i = 0; i < 10; ++i)
        h.record(-5);
    const obs::HistogramSnapshot s = snapshotOf(h);
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(s.quantile(q), -5.0) << q;
}

TEST(Stats, QuantileNegativeRangeStaysWithinObservedBounds)
{
    // Mixed negative samples share bucket 0; every estimate must stay
    // inside the observed [min, max] band.
    obs::Histogram h;
    h.record(-20);
    h.record(-10);
    h.record(-2);
    const obs::HistogramSnapshot s = snapshotOf(h);
    for (double q : {0.1, 0.5, 0.9}) {
        EXPECT_GE(s.quantile(q), -20.0) << q;
        EXPECT_LE(s.quantile(q), -2.0) << q;
    }
}

TEST(Stats, QuantileStaysWithinClampedBucketBounds)
{
    // Two values in different buckets: low quantiles resolve inside
    // the low bucket, high ones inside the high bucket with its upper
    // bound clamped to the observed max.
    obs::Histogram h;
    h.record(4);   // bucket [4,7]
    h.record(100); // bucket [64,127], clamped to [64,100]
    const obs::HistogramSnapshot s = snapshotOf(h);
    EXPECT_GE(s.quantile(0.25), 4.0);
    EXPECT_LE(s.quantile(0.25), 7.0);
    EXPECT_GE(s.quantile(0.75), 64.0);
    EXPECT_LE(s.quantile(0.75), 100.0);
}

TEST(Stats, QuantileInterpolatesInsideBucket)
{
    // Four samples in bucket [8,15] with min 8 and max 15: the
    // interpolation walks lo..hi linearly in rank.
    obs::Histogram h;
    h.record(8);
    h.record(10);
    h.record(12);
    h.record(15);
    const obs::HistogramSnapshot s = snapshotOf(h);
    // rank 2 of 4 -> frac 0.5 inside [8,15].
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 8.0 + 0.5 * 7.0);
    // The estimate error stays within the bucket.
    EXPECT_GE(s.quantile(0.9), 8.0);
    EXPECT_LE(s.quantile(0.9), 15.0);
}

TEST(Stats, QuantilePropertyAgainstSortedOracle)
{
    // For any sample set and q, the estimate must land inside the
    // bucket of the true (ceil-rank) order statistic, clamped to the
    // observed range — the documented error bound.
    uint64_t rng = 12345;
    obs::Histogram h;
    std::vector<int64_t> values;
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = static_cast<int64_t>(nextRand(rng) % 10000);
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());
    const obs::HistogramSnapshot s = snapshotOf(h);
    ASSERT_EQ(s.count, 1000);
    ASSERT_EQ(s.minValue, values.front());
    ASSERT_EQ(s.maxValue, values.back());

    for (double q : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        const size_t rank = static_cast<size_t>(
            std::ceil(q * static_cast<double>(values.size())));
        const int64_t oracle = values[rank - 1];
        const int b = obs::Histogram::bucketIndex(oracle);
        const double lo = static_cast<double>(std::max(
            obs::Histogram::bucketLowerBound(b), s.minValue));
        const double hi = static_cast<double>(std::min(
            obs::Histogram::bucketUpperBound(b), s.maxValue));
        const double est = s.quantile(q);
        EXPECT_GE(est, lo) << "q=" << q << " oracle=" << oracle;
        EXPECT_LE(est, hi) << "q=" << q << " oracle=" << oracle;
    }
}

TEST(Stats, FormatMetricsShowsMinMaxAndQuantiles)
{
    obs::MetricsSnapshot snap;
    obs::Histogram h;
    h.record(3);
    h.record(80);
    snap.histograms.push_back(snapshotOf(h, "test.fmt_us"));
    const std::string table = obs::formatMetrics(snap);
    EXPECT_NE(table.find("test.fmt_us"), std::string::npos);
    EXPECT_NE(table.find("min 3"), std::string::npos);
    EXPECT_NE(table.find("max 80"), std::string::npos);
    EXPECT_NE(table.find("p50"), std::string::npos);
    EXPECT_NE(table.find("p99"), std::string::npos);
}

TEST(Stats, JsonSnapshotRoundTripsThroughParser)
{
    // The scrape path: writeMetricsJson -> parseJson ->
    // metricsSnapshotFromJson must reproduce the snapshot, so
    // `nn-baton stats --format table|prom` renders from equal data.
    obs::MetricsSnapshot snap;
    snap.counters.emplace_back("test.rt.counter", 42);
    snap.gauges.emplace_back("test.rt.gauge", 1.5);
    obs::Histogram h;
    h.record(1);
    h.record(9);
    h.record(9);
    h.record(1000);
    snap.histograms.push_back(snapshotOf(h, "test.rt_us"));

    std::ostringstream ss;
    JsonWriter j(ss);
    obs::writeMetricsJson(j, snap);
    const JsonParseResult parsed = parseJson(ss.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;

    const StatusOr<obs::MetricsSnapshot> roundOr =
        obs::metricsSnapshotFromJson(parsed.value);
    ASSERT_TRUE(roundOr.ok()) << roundOr.status().toString();
    const obs::MetricsSnapshot &round = roundOr.value();

    ASSERT_EQ(round.counters.size(), 1u);
    EXPECT_EQ(round.counters[0].first, "test.rt.counter");
    EXPECT_EQ(round.counters[0].second, 42);
    ASSERT_EQ(round.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(round.gauges[0].second, 1.5);
    ASSERT_EQ(round.histograms.size(), 1u);
    const obs::HistogramSnapshot &orig = snap.histograms[0];
    const obs::HistogramSnapshot &back = round.histograms[0];
    EXPECT_EQ(back.name, orig.name);
    EXPECT_EQ(back.count, orig.count);
    EXPECT_EQ(back.sum, orig.sum);
    EXPECT_EQ(back.minValue, orig.minValue);
    EXPECT_EQ(back.maxValue, orig.maxValue);
    for (int b = 0; b < obs::Histogram::kBuckets; ++b)
        EXPECT_EQ(back.buckets[b], orig.buckets[b]) << b;
    for (double q : {0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(back.quantile(q), orig.quantile(q)) << q;
}

TEST(Stats, JsonSnapshotRejectsDrift)
{
    const JsonParseResult notObject = parseJson("[1,2]");
    ASSERT_TRUE(notObject.ok());
    EXPECT_FALSE(obs::metricsSnapshotFromJson(notObject.value).ok());

    const JsonParseResult missing =
        parseJson("{\"counters\":{},\"gauges\":{}}");
    ASSERT_TRUE(missing.ok());
    EXPECT_FALSE(obs::metricsSnapshotFromJson(missing.value).ok());

    const JsonParseResult badHist = parseJson(
        "{\"counters\":{},\"gauges\":{},"
        "\"histograms\":{\"h\":{\"count\":1}}}");
    ASSERT_TRUE(badHist.ok());
    EXPECT_FALSE(obs::metricsSnapshotFromJson(badHist.value).ok());
}

/**
 * A scrape's integers may be any int64_t and its gauges any finite
 * double; a fraction, an overflow or a string is refused, not read as
 * some other count.
 */
TEST(Stats, JsonSnapshotRefusesNumbersThatDoNotFitTheirField)
{
    const auto doc = [](const std::string &slot, const std::string &text) {
        const auto num = [&](const char *name, const char *good) {
            return name == slot ? text : std::string(good);
        };
        return "{\"counters\":{\"c\":" + num("counter", "7") +
               "},\"gauges\":{\"g\":" + num("gauge", "2.5") +
               "},\"histograms\":{\"h\":{\"count\":" + num("count", "1") +
               ",\"sum\":" + num("sum", "3") + ",\"min\":" + num("min", "3") +
               ",\"max\":" + num("max", "3") + ",\"buckets\":[{\"lo\":" +
               num("lo", "2") + ",\"n\":" + num("n", "1") + "}]}}}";
    };
    const auto read = [&](const char *slot, const char *text) {
        const JsonParseResult parsed = parseJson(doc(slot, text));
        EXPECT_TRUE(parsed.ok()) << slot << " " << text;
        return obs::metricsSnapshotFromJson(parsed.value).status();
    };
    ASSERT_TRUE(read("", "").ok()) << read("", "").toString();
    for (const char *slot :
         {"counter", "count", "sum", "min", "max", "lo", "n"}) {
        for (const char *bad : {"2.5", "1e400", "-1e300",
                                "9223372036854775808", "\"7\""}) {
            const Status s = read(slot, bad);
            EXPECT_EQ(s.code(), StatusCode::InvalidArgument)
                << slot << "=" << bad << ": " << s.toString();
        }
    }
    const Status gauge = read("gauge", "1e400");
    EXPECT_EQ(gauge.code(), StatusCode::InvalidArgument) << gauge.toString();
    EXPECT_NE(gauge.message().find("'g'"), std::string::npos)
        << gauge.toString();
}

TEST(Stats, PrometheusExpositionLints)
{
    obs::MetricsSnapshot snap;
    snap.counters.emplace_back("serve.requests", 7);
    snap.gauges.emplace_back("dse.progress.eta_seconds", 12.5);
    obs::Histogram h;
    h.record(3);
    h.record(3);
    h.record(90);
    h.record(5000);
    snap.histograms.push_back(snapshotOf(h, "serve.request_us"));

    std::ostringstream ss;
    obs::writePrometheus(ss, snap);
    const std::string text = ss.str();

    // Line-by-line lint of the text exposition: every sample line is
    // `name[{labels}] value` with a legal metric name, every family
    // has a preceding # TYPE, bucket series are cumulative and end in
    // +Inf == count.
    std::istringstream lines(text);
    std::string line;
    std::vector<std::string> typedFamilies;
    int64_t lastCumulative = -1;
    bool sawInf = false, sawSum = false, sawCount = false;
    bool sawP50 = false, sawP90 = false, sawP99 = false;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        if (line.rfind("# TYPE ", 0) == 0) {
            const size_t sp = line.find(' ', 7);
            ASSERT_NE(sp, std::string::npos) << line;
            typedFamilies.push_back(line.substr(7, sp - 7));
            const std::string kind = line.substr(sp + 1);
            EXPECT_TRUE(kind == "counter" || kind == "gauge" ||
                        kind == "histogram")
                << line;
            continue;
        }
        ASSERT_NE(line[0], '#') << "unknown comment: " << line;
        // Split "name{...} value" / "name value".
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        std::string series = line.substr(0, space);
        const std::string value = line.substr(space + 1);
        EXPECT_FALSE(value.empty()) << line;
        (void)std::stod(value); // throws (fails the test) if not numeric
        std::string labels;
        const size_t brace = series.find('{');
        if (brace != std::string::npos) {
            ASSERT_EQ(series.back(), '}') << line;
            labels = series.substr(brace);
            series = series.substr(0, brace);
        }
        // Legal metric name, prefixed with the exporter namespace.
        EXPECT_EQ(series.rfind("nnbaton_", 0), 0u) << line;
        for (char c : series) {
            EXPECT_TRUE((c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':')
                << line;
        }
        // Every series belongs to some # TYPE'd family seen before it.
        bool typed = false;
        for (const std::string &fam : typedFamilies) {
            if (series == fam || series == fam + "_bucket" ||
                series == fam + "_sum" || series == fam + "_count")
                typed = true;
        }
        EXPECT_TRUE(typed) << "untyped series: " << line;

        if (series == "nnbaton_serve_request_us_bucket") {
            const int64_t cum = std::stoll(value);
            EXPECT_GE(cum, lastCumulative) << line;
            lastCumulative = cum;
            if (labels == "{le=\"+Inf\"}") {
                sawInf = true;
                EXPECT_EQ(cum, 4);
            }
        }
        if (series == "nnbaton_serve_request_us_sum")
            sawSum = true;
        if (series == "nnbaton_serve_request_us_count") {
            sawCount = true;
            EXPECT_EQ(std::stoll(value), 4);
        }
        if (series == "nnbaton_serve_request_us_p50")
            sawP50 = true;
        if (series == "nnbaton_serve_request_us_p90")
            sawP90 = true;
        if (series == "nnbaton_serve_request_us_p99")
            sawP99 = true;
    }
    EXPECT_TRUE(sawInf);
    EXPECT_TRUE(sawSum);
    EXPECT_TRUE(sawCount);
    EXPECT_TRUE(sawP50);
    EXPECT_TRUE(sawP90);
    EXPECT_TRUE(sawP99);
    EXPECT_NE(std::find(typedFamilies.begin(), typedFamilies.end(),
                        "nnbaton_serve_requests_total"),
              typedFamilies.end());
}
