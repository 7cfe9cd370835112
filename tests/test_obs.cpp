/**
 * @file
 * Tests for the observability layer: trace spans and their Chrome
 * JSON export (round-tripped through the common/json parser, with
 * exact timestamps), the trace keeping each thread's newest spans
 * while walks run, the span histograms that count every span past the
 * trace's cap and merge across threads, histogram bucket math at the
 * boundaries, concurrent counter updates from runLanes() lanes, and
 * agreement between the metrics registry and the SearchStats counters
 * on a real DSE run.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "dse/explorer.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"

using namespace nnbaton;

namespace {

/** Scoped tracing toggle so a failing test can't leak tracing on. */
struct TracingOn
{
    TracingOn() { obs::setTracingEnabled(true); }
    ~TracingOn() { obs::setTracingEnabled(false); }
};

Model
miniModel()
{
    Model m("mini", 64);
    m.addLayer(makeConv("a1", 32, 32, 128, 64, 3, 3, 1));
    m.addLayer(makeConv("b", 16, 16, 256, 128, 1, 1, 1));
    m.addLayer(makeConv("a2", 32, 32, 128, 64, 3, 3, 1));
    return m;
}

DseResult
miniSweep(int threads, double progressSeconds = 0.0)
{
    DseOptions opt;
    opt.totalMacs = 2048;
    opt.proportionalMem = true;
    opt.effort = SearchEffort::Fast;
    opt.threads = threads;
    opt.progressSeconds = progressSeconds;
    return explore(miniModel(), opt, defaultTech());
}

/** The histogram named @p name in @p snap, or null. */
const obs::HistogramSnapshot *
findHistogram(const obs::MetricsSnapshot &snap, const std::string &name)
{
    for (const obs::HistogramSnapshot &h : snap.histograms) {
        if (h.name == name)
            return &h;
    }
    return nullptr;
}

/** Every trace event still held, copied out. */
std::vector<obs::TraceEvent>
tracedEvents()
{
    std::vector<obs::TraceEvent> out;
    obs::forEachTraceEvent(
        [&out](const obs::TraceEvent &e) { out.push_back(e); });
    return out;
}

/** Spans of @p name counted by the registry so far (0 if none). */
int64_t
spanCount(const std::string &name)
{
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    const obs::HistogramSnapshot *h = findHistogram(snap, name + "_ns");
    return h ? h->count : 0;
}

} // namespace

TEST(Trace, DisabledRecordsNothing)
{
    obs::setTracingEnabled(false);
    const size_t before = tracedEvents().size();
    {
        NNBATON_TRACE_SCOPE("test.should_not_appear");
    }
    EXPECT_EQ(tracedEvents().size(), before);
}

TEST(Trace, SpansNestAndCarryDurations)
{
    const size_t before = tracedEvents().size();
    {
        TracingOn on;
        NNBATON_TRACE_SCOPE("test.outer");
        {
            NNBATON_TRACE_SCOPE("test.inner");
        }
    }
    const std::vector<obs::TraceEvent> all = tracedEvents();
    ASSERT_GE(all.size(), before + 2);
    bool sawOuter = false, sawInner = false;
    for (size_t i = before; i < all.size(); ++i) {
        if (std::string(all[i].name) == "test.outer")
            sawOuter = true;
        if (std::string(all[i].name) == "test.inner")
            sawInner = true;
    }
    EXPECT_TRUE(sawOuter);
    EXPECT_TRUE(sawInner);
}

TEST(Trace, ChromeJsonRoundTripsThroughParser)
{
    {
        TracingOn on;
        NNBATON_TRACE_SCOPE("roundtrip.phase_a");
        {
            NNBATON_TRACE_SCOPE("roundtrip.phase_b");
        }
    }
    std::ostringstream ss;
    obs::writeChromeTrace(ss);

    const JsonParseResult parsed = parseJson(ss.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error << " at offset "
                             << parsed.errorOffset;
    ASSERT_TRUE(parsed.value.isObject());

    const JsonValue *events = parsed.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GE(events->array.size(), 3u); // metadata + 2 spans

    bool sawA = false, sawB = false;
    for (const JsonValue &e : events->array) {
        ASSERT_TRUE(e.isObject());
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string != "X")
            continue;
        // Complete events must carry numeric ts/dur and a category.
        const JsonValue *ts = e.find("ts");
        const JsonValue *dur = e.find("dur");
        const JsonValue *cat = e.find("cat");
        const JsonValue *name = e.find("name");
        ASSERT_NE(ts, nullptr);
        ASSERT_NE(dur, nullptr);
        ASSERT_NE(cat, nullptr);
        ASSERT_NE(name, nullptr);
        EXPECT_TRUE(ts->isNumber());
        EXPECT_TRUE(dur->isNumber());
        EXPECT_GE(dur->number, 0.0);
        if (name->string == "roundtrip.phase_a") {
            sawA = true;
            EXPECT_EQ(cat->string, "roundtrip");
        }
        if (name->string == "roundtrip.phase_b")
            sawB = true;
    }
    EXPECT_TRUE(sawA);
    EXPECT_TRUE(sawB);
}

TEST(Trace, ChromeTimestampsAreExactMicroseconds)
{
    // 20 minutes into the trace clock, %.9g would write this start as
    // 1.23456789e+09 us, 1.123 us early.
    constexpr uint64_t kStartNs = 1234567891123;
    {
        TracingOn on;
        obs::recordSpan("test.exact_ts", kStartNs, kStartNs + 1500);
    }
    std::ostringstream ss;
    obs::writeChromeTrace(ss);
    const JsonParseResult parsed = parseJson(ss.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue *events = parsed.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    const JsonValue *span = nullptr;
    for (const JsonValue &e : events->array) {
        const JsonValue *name = e.find("name");
        if (name && name->string == "test.exact_ts")
            span = &e;
    }
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->find("ts")->number, 1234567891.123);
    EXPECT_EQ(span->find("dur")->number, 1.5);
    EXPECT_NE(ss.str().find("\"ts\":1234567891.123,\"dur\":1.5"),
              std::string::npos);
}

TEST(Histogram, BucketIndexBoundaries)
{
    using H = obs::Histogram;
    EXPECT_EQ(H::bucketIndex(-5), 0);
    EXPECT_EQ(H::bucketIndex(0), 0);
    EXPECT_EQ(H::bucketIndex(1), 1);
    EXPECT_EQ(H::bucketIndex(2), 2);
    EXPECT_EQ(H::bucketIndex(3), 2);
    EXPECT_EQ(H::bucketIndex(4), 3);
    EXPECT_EQ(H::bucketIndex(7), 3);
    EXPECT_EQ(H::bucketIndex(8), 4);
    EXPECT_EQ(H::bucketIndex(1023), 10);
    EXPECT_EQ(H::bucketIndex(1024), 11);
    EXPECT_EQ(H::bucketIndex(std::numeric_limits<int64_t>::max()),
              H::kBuckets - 1);
}

TEST(Histogram, BucketBoundsAreConsistent)
{
    using H = obs::Histogram;
    for (int b = 1; b < H::kBuckets - 1; ++b) {
        const int64_t lo = H::bucketLowerBound(b);
        const int64_t hi = H::bucketUpperBound(b);
        EXPECT_EQ(H::bucketIndex(lo), b) << b;
        EXPECT_EQ(H::bucketIndex(hi), b) << b;
        if (b > 1)
            EXPECT_EQ(H::bucketLowerBound(b), H::bucketUpperBound(b - 1) + 1);
    }
    EXPECT_EQ(H::bucketUpperBound(H::kBuckets - 1),
              std::numeric_limits<int64_t>::max());
}

TEST(Histogram, RecordCountsSumAndBuckets)
{
    obs::Histogram h;
    h.record(0);
    h.record(1);
    h.record(3);
    h.record(4);
    h.record(7);
    EXPECT_EQ(h.count(), 5);
    EXPECT_EQ(h.sum(), 15);
    EXPECT_EQ(h.bucketCount(0), 1);
    EXPECT_EQ(h.bucketCount(1), 1);
    EXPECT_EQ(h.bucketCount(2), 1);
    EXPECT_EQ(h.bucketCount(3), 2);
}

TEST(Metrics, ConcurrentIncrementsUnderParallelFor)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    obs::Counter &c = reg.counter("test.concurrent.counter");
    c.reset();

    constexpr int kLanes = 4;
    constexpr int64_t kPerLane = 5000;
    runLanes(kLanes, [&] {
        for (int64_t i = 0; i < kPerLane; ++i)
            c.add(1);
    });
    EXPECT_EQ(c.value(), kLanes * kPerLane);
}

TEST(Metrics, RegistryTotalsMatchSearchStats)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.reset();

    const DseResult r = miniSweep(2);

    // The registry's counters are incremented at the same sites as
    // the deterministic SearchStats fields, so totals must agree.
    EXPECT_EQ(reg.counter("mapper.candidates.evaluated").value(),
              r.search.evaluated);
    EXPECT_EQ(reg.counter("mapper.candidates.pruned").value(),
              r.search.pruned);
    EXPECT_EQ(reg.counter("mapper.cache.hits").value(),
              r.search.cacheHits);
    EXPECT_EQ(reg.counter("mapper.cache.misses").value(),
              r.search.cacheMisses);
    EXPECT_EQ(reg.counter("dse.points.swept").value(), r.swept);

    // The span histograms time one design point per swept point, one
    // pickBest() per cache miss and one layer search per lookup.
    EXPECT_EQ(spanCount("dse.design_point"), r.swept);
    EXPECT_EQ(spanCount("mapper.pick_best"), r.search.cacheMisses);
    EXPECT_EQ(spanCount("mapper.layer_search"),
              r.search.cacheHits + r.search.cacheMisses);
}

TEST(Determinism, TracingDoesNotChangeResults)
{
    const DseResult plain = miniSweep(1);
    DseResult traced;
    {
        TracingOn on;
        traced = miniSweep(4);
    }
    EXPECT_EQ(plain.swept, traced.swept);
    EXPECT_EQ(plain.search.evaluated, traced.search.evaluated);
    EXPECT_EQ(plain.search.pruned, traced.search.pruned);
    ASSERT_EQ(plain.points.size(), traced.points.size());
    for (size_t i = 0; i < plain.points.size(); ++i) {
        EXPECT_EQ(plain.points[i].cost.energy.total(),
                  traced.points[i].cost.energy.total());
        EXPECT_EQ(plain.points[i].edp(), traced.points[i].edp());
    }
    // The traced parallel sweep covered every instrumented phase.
    std::set<std::string> phases;
    for (const obs::TraceEvent &e : tracedEvents())
        phases.insert(e.name);
    for (const char *expected :
         {"dse.explore", "dse.enumerate_space", "dse.design_point",
          "dse.collect", "mapper.map_model", "mapper.candidates",
          "mapper.pick_best"}) {
        EXPECT_TRUE(phases.count(expected)) << expected;
    }
}

TEST(Determinism, FullObservabilityStackDoesNotChangeResults)
{
    // Everything at once — tracing, the always-on flight recorder and
    // span histograms, and a very chatty progress heartbeat — must be
    // observation-only: the parallel sweep returns the same results
    // and deterministic counters as a bare serial one.
    const DseResult plain = miniSweep(1);
    DseResult observed;
    {
        TracingOn on;
        observed = miniSweep(4, /*progressSeconds=*/0.01);
    }
    EXPECT_EQ(plain.swept, observed.swept);
    EXPECT_EQ(plain.infeasible, observed.infeasible);
    EXPECT_EQ(plain.areaRejected, observed.areaRejected);
    EXPECT_EQ(plain.search.evaluated, observed.search.evaluated);
    EXPECT_EQ(plain.search.pruned, observed.search.pruned);
    ASSERT_EQ(plain.points.size(), observed.points.size());
    for (size_t i = 0; i < plain.points.size(); ++i) {
        EXPECT_EQ(plain.points[i].cost.energy.total(),
                  observed.points[i].cost.energy.total());
        EXPECT_EQ(plain.points[i].edp(), observed.points[i].edp());
    }
    // The heartbeat left its gauges behind (done == total at exit).
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    EXPECT_DOUBLE_EQ(reg.gauge("dse.progress.done").value(),
                     reg.gauge("dse.progress.total").value());
    EXPECT_GT(reg.gauge("dse.progress.total").value(), 0.0);
}

TEST(Trace, SpanHistogramsSurviveTheTraceCap)
{
    // One fresh thread overfills its trace buffer (2^20 events): the
    // trace overwrites its oldest spans, the span histogram counts
    // every span.
    constexpr int64_t kSpans = (int64_t{1} << 20) + 1000;
    const int64_t droppedBefore = obs::droppedTraceEvents();
    const int64_t countBefore = spanCount("test.past_the_cap");
    {
        TracingOn on;
        std::thread([] {
            for (int64_t i = 0; i < kSpans; ++i)
                obs::recordSpan("test.past_the_cap", 0, 5);
        }).join();
    }
    EXPECT_GE(obs::droppedTraceEvents() - droppedBefore, 1000);
    EXPECT_EQ(spanCount("test.past_the_cap") - countBefore, kSpans);
}

TEST(Trace, FullTraceKeepsItsNewestSpans)
{
    // A fresh thread overfills its trace buffer, then records one span
    // under a new name: the trace overwrites its oldest spans, keeps
    // the new span as the thread's last event, and counts every span
    // it overwrote.
    constexpr int64_t kSpans = (int64_t{1} << 20) + 1000;
    const int64_t droppedBefore = obs::droppedTraceEvents();
    uint32_t tid = 0;
    {
        TracingOn on;
        std::thread([&tid] {
            tid = obs::currentThreadTag();
            for (int64_t i = 0; i < kSpans; ++i)
                obs::recordSpan("test.overfill", 0, 5);
            obs::recordSpan("test.newest", 0, 5);
        }).join();
    }
    int64_t kept = 0;
    std::string last;
    obs::forEachTraceEvent([&](const obs::TraceEvent &e) {
        if (e.tid == tid) {
            ++kept;
            last = e.name;
        }
    });
    EXPECT_EQ(last, "test.newest");
    EXPECT_EQ(kept + obs::droppedTraceEvents() - droppedBefore,
              kSpans + 1);
}

TEST(Trace, WalksRunWhileAThreadRecordsPastTheCap)
{
    // One thread records spans numbered by their start, past its cap,
    // while this one writes the Chrome trace and walks the events:
    // every walk sees that thread's spans as one unbroken run of at
    // most 2^20 consecutive numbers.  Under TSan this also checks that
    // the walks read only published events of recycled chunks.
    constexpr int64_t kCap = int64_t{1} << 20;
    constexpr int64_t kSpans = kCap + (int64_t{1} << 18);
    std::atomic<uint32_t> tid{0};
    std::atomic<int64_t> recorded{0};
    TracingOn on;
    std::thread recorder([&] {
        tid.store(obs::currentThreadTag());
        for (int64_t i = 0; i < kSpans; ++i) {
            const uint64_t start = static_cast<uint64_t>(i);
            obs::recordSpan("test.walked", start, start + 1);
            recorded.store(i + 1, std::memory_order_relaxed);
        }
    });

    bool unbroken = true;
    const auto walk = [&] {
        int64_t kept = 0;
        uint64_t next = 0;
        obs::forEachTraceEvent([&](const obs::TraceEvent &e) {
            if (e.tid != tid.load())
                return;
            unbroken = unbroken && (kept == 0 || e.startNs == next);
            next = e.startNs + 1;
            ++kept;
        });
        unbroken = unbroken && kept <= kCap;
        return std::pair{kept, next};
    };
    // A walk holds the recorder's chunk mutex, so walking back to back
    // would stall it; two walks past the cap are enough.
    while (recorded.load(std::memory_order_relaxed) < kCap)
        std::this_thread::yield();
    std::ostream sink(nullptr); // formats every event, keeps no bytes
    for (int w = 0; w < 2; ++w) {
        obs::writeChromeTrace(sink);
        walk();
    }
    recorder.join();

    const auto [kept, next] = walk();
    EXPECT_TRUE(unbroken);
    EXPECT_EQ(kept, kCap);
    EXPECT_EQ(next, static_cast<uint64_t>(kSpans));
}

TEST(Trace, FullSpanLedgerPanicsNamingTheSpan)
{
    // A thread that records more distinct span names than its ledger
    // holds fails loudly on the first name left without a slot.
    static std::array<std::string, 1024> names;
    size_t refused = names.size();
    std::string message;
    std::thread([&] {
        for (size_t i = 0; i < names.size(); ++i) {
            names[i] = "test.ledger." + std::to_string(i);
            try {
                obs::recordSpan(names[i].c_str(), 0, 1);
            } catch (const StatusError &e) {
                refused = i;
                message = e.status().message();
                return;
            }
        }
    }).join();
    ASSERT_LT(refused, names.size()) << "every name found a slot";
    EXPECT_NE(message.find(names[refused]), std::string::npos) << message;
}

TEST(Metrics, SpanHistogramsMergeAcrossThreads)
{
    // Two threads record one name: the snapshot holds one histogram
    // with both threads' spans, and its JSON form reads back whole.
    obs::MetricsRegistry::instance().reset();
    const auto record = [](int n, uint64_t durNs) {
        for (int i = 0; i < n; ++i)
            obs::recordSpan("test.merged", 100, 100 + durNs);
    };
    std::thread a(record, 3, 2000);
    std::thread b(record, 5, 9);
    a.join();
    b.join();

    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    int named = 0;
    for (const obs::HistogramSnapshot &h : snap.histograms)
        named += h.name == "test.merged_ns" ? 1 : 0;
    EXPECT_EQ(named, 1);
    const obs::HistogramSnapshot *h =
        findHistogram(snap, "test.merged_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 8);
    EXPECT_EQ(h->sum, 3 * 2000 + 5 * 9);
    EXPECT_EQ(h->minValue, 9);
    EXPECT_EQ(h->maxValue, 2000);
    EXPECT_EQ(h->buckets[obs::Histogram::bucketIndex(9)], 5);
    EXPECT_EQ(h->buckets[obs::Histogram::bucketIndex(2000)], 3);

    std::ostringstream ss;
    {
        JsonWriter j(ss);
        obs::writeMetricsJson(j, snap);
    }
    const JsonParseResult parsed = parseJson(ss.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const StatusOr<obs::MetricsSnapshot> back =
        obs::metricsSnapshotFromJson(parsed.value);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    const obs::HistogramSnapshot *r =
        findHistogram(back.value(), "test.merged_ns");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->count, h->count);
    EXPECT_EQ(r->sum, h->sum);
    EXPECT_EQ(r->minValue, h->minValue);
    EXPECT_EQ(r->maxValue, h->maxValue);
    EXPECT_EQ(r->buckets, h->buckets);
}

TEST(Metrics, JsonSnapshotRoundTrips)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.counter("test.json.counter").add(42);
    reg.gauge("test.json.gauge").set(1.5);
    obs::recordSpan("test.json.span", 100, 109);

    std::ostringstream ss;
    JsonWriter j(ss);
    obs::writeMetricsJson(j, reg.snapshot());
    const JsonParseResult parsed = parseJson(ss.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;

    const JsonValue *counters = parsed.value.find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue *c = counters->find("test.json.counter");
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(c->number, 42.0);

    const JsonValue *hists = parsed.value.find("histograms");
    ASSERT_NE(hists, nullptr);
    const JsonValue *h = hists->find("test.json.span_ns");
    ASSERT_NE(h, nullptr);
    const JsonValue *buckets = h->find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_GE(buckets->array.size(), 1u);
}
