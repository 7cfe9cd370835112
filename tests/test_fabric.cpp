/**
 * @file
 * Tests for the distributed sweep fabric: backoff and endpoint
 * helpers, the lease table, the sweepUnit wire format, and the
 * coordinator end-to-end against in-process TCP workers.
 *
 * The acceptance bar (docs/distributed.md): a sweep sharded across
 * workers — including under injected transport faults, worker
 * crashes, and checkpoint resume — merges to bytes identical to the
 * single-process `pre` sweep.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baton/baton.hpp"
#include "baton/export.hpp"
#include "common/backoff.hpp"
#include "common/cancel.hpp"
#include "common/net.hpp"
#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"
#include "dse/slice.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/lease.hpp"
#include "fabric/wire.hpp"
#include "nn/parser.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "verif/fault.hpp"

using namespace nnbaton;
using namespace nnbaton::fabric;

namespace {

// The same tiny workload the serve tests use: small enough that a
// full sweep runs in seconds, wide enough to produce a feasible
// recommendation.
const char *kTinyModelRaw = "model tiny 32\n"
                            "conv c1 8 8 64 16 3 3 1\n"
                            "fc head 64 128\n";

Model
tinyModel()
{
    const ParseResult parsed = parseModelString(kTinyModelRaw);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return *parsed.model;
}

/** Sweep options that match what a worker rebuilds for a sweepUnit
 *  request (dse effort derived from proportional, serial lanes), so
 *  the sweep fingerprint agrees end to end.  Proportional memory
 *  keeps the space small (~50 points) — units stay plentiful while
 *  every end-to-end sweep finishes in well under a second. */
DseOptions
sweepOptions()
{
    DseOptions opt;
    opt.totalMacs = 256;
    opt.proportionalMem = true;
    opt.effort = SearchEffort::Fast;
    opt.objective = Objective::MinEnergy;
    opt.searchMode = SearchMode::Exhaustive;
    opt.threads = 1;
    return opt;
}

/** The lean pre-design export for @p sweep, with the run-dependent
 *  "resumed" counter zeroed so fresh and resumed runs compare equal
 *  when their points and winner are the same. */
std::string
leanPreBytes(const DseResult &sweep)
{
    PreDesignReport report;
    report.sweep = sweep;
    report.sweep.resumed = 0;
    if (auto best = report.sweep.bestEdp())
        report.recommended = report.sweep.points[*best];
    std::ostringstream ss;
    exportPreDesign(report, ss, ExportOptions::lean());
    return ss.str();
}

/** Single-process reference bytes, computed once. */
const std::string &
serialBaseline()
{
    static const std::string bytes = [] {
        const Model model = tinyModel();
        return leanPreBytes(explore(model, sweepOptions(),
                                    defaultTech()));
    }();
    return bytes;
}

/** N in-process serve daemons on kernel-assigned TCP ports. */
struct Fleet
{
    struct Worker
    {
        std::unique_ptr<serve::Server> server;
        std::thread thread;
    };
    std::vector<Worker> workers;
    std::vector<std::string> endpoints;

    explicit Fleet(int n)
    {
        for (int i = 0; i < n; ++i) {
            serve::ServerOptions opt;
            opt.tcpAddress = ":0";
            opt.threads = 2;
            auto server =
                std::make_unique<serve::Server>(std::move(opt));
            const Status started = server->start();
            EXPECT_TRUE(started.ok()) << started.toString();
            EXPECT_GT(server->tcpPort(), 0);
            endpoints.push_back("127.0.0.1:" +
                                std::to_string(server->tcpPort()));
            workers.push_back(Worker{std::move(server), {}});
            serve::Server *raw = workers.back().server.get();
            workers.back().thread = std::thread([raw] { raw->run(); });
        }
    }

    ~Fleet()
    {
        for (Worker &w : workers) {
            w.server->requestStop();
            if (w.thread.joinable())
                w.thread.join();
        }
    }
};

std::string
uniqueTempFile(const char *tag)
{
    return "/tmp/nnb-fabric-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + ".json";
}

} // namespace

// ---------------------------------------------------------------------
// Backoff.
// ---------------------------------------------------------------------

TEST(Backoff, DeterministicPerSeedAndBounded)
{
    BackoffPolicy policy;
    Backoff a(policy, 42);
    Backoff b(policy, 42);
    for (int i = 0; i < policy.maxRetries; ++i) {
        const int64_t delay = a.nextDelayMs();
        EXPECT_EQ(delay, b.nextDelayMs());
        // Within jitter bounds of the exponential base.
        const double base =
            std::min<double>(static_cast<double>(policy.maxDelayMs),
                             policy.initialDelayMs *
                                 std::pow(policy.multiplier, i));
        EXPECT_GE(delay, static_cast<int64_t>(
                             base * (1.0 - policy.jitter) - 1));
        EXPECT_LE(delay, static_cast<int64_t>(
                             base * (1.0 + policy.jitter) + 1));
    }
    EXPECT_TRUE(a.exhausted());
    a.reset();
    EXPECT_FALSE(a.exhausted());
}

TEST(Backoff, NoJitterGrowsExactlyAndCaps)
{
    BackoffPolicy policy;
    policy.initialDelayMs = 50;
    policy.maxDelayMs = 300;
    policy.multiplier = 2.0;
    policy.jitter = 0.0;
    policy.maxRetries = 5;
    Backoff backoff(policy, 1);
    EXPECT_EQ(backoff.nextDelayMs(), 50);
    EXPECT_EQ(backoff.nextDelayMs(), 100);
    EXPECT_EQ(backoff.nextDelayMs(), 200);
    EXPECT_EQ(backoff.nextDelayMs(), 300); // capped
    EXPECT_EQ(backoff.nextDelayMs(), 300);
}

TEST(Backoff, SleepWithCancelReturnsEarly)
{
    CancelToken token;
    token.requestCancel();
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(sleepWithCancel(10000, &token));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_LT(elapsed, 2.0);
    EXPECT_TRUE(sleepWithCancel(1, nullptr));
}

// ---------------------------------------------------------------------
// Endpoint parsing.
// ---------------------------------------------------------------------

TEST(Net, ParsesTcpAndUnixEndpointForms)
{
    const Endpoint a = parseEndpoint("127.0.0.1:7070").value();
    EXPECT_TRUE(a.tcp);
    EXPECT_EQ(a.host, "127.0.0.1");
    EXPECT_EQ(a.port, 7070);
    EXPECT_EQ(a.toString(), "127.0.0.1:7070");

    const Endpoint b = parseEndpoint(":8080").value();
    EXPECT_TRUE(b.tcp);
    EXPECT_EQ(b.port, 8080);

    const Endpoint c = parseEndpoint("localhost:7070").value();
    EXPECT_TRUE(c.tcp);
    EXPECT_EQ(c.port, 7070);

    // ":0" is a valid bind endpoint (kernel-assigned port).
    EXPECT_EQ(parseEndpoint(":0").value().port, 0);

    const Endpoint d = parseEndpoint("/tmp/nnb.sock").value();
    EXPECT_FALSE(d.tcp);
    EXPECT_EQ(d.unixPath, "/tmp/nnb.sock");

    // No all-digit port suffix: a Unix socket path, not TCP.
    EXPECT_FALSE(parseEndpoint("no-port-here").value().tcp);

    EXPECT_FALSE(parseEndpoint("").ok());
    EXPECT_FALSE(parseEndpoint("host:99999").ok());
}

TEST(Net, ConnectToUnboundPortFailsFast)
{
    // Port 1 has no listener; the failure must be a Status, not a
    // hang, and must carry a retryable-classifiable code.
    const StatusOr<LineChannel> channel =
        connectLineChannel("127.0.0.1:1", 2.0);
    ASSERT_FALSE(channel.ok());
    EXPECT_TRUE(channel.status().code() == StatusCode::Unavailable ||
                channel.status().code() ==
                    StatusCode::DeadlineExceeded)
        << channel.status().toString();
}

// ---------------------------------------------------------------------
// Lease table.
// ---------------------------------------------------------------------

namespace {

std::vector<WorkUnit>
threeUnits()
{
    return {WorkUnit{0, 0, 2}, WorkUnit{1, 2, 4}, WorkUnit{2, 4, 5}};
}

} // namespace

TEST(LeaseTable, HandsOutPendingUnitsThenFinishes)
{
    LeaseTable table(threeUnits(), 30.0);
    EXPECT_EQ(table.claim(nullptr)->id, 0);
    EXPECT_EQ(table.claim(nullptr)->id, 1);
    EXPECT_EQ(table.claim(nullptr)->id, 2);
    EXPECT_TRUE(table.complete(0));
    EXPECT_TRUE(table.complete(1));
    EXPECT_FALSE(table.allDone());
    EXPECT_TRUE(table.complete(2));
    EXPECT_TRUE(table.allDone());
    EXPECT_EQ(table.claim(nullptr), std::nullopt);
    EXPECT_TRUE(table.incompleteUnits().empty());
}

TEST(LeaseTable, FirstCompletionWinsDuplicatesCounted)
{
    LeaseTable table({WorkUnit{0, 0, 1}}, 30.0);
    ASSERT_TRUE(table.claim(nullptr).has_value());
    EXPECT_TRUE(table.complete(0));
    EXPECT_FALSE(table.complete(0)); // late duplicate: dropped
    EXPECT_EQ(table.duplicateCompletions(), 1);
}

TEST(LeaseTable, ReleasedUnitIsImmediatelyReclaimable)
{
    LeaseTable table({WorkUnit{0, 0, 1}}, 30.0);
    ASSERT_EQ(table.claim(nullptr)->id, 0);
    table.release(0);
    // No lease wait: the failed claimer handed it straight back.
    EXPECT_EQ(table.claim(nullptr)->id, 0);
    EXPECT_EQ(table.leasesExpired(), 0);
}

TEST(LeaseTable, ExpiredLeaseIsStolen)
{
    LeaseTable table({WorkUnit{0, 0, 1}}, 0.05);
    ASSERT_EQ(table.claim(nullptr)->id, 0);
    // The holder went silent; after the TTL the unit is re-issued.
    const auto t0 = std::chrono::steady_clock::now();
    const std::optional<WorkUnit> stolen = table.claim(nullptr);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(stolen->id, 0);
    EXPECT_EQ(table.leasesExpired(), 1);
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_GE(waited, 0.04);
}

TEST(LeaseTable, CancelUnblocksWaitingClaim)
{
    LeaseTable table({WorkUnit{0, 0, 1}}, 60.0);
    ASSERT_TRUE(table.claim(nullptr).has_value());
    CancelToken token;
    std::optional<WorkUnit> got = WorkUnit{};
    std::thread waiter([&] { got = table.claim(&token); });
    token.requestCancel();
    waiter.join();
    EXPECT_EQ(got, std::nullopt);
    EXPECT_EQ(table.incompleteUnits().size(), 1u);
}

// ---------------------------------------------------------------------
// Wire format.
// ---------------------------------------------------------------------

TEST(FabricWire, RequestRoundTripsThroughServeParser)
{
    const Model model = tinyModel();
    const DseOptions opt = sweepOptions();
    const WorkUnit unit{3, 4, 8};
    const std::string fp = sweepFingerprint(model, opt);
    const std::string tfp = techFingerprintHex(defaultTech());
    const std::string line = encodeSweepUnitRequest(
        writeModelText(model), opt, defaultTech(), unit, fp, tfp);

    const auto parsed = serve::parseRequest(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const serve::ServeRequest &req = parsed.value();
    EXPECT_EQ(req.op, serve::Op::SweepUnit);
    EXPECT_EQ(req.unitId, 3);
    EXPECT_EQ(req.unitBegin, 4);
    EXPECT_EQ(req.unitEnd, 8);
    EXPECT_EQ(req.sweepFp, fp);
    EXPECT_EQ(req.techFp, tfp);
    EXPECT_EQ(req.macs, opt.totalMacs);
    EXPECT_TRUE(req.proportional);
    // The inline model text reproduces the model...
    const ParseResult echoed = parseModelString(req.modelText);
    ASSERT_TRUE(echoed.ok()) << echoed.error;
    EXPECT_EQ(echoed.model->name(), model.name());
    // ...and the technology projection reproduces the exact digest
    // the worker-side gate recomputes.
    EXPECT_EQ(req.tech.fingerprint(), defaultTech().fingerprint());
}

TEST(FabricWire, ParseRejectsCorruptFrames)
{
    const WorkUnit unit{0, 0, 1};
    const auto r = parseSweepUnitResponse("\x7fgarbage frame", unit,
                                          "FP", "TFP");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DataLoss);
}

TEST(FabricWire, ParseLiftsEnvelopesBackToStatuses)
{
    const WorkUnit unit{0, 0, 1};
    const auto overloaded = parseSweepUnitResponse(
        serve::errorResponse(errUnavailable("overloaded")), unit, "FP",
        "TFP");
    ASSERT_FALSE(overloaded.ok());
    EXPECT_EQ(overloaded.status().code(), StatusCode::Unavailable);

    const auto mismatch = parseSweepUnitResponse(
        serve::errorResponse(
            errFailedPrecondition("fingerprint mismatch")),
        unit, "FP", "TFP");
    ASSERT_FALSE(mismatch.ok());
    EXPECT_EQ(mismatch.status().code(),
              StatusCode::FailedPrecondition);
}

TEST(FabricWire, ParseValidatesIdentityAndShape)
{
    const WorkUnit unit{1, 5, 6};
    const char *statsAllZero =
        "\"stats\":{\"evaluated\":0,\"pruned\":0,\"cacheHits\":0,"
        "\"cacheMisses\":0}";

    // Response for a different unit: never merged.
    const auto wrongUnit = parseSweepUnitResponse(
        std::string("{\"ok\":true,\"unitId\":9,\"fingerprint\":\"FP\","
                    "\"techFingerprint\":\"TFP\",\"entries\":[],") +
            statsAllZero + "}",
        unit, "FP", "TFP");
    ASSERT_FALSE(wrongUnit.ok());
    EXPECT_EQ(wrongUnit.status().code(),
              StatusCode::FailedPrecondition);

    // Fingerprint echo mismatch: the worker swept a different space.
    const auto wrongFp = parseSweepUnitResponse(
        std::string("{\"ok\":true,\"unitId\":1,\"fingerprint\":"
                    "\"OTHER\",\"techFingerprint\":\"TFP\","
                    "\"entries\":[],") +
            statsAllZero + "}",
        unit, "FP", "TFP");
    ASSERT_FALSE(wrongFp.ok());
    EXPECT_EQ(wrongFp.status().code(), StatusCode::FailedPrecondition);

    // Entry count must cover the unit exactly.
    const auto shortEntries = parseSweepUnitResponse(
        std::string("{\"ok\":true,\"unitId\":1,\"fingerprint\":\"FP\","
                    "\"techFingerprint\":\"TFP\",\"entries\":[],") +
            statsAllZero + "}",
        unit, "FP", "TFP");
    ASSERT_FALSE(shortEntries.ok());
    EXPECT_EQ(shortEntries.status().code(), StatusCode::DataLoss);

    // A well-formed single-entry response parses.
    const auto good = parseSweepUnitResponse(
        std::string("{\"ok\":true,\"unitId\":1,\"fingerprint\":\"FP\","
                    "\"techFingerprint\":\"TFP\",\"entries\":[{\"i\":5,"
                    "\"kind\":\"area_rejected\"}],") +
            statsAllZero + "}",
        unit, "FP", "TFP");
    ASSERT_TRUE(good.ok()) << good.status().toString();
    ASSERT_EQ(good.value().outcomes.size(), 1u);
    EXPECT_EQ(good.value().outcomes[0].kind,
              SweepPointOutcome::AreaRejected);
}

TEST(FabricWire, SweepUnitMaterialisesOnlyItsRangeAndChecksTheTotal)
{
    serve::EvalService service{serve::ServiceOptions{}};
    const Model model = tinyModel();
    const DseOptions opt = sweepOptions();
    const int64_t total = SweepTaskSpace(opt).size();
    const std::string fp = sweepFingerprint(model, opt);
    const std::string tfp = techFingerprintHex(defaultTech());
    const auto request = [&](const WorkUnit &unit) {
        return service
            .handleLine(encodeSweepUnitRequest(writeModelText(model), opt,
                                               defaultTech(), unit, fp,
                                               tfp))
            .response;
    };

    // The last unit of the sweep answers with exactly its points.
    const WorkUnit last{1, total - 2, total};
    const auto parsed = parseSweepUnitResponse(request(last), last, fp, tfp);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().outcomes.size(), 2u);

    // A unit reaching past the enumeration is refused, non-retryably.
    const std::string beyond = request(WorkUnit{2, total - 1, total + 1});
    EXPECT_EQ(beyond.rfind("{\"ok\":false", 0), 0u) << beyond;
    EXPECT_NE(beyond.find("\"code\":\"FAILED_PRECONDITION\""),
              std::string::npos)
        << beyond;
}

// ---------------------------------------------------------------------
// Coordinator end-to-end against in-process TCP workers.
// ---------------------------------------------------------------------

TEST(Fabric, DistributedSweepMatchesSerialBitForBit)
{
    Fleet fleet(3);
    FabricOptions fab;
    fab.workers = fleet.endpoints;
    fab.unitPoints = 2; // force several units per worker
    FabricStats stats;
    const Model model = tinyModel();
    const DseResult r = coordinateSweep(model, sweepOptions(),
                                        defaultTech(), fab, &stats);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(leanPreBytes(r), serialBaseline());
    EXPECT_GT(stats.units, 2);
    EXPECT_EQ(stats.unitsCompleted, stats.units);
    EXPECT_EQ(stats.localFallbackUnits, 0);
    EXPECT_EQ(stats.workersQuarantined, 0);
}

TEST(Fabric, CancelledSweepMarksRemainingSkipped)
{
    CancelToken token;
    token.requestCancel();
    DseOptions opt = sweepOptions();
    opt.cancel = &token;
    FabricOptions fab;
    fab.workers = {"127.0.0.1:1"}; // never reached: claim() cancels
    const Model model = tinyModel();
    const DseResult r =
        coordinateSweep(model, opt, defaultTech(), fab, nullptr);
    EXPECT_FALSE(r.complete);
    EXPECT_EQ(r.skipped, r.swept);
    EXPECT_TRUE(r.points.empty());
}

// ---------------------------------------------------------------------
// Chaos: injected transport faults, worker loss, crash recovery.
// ---------------------------------------------------------------------

namespace {

/** Run a distributed sweep with @p plan armed and small retry delays;
 *  returns the result and fills @p stats. */
DseResult
chaosSweep(const Fleet &fleet, const verif::FaultPlan &plan,
           FabricStats &stats, double ioTimeoutSeconds = 30.0)
{
    FabricOptions fab;
    fab.workers = fleet.endpoints;
    fab.unitPoints = 2;
    fab.worker.ioTimeoutSeconds = ioTimeoutSeconds;
    fab.worker.backoff.initialDelayMs = 5;
    const Model model = tinyModel();
    verif::armFaultPlan(plan);
    const DseResult r = coordinateSweep(model, sweepOptions(),
                                        defaultTech(), fab, &stats);
    verif::disarmFaultPlan();
    return r;
}

} // namespace

TEST(Chaos, DroppedConnectionIsRetriedToTheSameBytes)
{
    Fleet fleet(3);
    verif::FaultPlan plan;
    plan.dropConnAtUnit = 1;
    FabricStats stats;
    const DseResult r = chaosSweep(fleet, plan, stats);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(leanPreBytes(r), serialBaseline());
    EXPECT_GE(stats.retries, 1);
    EXPECT_EQ(stats.workersQuarantined, 0);
}

TEST(Chaos, CorruptFrameIsRetriedToTheSameBytes)
{
    Fleet fleet(3);
    verif::FaultPlan plan;
    plan.corruptFrameAtUnit = 0;
    FabricStats stats;
    const DseResult r = chaosSweep(fleet, plan, stats);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(leanPreBytes(r), serialBaseline());
    EXPECT_GE(stats.retries, 1);
}

TEST(Chaos, StalledWorkerTimesOutAndRecovers)
{
    Fleet fleet(3);
    verif::FaultPlan plan;
    plan.stallAtUnit = 0;
    plan.stallUnitMs = 800;
    FabricStats stats;
    // I/O budget well under the stall: the coordinator must treat
    // the wedged worker as failed and re-drive the unit.
    const DseResult r =
        chaosSweep(fleet, plan, stats, /*ioTimeoutSeconds=*/0.2);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(leanPreBytes(r), serialBaseline());
    EXPECT_GE(stats.retries, 1);
}

TEST(Chaos, KilledWorkerMidUnitIsQuarantinedAndUnitStolen)
{
    Fleet fleet(3);
    verif::FaultPlan plan;
    plan.killWorkerAtUnit = 0;
    FabricStats stats;
    FabricOptions fab;
    fab.workers = fleet.endpoints;
    fab.unitPoints = 2;
    fab.worker.ioTimeoutSeconds = 1.0; // dead server may still accept
    fab.worker.maxFailures = 2;
    fab.worker.backoff.initialDelayMs = 5;
    const Model model = tinyModel();
    verif::armFaultPlan(plan);
    const DseResult r = coordinateSweep(model, sweepOptions(),
                                        defaultTech(), fab, &stats);
    verif::disarmFaultPlan();
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(leanPreBytes(r), serialBaseline());
    EXPECT_GE(stats.workersQuarantined, 1);
    EXPECT_EQ(stats.unitsCompleted, stats.units);
}

TEST(Chaos, EveryWorkerLostFallsBackToLocalEvaluation)
{
    FabricOptions fab;
    fab.workers = {"127.0.0.1:1", "127.0.0.1:2"}; // nothing listens
    fab.worker.maxFailures = 1;
    fab.worker.connectTimeoutSeconds = 1.0;
    fab.worker.backoff.initialDelayMs = 1;
    fab.unitPoints = 4;
    FabricStats stats;
    const Model model = tinyModel();
    const DseResult r = coordinateSweep(model, sweepOptions(),
                                        defaultTech(), fab, &stats);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(leanPreBytes(r), serialBaseline());
    EXPECT_EQ(stats.workersQuarantined, 2);
    EXPECT_EQ(stats.unitsCompleted, 0);
    EXPECT_EQ(stats.localFallbackUnits, stats.units);
}

TEST(Chaos, LocalPartialCheckpointResumesDistributed)
{
    const std::string ckpt = uniqueTempFile("resume-dist");
    std::remove(ckpt.c_str());

    // A local sweep interrupted mid-flight leaves a partial
    // checkpoint (the "coordinator killed mid-sweep" state).
    {
        DseOptions opt = sweepOptions();
        opt.checkpointPath = ckpt;
        opt.checkpointEvery = 1;
        CancelToken token;
        opt.cancel = &token;
        verif::FaultPlan plan;
        plan.cancelAfterPoints = 4;
        verif::armFaultPlan(plan);
        const Model model = tinyModel();
        const DseResult partial =
            explore(model, opt, defaultTech());
        verif::disarmFaultPlan();
        EXPECT_FALSE(partial.complete);
    }

    // Resuming that checkpoint distributed finishes the sweep to the
    // same bytes as an uninterrupted serial run.
    Fleet fleet(3);
    DseOptions opt = sweepOptions();
    opt.resumePath = ckpt;
    FabricOptions fab;
    fab.workers = fleet.endpoints;
    fab.unitPoints = 2;
    FabricStats stats;
    const Model model = tinyModel();
    const DseResult r =
        coordinateSweep(model, opt, defaultTech(), fab, &stats);
    std::remove(ckpt.c_str());
    EXPECT_TRUE(r.complete);
    EXPECT_GT(r.resumed, 0);
    EXPECT_EQ(leanPreBytes(r), serialBaseline());
}

TEST(Chaos, DistributedCheckpointResumesLocally)
{
    const std::string ckpt = uniqueTempFile("resume-local");
    std::remove(ckpt.c_str());

    // A distributed sweep checkpoints in the same format a local one
    // reads: the two paths are interchangeable mid-sweep.
    {
        Fleet fleet(2);
        DseOptions opt = sweepOptions();
        opt.checkpointPath = ckpt;
        opt.checkpointEvery = 1;
        FabricOptions fab;
        fab.workers = fleet.endpoints;
        fab.unitPoints = 2;
        const Model model = tinyModel();
        const DseResult r = coordinateSweep(model, opt, defaultTech(),
                                            fab, nullptr);
        EXPECT_TRUE(r.complete);
    }

    DseOptions opt = sweepOptions();
    opt.resumePath = ckpt;
    const Model model = tinyModel();
    const DseResult r = explore(model, opt, defaultTech());
    std::remove(ckpt.c_str());
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.resumed, r.swept); // everything restored, nothing rerun
    EXPECT_EQ(leanPreBytes(r), serialBaseline());
}

// ---------------------------------------------------------------------
// Admission control and retryable envelopes.
// ---------------------------------------------------------------------

TEST(Chaos, ErrorEnvelopesCarryTheRetryableFlag)
{
    EXPECT_NE(serve::errorResponse(errUnavailable("overloaded"))
                  .find("\"retryable\":true"),
              std::string::npos);
    EXPECT_NE(serve::errorResponse(errDeadlineExceeded("slow"))
                  .find("\"retryable\":true"),
              std::string::npos);
    EXPECT_NE(serve::errorResponse(errInvalidArgument("bad"))
                  .find("\"retryable\":false"),
              std::string::npos);
    EXPECT_TRUE(serve::isRetryableCode(StatusCode::Unavailable));
    EXPECT_TRUE(serve::isRetryableCode(StatusCode::Cancelled));
    EXPECT_TRUE(serve::isRetryableCode(StatusCode::DeadlineExceeded));
    EXPECT_FALSE(serve::isRetryableCode(StatusCode::InvalidArgument));
    EXPECT_FALSE(
        serve::isRetryableCode(StatusCode::FailedPrecondition));
}

TEST(Chaos, OverloadedServiceRefusesHeavyWorkRetryably)
{
    serve::ServiceOptions opt;
    opt.maxInflight = 1;
    serve::EvalService service{opt};
    // The full (non-proportional) memory grid takes seconds to sweep
    // — plenty of time to observe the busy lane from outside.
    const std::string slowPre =
        "{\"op\":\"pre\",\"modelText\":\"model tiny 32\\nconv c1 8 8 "
        "64 16 3 3 1\\nfc head 64 128\\n\",\"macs\":32}";
    const std::string quickPre =
        "{\"op\":\"pre\",\"modelText\":\"model tiny 32\\nconv c1 8 8 "
        "64 16 3 3 1\\nfc head 64 128\\n\",\"macs\":256,"
        "\"proportional\":true}";

    // Hold the single evaluation lane busy with a real sweep...
    std::thread busy([&] {
        const std::string response =
            service.handleLine(slowPre).response;
        EXPECT_NE(response.rfind("{\"ok\":false", 0), 0u) << response;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    // ...heavy work beyond the cap is refused with a retryable
    // envelope, while cheap ops still answer.
    const std::string refused =
        service.handleLine(quickPre).response;
    EXPECT_EQ(refused.rfind("{\"ok\":false", 0), 0u) << refused;
    EXPECT_NE(refused.find("\"code\":\"UNAVAILABLE\""),
              std::string::npos)
        << refused;
    EXPECT_NE(refused.find("\"retryable\":true"), std::string::npos);
    EXPECT_EQ(service.handleLine("{\"op\":\"ping\"}").response,
              "{\"pong\":true}");
    busy.join();

    // With the lane free again the same request is admitted.
    const std::string admitted =
        service.handleLine(quickPre).response;
    EXPECT_NE(admitted.rfind("{\"ok\":false", 0), 0u) << admitted;
}
