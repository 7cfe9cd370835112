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

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baton/baton.hpp"
#include "baton/export.hpp"
#include "common/backoff.hpp"
#include "common/cancel.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/net.hpp"
#include "common/trace.hpp"
#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"
#include "dse/lease.hpp"
#include "dse/slice.hpp"
#include "fabric/coordinator.hpp"
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
    opt.effort = sweepEffort(opt.proportionalMem);
    opt.objective = Objective::MinEnergy;
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

/** dse.design_point spans traced so far, per trace thread id. */
std::map<uint32_t, int64_t>
designPointSpansPerThread()
{
    std::map<uint32_t, int64_t> spans;
    obs::forEachTraceEvent([&spans](const obs::TraceEvent &e) {
        if (std::string(e.name) == "dse.design_point")
            ++spans[e.tid];
    });
    return spans;
}

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

/**
 * Worker connections frame with LineChannel, so a peer that writes
 * more than kMaxLineBytes without a newline is refused instead of
 * growing the buffer without limit.
 */
TEST(Fabric, RecvLineRefusesALineOverTheBound)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineChannel reader(fds[0]);
    std::thread writer([fd = fds[1]] {
        const std::string line(kMaxLineBytes + 1, 'x');
        size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::send(fd, line.data() + off,
                                     line.size() - off, MSG_NOSIGNAL);
            if (n <= 0 && errno != EINTR)
                break;
            off += n > 0 ? static_cast<size_t>(n) : 0;
        }
    });
    const StatusOr<std::string> line = reader.recvLine(30.0);
    reader.close(); // unblocks a writer the reader stopped draining
    writer.join();
    ::close(fds[1]);
    EXPECT_EQ(line.status().code(), StatusCode::InvalidArgument)
        << line.status().toString();
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

    // A released unit behind later claims is the next one handed out.
    LeaseTable three(threeUnits(), 30.0);
    for (int64_t id = 0; id < 3; ++id)
        ASSERT_EQ(three.claim(nullptr)->id, id);
    three.release(0);
    EXPECT_EQ(three.claim(nullptr)->id, 0);
    EXPECT_EQ(three.leasesExpired(), 0);
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

TEST(LeaseTable, TryClaimNeverWaitsNorStealsALiveLease)
{
    LeaseTable table(threeUnits(), 30.0);
    EXPECT_EQ(table.tryClaim()->id, 0);
    EXPECT_EQ(table.claim(nullptr)->id, 1);
    EXPECT_EQ(table.tryClaim()->id, 2);
    // Every unit holds a live lease: claim() would wait up to the
    // 30 s TTL for one to expire, tryClaim() answers at once.
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(table.tryClaim(), std::nullopt);
    EXPECT_EQ(table.tryClaim(), std::nullopt);
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              1.0);
    EXPECT_EQ(table.leasesExpired(), 0);
    table.release(1);
    EXPECT_EQ(table.tryClaim()->id, 1);
    for (int64_t id = 0; id < 3; ++id)
        EXPECT_TRUE(table.complete(id));
    EXPECT_EQ(table.tryClaim(), std::nullopt);

    // An expired lease is fair game, as for claim().
    LeaseTable expiring({WorkUnit{0, 0, 1}}, 0.05);
    ASSERT_EQ(expiring.tryClaim()->id, 0);
    EXPECT_EQ(expiring.tryClaim(), std::nullopt);
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_EQ(expiring.tryClaim()->id, 0);
    EXPECT_EQ(expiring.leasesExpired(), 1);
}

/** A TTL past what a steady_clock duration holds saturates: the
 *  lease lives for good instead of expiring at once. */
TEST(LeaseTable, HugeTtlLeaseIsNeverStolen)
{
    LeaseTable table(threeUnits(), 1e12);
    for (int64_t id = 0; id < 3; ++id)
        EXPECT_EQ(table.tryClaim()->id, id);
    EXPECT_EQ(table.tryClaim(), std::nullopt);
    EXPECT_EQ(table.leasesExpired(), 0);
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

/**
 * A worker rebuilds the coordinator's sweep identity from a sweepUnit
 * request.  One field at a time over everything sweepFingerprint()
 * reads: encode the request, parse it as the daemon does, and rebuild
 * the model and options as runSweepUnit() does.  The effort does not
 * travel; it follows the proportional flag by sweepEffort(), which
 * coordinateSweep() enforces (next test).
 */
TEST(FabricWire, WorkerRebuildsTheCoordinatorsSweepIdentity)
{
    const Model base_model = tinyModel();
    const auto withLayers = [&](std::string name, int resolution,
                                std::vector<ConvLayer> layers) {
        Model m(std::move(name), resolution);
        for (ConvLayer &l : layers)
            m.addLayer(std::move(l));
        return m;
    };
    const auto plus = [&](ConvLayer extra) {
        std::vector<ConvLayer> layers = base_model.layers();
        layers.push_back(std::move(extra));
        return withLayers(base_model.name(), base_model.inputResolution(),
                          std::move(layers));
    };
    using ModelEdit = std::pair<const char *, std::function<Model()>>;
    const ModelEdit model_fields[] = {
        {"name",
         [&] {
             return withLayers("other", base_model.inputResolution(),
                               base_model.layers());
         }},
        {"resolution",
         [&] {
             return withLayers(base_model.name(), 64, base_model.layers());
         }},
        {"layer shape",
         [&] {
             std::vector<ConvLayer> layers = base_model.layers();
             layers[0].co *= 2;
             return withLayers(base_model.name(),
                               base_model.inputResolution(), layers);
         }},
        {"batch",
         [&] {
             Model m = base_model;
             m.scaleBatch(2);
             return m;
         }},
        {"postOps", [&] { return plus(makeGemm("sm", 64, 64, 32, 1, 3)); }},
        {"depthwise",
         [&] { return plus(makeDepthwiseConv("dw", 8, 8, 64, 3, 1)); }},
        {"gemm", [&] { return plus(makeGemm("g", 48, 64, 96)); }},
    };
    using OptionsEdit =
        std::pair<const char *, std::function<void(DseOptions &)>>;
    const OptionsEdit option_fields[] = {
        {"totalMacs", [](DseOptions &o) { o.totalMacs = 512; }},
        {"areaLimitMm2", [](DseOptions &o) { o.areaLimitMm2 = 3.0; }},
        {"proportionalMem",
         [](DseOptions &o) {
             o.proportionalMem = !o.proportionalMem;
             o.effort = sweepEffort(o.proportionalMem);
         }},
        {"objective",
         [](DseOptions &o) { o.objective = Objective::MinEdp; }},
    };

    const std::string tfp = techFingerprintHex(defaultTech());
    const std::string base_fp =
        sweepFingerprint(base_model, sweepOptions());
    const auto expectWorkerAgrees = [&](const char *field,
                                        const Model &model,
                                        const DseOptions &opt) {
        const std::string fp = sweepFingerprint(model, opt);
        EXPECT_NE(fp, base_fp) << field;
        const std::string line =
            encodeSweepUnitRequest(writeModelText(model), opt,
                                   defaultTech(), WorkUnit{0, 0, 1}, fp,
                                   tfp);
        const auto parsed = serve::parseRequest(line);
        ASSERT_TRUE(parsed.ok()) << field << ": "
                                 << parsed.status().toString();
        const serve::ServeRequest &req = parsed.value();
        const ParseResult echoed = parseModelString(req.modelText);
        ASSERT_TRUE(echoed.ok()) << field << ": " << echoed.error;
        EXPECT_EQ(sweepFingerprint(*echoed.model,
                                   serve::sweepRequestOptions(req)),
                  fp)
            << field;
        EXPECT_EQ(req.sweepFp, fp) << field;
    };
    for (const auto &[field, edit] : model_fields)
        expectWorkerAgrees(field, edit(), sweepOptions());
    for (const auto &[field, edit] : option_fields) {
        DseOptions opt = sweepOptions();
        edit(opt);
        expectWorkerAgrees(field, base_model, opt);
    }
}

/**
 * A worker scores under the coordinator's technology model.  One
 * parameter at a time over all 22 that TechnologyModel::fingerprint()
 * digests, the request a coordinator encodes parses back to the same
 * fingerprint.  The SRAM/RF area fits and the MAC and PHY areas decide
 * which points fail the area budget; requests used to leave them out,
 * so a coordinator that changed one got every worker quarantined.
 */
TEST(FabricWire, WorkerRebuildsEveryTechnologyParameter)
{
    using Edit =
        std::pair<const char *, std::function<void(TechnologyModel &)>>;
    const Edit fields[] = {
        {"dramEnergyPerBit",
         [](TechnologyModel &t) { t.dramEnergyPerBit *= 1.5; }},
        {"d2dEnergyPerBit",
         [](TechnologyModel &t) { t.d2dEnergyPerBit *= 1.5; }},
        {"l2EnergyPerBitAt32K",
         [](TechnologyModel &t) { t.l2EnergyPerBitAt32K *= 1.5; }},
        {"l1EnergyPerBitAt1K",
         [](TechnologyModel &t) { t.l1EnergyPerBitAt1K *= 1.5; }},
        {"rfEnergyPerBitRmw",
         [](TechnologyModel &t) { t.rfEnergyPerBitRmw *= 1.5; }},
        {"macEnergyPerOp",
         [](TechnologyModel &t) { t.macEnergyPerOp *= 1.5; }},
        {"nocEnergyPerBit",
         [](TechnologyModel &t) { t.nocEnergyPerBit *= 1.5; }},
        {"sramEnergyPerBitKb.offset",
         [](TechnologyModel &t) { t.sramEnergyPerBitKb.offset *= 1.5; }},
        {"sramEnergyPerBitKb.slope",
         [](TechnologyModel &t) { t.sramEnergyPerBitKb.slope *= 1.5; }},
        {"sramAreaMm2Kb.offset",
         [](TechnologyModel &t) { t.sramAreaMm2Kb.offset *= 1.5; }},
        {"sramAreaMm2Kb.slope",
         [](TechnologyModel &t) { t.sramAreaMm2Kb.slope *= 1.5; }},
        {"rfAreaMm2Kb.offset",
         [](TechnologyModel &t) { t.rfAreaMm2Kb.offset *= 1.5; }},
        {"rfAreaMm2Kb.slope",
         [](TechnologyModel &t) { t.rfAreaMm2Kb.slope *= 1.5; }},
        {"macAreaUm2", [](TechnologyModel &t) { t.macAreaUm2 *= 1.5; }},
        {"grsPhyAreaMm2",
         [](TechnologyModel &t) { t.grsPhyAreaMm2 *= 1.5; }},
        {"ddrPhyAreaMm2",
         [](TechnologyModel &t) { t.ddrPhyAreaMm2 *= 1.5; }},
        {"frequencyGhz", [](TechnologyModel &t) { t.frequencyGhz *= 1.5; }},
        {"dramBitsPerCycle",
         [](TechnologyModel &t) { t.dramBitsPerCycle *= 2; }},
        {"d2dBitsPerCycle",
         [](TechnologyModel &t) { t.d2dBitsPerCycle *= 2; }},
        {"dataBits", [](TechnologyModel &t) { t.dataBits *= 2; }},
        {"psumBits", [](TechnologyModel &t) { t.psumBits *= 2; }},
        {"vectorOpEnergyPerOp",
         [](TechnologyModel &t) { t.vectorOpEnergyPerOp *= 1.5; }},
    };
    ASSERT_EQ(std::size(fields), 22u);

    const Model model = tinyModel();
    const DseOptions opt = sweepOptions();
    const std::string fp = sweepFingerprint(model, opt);
    for (const auto &[field, edit] : fields) {
        TechnologyModel tech = defaultTech();
        edit(tech);
        EXPECT_NE(tech.fingerprint(), defaultTech().fingerprint())
            << field;
        const std::string line = encodeSweepUnitRequest(
            writeModelText(model), opt, tech, WorkUnit{0, 0, 1}, fp,
            techFingerprintHex(tech));
        const auto parsed = serve::parseRequest(line);
        ASSERT_TRUE(parsed.ok()) << field << ": "
                                 << parsed.status().toString();
        EXPECT_EQ(parsed.value().tech.fingerprint(), tech.fingerprint())
            << field;
    }
}

TEST(Fabric, CoordinatorRefusesAnEffortWorkersCannotRebuild)
{
    // The effort is not on the wire: under any effort but the rule's,
    // every worker would fail the fingerprint gate, be quarantined,
    // and leave the whole sweep to local fallback.  The coordinator
    // refuses such options before leasing a unit.
    Fleet fleet(1);
    FabricOptions fab;
    fab.workers = fleet.endpoints;
    DseOptions opt = sweepOptions();
    opt.effort = SearchEffort::Sketch; // the grid's effort, not this one's
    try {
        coordinateSweep(tinyModel(), opt, defaultTech(), fab, nullptr);
        ADD_FAILURE() << "coordinateSweep accepted a mismatched effort";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument)
            << e.what();
    }
    EXPECT_EQ(fleet.workers[0].server->service().requestsHandled(), 0);
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

/**
 * A reply's entries go through the checkpoint records' codec: every
 * kind round-trips, a valid point with every energy term (the
 * vector-ALU term included), a poisoned one with its error.
 */
TEST(FabricWire, EntriesRoundTripEveryKindThroughTheOutcomeCodec)
{
    SweepPointOutcome valid;
    valid.kind = SweepPointOutcome::Valid;
    valid.point.compute = {4, 8, 8, 8};
    valid.point.memory = {1536, 800, 18432, 65536};
    valid.point.area = {0.1, 0.2, 0.3, 0.38, 1.0};
    valid.point.clockGhz = 0.5;
    valid.point.cost.modelName = "tiny";
    valid.point.cost.cycles = 1234;
    valid.point.cost.energy.dram = 1.0 / 3.0;
    valid.point.cost.energy.vector = 2.0 / 7.0;
    LayerCost layer;
    layer.layerName = "c1";
    layer.cycles = 1234;
    layer.utilization = 0.75;
    layer.energy = valid.point.cost.energy;
    valid.point.cost.layers = {layer};
    SweepPointOutcome poisoned;
    poisoned.kind = SweepPointOutcome::Poisoned;
    poisoned.error = "INTERNAL: injected fault";
    SweepPointOutcome infeasible;
    infeasible.kind = SweepPointOutcome::Infeasible;
    const std::vector<SweepPointOutcome> sent = {
        SweepPointOutcome{}, infeasible, valid, poisoned};

    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject();
    j.field("ok", true);
    j.field("unitId", 2);
    j.field("fingerprint", "FP");
    j.field("techFingerprint", "TFP");
    j.key("entries").beginArray();
    for (size_t k = 0; k < sent.size(); ++k) {
        j.beginObject();
        j.field("i", static_cast<int64_t>(10 + k));
        writeSweepOutcomeJson(j, sent[k]);
        j.endObject();
    }
    j.endArray();
    j.key("stats").beginObject();
    for (const char *name :
         {"evaluated", "pruned", "cacheHits", "cacheMisses"})
        j.field(name, 0);
    j.endObject();
    j.endObject();

    const auto got =
        parseSweepUnitResponse(ss.str(), WorkUnit{2, 10, 14}, "FP", "TFP");
    ASSERT_TRUE(got.ok()) << got.status().toString();
    const std::vector<SweepPointOutcome> &back = got.value().outcomes;
    ASSERT_EQ(back.size(), sent.size());
    for (size_t k = 0; k < sent.size(); ++k)
        EXPECT_EQ(back[k].kind, sent[k].kind) << k;
    EXPECT_EQ(back[3].error, poisoned.error);
    const DesignPoint &p = back[2].point;
    EXPECT_EQ(p.memory.wl1Bytes, 18432);
    EXPECT_EQ(p.area.total(), valid.point.area.total());
    EXPECT_EQ(p.cost.cycles, 1234);
    EXPECT_EQ(p.cost.energy.dram, valid.point.cost.energy.dram);
    EXPECT_EQ(p.cost.energy.vector, valid.point.cost.energy.vector);
    ASSERT_EQ(p.cost.layers.size(), 1u);
    EXPECT_EQ(p.cost.layers[0].layerName, "c1");
    EXPECT_EQ(p.cost.layers[0].utilization, 0.75);
    EXPECT_EQ(p.cost.layers[0].energy.vector,
              valid.point.cost.energy.vector);
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

/**
 * Unit ids, entry indices and work counters are exact non-negative
 * int64_t integers.  A reply whose number is a fraction, an overflow
 * or a string is DATA_LOSS, never merged as some nearby integer.
 */
TEST(FabricWire, ParseRefusesNumbersThatDoNotFitTheirField)
{
    const WorkUnit unit{7, 0, 1};
    const auto reply = [](const std::string &slot,
                          const std::string &text) {
        const auto num = [&](const char *name, const char *good) {
            return name == slot ? text : std::string(good);
        };
        return "{\"ok\":true,\"unitId\":" + num("unitId", "7") +
               ",\"fingerprint\":\"FP\",\"techFingerprint\":\"TFP\","
               "\"entries\":[{\"i\":" + num("i", "0") +
               ",\"kind\":\"area_rejected\"}],\"stats\":{\"evaluated\":" +
               num("evaluated", "0") + ",\"pruned\":" + num("pruned", "0") +
               ",\"cacheHits\":" + num("cacheHits", "0") +
               ",\"cacheMisses\":" + num("cacheMisses", "0") + "}}";
    };
    ASSERT_TRUE(parseSweepUnitResponse(reply("", ""), unit, "FP", "TFP")
                    .ok());
    for (const char *slot : {"unitId", "i", "evaluated", "pruned",
                             "cacheHits", "cacheMisses"}) {
        for (const char *bad : {"2.5", "1e400", "-1e300",
                                "9223372036854775808", "\"7\""}) {
            const auto r =
                parseSweepUnitResponse(reply(slot, bad), unit, "FP", "TFP");
            ASSERT_FALSE(r.ok()) << slot << "=" << bad;
            EXPECT_EQ(r.status().code(), StatusCode::DataLoss)
                << slot << "=" << bad << ": " << r.status().toString();
            EXPECT_NE(r.status().message().find(std::string("'") + slot),
                      std::string::npos)
                << r.status().toString();
        }
    }

    // Each of these used to truncate: unit 7.5 as 7, entry 0.9 as 0,
    // 2.5 points evaluated as 2, 1e300 pruned as INT64_MIN.
    const auto r = parseSweepUnitResponse(
        "{\"ok\":true,\"unitId\":7.5,\"fingerprint\":\"FP\","
        "\"techFingerprint\":\"TFP\",\"entries\":[{\"i\":0.9,"
        "\"kind\":\"area_rejected\"}],\"stats\":{\"evaluated\":2.5,"
        "\"pruned\":1e300,\"cacheHits\":0,\"cacheMisses\":0}}",
        unit, "FP", "TFP");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DataLoss);
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

/**
 * A distributed sweep runs the local sweep's driver: its --progress
 * heartbeat reports every point and it publishes the dse.points.*
 * counters.  The coordinator used to do neither.
 */
TEST(Fabric, DistributedSweepReportsProgressAndPointCounters)
{
    const std::string &serial = serialBaseline();
    Fleet fleet(3);
    FabricOptions fab;
    fab.workers = fleet.endpoints;
    fab.unitPoints = 2;
    DseOptions opt = sweepOptions();
    opt.progressSeconds = 0.01;
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.gauge("dse.progress.done").set(0.0);
    reg.gauge("dse.progress.total").set(0.0);
    const int64_t sweptBefore = reg.counter("dse.points.swept").value();
    const DseResult r =
        coordinateSweep(tinyModel(), opt, defaultTech(), fab, nullptr);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(leanPreBytes(r), serial);
    EXPECT_DOUBLE_EQ(reg.gauge("dse.progress.done").value(),
                     static_cast<double>(r.swept));
    EXPECT_DOUBLE_EQ(reg.gauge("dse.progress.total").value(),
                     static_cast<double>(r.swept));
    EXPECT_EQ(reg.counter("dse.points.swept").value() - sweptBefore,
              r.swept);
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

namespace {

/**
 * A worker scripted over common/net in front of an in-process
 * EvalService, serving one connection at a time like a one-lane
 * daemon.  It holds each connection's first reply until that
 * connection's second request line has arrived — so a lane that
 * waits for each reply before sending its next request times out
 * against it — and records the unit id of every request, per
 * connection.  With @p dropFirstConnection it closes its first
 * connection, unanswered, once those two lines are in.
 */
class ScriptedWorker
{
  public:
    explicit ScriptedWorker(bool dropFirstConnection = false)
        : service_(serve::ServiceOptions{}),
          dropFirst_(dropFirstConnection)
    {
        Endpoint any;
        any.tcp = true;
        any.host = "127.0.0.1";
        listenFd_ = listenEndpoint(any).value();
        port_ = boundPort(listenFd_);
        thread_ = std::thread([this] { serve(); });
    }

    ~ScriptedWorker()
    {
        stop_ = true;
        thread_.join();
        ::close(listenFd_);
    }

    std::string
    endpoint() const
    {
        return "127.0.0.1:" + std::to_string(port_);
    }

    /** The unit ids each connection asked for, in arrival order. */
    std::vector<std::vector<int64_t>>
    requests() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return requests_;
    }

  private:
    void
    serve()
    {
        while (!stop_) {
            pollfd p{listenFd_, POLLIN, 0};
            if (::poll(&p, 1, 20) <= 0)
                continue;
            const int fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd >= 0)
                serveConnection(LineChannel(fd));
        }
    }

    void
    serveConnection(LineChannel channel)
    {
        size_t connection = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            connection = requests_.size();
            requests_.emplace_back();
        }
        std::vector<std::string> held; // received, not yet answered
        bool holding = true;           // the first reply waits
        while (!stop_) {
            StatusOr<std::string> line = channel.recvLine(0.02);
            if (!line.ok()) {
                if (line.status().code() == StatusCode::DeadlineExceeded)
                    continue;
                return; // the coordinator hung up
            }
            const int64_t unitId =
                serve::parseRequest(line.value()).value().unitId;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                requests_[connection].push_back(unitId);
            }
            held.push_back(std::move(line).value());
            if (holding && held.size() < 2)
                continue;
            if (holding && dropFirst_ && connection == 0)
                return; // drop with two units outstanding
            holding = false;
            for (const std::string &request : held) {
                if (!channel
                         .sendLine(service_.handleLine(request).response,
                                   30.0)
                         .ok())
                    return;
            }
            held.clear();
        }
    }

    serve::EvalService service_;
    const bool dropFirst_;
    int listenFd_ = -1;
    int port_ = 0;
    std::atomic<bool> stop_{false};
    mutable std::mutex mutex_;
    std::vector<std::vector<int64_t>> requests_;
    std::thread thread_;
};

} // namespace

TEST(Fabric, LaneKeepsTwoUnitsInFlight)
{
    ScriptedWorker worker;
    FabricOptions fab;
    fab.workers = {worker.endpoint()};
    fab.unitPoints = 2;
    // A lane that sent one unit and waited would time out here, retry
    // until quarantined and finish the sweep locally.
    fab.worker.ioTimeoutSeconds = 2.0;
    fab.worker.backoff.initialDelayMs = 5;
    FabricStats stats;
    const Model model = tinyModel();
    const DseResult r = coordinateSweep(model, sweepOptions(),
                                        defaultTech(), fab, &stats);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(leanPreBytes(r), serialBaseline());
    EXPECT_GT(stats.units, 2);
    EXPECT_EQ(stats.retries, 0);
    EXPECT_EQ(stats.workersQuarantined, 0);
    EXPECT_EQ(stats.localFallbackUnits, 0);
    EXPECT_EQ(stats.unitsCompleted, stats.units);
    // One connection carried every unit, in claim order.
    const std::vector<std::vector<int64_t>> requests = worker.requests();
    ASSERT_EQ(requests.size(), 1u);
    EXPECT_EQ(static_cast<int64_t>(requests[0].size()), stats.units);
    for (size_t k = 0; k < requests[0].size(); ++k)
        EXPECT_EQ(requests[0][k], static_cast<int64_t>(k));
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

TEST(Chaos, DropWithTwoUnitsOutstandingResendsBothInOrder)
{
    ScriptedWorker worker(/*dropFirstConnection=*/true);
    FabricOptions fab;
    fab.workers = {worker.endpoint()};
    fab.unitPoints = 2;
    fab.worker.backoff.initialDelayMs = 5;
    FabricStats stats;
    const Model model = tinyModel();
    const DseResult r = coordinateSweep(model, sweepOptions(),
                                        defaultTech(), fab, &stats);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(leanPreBytes(r), serialBaseline());
    EXPECT_EQ(stats.retries, 1); // one failed attempt, two units
    EXPECT_EQ(stats.duplicateCompletions, 0);
    EXPECT_EQ(stats.workersQuarantined, 0);
    EXPECT_EQ(stats.localFallbackUnits, 0);
    // Both outstanding units went out again, in order, on the fresh
    // connection, ahead of any new claim.
    const std::vector<std::vector<int64_t>> requests = worker.requests();
    ASSERT_EQ(requests.size(), 2u);
    EXPECT_EQ(requests[0], (std::vector<int64_t>{0, 1}));
    ASSERT_GE(requests[1].size(), 2u);
    EXPECT_EQ(requests[1][0], 0);
    EXPECT_EQ(requests[1][1], 1);
    EXPECT_EQ(static_cast<int64_t>(requests[1].size()), stats.units);
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

/**
 * A lost fleet's units go to DseOptions::threads local lanes, not to
 * one: with four lanes and one-point units, more than one thread
 * evaluates design points, and the export is still the serial
 * sweep's.  DarkNet-19 makes the sweep long enough (about 0.2 s on
 * one lane) that every lane is running well before the table drains.
 */
TEST(Chaos, LostFleetFallsBackOnEveryLane)
{
    const Model model = makeZooModel("darknet19", 224);
    DseOptions opt = sweepOptions();
    opt.totalMacs = 1024;
    const std::string serial =
        leanPreBytes(explore(model, opt, defaultTech()));

    FabricOptions fab;
    fab.workers = {"127.0.0.1:1"}; // nothing listens
    fab.worker.maxFailures = 1;
    fab.worker.connectTimeoutSeconds = 1.0;
    fab.worker.backoff.initialDelayMs = 1;
    fab.unitPoints = 1;
    opt.threads = 4;
    FabricStats stats;
    const std::map<uint32_t, int64_t> before = designPointSpansPerThread();
    obs::setTracingEnabled(true);
    const DseResult r =
        coordinateSweep(model, opt, defaultTech(), fab, &stats);
    obs::setTracingEnabled(false);
    const std::map<uint32_t, int64_t> after = designPointSpansPerThread();

    EXPECT_TRUE(r.complete);
    EXPECT_EQ(leanPreBytes(r), serial);
    EXPECT_EQ(stats.workersQuarantined, 1);
    EXPECT_EQ(stats.units, r.swept);
    EXPECT_EQ(stats.localFallbackUnits, stats.units);
    int64_t spans = 0;
    int lanes = 0;
    for (const auto &[tid, count] : after) {
        const auto was = before.find(tid);
        const int64_t grew = count - (was == before.end() ? 0 : was->second);
        spans += grew;
        lanes += grew > 0 ? 1 : 0;
    }
    EXPECT_EQ(spans, r.swept);
    EXPECT_GT(lanes, 1);
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
