/**
 * @file
 * Tests for the persistent evaluation service: wire-protocol parsing,
 * the transport-free EvalService, and the Unix-socket Server under
 * concurrent clients.
 *
 * The acceptance bar: responses bit-identical to the equivalent
 * one-shot flow, warm cache hits across requests, and no aliasing
 * between requests carrying different technology models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "baton/baton.hpp"
#include "baton/export.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/net.hpp"
#include "nn/parser.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "verif/fault.hpp"

#include <fstream>

using namespace nnbaton;
using namespace nnbaton::serve;

namespace {

// A workload small enough for an exhaustive search per request, and
// wide enough to be feasible on the paper's case-study hardware.
const char *kTinyModel = "model tiny 32\\n"
                         "conv c1 8 8 64 16 3 3 1\\n"
                         "fc head 64 128\\n";
const char *kTinyModelRaw = "model tiny 32\n"
                            "conv c1 8 8 64 16 3 3 1\n"
                            "fc head 64 128\n";
// A second shape so the daemon sees more than one key.
const char *kTinyModel2 = "model tiny2 32\\n"
                          "conv c1 12 12 64 24 3 3 1\\n";
const char *kTinyModel2Raw = "model tiny2 32\n"
                             "conv c1 12 12 64 24 3 3 1\n";

/** The bytes the one-shot CLI writes for this post query (--no-obs). */
std::string
expectedPost(const std::string &modelText, const TechnologyModel &tech)
{
    const ParseResult parsed = parseModelString(modelText);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    PostDesignFlow flow(caseStudyConfig(), tech);
    const PostDesignReport report = flow.run(*parsed.model);
    std::ostringstream ss;
    exportPostDesign(report, ss, ExportOptions::lean());
    std::string s = ss.str();
    while (!s.empty() && s.back() == '\n')
        s.pop_back();
    return s;
}

/** A raw client socket connected to the daemon at @p socketPath. */
int
connectUnix(const std::string &socketPath)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    EXPECT_LT(socketPath.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, socketPath.c_str(),
                socketPath.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
    return fd;
}

/** Send all of @p data on @p fd; false on a socket error. */
bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

/**
 * Read from @p fd until the first newline (or, with @p toEof, until
 * the peer closes), giving up after @p seconds.  @p eof, when given,
 * reports whether the peer closed.
 */
std::string
readFor(int fd, double seconds, bool toEof = false, bool *eof = nullptr)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000));
    std::string buffer;
    char chunk[4096];
    while (toEof || buffer.find('\n') == std::string::npos) {
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline -
                                       std::chrono::steady_clock::now());
        pollfd p{};
        p.fd = fd;
        p.events = POLLIN;
        if (left.count() <= 0 ||
            ::poll(&p, 1, static_cast<int>(left.count())) <= 0)
            break;
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            if (eof)
                *eof = n == 0;
            break;
        }
        buffer.append(chunk, static_cast<size_t>(n));
    }
    return buffer;
}

/** Connect to the daemon, send one line, read one response line. */
std::string
roundTrip(const std::string &socketPath, std::string request)
{
    const int fd = connectUnix(socketPath);
    request.push_back('\n');
    EXPECT_TRUE(sendAll(fd, request)) << std::strerror(errno);
    const std::string buffer = readFor(fd, 60.0);
    ::close(fd);
    const size_t nl = buffer.find('\n');
    return nl == std::string::npos ? buffer : buffer.substr(0, nl);
}

std::string
uniqueSocketPath(const char *tag)
{
    return "/tmp/nnb-test-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + ".sock";
}

bool
isErrorEnvelope(const std::string &response, const char *code)
{
    return response.rfind("{\"ok\":false", 0) == 0 &&
           response.find(std::string("\"code\":\"") + code + "\"") !=
               std::string::npos;
}

} // namespace

// ---------------------------------------------------------------------
// Protocol parsing.
// ---------------------------------------------------------------------

TEST(ServeProtocol, ParsesFullPostRequest)
{
    const auto r = parseRequest(
        "{\"op\":\"post\",\"model\":\"alexnet\",\"resolution\":512,"
        "\"config\":{\"chiplets\":2,\"al2Bytes\":32768},"
        "\"tech\":{\"dramEnergyPerBit\":4.5,\"frequencyGhz\":1},"
        "\"objective\":\"edp\",\"deadlineSeconds\":12.5}");
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const ServeRequest &req = r.value();
    EXPECT_EQ(req.op, Op::Post);
    EXPECT_EQ(req.model, "alexnet");
    EXPECT_EQ(req.resolution, 512);
    EXPECT_EQ(req.config.package.chiplets, 2);
    EXPECT_EQ(req.config.chiplet.al2Bytes, 32768);
    // Untouched members keep the paper's case-study values.
    EXPECT_EQ(req.config.chiplet.cores, caseStudyConfig().chiplet.cores);
    EXPECT_DOUBLE_EQ(req.tech.dramEnergyPerBit, 4.5);
    EXPECT_DOUBLE_EQ(req.tech.frequencyGhz, 1.0);
    EXPECT_DOUBLE_EQ(req.tech.macEnergyPerOp,
                     defaultTech().macEnergyPerOp);
    EXPECT_TRUE(req.edpObjective);
    EXPECT_DOUBLE_EQ(req.deadlineSeconds, 12.5);
}

TEST(ServeProtocol, BnbSearchParsesToExhaustive)
{
    // The retired branch-and-bound mode returned exhaustive search's
    // winners bit for bit, so its name stays accepted as an alias.
    const auto r = parseRequest("{\"op\":\"post\",\"search\":\"bnb\"}");
    ASSERT_TRUE(r.ok()) << r.status().toString();
}

TEST(ServeProtocol, AnnealIsRefused)
{
    // Exhaustive is the only search.  Anneal returned other winners,
    // so reading it as an alias would silently change answers.
    const auto r =
        parseRequest("{\"op\":\"post\",\"search\":\"anneal\"}");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(r.status().message().find("exhaustive"), std::string::npos)
        << r.status().toString();

    // Its seed and move budget are unknown members.
    for (const char *member :
         {"\"annealSeed\":7", "\"annealIterations\":10"}) {
        const auto m = parseRequest(
            std::string("{\"op\":\"post\",") + member + "}");
        ASSERT_FALSE(m.ok()) << member;
        EXPECT_EQ(m.status().code(), StatusCode::InvalidArgument)
            << member;
        EXPECT_NE(m.status().message().find("unknown request member"),
                  std::string::npos)
            << m.status().toString();
    }
}

TEST(ServeProtocol, RejectsMalformedAndUnknown)
{
    EXPECT_FALSE(parseRequest("{not json").ok());
    EXPECT_FALSE(parseRequest("[1,2]").ok());
    EXPECT_FALSE(parseRequest("{\"model\":\"vgg16\"}").ok()); // no op
    EXPECT_FALSE(parseRequest("{\"op\":\"dance\"}").ok());
    EXPECT_FALSE(
        parseRequest("{\"op\":\"post\",\"mdoel\":\"vgg16\"}").ok());
    EXPECT_FALSE(
        parseRequest(
            "{\"op\":\"post\",\"config\":{\"chiplts\":4}}")
            .ok());
    EXPECT_FALSE(
        parseRequest("{\"op\":\"post\",\"tech\":{\"dramEnergyPerBit\":"
                     "-1}}")
            .ok());
    EXPECT_FALSE(
        parseRequest("{\"op\":\"post\",\"resolution\":224.5}").ok());
    // model and modelText are mutually exclusive.
    EXPECT_FALSE(parseRequest("{\"op\":\"post\",\"model\":\"vgg16\","
                              "\"modelText\":\"model m 32\"}")
                     .ok());
}

TEST(ServeProtocol, EveryOpRoundTripsThroughItsName)
{
    // Every Op parses back from its wire name, and an unknown op's
    // error lists every name, in Op order.
    const Status unknown = parseRequest("{\"op\":\"dance\"}").status();
    std::string names;
    for (int i = 0; i <= static_cast<int>(Op::Shutdown); ++i) {
        const Op op = static_cast<Op>(i);
        const std::string name = toString(op);
        names += (names.empty() ? "" : ", ") + name;
        std::string line = "{\"op\":\"" + name + "\"";
        if (op == Op::SweepUnit) {
            line += ",\"unitId\":0,\"begin\":0,\"end\":1,"
                    "\"fingerprint\":\"f\",\"techFingerprint\":\"t\"";
        }
        const StatusOr<ServeRequest> req = parseRequest(line + "}");
        ASSERT_TRUE(req.ok()) << name << ": " << req.status().toString();
        EXPECT_EQ(req.value().op, op) << name;
    }
    EXPECT_EQ(unknown.code(), StatusCode::InvalidArgument);
    EXPECT_NE(unknown.message().find("'dance' (" + names + ")"),
              std::string::npos)
        << unknown.message();
}

TEST(ServeProtocol, ErrorResponseShape)
{
    const std::string line =
        errorResponse(errInvalidArgument("bad thing: %d", 7));
    EXPECT_TRUE(isErrorEnvelope(line, "INVALID_ARGUMENT")) << line;
    EXPECT_NE(line.find("bad thing: 7"), std::string::npos);
}

// ---------------------------------------------------------------------
// EvalService (no transport).
// ---------------------------------------------------------------------

TEST(EvalService, PingStatsAndShutdown)
{
    EvalService service{ServiceOptions{}};
    EXPECT_EQ(service.handleLine("{\"op\":\"ping\"}").response,
              "{\"pong\":true}");
    const HandleResult stats =
        service.handleLine("{\"op\":\"stats\"}");
    EXPECT_FALSE(stats.shutdown);
    EXPECT_NE(stats.response.find("\"requests\":2"), std::string::npos)
        << stats.response;
    EXPECT_NE(stats.response.find("\"cache\":"), std::string::npos);
    const HandleResult bye =
        service.handleLine("{\"op\":\"shutdown\"}");
    EXPECT_TRUE(bye.shutdown);
    EXPECT_EQ(bye.response, "{\"shuttingDown\":true}");
}

TEST(EvalService, StructuredErrorsNeverThrow)
{
    EvalService service{ServiceOptions{}};
    EXPECT_TRUE(isErrorEnvelope(service.handleLine("garbage").response,
                                "INVALID_ARGUMENT"));
    EXPECT_TRUE(isErrorEnvelope(
        service
            .handleLine("{\"op\":\"post\",\"model\":\"resnet51\"}")
            .response,
        "INVALID_ARGUMENT"));
    EXPECT_TRUE(isErrorEnvelope(
        service
            .handleLine("{\"op\":\"post\",\"modelText\":\"model m\"}")
            .response,
        "INVALID_ARGUMENT"));
}

TEST(EvalService, PostDeadlineExceededIsStructured)
{
    EvalService service{ServiceOptions{}};
    // A deadline far below any realistic search time: the evaluation
    // must abort cooperatively and report the status, not hang or die.
    const std::string response =
        service
            .handleLine("{\"op\":\"post\",\"model\":\"resnet50\","
                        "\"deadlineSeconds\":1e-9}")
            .response;
    EXPECT_TRUE(isErrorEnvelope(response, "DEADLINE_EXCEEDED"))
        << response;
}

TEST(EvalService, ZeroDeadlineCapKeepsTheRequestDeadline)
{
    // A service maximum of 0 caps nothing, so a request's own deadline
    // still bounds it: a post query answers DEADLINE_EXCEEDED and a
    // pre sweep its partial result.
    ServiceOptions opt;
    opt.maxDeadlineSeconds = 0;
    EvalService service{opt};
    const std::string post =
        service
            .handleLine(std::string("{\"op\":\"post\",\"modelText\":\"") +
                        kTinyModel + "\",\"deadlineSeconds\":1e-9}")
            .response;
    EXPECT_TRUE(isErrorEnvelope(post, "DEADLINE_EXCEEDED"))
        << post.substr(0, 200);
    const std::string pre =
        service
            .handleLine(std::string("{\"op\":\"pre\",\"modelText\":\"") +
                        kTinyModel +
                        "\",\"macs\":512,\"deadlineSeconds\":1e-9}")
            .response;
    EXPECT_NE(pre.find("\"complete\":false"), std::string::npos)
        << pre.substr(0, 200);
}

TEST(EvalService, PostMatchesOneShotFlowBitForBit)
{
    EvalService service{ServiceOptions{}};
    const std::string request =
        std::string("{\"op\":\"post\",\"modelText\":\"") + kTinyModel +
        "\"}";
    const std::string served = service.handleLine(request).response;
    EXPECT_EQ(served, expectedPost(kTinyModelRaw, defaultTech()));

    // Same request again: each shape's second miss builds its table,
    // and the table search returns the same bytes.
    EXPECT_EQ(service.cache().tableBuilds(), 0);
    const std::string again = service.handleLine(request).response;
    EXPECT_EQ(again, served);
    EXPECT_GT(service.cache().tableBuilds(), 0);
}

TEST(EvalService, BnbPostAnswersLikeExhaustive)
{
    EvalService service{ServiceOptions{}};
    const std::string base =
        std::string("{\"op\":\"post\",\"modelText\":\"") + kTinyModel +
        "\",\"search\":";
    const std::string bnb = service.handleLine(base + "\"bnb\"}").response;
    EXPECT_EQ(bnb, expectedPost(kTinyModelRaw, defaultTech()));

    // Same search: the exhaustive request searches on the tables the
    // bnb request's searches earned, and returns the same bytes.
    const std::string exhaustive =
        service.handleLine(base + "\"exhaustive\"}").response;
    EXPECT_EQ(exhaustive, bnb);
    EXPECT_GT(service.cache().tableHits(), 0);
}

TEST(EvalService, SharedCacheKeepsTechModelsApart)
{
    // The headline bugfix: one warm cache, two technology models —
    // each request must get the energies of a fresh single-tech run.
    EvalService service{ServiceOptions{}};
    const std::string base =
        std::string("{\"op\":\"post\",\"modelText\":\"") + kTinyModel +
        "\"";
    const std::string hotTech =
        ",\"tech\":{\"dramEnergyPerBit\":26.25}";

    const std::string a = service.handleLine(base + "}").response;
    const std::string b =
        service.handleLine(base + hotTech + "}").response;

    TechnologyModel hot = defaultTech();
    hot.dramEnergyPerBit = 26.25;
    EXPECT_EQ(a, expectedPost(kTinyModelRaw, defaultTech()));
    EXPECT_EQ(b, expectedPost(kTinyModelRaw, hot));
    EXPECT_NE(a, b);
}

TEST(EvalService, PreSweepAnswersAndReusesCache)
{
    EvalService service{ServiceOptions{}};
    const std::string request =
        std::string("{\"op\":\"pre\",\"modelText\":\"") + kTinyModel +
        "\",\"macs\":512}";
    const std::string first = service.handleLine(request).response;
    ASSERT_FALSE(first.empty());
    EXPECT_NE(first.rfind("{\"ok\":false", 0), 0u) << first;
    EXPECT_NE(first.find("\"recommended\""), std::string::npos)
        << first;
    // A second run searches on the tables the first one built and
    // returns the same bytes.
    const int64_t tableHits = service.cache().tableHits();
    const std::string second = service.handleLine(request).response;
    EXPECT_EQ(first, second);
    EXPECT_GT(service.cache().tableHits(), tableHits);
}

TEST(EvalService, WorkCountersDoNotDependOnCacheHistory)
{
    // One service answers the same sweep under two request lines.  The
    // second searches on the tables the first one built, yet must
    // report the same work.
    EvalService service{ServiceOptions{}};
    const std::string sweep =
        std::string("{\"op\":\"pre\",\"modelText\":\"") + kTinyModel +
        "\",\"macs\":512";
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    const char *counters[] = {"mapper.candidates.evaluated",
                              "mapper.candidates.pruned",
                              "mapper.cache.hits", "mapper.cache.misses"};
    const auto work = [&](const std::string &line) {
        std::vector<int64_t> before;
        for (const char *name : counters)
            before.push_back(reg.counter(name).value());
        const std::string response = service.handleLine(line).response;
        EXPECT_NE(response.find("\"complete\":true"), std::string::npos)
            << response.substr(0, 200);
        std::vector<int64_t> done;
        for (size_t i = 0; i < std::size(counters); ++i)
            done.push_back(reg.counter(counters[i]).value() - before[i]);
        return done;
    };
    const std::vector<int64_t> cold = work(sweep + "}");
    const int64_t table_hits = service.cache().tableHits();
    const std::vector<int64_t> warm =
        work(sweep + ",\"deadlineSeconds\":300}");
    EXPECT_GT(service.cache().tableHits(), table_hits);
    for (size_t i = 0; i < std::size(counters); ++i)
        EXPECT_EQ(warm[i], cold[i]) << counters[i];
    EXPECT_GT(cold[0], 0);
    EXPECT_GT(cold[3], 0);
}

TEST(EvalService, TablesStayUnderCacheBytes)
{
    // Posts under a small cap: the tables never exceed it and evict,
    // and every answer stays that of a fresh run.
    ServiceOptions options;
    options.cacheBytes = 48 << 10;
    EvalService service{options};
    const auto post = [&](const TechnologyModel &tech) {
        return std::string("{\"op\":\"post\",\"modelText\":\"") +
               kTinyModel + "\",\"tech\":{\"dramEnergyPerBit\":" +
               strprintf("%.17g", tech.dramEnergyPerBit) + "}}";
    };
    for (int i = 0; i < 40; ++i) {
        TechnologyModel tech = defaultTech();
        tech.dramEnergyPerBit += i;
        const std::string served = service.handleLine(post(tech)).response;
        EXPECT_EQ(served, expectedPost(kTinyModelRaw, tech)) << i;
        ASSERT_LE(service.cache().bytes(), options.cacheBytes) << i;
    }
    EXPECT_GT(service.cache().evictions(), 0);
}

// ---------------------------------------------------------------------
// Access log, SLO accounting, metrics/flight ops, and the on-error
// flight-recorder dump.
// ---------------------------------------------------------------------

namespace {

std::string
uniqueTempFile(const char *tag)
{
    return "/tmp/nnb-test-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + ".tmp";
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

} // namespace

TEST(AccessLog, LinesRoundTripThroughJsonParser)
{
    const std::string logPath = uniqueTempFile("accesslog");
    std::remove(logPath.c_str());
    {
        ServiceOptions opt;
        opt.accessLogPath = logPath;
        EvalService service{opt};
        service.handleLine("{\"op\":\"ping\"}");
        service.handleLine(
            std::string("{\"op\":\"post\",\"modelText\":\"") +
            kTinyModel + "\"}");
        service.handleLine("not json at all");
    }
    const std::vector<std::string> lines = readLines(logPath);
    std::remove(logPath.c_str());
    ASSERT_EQ(lines.size(), 3u);

    double previousRid = 0;
    for (const std::string &line : lines) {
        const JsonParseResult parsed = parseJson(line);
        ASSERT_TRUE(parsed.ok()) << parsed.error << " in: " << line;
        const JsonValue &v = parsed.value;
        // Every line carries the full audit schema.
        for (const char *key :
             {"ts", "rid", "op", "outcome", "durationUs", "bytesIn",
              "bytesOut", "cacheHits", "cacheMisses", "search"}) {
            EXPECT_NE(v.find(key), nullptr)
                << key << " missing in: " << line;
        }
        EXPECT_TRUE(v.find("ts")->isString());
        const JsonValue *rid = v.find("rid");
        ASSERT_TRUE(rid->isNumber());
        EXPECT_GT(rid->number, previousRid); // ids are fresh, ordered
        previousRid = rid->number;
        EXPECT_GE(v.find("durationUs")->number, 0.0);
        EXPECT_GT(v.find("bytesIn")->number, 0.0);
        EXPECT_GT(v.find("bytesOut")->number, 0.0);
    }

    EXPECT_EQ(parseJson(lines[0]).value.find("op")->string, "ping");
    const JsonValue post = parseJson(lines[1]).value;
    EXPECT_EQ(post.find("op")->string, "post");
    EXPECT_EQ(post.find("outcome")->string, "OK");
    EXPECT_EQ(post.find("search")->string, "exhaustive");
    EXPECT_GT(post.find("cacheMisses")->number, 0.0);
    const JsonValue bad = parseJson(lines[2]).value;
    EXPECT_EQ(bad.find("op")->string, "invalid");
    EXPECT_EQ(bad.find("outcome")->string, "INVALID_ARGUMENT");
}

TEST(AccessLog, SloViolationsAreCounted)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.counter("serve.slo.violations").reset();

    ServiceOptions opt;
    opt.sloUs = 1; // any real evaluation takes longer than 1us
    EvalService service{opt};
    EXPECT_DOUBLE_EQ(reg.gauge("serve.slo.threshold_us").value(), 1.0);
    service.handleLine(
        std::string("{\"op\":\"post\",\"modelText\":\"") + kTinyModel +
        "\"}");
    EXPECT_GT(reg.counter("serve.slo.violations").value(), 0);
}

TEST(AccessLog, MetricsOpReturnsQuantilesAndCounters)
{
    EvalService service{ServiceOptions{}};
    service.handleLine(
        std::string("{\"op\":\"post\",\"modelText\":\"") + kTinyModel +
        "\"}");
    const std::string response =
        service.handleLine("{\"op\":\"metrics\"}").response;
    const JsonParseResult parsed = parseJson(response);
    ASSERT_TRUE(parsed.ok()) << parsed.error;

    // The scrape client (`nn-baton stats`) must be able to rebuild a
    // snapshot from these bytes...
    const StatusOr<obs::MetricsSnapshot> snap =
        obs::metricsSnapshotFromJson(parsed.value);
    ASSERT_TRUE(snap.ok()) << snap.status().toString();

    // ...and the serve.request span's histogram answers p50/p90/p99.
    const JsonValue *hists = parsed.value.find("histograms");
    ASSERT_NE(hists, nullptr);
    const JsonValue *latency = hists->find("serve.request_ns");
    ASSERT_NE(latency, nullptr);
    for (const char *key : {"count", "min", "max", "p50", "p90", "p99"})
        EXPECT_NE(latency->find(key), nullptr) << key;
    EXPECT_GE(latency->find("count")->number, 1.0);
    const JsonValue *counters = parsed.value.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_NE(counters->find("serve.requests"), nullptr);
    EXPECT_NE(counters->find("mapper.cache.misses"), nullptr);
}

TEST(AccessLog, FlightOpAnswersWithRecentSpans)
{
    EvalService service{ServiceOptions{}};
    service.handleLine("{\"op\":\"ping\"}");
    const std::string response =
        service.handleLine("{\"op\":\"flight\"}").response;
    const JsonParseResult parsed = parseJson(response);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue *rec = parsed.value.find("flightRecorder");
    ASSERT_NE(rec, nullptr);
    EXPECT_NE(rec->find("threads"), nullptr);
}

TEST(AccessLog, FailedRequestDumpsFlightRecorderWithItsRid)
{
    const std::string dumpPath = uniqueTempFile("flightdump");
    std::remove(dumpPath.c_str());
    ServiceOptions opt;
    opt.flightDumpPath = dumpPath;
    EvalService service{opt};

    // Inject a fault inside the mapping search: the very first
    // prune-block poll of this request's evaluation throws.
    verif::FaultPlan plan;
    plan.failAtSearchBlock = 1;
    verif::armFaultPlan(plan);
    const std::string response =
        service
            .handleLine(
                std::string("{\"op\":\"post\",\"modelText\":\"") +
                kTinyModel + "\"}")
            .response;
    verif::disarmFaultPlan();

    // The client sees a structured envelope carrying the request id.
    EXPECT_TRUE(isErrorEnvelope(response, "INTERNAL")) << response;
    const JsonParseResult envelope = parseJson(response);
    ASSERT_TRUE(envelope.ok()) << envelope.error;
    const JsonValue *rid = envelope.value.find("rid");
    ASSERT_NE(rid, nullptr);
    ASSERT_TRUE(rid->isNumber());
    EXPECT_GT(rid->number, 0.0);

    // The daemon left a loadable postmortem tagged with that rid...
    const std::vector<std::string> dumpLines = readLines(dumpPath);
    std::remove(dumpPath.c_str());
    ASSERT_FALSE(dumpLines.empty());
    std::string dumpText;
    for (const std::string &l : dumpLines)
        dumpText += l + "\n";
    const JsonParseResult dump = parseJson(dumpText);
    ASSERT_TRUE(dump.ok())
        << dump.error << " at offset " << dump.errorOffset;
    const JsonValue *failedRid = dump.value.find("failedRequestId");
    ASSERT_NE(failedRid, nullptr);
    EXPECT_EQ(failedRid->number, rid->number);
    EXPECT_NE(dump.value.find("error"), nullptr);

    // ...whose ring still holds spans recorded under that request.
    const JsonValue *rec = dump.value.find("flightRecorder");
    ASSERT_NE(rec, nullptr);
    const JsonValue *threads = rec->find("threads");
    ASSERT_NE(threads, nullptr);
    bool sawFailingRequest = false;
    for (const JsonValue &t : threads->array) {
        const JsonValue *events = t.find("events");
        if (!events)
            continue;
        for (const JsonValue &e : events->array) {
            const JsonValue *eventRid = e.find("rid");
            if (eventRid && eventRid->number == rid->number)
                sawFailingRequest = true;
        }
    }
    EXPECT_TRUE(sawFailingRequest);
}

/**
 * Lanes that fail at once each leave a whole dump: a dump is written
 * to its own file and renamed over the path, so a reader never finds
 * the path cut short or two dumps interleaved, and no temp file stays.
 */
TEST(AccessLog, ConcurrentFailuresLeaveWholeFlightDumps)
{
    const std::string dumpPath = uniqueTempFile("concurrentdump");
    std::remove(dumpPath.c_str());
    ServiceOptions opt;
    opt.flightDumpPath = dumpPath;
    EvalService service{opt};

    constexpr int kLanes = 4;
    constexpr int kFailuresPerLane = 10;
    std::atomic<int> unreadable{0};
    std::vector<std::thread> lanes;
    for (int l = 0; l < kLanes; ++l) {
        lanes.emplace_back([&] {
            for (int i = 0; i < kFailuresPerLane; ++i) {
                service.handleLine("garbage");
                std::ifstream in(dumpPath);
                std::stringstream text;
                text << in.rdbuf();
                const JsonParseResult dump = parseJson(text.str());
                if (!dump.ok() || !dump.value.find("failedRequestId"))
                    unreadable.fetch_add(1);
            }
        });
    }
    for (std::thread &t : lanes)
        t.join();
    EXPECT_EQ(unreadable.load(), 0);

    const std::filesystem::path path(dumpPath);
    for (const auto &entry :
         std::filesystem::directory_iterator(path.parent_path())) {
        const std::string name = entry.path().filename().string();
        EXPECT_FALSE(name.starts_with(path.filename().string() + "."))
            << "left behind: " << name;
    }
    std::remove(dumpPath.c_str());
}

// ---------------------------------------------------------------------
// Server: concurrent clients over the Unix socket.
// ---------------------------------------------------------------------

TEST(ServeServer, StartRejectsBadSocketPath)
{
    ServerOptions opt;
    opt.socketPath = "";
    Server server(std::move(opt));
    EXPECT_FALSE(server.start().ok());

    ServerOptions longOpt;
    longOpt.socketPath = "/tmp/" + std::string(200, 'x');
    Server longServer(std::move(longOpt));
    EXPECT_FALSE(longServer.start().ok());
}

TEST(ServeServer, ConcurrentClientsBitIdenticalAndWarm)
{
    const std::string path = uniqueSocketPath("acc");
    ServerOptions opt;
    opt.socketPath = path;
    opt.threads = 4;
    Server server(std::move(opt));
    ASSERT_TRUE(server.start().ok());
    std::thread daemon([&] { server.run(); });

    // Expected bytes for the four request flavours, computed through
    // the one-shot flow the daemon must match bit for bit.
    TechnologyModel hot = defaultTech();
    hot.dramEnergyPerBit = 26.25;
    const std::string expectA = expectedPost(kTinyModelRaw, defaultTech());
    const std::string expectA2 = expectedPost(kTinyModel2Raw, defaultTech());
    const std::string expectB = expectedPost(kTinyModelRaw, hot);

    const std::string reqA =
        std::string("{\"op\":\"post\",\"modelText\":\"") + kTinyModel +
        "\"}";
    const std::string reqA2 =
        std::string("{\"op\":\"post\",\"modelText\":\"") + kTinyModel2 +
        "\"}";
    const std::string reqB =
        std::string("{\"op\":\"post\",\"modelText\":\"") + kTinyModel +
        "\",\"tech\":{\"dramEnergyPerBit\":26.25}}";

    // 12 concurrent clients: repeated shapes (warm-cache traffic),
    // a second shape, and a different technology model sharing the
    // same daemon cache.
    const int kClients = 12;
    std::vector<std::string> responses(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const std::string &req = (c % 3 == 0)   ? reqB
                                     : (c % 3 == 1) ? reqA2
                                                    : reqA;
            responses[c] = roundTrip(path, req);
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (int c = 0; c < kClients; ++c) {
        const std::string &expect = (c % 3 == 0)   ? expectB
                                    : (c % 3 == 1) ? expectA2
                                                   : expectA;
        EXPECT_EQ(responses[c], expect) << "client " << c;
    }

    // Repeated shapes across different requests search on the shared
    // tables.
    EXPECT_GT(server.service().cache().tableHits(), 0);
    const std::string stats = roundTrip(path, "{\"op\":\"stats\"}");
    EXPECT_NE(stats.find("\"hits\":"), std::string::npos) << stats;

    // A malformed request gets a structured error, not a hangup.
    EXPECT_TRUE(isErrorEnvelope(roundTrip(path, "][,"),
                                "INVALID_ARGUMENT"));

    // Shutdown op answers, then stops the daemon.
    EXPECT_EQ(roundTrip(path, "{\"op\":\"shutdown\"}"),
              "{\"shuttingDown\":true}");
    daemon.join();
}

TEST(ServeServer, MultipleRequestsPerConnection)
{
    const std::string path = uniqueSocketPath("multi");
    ServerOptions opt;
    opt.socketPath = path;
    opt.threads = 2;
    Server server(std::move(opt));
    ASSERT_TRUE(server.start().ok());
    std::thread daemon([&] { server.run(); });

    const int fd = connectUnix(path);
    // Two pipelined requests on one connection, answered in order.
    ASSERT_TRUE(sendAll(fd, "{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n"));
    std::string buffer;
    while (std::count(buffer.begin(), buffer.end(), '\n') < 2) {
        const std::string more = readFor(fd, 60.0);
        ASSERT_FALSE(more.empty());
        buffer += more;
    }
    ::close(fd);
    EXPECT_EQ(buffer.rfind("{\"pong\":true}\n", 0), 0u) << buffer;
    EXPECT_NE(buffer.find("\"requests\":"), std::string::npos);

    server.requestStop();
    daemon.join();
}

/**
 * A request line over kMaxLineBytes gets an INVALID_ARGUMENT envelope
 * and then EOF, and the daemon keeps serving other clients.  The line
 * is one byte over the bound with no newline, so the daemon refuses it
 * only after reading every byte and closes a drained socket.
 */
TEST(ServeServer, OversizedRequestGetsAnEnvelopeThenEof)
{
    const std::string path = uniqueSocketPath("big");
    ServerOptions opt;
    opt.socketPath = path;
    opt.threads = 2;
    Server server(std::move(opt));
    ASSERT_TRUE(server.start().ok());
    std::thread daemon([&] { server.run(); });

    const int fd = connectUnix(path);
    EXPECT_TRUE(sendAll(fd, std::string(kMaxLineBytes + 1, 'x')));
    bool eof = false;
    const std::string reply = readFor(fd, 30.0, /*toEof=*/true, &eof);
    ::close(fd);
    EXPECT_TRUE(eof);
    EXPECT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;
    EXPECT_TRUE(isErrorEnvelope(reply, "INVALID_ARGUMENT")) << reply;

    EXPECT_EQ(roundTrip(path, "{\"op\":\"ping\"}"), "{\"pong\":true}");
    server.requestStop();
    daemon.join();
}

/**
 * A client that pipelines requests and never reads their responses
 * pins the lane only until a response has waited maxDeadlineSeconds;
 * then the connection drops and a one-lane daemon answers the next
 * client.
 */
TEST(ServeServer, ClientThatStopsReadingFreesItsLane)
{
    const std::string path = uniqueSocketPath("stall");
    ServerOptions opt;
    opt.socketPath = path;
    opt.threads = 1;
    opt.service.maxDeadlineSeconds = 0.5;
    Server server(std::move(opt));
    ASSERT_TRUE(server.start().ok());
    std::thread daemon([&] { server.run(); });

    // Far more response bytes than any socket buffer holds; the
    // writer blocks once the daemon stops reading, until the daemon
    // drops the connection.
    const int stalled = connectUnix(path);
    std::thread writer([stalled] {
        std::string batch;
        for (int i = 0; i < 50000; ++i)
            batch += "{\"op\":\"stats\"}\n";
        (void)sendAll(stalled, batch);
    });

    const int fd = connectUnix(path);
    EXPECT_TRUE(sendAll(fd, "{\"op\":\"ping\"}\n"));
    const std::string reply = readFor(fd, 5.0);
    ::close(fd);
    EXPECT_EQ(reply, "{\"pong\":true}\n");

    // Unblocks both the writer and a lane still stuck sending to it.
    ::shutdown(stalled, SHUT_RDWR);
    writer.join();
    ::close(stalled);
    server.requestStop();
    daemon.join();
}
