/**
 * @file
 * The NN-Baton command-line driver.
 *
 * Subcommands:
 *   post    — post-design flow: map a model on a hardware config and
 *             print (or JSON-export) the per-layer mapping strategy.
 *   pre     — pre-design flow: sweep the design space under MAC and
 *             area budgets and recommend a design.
 *   compare — evaluate the Simba weight-centric baseline against the
 *             NN-Baton mappings on the same hardware.
 *   models  — list the built-in model zoo (or dump one as text).
 *   serve   — persistent evaluation daemon on a Unix-domain socket
 *             and/or a TCP port, answering JSON requests with a warm
 *             shared mapping cache (see docs/serving.md); a TCP
 *             listener makes the daemon a sweep-fabric worker.
 *   coordinate — distribute a pre-design sweep across serve workers
 *             (leases, retry/backoff, crash recovery; see
 *             docs/distributed.md).
 *   request — one-shot client for the serve daemon, with optional
 *             retry/backoff on retryable failures.
 *   stats   — scrape a live daemon's metrics registry and render it
 *             as a table, JSON, or Prometheus text exposition.
 *
 * Models come from the zoo (vgg16, resnet50, darknet19, alexnet,
 * mobilenetv2, bert_base, vit_b16) or from a text description file via
 * --model-file (see nn/parser.hpp for the format).
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <algorithm>
#include <set>

#include "baton/baton.hpp"
#include "baton/export.hpp"
#include "common/backoff.hpp"
#include "common/cancel.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/net.hpp"
#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "common/status.hpp"
#include "common/trace.hpp"
#include "fabric/coordinator.hpp"
#include "nn/parser.hpp"
#include "serve/server.hpp"
#include "verif/random_mapping.hpp"
#include "verif/replay.hpp"

using namespace nnbaton;

namespace {

struct Args
{
    std::string command;
    std::string model = "resnet50";
    bool modelExplicit = false; //!< --model was passed (vs default)
    std::string modelFile;
    std::string jsonPath;
    std::string tracePath; //!< --trace: Chrome trace-event JSON output
    bool metrics = false;  //!< --metrics: stderr table + histograms
    double progressSeconds = 0; //!< --progress[=secs]: pre heartbeat
    bool verify = false;   //!< post: replay winners differentially
    int verifyBudget = 4;  //!< --verify-budget: mappings to replay
    int resolution = 224;
    int batch = 1; //!< --batch: multiply every layer's batch
    int64_t macs = 2048;
    double areaMm2 = 0.0;
    bool proportional = false;
    bool edpObjective = false;
    int threads = hardwareThreads();
    // Resilience options for long `pre` sweeps.
    std::string checkpointPath; //!< --checkpoint: snapshot file
    int checkpointEvery = 32;   //!< --checkpoint-every: flush period
    std::string resumePath;     //!< --resume: restore from snapshot
    double deadlineSeconds = 0; //!< --deadline: wall-clock budget
    bool strict = false;        //!< --strict: fail fast on poisoned
    bool noObs = false;         //!< --no-obs: lean JSON exports
    // Service options for `serve` / `request` / `stats`.
    std::string socketPath;          //!< --socket: Unix socket path
    std::string tcpAddress;          //!< serve: --tcp host:port
    int64_t cacheBytes = 256 << 20;  //!< --cache-bytes: LRU cap
    std::string requestBody;         //!< request: --request JSON line
    double timeoutSeconds = 30.0;    //!< request/stats: --timeout
    int retries = 0;                 //!< request: --retries budget
    // Fabric options for `pre --workers` / `coordinate`.
    std::string workersCsv;          //!< --workers a,b,c endpoints
    int64_t unitPoints = 0;          //!< --unit-points (0 = auto)
    double leaseSeconds = 60.0;      //!< --lease TTL in seconds
    int maxInflight = 0;             //!< serve: --max-inflight cap
    int64_t sloUs = 0;               //!< serve: --slo-us threshold
    std::string accessLogPath;       //!< serve: --access-log file
    std::string flightDumpPath;      //!< --flight-dump: crash/error dump
    std::string statsFormat = "table"; //!< stats: --format
    // Hardware overrides for `post` / `compare`.
    AcceleratorConfig config = caseStudyConfig();
};

void
usage()
{
    std::printf(
        "usage: nn-baton <command> [options]\n"
        "\n"
        "commands:\n"
        "  post     map a model on a hardware configuration\n"
        "  pre      explore the design space (chiplet granularity)\n"
        "  compare  Simba baseline vs NN-Baton on the same hardware\n"
        "  models   list the built-in model zoo / dump one as text\n"
        "  serve    persistent evaluation daemon (Unix socket and/or\n"
        "           TCP; a TCP listener is a sweep-fabric worker)\n"
        "  coordinate\n"
        "           distribute a pre sweep across serve workers\n"
        "  request  send one JSON request to a serve daemon\n"
        "  stats    scrape a serve daemon's metrics registry\n"
        "\n"
        "options:\n"
        "  --model <name>        zoo model (vgg16 resnet50 darknet19\n"
        "                        alexnet mobilenetv2 bert_base\n"
        "                        vit_b16) [resnet50]\n"
        "  --model-file <path>   text model description instead\n"
        "  --resolution <n>      input resolution (224 or 512; the\n"
        "                        sequence length for bert_base) [224]\n"
        "  --batch <n>           multiply every layer's batch [1]\n"
        "  --macs <n>            pre: required MAC units [2048]\n"
        "  --area <mm2>          pre: chiplet area budget [none]\n"
        "  --proportional        pre: memory proportional to compute\n"
        "  --edp                 optimise EDP instead of energy\n"
        "  --search <mode>       mapping search; exhaustive is the only\n"
        "                        one, and bnb an alias of it\n"
        "                        [exhaustive]\n"
        "  --threads <n>         pre/coordinate: local sweep lanes\n"
        "                        (results are identical; with\n"
        "                        --workers, the lanes that take over\n"
        "                        a lost fleet's units); serve:\n"
        "                        request lanes; post/compare search\n"
        "                        on one thread [hardware concurrency]\n"
        "  --chiplets/--cores/--lanes/--vector <n>\n"
        "                        post/compare hardware shape\n"
        "  --ol1/--al1/--wl1/--al2 <bytes>\n"
        "                        post/compare buffer sizes\n"
        "  --verify              post: replay the search winners\n"
        "                        through the coordinate-level verifier\n"
        "                        and fail on any analytical mismatch\n"
        "  --verify-budget <n>   post: unique mappings to replay,\n"
        "                        smallest layers first [4]\n"
        "  --json <path>         write a JSON report\n"
        "  --checkpoint <path>   pre: snapshot evaluated design\n"
        "                        points so an interrupted sweep can\n"
        "                        be resumed\n"
        "  --checkpoint-every <n>\n"
        "                        pre: flush the checkpoint every n\n"
        "                        completed points [32]\n"
        "  --resume <path>       pre: restore evaluated points from a\n"
        "                        checkpoint (same model and options)\n"
        "  --deadline <s>        stop gracefully after s seconds and\n"
        "                        report the partial result (exit 3)\n"
        "  --strict              pre: fail fast on the first poisoned\n"
        "                        design point instead of quarantining\n"
        "  --no-obs              omit run-dependent fields from JSON\n"
        "                        reports (stable, comparable bytes)\n"
        "  --socket <ep>         serve: Unix socket path to bind;\n"
        "                        request/stats: daemon endpoint (a\n"
        "                        socket path or host:port)\n"
        "  --tcp <host:port>     serve: also listen on TCP (\":0\"\n"
        "                        binds a kernel-assigned port)\n"
        "  --workers <eps>       pre/coordinate: comma-separated serve\n"
        "                        endpoints to shard the sweep across\n"
        "  --unit-points <n>     fabric: design points per leased work\n"
        "                        unit [auto]\n"
        "  --lease <s>           fabric: seconds before an unfinished\n"
        "                        unit is re-issued to another worker\n"
        "                        [60]\n"
        "  --timeout <s>         request/stats: per-I/O wall-clock\n"
        "                        budget [30]\n"
        "  --retries <n>         request: retry retryable failures up\n"
        "                        to n times with backoff; exit 4 when\n"
        "                        still failing retryably [0]\n"
        "  --cache-bytes <n>     serve: memory-axis table LRU capacity\n"
        "                        in bytes [268435456]\n"
        "  --max-inflight <n>    serve: refuse heavy requests beyond n\n"
        "                        evaluating concurrently with a\n"
        "                        retryable envelope [unlimited]\n"
        "  --request <json>      request: one JSON request line (reads\n"
        "                        stdin lines when omitted)\n"
        "  --slo-us <n>          serve: request-latency SLO; slower\n"
        "                        requests bump serve.slo.violations\n"
        "  --access-log <path>   serve: append one JSON line per\n"
        "                        request (docs/serving.md schema)\n"
        "  --flight-dump <path>  where a failed request or fatal\n"
        "                        signal dumps the flight recorder\n"
        "                        [serve: <socket>.flight.json]\n"
        "  --format <f>          stats: table, json or prom [table]\n"
        "  --progress[=secs]     pre (also with --workers): log points\n"
        "                        done/total, rate, ETA and cache/prune\n"
        "                        rates every period (and as\n"
        "                        dse.progress.* gauges) [5]\n"
        "  --trace <path>        write a Chrome trace-event JSON file\n"
        "                        (open in Perfetto / chrome://tracing)\n"
        "  --metrics             print the metrics table to stderr at\n"
        "                        exit; its <span>_ns histograms time\n"
        "                        every phase\n"
        "  --log-level <level>   debug, info, warn or quiet [info]\n");
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    if (argc < 2)
        return false;
    args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string opt = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                throwStatus(errInvalidArgument(
                    "option %s needs a value", opt.c_str()));
            }
            return argv[++i];
        };
        const char *name = opt.c_str();
        if (opt == "--model") {
            args.model = next();
            args.modelExplicit = true;
        } else if (opt == "--model-file") {
            args.modelFile = next();
        } else if (opt == "--resolution") {
            args.resolution = parsePositiveInt(name, next()).value();
        } else if (opt == "--batch") {
            args.batch = parsePositiveInt(name, next()).value();
        } else if (opt == "--macs") {
            args.macs = parsePositiveInt64(name, next()).value();
        } else if (opt == "--area") {
            args.areaMm2 = parsePositiveDouble(name, next()).value();
        } else if (opt == "--proportional") {
            args.proportional = true;
        } else if (opt == "--edp") {
            args.edpObjective = true;
        } else if (opt == "--search") {
            // Exhaustive is the only search; bnb returned its winners.
            const std::string mode = next();
            if (mode == "bnb") {
                warn("--search bnb was retired; running exhaustive, "
                     "which returns the same winners");
            } else if (mode != "exhaustive") {
                throwStatus(errInvalidArgument(
                    "--search expects exhaustive, got '%s'",
                    mode.c_str()));
            }
        } else if (opt == "--threads") {
            args.threads = parsePositiveInt(name, next()).value();
        } else if (opt == "--chiplets") {
            args.config.package.chiplets = parsePositiveInt(name, next()).value();
        } else if (opt == "--cores") {
            args.config.chiplet.cores = parsePositiveInt(name, next()).value();
        } else if (opt == "--lanes") {
            args.config.core.lanes = parsePositiveInt(name, next()).value();
        } else if (opt == "--vector") {
            args.config.core.vectorSize =
                parsePositiveInt(name, next()).value();
        } else if (opt == "--ol1") {
            args.config.core.ol1Bytes = parsePositiveInt64(name, next()).value();
        } else if (opt == "--al1") {
            args.config.core.al1Bytes = parsePositiveInt64(name, next()).value();
        } else if (opt == "--wl1") {
            args.config.core.wl1Bytes = parsePositiveInt64(name, next()).value();
        } else if (opt == "--al2") {
            args.config.chiplet.al2Bytes =
                parsePositiveInt64(name, next()).value();
        } else if (opt == "--json") {
            args.jsonPath = next();
        } else if (opt == "--checkpoint") {
            args.checkpointPath = next();
        } else if (opt == "--checkpoint-every") {
            args.checkpointEvery =
                parsePositiveInt(name, next()).value();
        } else if (opt == "--resume") {
            args.resumePath = next();
        } else if (opt == "--deadline") {
            args.deadlineSeconds =
                parsePositiveDouble(name, next()).value();
        } else if (opt == "--strict") {
            args.strict = true;
        } else if (opt == "--no-obs") {
            args.noObs = true;
        } else if (opt == "--socket") {
            args.socketPath = next();
        } else if (opt == "--tcp") {
            args.tcpAddress = next();
        } else if (opt == "--workers") {
            args.workersCsv = next();
        } else if (opt == "--unit-points") {
            args.unitPoints = parsePositiveInt64(name, next()).value();
        } else if (opt == "--lease") {
            args.leaseSeconds =
                parsePositiveDouble(name, next()).value();
        } else if (opt == "--timeout") {
            args.timeoutSeconds =
                parsePositiveDouble(name, next()).value();
        } else if (opt == "--retries") {
            args.retries = static_cast<int>(
                parsePositiveInt64(name, next()).value());
        } else if (opt == "--cache-bytes") {
            args.cacheBytes = parsePositiveInt64(name, next()).value();
        } else if (opt == "--max-inflight") {
            args.maxInflight = static_cast<int>(
                parsePositiveInt64(name, next()).value());
        } else if (opt == "--request") {
            args.requestBody = next();
        } else if (opt == "--slo-us") {
            args.sloUs = parsePositiveInt64(name, next()).value();
        } else if (opt == "--access-log") {
            args.accessLogPath = next();
        } else if (opt == "--flight-dump") {
            args.flightDumpPath = next();
        } else if (opt == "--format") {
            args.statsFormat = next();
            if (args.statsFormat != "table" &&
                args.statsFormat != "json" &&
                args.statsFormat != "prom") {
                throwStatus(errInvalidArgument(
                    "--format expects table, json or prom, got '%s'",
                    args.statsFormat.c_str()));
            }
        } else if (opt == "--progress") {
            args.progressSeconds = 5.0;
        } else if (opt.rfind("--progress=", 0) == 0) {
            args.progressSeconds =
                parsePositiveDouble("--progress",
                                    opt.c_str() + 11)
                    .value();
        } else if (opt == "--trace") {
            args.tracePath = next();
        } else if (opt == "--metrics") {
            args.metrics = true;
        } else if (opt == "--verify") {
            args.verify = true;
        } else if (opt == "--verify-budget") {
            args.verifyBudget = parsePositiveInt(name, next()).value();
        } else if (opt == "--log-level") {
            LogLevel level;
            const char *text = next();
            if (!parseLogLevel(text, level)) {
                throwStatus(errInvalidArgument(
                    "--log-level expects debug, info, warn or "
                    "quiet, got '%s'",
                    text));
            }
            setLogLevel(level);
        } else if (opt == "--help" || opt == "-h") {
            return false;
        } else {
            throwStatus(errInvalidArgument(
                "unknown option %s (try --help)", opt.c_str()));
        }
    }
    return true;
}

Model
loadModel(const Args &args)
{
    auto finish = [&](Model m) {
        if (args.batch > 1)
            m.scaleBatch(args.batch);
        return m;
    };
    if (!args.modelFile.empty())
        return finish(loadModelFile(args.modelFile).value());
    return finish(makeZooModel(args.model, args.resolution));
}

/**
 * Differentially verify the post-design search winners: replay the
 * cheapest unique (layer, mapping) pairs through the coordinate-level
 * interpreter and fail loudly if any analytical figure disagrees.  On
 * a mismatch the failing case is shrunk to a minimal reproducer
 * before reporting.
 */
int
runVerify(const Model &model, const PostDesignReport &report,
          const Args &args)
{
    struct Item
    {
        const ConvLayer *layer;
        const Mapping *mapping;
        int64_t volume;
    };
    std::vector<Item> items;
    std::set<std::string> seen;
    const std::vector<ConvLayer> &layers = model.layers();
    const size_t n = std::min(layers.size(), report.mappings.size());
    for (size_t i = 0; i < n; ++i) {
        const ConvLayer &l = layers[i];
        const Mapping &m = report.mappings[i].mapping;
        if (!seen.insert(l.toString() + "|" + m.toString()).second)
            continue; // repeated layer shape with the same winner
        items.push_back(
            {&l, &m,
             l.inputVolume() + l.weightVolume() + l.outputVolume()});
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const Item &a, const Item &b) {
                         return a.volume < b.volume;
                     });
    const size_t budget = std::min<size_t>(
        static_cast<size_t>(args.verifyBudget), items.size());

    for (size_t i = 0; i < budget; ++i) {
        const Item &it = items[i];
        const DifferentialReport diff = diffMapping(
            *it.layer, args.config, defaultTech(), *it.mapping);
        if (diff.ok()) {
            inform("verified %s against the replay interpreter",
                   it.layer->name.c_str());
            continue;
        }
        std::fprintf(stderr,
                     "VERIFY FAIL: layer %s mapping %s\n%s",
                     it.layer->toString().c_str(),
                     it.mapping->toString().c_str(),
                     diff.toString().c_str());
        DiffCase failing;
        failing.layer = *it.layer;
        failing.cfg = args.config;
        failing.mapping = *it.mapping;
        const DiffCase minimal = minimizeFailure(
            failing, [](const DiffCase &c) {
                return !diffMapping(c.layer, c.cfg, defaultTech(),
                                    c.mapping)
                            .ok();
            });
        std::fprintf(stderr, "minimal reproducer:\n%s",
                     minimal.toString().c_str());
        return 1;
    }
    std::printf("verify: %zu/%zu unique mappings replayed "
                "bit-identically (budget %d)\n",
                budget, items.size(), args.verifyBudget);
    return 0;
}

int
runPost(const Args &args)
{
    const Model model = loadModel(args);
    args.config.validate();
    PostDesignFlow flow(args.config, defaultTech(),
                        SearchEffort::Exhaustive,
                        args.edpObjective ? Objective::MinEdp
                                          : Objective::MinEnergy);
    const PostDesignReport report = flow.run(model);
    std::printf("%s", report.toString().c_str());
    if (!args.jsonPath.empty()) {
        std::ofstream out(args.jsonPath);
        if (!out) {
            throwStatus(errUnavailable("cannot write %s",
                                       args.jsonPath.c_str()));
        }
        exportPostDesign(report, out,
                         args.noObs ? ExportOptions::lean()
                                    : ExportOptions{});
        std::printf("wrote %s\n", args.jsonPath.c_str());
    }
    if (args.verify) {
        if (!report.feasible) {
            throwStatus(errFailedPrecondition(
                "--verify needs a feasible mapping report"));
        }
        const int rc = runVerify(model, report, args);
        if (rc != 0)
            return rc;
    }
    return report.feasible ? 0 : 1;
}

int
runPre(const Args &args)
{
    const Model model = loadModel(args);
    DseOptions opt;
    opt.totalMacs = args.macs;
    opt.areaLimitMm2 = args.areaMm2;
    opt.proportionalMem = args.proportional;
    opt.effort = sweepEffort(args.proportional);
    opt.objective = args.edpObjective ? Objective::MinEdp
                                      : Objective::MinEnergy;
    opt.threads = args.threads;
    opt.progressSeconds = args.progressSeconds;
    opt.strict = args.strict;
    opt.checkpointPath = args.checkpointPath;
    opt.checkpointEvery = args.checkpointEvery;
    opt.resumePath = args.resumePath;
    opt.cancel = &globalCancelToken();

    PreDesignReport report;
    if (!args.workersCsv.empty()) {
        // Distributed sweep: shard the same fingerprinted space
        // across serve workers.  The merged report is bit-identical
        // to the local path below (docs/distributed.md).
        fabric::FabricOptions fab;
        for (size_t at = 0; at < args.workersCsv.size();) {
            size_t comma = args.workersCsv.find(',', at);
            if (comma == std::string::npos)
                comma = args.workersCsv.size();
            if (comma > at)
                fab.workers.push_back(
                    args.workersCsv.substr(at, comma - at));
            at = comma + 1;
        }
        if (fab.workers.empty()) {
            throwStatus(errInvalidArgument(
                "--workers needs at least one endpoint"));
        }
        fab.unitPoints = args.unitPoints;
        fab.leaseSeconds = args.leaseSeconds;
        fabric::FabricStats fstats;
        report.sweep = fabric::coordinateSweep(model, opt,
                                               defaultTech(), fab,
                                               &fstats);
        if (auto best = report.sweep.bestEdp())
            report.recommended = report.sweep.points[*best];
        inform("fabric: %lld/%lld unit(s) completed remotely, "
               "%lld retries, %lld lease(s) expired, %lld worker(s) "
               "quarantined, %lld duplicate(s) dropped, %lld unit(s) "
               "evaluated locally",
               static_cast<long long>(fstats.unitsCompleted),
               static_cast<long long>(fstats.units),
               static_cast<long long>(fstats.retries),
               static_cast<long long>(fstats.leasesExpired),
               static_cast<long long>(fstats.workersQuarantined),
               static_cast<long long>(fstats.duplicateCompletions),
               static_cast<long long>(fstats.localFallbackUnits));
    } else {
        PreDesignFlow flow(opt);
        report = flow.run(model);
    }
    std::printf("%s", report.toString().c_str());
    if (!args.jsonPath.empty()) {
        std::ofstream out(args.jsonPath);
        if (!out) {
            throwStatus(errUnavailable("cannot write %s",
                                       args.jsonPath.c_str()));
        }
        exportPreDesign(report, out,
                        args.noObs ? ExportOptions::lean()
                                   : ExportOptions{});
        std::printf("wrote %s\n", args.jsonPath.c_str());
    }
    // A cut-short sweep still reports what it finished, but exits
    // with a distinct code so scripts can tell "partial" from both
    // success (0) and failure (1).
    if (!report.sweep.complete)
        return 3;
    return report.recommended ? 0 : 1;
}

int
runCompare(const Args &args)
{
    const Model model = loadModel(args);
    args.config.validate();
    const ComparisonReport r = compareWithSimba(model, args.config);
    std::printf("model %s on %s\n", r.modelName.c_str(),
                args.config.toString().c_str());
    std::printf("  simba : %s\n", r.simbaEnergy.toString().c_str());
    std::printf("  baton : %s\n", r.batonEnergy.toString().c_str());
    std::printf("  savings: %.1f%%\n", 100.0 * r.savings());
    return 0;
}

int
runModels(const Args &args)
{
    // Dump when a model was named explicitly — `--model resnet50`
    // must dump resnet50, not fall through to the summary table just
    // because the name matches the default.
    if (args.modelExplicit || !args.modelFile.empty()) {
        std::printf("%s", writeModelText(loadModel(args)).c_str());
        return 0;
    }
    for (const ZooModel &zoo : zooModels()) {
        Args a = args;
        a.model = zoo.name;
        const Model m = loadModel(a);
        std::printf("%-12s %2zu layers, %7.2f GMACs, %6.2f M weights\n",
                    zoo.name, m.layers().size(),
                    static_cast<double>(m.totalMacs()) * 1e-9,
                    static_cast<double>(m.totalWeights()) * 1e-6);
    }
    return 0;
}

/**
 * Persistent evaluation daemon: bind the Unix socket and serve JSON
 * requests until a shutdown op or SIGINT/SIGTERM (see docs/serving.md
 * for the protocol).
 */
int
runServe(const Args &args)
{
    if (args.socketPath.empty() && args.tcpAddress.empty()) {
        throwStatus(errInvalidArgument(
            "serve needs --socket <path> and/or --tcp <host:port>"));
    }
    serve::ServerOptions opt;
    opt.socketPath = args.socketPath;
    opt.tcpAddress = args.tcpAddress;
    opt.threads = args.threads;
    opt.cancel = &globalCancelToken();
    opt.service.cacheBytes = args.cacheBytes;
    opt.service.maxInflight = args.maxInflight;
    opt.service.sloUs = args.sloUs;
    opt.service.accessLogPath = args.accessLogPath;
    // A daemon always has an on-error flight dump target so a failed
    // request leaves a postmortem behind without any extra flag.
    opt.service.flightDumpPath =
        !args.flightDumpPath.empty() ? args.flightDumpPath
        : !args.socketPath.empty()   ? args.socketPath + ".flight.json"
                                     : "nn-baton-serve.flight.json";
    serve::Server server(std::move(opt));
    throwIfError(server.start());
    // Stdout line so wrappers can wait for readiness; the resolved
    // TCP port matters for --tcp ":0" (kernel-assigned).
    std::string listening;
    if (!args.socketPath.empty())
        listening = args.socketPath;
    if (server.tcpPort() >= 0) {
        if (!listening.empty())
            listening += " and ";
        listening += strprintf("tcp port %d", server.tcpPort());
    }
    std::printf("nn-baton serve: listening on %s (%d lanes)\n",
                listening.c_str(), args.threads);
    std::fflush(stdout);
    const int64_t handled = server.run();
    inform("serve: handled %lld requests",
           static_cast<long long>(handled));
    return 0;
}

/**
 * One-shot client for the daemon: send --request (or every stdin
 * line) and print each response line.  Transport failures and
 * retryable {"ok":false,"retryable":true} envelopes (overload,
 * deadline) are retried --retries times with exponential backoff;
 * when they persist the exit code is 4, distinct from both success
 * (0) and a definitive error envelope (1), so wrappers can tell
 * "try again later" from "this request is wrong".
 */
int
runRequest(const Args &args)
{
    if (args.socketPath.empty()) {
        throwStatus(errInvalidArgument(
            "request needs --socket <endpoint>"));
    }
    LineChannel channel;
    BackoffPolicy policy;
    policy.maxRetries = args.retries;

    int rc = 0;
    auto roundTrip = [&](const std::string &request) {
        Backoff backoff(policy, /*seed=*/1);
        for (;;) {
            Status failure = Status::okStatus();
            std::string response;
            if (!channel.connected()) {
                StatusOr<LineChannel> fresh = connectLineChannel(
                    args.socketPath, args.timeoutSeconds);
                if (fresh.ok())
                    channel = std::move(fresh).value();
                else
                    failure = fresh.status();
            }
            if (failure.ok()) {
                failure = channel.sendLine(request,
                                           args.timeoutSeconds);
            }
            if (failure.ok()) {
                StatusOr<std::string> line =
                    channel.recvLine(args.timeoutSeconds);
                if (line.ok())
                    response = std::move(line).value();
                else
                    failure = line.status();
            }

            if (failure.ok()) {
                const std::optional<Status> envelope =
                    serve::statusFromErrorResponse(response);
                const bool retryable =
                    envelope && serve::isRetryableCode(envelope->code());
                if (retryable && !backoff.exhausted()) {
                    warn("request: retryable failure (attempt %d): "
                         "%s",
                         backoff.attempts() + 1, response.c_str());
                    if (!sleepWithCancel(backoff.nextDelayMs(),
                                         &globalCancelToken())) {
                        rc = std::max(rc, 3);
                        return;
                    }
                    continue;
                }
                std::printf("%s\n", response.c_str());
                if (envelope)
                    rc = std::max(rc, retryable ? 4 : 1);
                return;
            }

            // Transport failure (refused, hung up, timed out): the
            // daemon may be restarting — retryable by definition.
            channel.close();
            if (backoff.exhausted()) {
                std::fprintf(stderr, "nn-baton: %s\n",
                             failure.toString().c_str());
                rc = std::max(rc, 4);
                return;
            }
            warn("request: %s (attempt %d); retrying",
                 failure.toString().c_str(), backoff.attempts() + 1);
            if (!sleepWithCancel(backoff.nextDelayMs(),
                                 &globalCancelToken())) {
                rc = std::max(rc, 3);
                return;
            }
        }
    };
    if (!args.requestBody.empty()) {
        roundTrip(args.requestBody);
    } else {
        std::string line;
        while (std::getline(std::cin, line)) {
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty())
                roundTrip(line);
        }
    }
    return rc;
}

/**
 * Scrape a live daemon's metrics registry (the `metrics` op) and
 * render it as the metrics table, the raw JSON document, or the
 * Prometheus text exposition for a scrape endpoint to relay.
 */
int
runStats(const Args &args)
{
    if (args.socketPath.empty()) {
        throwStatus(
            errInvalidArgument("stats needs --socket <endpoint>"));
    }
    LineChannel channel =
        connectLineChannel(args.socketPath, args.timeoutSeconds)
            .value();
    throwIfError(
        channel.sendLine("{\"op\":\"metrics\"}", args.timeoutSeconds));
    const std::string response =
        channel.recvLine(args.timeoutSeconds).value();
    if (serve::statusFromErrorResponse(response)) {
        std::fprintf(stderr, "nn-baton: %s\n", response.c_str());
        return 1;
    }
    if (args.statsFormat == "json") {
        std::printf("%s\n", response.c_str());
        return 0;
    }
    const JsonParseResult parsed = parseJson(response);
    if (!parsed.ok()) {
        throwStatus(errInternal("daemon sent malformed metrics: %s",
                                parsed.error.c_str()));
    }
    const obs::MetricsSnapshot snap =
        obs::metricsSnapshotFromJson(parsed.value).value();
    if (args.statsFormat == "prom")
        obs::writePrometheus(std::cout, snap);
    else
        std::fputs(obs::formatMetrics(snap).c_str(), stdout);
    return 0;
}

/** End-of-run observability output (--trace / --metrics). */
void
reportObservability(const Args &args)
{
    if (!args.tracePath.empty()) {
        obs::setTracingEnabled(false);
        std::ofstream out(args.tracePath);
        if (!out) {
            std::fprintf(stderr, "nn-baton: cannot write %s\n",
                         args.tracePath.c_str());
            return;
        }
        obs::writeChromeTrace(out);
        std::fprintf(stderr, "wrote trace to %s (open in Perfetto or "
                             "chrome://tracing)\n",
                     args.tracePath.c_str());
    }
    if (args.metrics) {
        std::fputs(
            obs::formatMetrics(
                obs::MetricsRegistry::instance().snapshot())
                .c_str(),
            stderr);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        if (!parseArgs(argc, argv, args)) {
            usage();
            return 2;
        }
    } catch (const StatusError &e) {
        std::fprintf(stderr, "nn-baton: %s\n",
                     e.status().message().c_str());
        return 2;
    }
    if (!args.tracePath.empty())
        obs::setTracingEnabled(true);

    // A fatal signal dumps the always-on flight recorder (recent
    // spans per thread) so even a crash leaves a postmortem.
    obs::installFlightSignalHandler(
        args.flightDumpPath.empty() ? "nn-baton.flight.json"
                                    : args.flightDumpPath.c_str());

    // One SIGINT/SIGTERM (or an expired --deadline) flips the global
    // cancel token; the flows poll it, finish in-flight work, flush
    // checkpoints and return a partial result.  A second signal kills
    // the process the usual way.
    installCancelSignalHandlers();
    if (args.deadlineSeconds > 0)
        globalCancelToken().setDeadlineAfter(args.deadlineSeconds);

    // Exit codes: 0 success, 1 error or infeasible, 2 usage,
    // 3 partial result (cancelled or past the deadline), 4 retryable
    // failure that persisted (request: daemon overloaded/unreachable
    // after --retries attempts).
    int rc = 2;
    try {
        if (args.command == "post")
            rc = runPost(args);
        else if (args.command == "pre")
            rc = runPre(args);
        else if (args.command == "coordinate") {
            if (args.workersCsv.empty()) {
                throwStatus(errInvalidArgument(
                    "coordinate needs --workers <ep,ep,...>"));
            }
            rc = runPre(args);
        }
        else if (args.command == "compare")
            rc = runCompare(args);
        else if (args.command == "models")
            rc = runModels(args);
        else if (args.command == "serve")
            rc = runServe(args);
        else if (args.command == "request")
            rc = runRequest(args);
        else if (args.command == "stats")
            rc = runStats(args);
        else {
            usage();
            return 2;
        }
    } catch (const StatusError &e) {
        // The library never exits; every error unwinds to here.
        std::fprintf(stderr, "nn-baton: %s\n", e.what());
        reportObservability(args); // still flush traces/metrics
        const StatusCode code = e.status().code();
        return (code == StatusCode::Cancelled ||
                code == StatusCode::DeadlineExceeded)
                   ? 3
                   : 1;
    }
    reportObservability(args);
    return rc;
}
