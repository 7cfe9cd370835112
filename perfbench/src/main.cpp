/**
 * @file
 * The benchmark's load generator.  Usually started by run.py:
 *
 *   perfbench --workload sweep|fabric --seed N --seconds S
 *             --trace 0|1 --work-dir DIR --pins FILE [--git-sha SHA]
 *
 * prints a `context` line (what explains noise), one `metric` line per
 * metric with its unit and sample count, and as its last line the JSON
 * result {"correct","attempted","failed","metrics"}.
 *
 *   perfbench --daemon --lanes N --access-log FILE   (a serve worker)
 *   perfbench --cold-setup --seed N                  (one sweep set-up)
 *   perfbench --pin-answers                          (print pins.txt)
 */

#include <unistd.h>

#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "baton/baton.hpp"
#include "checks.hpp"
#include "daemon.hpp"
#include "dse/space.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload sweep|fabric "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "--pins FILE [--git-sha SHA]\n"
                 "       perfbench --daemon --lanes N --access-log FILE\n"
                 "       perfbench --cold-setup --seed N\n"
                 "       perfbench --pin-answers\n");
    return 2;
}

std::string
selfExe()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        throw std::runtime_error("cannot resolve /proc/self/exe");
    return std::string(buf, static_cast<size_t>(n));
}

/** Digests of every answer any seed can ask for. */
void
printPins()
{
    std::set<std::string> windows;
    for (uint64_t seed = 0; seed < 64; ++seed) {
        const SweepInput in = makeSweepInput(seed);
        if (!windows.insert(in.key).second)
            continue;
        const nnbaton::PreDesignReport report =
            nnbaton::PreDesignFlow(in.options).run(in.model);
        std::printf("%s\t%s\n", in.key.c_str(),
                    digestHex(leanPreExport(report)).c_str());
        std::fflush(stdout);
    }
}

void
printResult(const Options &o, const RunResult &r, const std::string &gitSha,
            double loadBefore, double stealBefore)
{
    std::printf("context {\"workload\":%s,\"seed\":%llu,\"trace\":%d,"
                "\"seconds\":%s,\"git_sha\":%s,\"build_type\":%s,"
                "\"nproc\":%u,\"loadavg_1m_before\":%s,"
                "\"loadavg_1m_after\":%s,\"steal_s\":%s}\n",
                jsonString(o.workload).c_str(),
                static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
                jsonNumber(o.seconds).c_str(), jsonString(gitSha).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                std::thread::hardware_concurrency(),
                jsonNumber(loadBefore).c_str(),
                jsonNumber(loadAverage1()).c_str(),
                jsonNumber(stealSec() - stealBefore).c_str());
    std::string metrics;
    for (const Metric &m : r.metrics) {
        std::printf("metric %-32s %14.6g %-6s samples=%lld\n", m.name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<long long>(m.samples));
        metrics += (metrics.empty() ? "" : ", ") + jsonString(m.name) +
                   ": {\"value\": " + jsonNumber(m.value) +
                   ", \"unit\": " + jsonString(m.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                r.tally.failed == 0 ? "true" : "false",
                static_cast<long long>(r.tally.attempted),
                static_cast<long long>(r.tally.failed), metrics.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            return usage();
        const bool flag = key == "--daemon" || key == "--pin-answers" ||
                          key == "--cold-setup";
        if (!flag && i + 1 >= argc)
            return usage();
        args[key.substr(2)] = flag ? "1" : argv[++i];
    }
    try {
        if (args.count("daemon"))
            return runDaemon(std::stoi(args["lanes"]), args["access-log"]);
        if (args.count("pin-answers")) {
            printPins();
            return 0;
        }
        if (args.count("cold-setup")) {
            if (!args.count("seed"))
                return usage();
            std::printf("%.9f\n", coldSweepSetUp(std::stoull(args["seed"])));
            return 0;
        }
        for (const char *required :
             {"workload", "seed", "seconds", "trace", "work-dir", "pins"}) {
            if (!args.count(required))
                return usage();
        }
        Options o;
        o.workload = args["workload"];
        o.seed = std::stoull(args["seed"]);
        o.seconds = std::stod(args["seconds"]);
        o.trace = args["trace"] == "1";
        o.workDir = args["work-dir"];
        o.selfExe = selfExe();
        o.pins = Pins::load(args["pins"]);

        const double loadBefore = loadAverage1();
        const double stealBefore = stealSec();
        RunResult r;
        if (o.workload == "sweep")
            r = runSweep(o);
        else if (o.workload == "fabric")
            r = runFabric(o);
        else
            return usage();
        printResult(o, r,
                    args.count("git-sha") ? args["git-sha"] : "unknown",
                    loadBefore, stealBefore);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
