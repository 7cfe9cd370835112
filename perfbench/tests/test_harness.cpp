/**
 * @file
 * Tests of the benchmark harness itself: the percentile rule, seeded
 * inputs, failure counting of wrong answers, the metric names declared
 * in BENCHMARK.json, and that the benchmark depends on nothing the
 * ROADMAP plans to delete.
 */

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "checks.hpp"
#include "dse/space.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string
readFile(const std::filesystem::path &p)
{
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i)
        v.push_back(static_cast<double>(n - i));
    return v;
}

} // namespace

TEST(Percentile, RefusesFewerThanTenSamplesBeyond)
{
    EXPECT_FALSE(percentile(ramp(19), 50).has_value());
    ASSERT_TRUE(percentile(ramp(20), 50).has_value());
    EXPECT_EQ(*percentile(ramp(20), 50), 10.0);
    EXPECT_FALSE(percentile(ramp(999), 99).has_value());
    ASSERT_TRUE(percentile(ramp(1000), 99).has_value());
    EXPECT_EQ(*percentile(ramp(1000), 99), 990.0);
    EXPECT_FALSE(percentile({}, 50).has_value());
}

TEST(Inputs, SameSeedGivesByteIdenticalInputs)
{
    for (const char *w : {"sweep", "fabric"}) {
        for (uint64_t seed : {1, 2, 12345}) {
            EXPECT_EQ(describeInputs(w, seed), describeInputs(w, seed)) << w;
        }
    }
}

TEST(Inputs, DifferentSeedsGiveDifferentInputs)
{
    EXPECT_NE(describeInputs("sweep", 1), describeInputs("sweep", 2));
    EXPECT_NE(describeInputs("fabric", 1), describeInputs("fabric", 2));
    // Sweep windows are drawn from three equal-cost windows.
    std::set<std::string> windows;
    for (uint64_t seed = 1; seed <= 10; ++seed)
        windows.insert(describeInputs("sweep", seed));
    EXPECT_EQ(windows.size(), 3u);
}

TEST(Answers, CorruptedSweepAnswerCountsAsFailedOps)
{
    SweepInput in = makeSweepInput(1);
    in.options.proportionalMem = true; // 19 points keep the test fast
    nnbaton::PreDesignReport report =
        nnbaton::PreDesignFlow(in.options).run(in.model);
    const std::string answer = leanPreExport(report);
    const int64_t points = report.sweep.swept;
    ASSERT_GT(points, 0);

    // A pins file that pins this answer, written the way pins.txt is.
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("perfbench-pins-" + std::to_string(::getpid()) + ".txt");
    std::ofstream(path) << "# test pins\n"
                        << in.key << "\t" << digestHex(answer) << "\n";
    const Pins pins = Pins::load(path.string());
    std::filesystem::remove(path);

    Tally tally;
    EXPECT_TRUE(tallySweepAnswer(pins, in.key, in.model, in.options, report,
                                 answer, tally));
    EXPECT_EQ(tally.attempted, points);
    EXPECT_EQ(tally.failed, 0);

    // A corrupted answer fails every design point.
    std::string corrupted = answer;
    corrupted[corrupted.size() / 2] ^= 1;
    EXPECT_FALSE(tallySweepAnswer(pins, in.key, in.model, in.options, report,
                                  corrupted, tally));
    EXPECT_EQ(tally.failed, points);

    // So does a recommendation that no longer re-evaluates bit for bit.
    report.recommended->cost.layers[1].cycles += 1;
    EXPECT_FALSE(tallySweepAnswer(pins, in.key, in.model, in.options, report,
                                  answer, tally));
    EXPECT_EQ(tally.attempted, 3 * points);
    EXPECT_EQ(tally.failed, 2 * points);

    // An input without a pin cannot be verified, so it fails too.
    EXPECT_FALSE(Pins().matches(in.key, answer));
}

TEST(Benchmark, DeclaresEveryEmittedPerLayerMetric)
{
    const std::string json = readFile(PERFBENCH_DIR "/../BENCHMARK.json");
    const size_t from = json.find("\"per_layer\"");
    ASSERT_NE(from, std::string::npos);
    const std::string section = json.substr(from, json.find(']', from) - from);
    std::set<std::string> declared;
    const std::regex name("\"name\":\\s*\"([^\"]+)\"");
    for (std::sregex_iterator it(section.begin(), section.end(), name), end;
         it != end; ++it)
        declared.insert((*it)[1]);
    std::set<std::string> emitted;
    for (const auto &[metric, unit] : layerMetrics())
        emitted.insert(metric);
    EXPECT_EQ(declared, emitted);
}

/**
 * ROADMAP items 2-5 plan to delete these names; a benchmark that named
 * them could not survive those PRs, and later PRs may not edit it.
 * The names are split so this file does not name them either.
 */
TEST(Benchmark, NamesNothingPlannedForDeletion)
{
    const std::vector<std::string> substrings = {
        std::string("SearchMode::") + "Bnb",
        std::string("SearchMode::") + "Anneal",
        std::string("nodes") + "Opened",
        std::string("subtrees") + "Pruned",
        std::string("incumbent") + "Updates",
        std::string("warm") + "Starts",
        std::string("refi") + "nedPruned",
        std::string("Candidate") + "Space",
        std::string("Candidate") + "Block",
        std::string("enumerateCandidates") + "Into",
        std::string("Incre") + "mental",
        std::string("analyzeMapping") + "Unchecked",
        std::string("analyze") + "Buffer",
        std::string("findShape") + "Match",
    };
    const std::regex refinedField(std::string("\\b") + "refi" + "ned\\b");
    size_t scanned = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(PERFBENCH_DIR)) {
        if (!entry.is_regular_file())
            continue;
        const std::string text = readFile(entry.path());
        ++scanned;
        for (const std::string &s : substrings) {
            EXPECT_EQ(text.find(s), std::string::npos)
                << entry.path() << " names " << s;
        }
        EXPECT_FALSE(std::regex_search(text, refinedField))
            << entry.path() << " names the bnb-only stats field";
    }
    EXPECT_GT(scanned, 5u);
}
