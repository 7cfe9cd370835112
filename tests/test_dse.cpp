/**
 * @file
 * Tests for the design-space enumeration and the pre-design explorer.
 */

#include <gtest/gtest.h>

#include "expect_status.hpp"

#include "common/util.hpp"
#include "dse/explorer.hpp"
#include "dse/progress.hpp"
#include "dse/slice.hpp"
#include "dse/space.hpp"
#include "nn/model.hpp"

using namespace nnbaton;

TEST(EnumerateCompute, AllProductsMatch)
{
    for (int64_t macs : {1024, 2048, 4096}) {
        const auto all = enumerateCompute(macs);
        EXPECT_FALSE(all.empty()) << macs;
        for (const auto &c : all)
            EXPECT_EQ(c.totalMacs(), macs);
    }
}

TEST(EnumerateCompute, PaperCountFor2048)
{
    // Paper section VI-B.1 quotes "up to 63 possibilities"; that
    // count is not derivable from the table II option lists (P, L in
    // {2,4,8,16}, N_C in {1..16}, N_P in {1..8} give exactly 32
    // ordered factorisations of 2048).  We assert our grid's exact
    // count and record the discrepancy in EXPERIMENTS.md.
    EXPECT_EQ(enumerateCompute(2048).size(), 32u);
}

TEST(EnumerateCompute, ContainsPaperTopPick)
{
    // The 4-4-16-8 scheme (chiplet, core, lane, vector).
    bool found = false;
    for (const auto &c : enumerateCompute(2048)) {
        if (c.chiplets == 4 && c.cores == 4 && c.lanes == 16 &&
            c.vectorSize == 8) {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(EnumerateMemory, WithinTableTwoRangesAndPruned)
{
    const auto mems = enumerateMemory();
    EXPECT_FALSE(mems.empty());
    EXPECT_LT(static_cast<int64_t>(mems.size()), memoryGridSize());
    for (const auto &m : mems) {
        EXPECT_GE(m.ol1Bytes, 48);
        EXPECT_LE(m.ol1Bytes, 144);
        EXPECT_GE(m.al1Bytes, 1_KB);
        EXPECT_LE(m.al1Bytes, 128_KB);
        EXPECT_GE(m.wl1Bytes, 2_KB);
        EXPECT_LE(m.wl1Bytes, 256_KB);
        EXPECT_GE(m.al2Bytes, 32_KB);
        EXPECT_LE(m.al2Bytes, 256_KB);
        EXPECT_LE(m.al1Bytes, m.al2Bytes); // validity pruning
    }
}

TEST(ProportionalMemory, AnchoredAtCaseStudy)
{
    // The 8-core, 8x8 configuration must reproduce the section VI-A
    // buffer sizes exactly.
    const MemoryAllocation m =
        proportionalMemory({4, 8, 8, 8});
    EXPECT_EQ(m.ol1Bytes, 1536);
    EXPECT_EQ(m.al1Bytes, 800);
    EXPECT_EQ(m.wl1Bytes, 18_KB);
    EXPECT_EQ(m.al2Bytes, 64_KB);
}

TEST(ProportionalMemory, ScalesWithCompute)
{
    const MemoryAllocation big =
        proportionalMemory({4, 4, 16, 8});
    EXPECT_EQ(big.ol1Bytes, 1536 * 2); // 16 lanes
    EXPECT_EQ(big.wl1Bytes, 36_KB);    // 128 MACs per core
    EXPECT_EQ(big.al2Bytes, 32_KB);    // 4 cores
}

TEST(MakeConfig, RoundTrips)
{
    const AcceleratorConfig cfg =
        makeConfig({4, 8, 8, 8}, proportionalMemory({4, 8, 8, 8}));
    EXPECT_EQ(cfg.computeId(), "4-8-8-8");
    EXPECT_EQ(cfg.core.wl1Bytes, 18_KB);
}

namespace {

/** A two-layer mini model so explorer tests stay fast. */
Model
miniModel()
{
    Model m("mini", 64);
    m.addLayer(makeConv("a", 32, 32, 128, 64, 3, 3, 1));
    m.addLayer(makeConv("b", 16, 16, 256, 128, 1, 1, 1));
    return m;
}

} // namespace

TEST(Explore, ProportionalSweepProducesPoints)
{
    DseOptions opt;
    opt.totalMacs = 2048;
    opt.proportionalMem = true;
    opt.effort = SearchEffort::Fast;
    const DseResult r = explore(miniModel(), opt, defaultTech());
    EXPECT_EQ(r.swept, 32);
    EXPECT_GT(r.points.size(), 0u);
    EXPECT_EQ(r.swept, static_cast<int64_t>(r.points.size()) +
                           r.areaRejected + r.infeasible);
    ASSERT_TRUE(r.bestEdp().has_value());
    ASSERT_TRUE(r.bestEnergy().has_value());
}

TEST(Explore, AreaConstraintRejectsLargeChiplets)
{
    DseOptions opt;
    opt.totalMacs = 2048;
    opt.proportionalMem = true;
    opt.effort = SearchEffort::Fast;
    const DseResult open = explore(miniModel(), opt, defaultTech());
    opt.areaLimitMm2 = 2.0;
    const DseResult tight = explore(miniModel(), opt, defaultTech());
    EXPECT_GT(tight.areaRejected, 0);
    EXPECT_LT(tight.points.size(), open.points.size());
    // Figure 14: no 1-chiplet design meets the 2 mm^2 budget.
    for (const auto &p : tight.points)
        EXPECT_GT(p.compute.chiplets, 1) << p.toString();
}

TEST(Explore, BestPointsAreOptimalWithinSweep)
{
    DseOptions opt;
    opt.totalMacs = 2048;
    opt.proportionalMem = true;
    opt.effort = SearchEffort::Fast;
    const DseResult r = explore(miniModel(), opt, defaultTech());
    ASSERT_TRUE(r.bestEdp());
    ASSERT_TRUE(r.bestEnergy());
    const double best_edp = r.points[*r.bestEdp()].edp();
    const double best_e =
        r.points[*r.bestEnergy()].cost.energy.total();
    for (const auto &p : r.points) {
        EXPECT_GE(p.edp(), best_edp - 1e-6);
        EXPECT_GE(p.cost.energy.total(), best_e - 1e-6);
    }
}

TEST(SweepTaskSpace, RangeMatchesFullEnumeration)
{
    for (const bool proportional : {false, true}) {
        SCOPED_TRACE(proportional);
        DseOptions opt;
        opt.totalMacs = 2048;
        opt.proportionalMem = proportional;
        const std::vector<SweepTask> all = enumerateSweepTasks(opt);
        const SweepTaskSpace space(opt);
        const int64_t n = space.size();
        ASSERT_EQ(n, static_cast<int64_t>(all.size()));
        ASSERT_GE(n, 32);
        for (const auto &[begin, end] :
             std::vector<std::pair<int64_t, int64_t>>{
                 {0, 1}, {0, 16}, {5, 21}, {n / 2, n / 2 + 3},
                 {n - 16, n}, {n - 1, n}, {17, 17}, {0, n}}) {
            const std::vector<SweepTask> slice = space.range(begin, end);
            ASSERT_EQ(static_cast<int64_t>(slice.size()), end - begin);
            for (int64_t i = begin; i < end; ++i) {
                const SweepTask &a = slice[static_cast<size_t>(i - begin)];
                const SweepTask &b = all[static_cast<size_t>(i)];
                EXPECT_EQ(a.compute.chiplets, b.compute.chiplets) << i;
                EXPECT_EQ(a.compute.cores, b.compute.cores) << i;
                EXPECT_EQ(a.compute.lanes, b.compute.lanes) << i;
                EXPECT_EQ(a.compute.vectorSize, b.compute.vectorSize) << i;
                EXPECT_EQ(a.memory.ol1Bytes, b.memory.ol1Bytes) << i;
                EXPECT_EQ(a.memory.al1Bytes, b.memory.al1Bytes) << i;
                EXPECT_EQ(a.memory.wl1Bytes, b.memory.wl1Bytes) << i;
                EXPECT_EQ(a.memory.al2Bytes, b.memory.al2Bytes) << i;
            }
        }
        expectStatusThrow([&] { (void)space.range(n - 1, n + 1); },
                          "out of range");
        expectStatusThrow([&] { (void)space.range(3, 2); },
                          "out of range");
    }
}

TEST(DesignPoint, ToStringHasIdAndArea)
{
    DseOptions opt;
    opt.totalMacs = 2048;
    opt.proportionalMem = true;
    opt.effort = SearchEffort::Fast;
    const DseResult r = explore(miniModel(), opt, defaultTech());
    ASSERT_FALSE(r.points.empty());
    const std::string s = r.points.front().toString();
    EXPECT_NE(s.find("mm2"), std::string::npos);
    EXPECT_NE(s.find("mJ"), std::string::npos);
}

TEST(ExploreDeath, UnreachableMacCountIsFatal)
{
    DseOptions opt;
    opt.totalMacs = 3000; // not a product of table II options
    expectStatusThrow(
        [&] { explore(miniModel(), opt, defaultTech()); },
        "compute allocation");
}

TEST(Progress, FreshRateExcludesRestoredPoints)
{
    // 100 of 120 points done, 90 of those restored from a checkpoint:
    // only the 10 fresh points took sweep time, so a 5-second run is
    // doing 2/s — counting restored points would report 20/s and an
    // ETA 10x too optimistic right after a resume.
    const ProgressStats s = computeProgressStats(100, 120, 90, 5.0);
    EXPECT_EQ(s.done, 100);
    EXPECT_EQ(s.total, 120);
    EXPECT_EQ(s.restored, 90);
    EXPECT_EQ(s.fresh, 10);
    EXPECT_EQ(s.remaining, 20);
    EXPECT_DOUBLE_EQ(s.pointsPerSec, 2.0);
    EXPECT_DOUBLE_EQ(s.etaSeconds, 10.0);
    EXPECT_FALSE(s.finished());
}

TEST(Progress, AllRestoredReportsUnknownEtaNotDivisionByZero)
{
    // Everything restored, nothing fresh yet: rate 0, ETA unknown
    // (reported as 0, never NaN/inf), and not "finished" while points
    // remain.
    const ProgressStats s = computeProgressStats(90, 120, 90, 3.0);
    EXPECT_EQ(s.fresh, 0);
    EXPECT_DOUBLE_EQ(s.pointsPerSec, 0.0);
    EXPECT_DOUBLE_EQ(s.etaSeconds, 0.0);
    EXPECT_FALSE(s.finished());
}

TEST(Progress, FinishedSweepHasZeroEta)
{
    const ProgressStats s = computeProgressStats(120, 120, 90, 7.0);
    EXPECT_EQ(s.remaining, 0);
    EXPECT_TRUE(s.finished());
    EXPECT_DOUBLE_EQ(s.etaSeconds, 0.0);
    EXPECT_DOUBLE_EQ(s.pointsPerSec, 30.0 / 7.0);
}

TEST(Progress, ClampsInconsistentCounterReads)
{
    // Relaxed atomics can momentarily read done < restored or
    // done > total; derived figures must clamp, never go negative.
    const ProgressStats torn = computeProgressStats(5, 120, 9, 2.0);
    EXPECT_EQ(torn.fresh, 0);
    EXPECT_GE(torn.pointsPerSec, 0.0);
    EXPECT_GE(torn.etaSeconds, 0.0);
    const ProgressStats over = computeProgressStats(130, 120, 0, 2.0);
    EXPECT_EQ(over.done, 120);
    EXPECT_EQ(over.remaining, 0);
    const ProgressStats zero = computeProgressStats(10, 120, 0, 0.0);
    EXPECT_DOUBLE_EQ(zero.pointsPerSec, 0.0);
    EXPECT_DOUBLE_EQ(zero.etaSeconds, 0.0);
}
