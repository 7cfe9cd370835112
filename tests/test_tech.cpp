/**
 * @file
 * Tests for the technology model: table I anchors, figure 10 linear
 * fits and the area helpers.
 */

#include <gtest/gtest.h>

#include <utility>

#include "common/util.hpp"
#include "tech/technology.hpp"

using namespace nnbaton;

TEST(TechnologyModel, TableOneAnchors)
{
    const TechnologyModel &t = defaultTech();
    EXPECT_DOUBLE_EQ(t.dramEnergyPerBit, 8.75);
    EXPECT_DOUBLE_EQ(t.d2dEnergyPerBit, 1.17);
    EXPECT_DOUBLE_EQ(t.rfEnergyPerBitRmw, 0.104);
    EXPECT_DOUBLE_EQ(t.macEnergyPerOp, 0.024);
}

TEST(TechnologyModel, SramFitHitsPublishedAnchors)
{
    // The figure 10 linear fit must run through the two table I SRAM
    // anchor points: 1 KB -> 0.30 pJ/bit, 32 KB -> 0.81 pJ/bit.
    const TechnologyModel &t = defaultTech();
    EXPECT_NEAR(t.sramEnergyPerBit(1_KB), 0.30, 1e-3);
    EXPECT_NEAR(t.sramEnergyPerBit(32_KB), 0.81, 1e-3);
}

TEST(TechnologyModel, SramEnergyMonotoneInSize)
{
    const TechnologyModel &t = defaultTech();
    double prev = 0.0;
    for (int64_t kb = 1; kb <= 256; kb *= 2) {
        const double e = t.sramEnergyPerBit(kb * 1024);
        EXPECT_GT(e, prev) << kb << " KB";
        prev = e;
    }
}

TEST(TechnologyModel, RelativeCostsMatchTableOne)
{
    // Table I relative-cost column (vs one 8-bit MAC op).
    const TechnologyModel &t = defaultTech();
    EXPECT_NEAR(t.dramEnergyPerBit / t.macEnergyPerOp, 364.58, 0.5);
    EXPECT_NEAR(t.d2dEnergyPerBit / t.macEnergyPerOp, 48.75, 0.5);
    EXPECT_NEAR(t.sramEnergyPerBit(32_KB) / t.macEnergyPerOp, 33.75,
                0.5);
    EXPECT_NEAR(t.sramEnergyPerBit(1_KB) / t.macEnergyPerOp, 12.5, 0.5);
    EXPECT_NEAR(t.rfEnergyPerBitRmw / t.macEnergyPerOp, 4.33, 0.05);
}

TEST(TechnologyModel, MacArea)
{
    const TechnologyModel &t = defaultTech();
    // 135.1 um^2 per MAC (paper section V-A).
    EXPECT_NEAR(t.macAreaMm2(1), 135.1e-6, 1e-9);
    EXPECT_NEAR(t.macAreaMm2(2048), 2048 * 135.1e-6, 1e-6);
}

TEST(TechnologyModel, AreaFitsMonotone)
{
    const TechnologyModel &t = defaultTech();
    EXPECT_GT(t.sramAreaMm2(64_KB), t.sramAreaMm2(32_KB));
    EXPECT_GT(t.rfAreaMm2(2_KB), t.rfAreaMm2(1_KB));
    EXPECT_GT(t.sramAreaMm2(1_KB), 0.0);
}

TEST(TechnologyModel, RfDenserPenaltyOverSram)
{
    // Flop-based register files cost more area per bit than SRAM.
    const TechnologyModel &t = defaultTech();
    EXPECT_GT(t.rfAreaMm2Kb.slope, t.sramAreaMm2Kb.slope);
}

TEST(TechnologyModel, CyclesToNs)
{
    const TechnologyModel &t = defaultTech();
    // 500 MHz -> 2 ns per cycle.
    EXPECT_DOUBLE_EQ(t.cyclesToNs(1), 2.0);
    EXPECT_DOUBLE_EQ(t.cyclesToNs(500000000), 1e9);
}

TEST(TechnologyModel, TableOneStringContainsRows)
{
    const std::string s = defaultTech().tableOneString();
    EXPECT_NE(s.find("DRAM access"), std::string::npos);
    EXPECT_NE(s.find("Die-to-die"), std::string::npos);
    EXPECT_NE(s.find("8bit MAC"), std::string::npos);
}

TEST(TechnologyModel, FingerprintChangesWithEveryParameter)
{
    // A sweep unit's technology gate compares fingerprints, so every
    // parameter must perturb the digest.
    using TechEdit = std::pair<const char *, void (*)(TechnologyModel &)>;
    const TechEdit fields[] = {
        {"dramEnergyPerBit",
         [](TechnologyModel &t) { t.dramEnergyPerBit *= 2; }},
        {"d2dEnergyPerBit", [](TechnologyModel &t) { t.d2dEnergyPerBit *= 2; }},
        {"l2EnergyPerBitAt32K",
         [](TechnologyModel &t) { t.l2EnergyPerBitAt32K *= 2; }},
        {"l1EnergyPerBitAt1K",
         [](TechnologyModel &t) { t.l1EnergyPerBitAt1K *= 2; }},
        {"rfEnergyPerBitRmw",
         [](TechnologyModel &t) { t.rfEnergyPerBitRmw *= 2; }},
        {"macEnergyPerOp", [](TechnologyModel &t) { t.macEnergyPerOp *= 2; }},
        {"vectorOpEnergyPerOp",
         [](TechnologyModel &t) { t.vectorOpEnergyPerOp *= 2; }},
        {"nocEnergyPerBit", [](TechnologyModel &t) { t.nocEnergyPerBit *= 2; }},
        {"sramEnergyPerBitKb.offset",
         [](TechnologyModel &t) { t.sramEnergyPerBitKb.offset *= 2; }},
        {"sramEnergyPerBitKb.slope",
         [](TechnologyModel &t) { t.sramEnergyPerBitKb.slope *= 2; }},
        {"sramAreaMm2Kb.offset",
         [](TechnologyModel &t) { t.sramAreaMm2Kb.offset *= 2; }},
        {"sramAreaMm2Kb.slope",
         [](TechnologyModel &t) { t.sramAreaMm2Kb.slope *= 2; }},
        {"rfAreaMm2Kb.offset",
         [](TechnologyModel &t) { t.rfAreaMm2Kb.offset *= 2; }},
        {"rfAreaMm2Kb.slope",
         [](TechnologyModel &t) { t.rfAreaMm2Kb.slope *= 2; }},
        {"macAreaUm2", [](TechnologyModel &t) { t.macAreaUm2 *= 2; }},
        {"grsPhyAreaMm2", [](TechnologyModel &t) { t.grsPhyAreaMm2 *= 2; }},
        {"ddrPhyAreaMm2", [](TechnologyModel &t) { t.ddrPhyAreaMm2 *= 2; }},
        {"frequencyGhz", [](TechnologyModel &t) { t.frequencyGhz *= 2; }},
        {"dramBitsPerCycle",
         [](TechnologyModel &t) { t.dramBitsPerCycle *= 2; }},
        {"d2dBitsPerCycle", [](TechnologyModel &t) { t.d2dBitsPerCycle *= 2; }},
        {"dataBits", [](TechnologyModel &t) { t.dataBits *= 2; }},
        {"psumBits", [](TechnologyModel &t) { t.psumBits *= 2; }},
    };
    for (const auto &[field, edit] : fields) {
        TechnologyModel t = defaultTech();
        edit(t);
        EXPECT_NE(t.fingerprint(), defaultTech().fingerprint()) << field;
    }
}

TEST(LinearFit, EvaluatesLine)
{
    const LinearFit f{1.0, 2.0};
    EXPECT_DOUBLE_EQ(f(0.0), 1.0);
    EXPECT_DOUBLE_EQ(f(3.0), 7.0);
}
