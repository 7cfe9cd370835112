/**
 * @file
 * Test helper: a sweep keeps a per-layer ledger only for its winners.
 *
 * A DseResult ranks design points by their model totals, and only its
 * bestEdp() and bestEnergy() points carry a per-layer ledger
 * (keepWinnerLedgers() in dse/slice.hpp).  expectLedgersOnlyOnWinners
 * checks that, and that each kept ledger is the one a fresh mapModel()
 * at the point's configuration builds and sums to the point's totals
 * bit for bit.
 */

#ifndef NNBATON_TESTS_EXPECT_LEDGERS_HPP
#define NNBATON_TESTS_EXPECT_LEDGERS_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "dse/explorer.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

/** Bit-for-bit equality of two doubles. */
inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Bit-for-bit equality of every energy term. */
inline void
expectSameEnergyBits(const EnergyBreakdown &a, const EnergyBreakdown &b)
{
    EXPECT_TRUE(sameBits(a.dram, b.dram));
    EXPECT_TRUE(sameBits(a.d2d, b.d2d));
    EXPECT_TRUE(sameBits(a.noc, b.noc));
    EXPECT_TRUE(sameBits(a.al2, b.al2));
    EXPECT_TRUE(sameBits(a.al1, b.al1));
    EXPECT_TRUE(sameBits(a.wl1, b.wl1));
    EXPECT_TRUE(sameBits(a.ol1, b.ol1));
    EXPECT_TRUE(sameBits(a.ol2, b.ol2));
    EXPECT_TRUE(sameBits(a.mac, b.mac));
    EXPECT_TRUE(sameBits(a.vector, b.vector));
}

/** The ledger of @p point sums to its totals and is the one mapModel()
 *  builds for @p model at the point's configuration under
 *  @p options. */
inline void
expectLedgerOfFreshMapping(const DesignPoint &point, const Model &model,
                           const DseOptions &options,
                           const TechnologyModel &tech)
{
    SCOPED_TRACE(point.toString());
    ASSERT_EQ(point.cost.layers.size(), model.layers().size());
    EnergyBreakdown energy;
    int64_t cycles = 0;
    for (const LayerCost &layer : point.cost.layers) {
        energy += layer.energy;
        cycles += layer.cycles;
    }
    expectSameEnergyBits(energy, point.cost.energy);
    EXPECT_EQ(cycles, point.cost.cycles);

    SearchOptions search;
    search.boundPruning = options.boundPruning;
    const ModelMappingResult fresh =
        mapModel(model, makeConfig(point.compute, point.memory), tech,
                 options.effort, options.objective, search);
    ASSERT_TRUE(fresh.feasible);
    ASSERT_EQ(fresh.cost.layers.size(), point.cost.layers.size());
    for (size_t i = 0; i < fresh.cost.layers.size(); ++i) {
        const LayerCost &want = fresh.cost.layers[i];
        const LayerCost &got = point.cost.layers[i];
        EXPECT_EQ(got.layerName, want.layerName);
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_TRUE(sameBits(got.utilization, want.utilization));
        expectSameEnergyBits(got.energy, want.energy);
    }
}

/** Exactly the bestEdp() and bestEnergy() points of @p result carry a
 *  ledger, and each is a fresh mapModel()'s. */
inline void
expectLedgersOnlyOnWinners(const DseResult &result, const Model &model,
                           const DseOptions &options,
                           const TechnologyModel &tech)
{
    const std::optional<size_t> edp = result.bestEdp();
    const std::optional<size_t> energy = result.bestEnergy();
    ASSERT_TRUE(edp.has_value());
    ASSERT_TRUE(energy.has_value());
    for (size_t i = 0; i < result.points.size(); ++i) {
        const bool winner = i == *edp || i == *energy;
        EXPECT_EQ(!result.points[i].cost.layers.empty(), winner)
            << "point " << i << ": " << result.points[i].toString();
    }
    expectLedgerOfFreshMapping(result.points[*edp], model, options, tech);
    if (*energy != *edp) {
        expectLedgerOfFreshMapping(result.points[*energy], model, options,
                                   tech);
    }
}

} // namespace nnbaton

#endif // NNBATON_TESTS_EXPECT_LEDGERS_HPP
