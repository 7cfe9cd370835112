/**
 * @file
 * Tests for the C3P analysis engine: footprint functions, relevance,
 * the retention scan, and the paper's figure 6 worked examples.
 */

#include <gtest/gtest.h>

#include "c3p/analysis.hpp"
#include "c3p/footprint.hpp"
#include "expect_status.hpp"

using namespace nnbaton;

namespace {

ConvLayer
layer3x3()
{
    return makeConv("t", 32, 32, 64, 64, 3, 3, 1);
}

} // namespace

TEST(Footprint, Weights)
{
    TileSpan s;
    s.co = 4;
    s.ci = 8;
    s.kh = 3;
    s.kw = 3;
    EXPECT_EQ(footprintBytes(Tensor::Weights, s, layer3x3()),
              4 * 8 * 3 * 3);
}

TEST(Footprint, ActivationsWithHalo)
{
    TileSpan s;
    s.ho = 8;
    s.wo = 8;
    s.ci = 16;
    s.kh = 3;
    s.kw = 3;
    // (8-1)*1+3 = 10 per axis.
    EXPECT_EQ(footprintBytes(Tensor::Activations, s, layer3x3()),
              10 * 10 * 16);
}

TEST(Footprint, ActivationsStride2)
{
    const ConvLayer l = makeConv("s", 32, 32, 16, 16, 7, 7, 2);
    TileSpan s;
    s.ho = 4;
    s.wo = 4;
    s.ci = 2;
    s.kh = 7;
    s.kw = 7;
    // (4-1)*2+7 = 13 per axis.
    EXPECT_EQ(footprintBytes(Tensor::Activations, s, l), 13 * 13 * 2);
}

TEST(Footprint, ActivationsPartialKernelSpan)
{
    TileSpan s;
    s.ho = 8;
    s.wo = 8;
    s.ci = 1;
    s.kh = 1; // only one kernel row in span
    s.kw = 3;
    EXPECT_EQ(footprintBytes(Tensor::Activations, s, layer3x3()),
              8 * 10 * 1);
}

TEST(Footprint, Outputs)
{
    TileSpan s;
    s.ho = 4;
    s.wo = 5;
    s.co = 6;
    EXPECT_EQ(footprintBytes(Tensor::Outputs, s, layer3x3()), 120);
}

TEST(Relevance, PerTensor)
{
    const ConvLayer dense = layer3x3();
    EXPECT_TRUE(isRelevant(Tensor::Weights, Dim::OC, dense));
    EXPECT_TRUE(isRelevant(Tensor::Weights, Dim::IC, dense));
    EXPECT_FALSE(isRelevant(Tensor::Weights, Dim::OH, dense));
    EXPECT_FALSE(isRelevant(Tensor::Weights, Dim::OW, dense));
    EXPECT_TRUE(isRelevant(Tensor::Activations, Dim::OH, dense));
    EXPECT_FALSE(isRelevant(Tensor::Activations, Dim::OC, dense));
    EXPECT_TRUE(isRelevant(Tensor::Outputs, Dim::OC, dense));
    EXPECT_FALSE(isRelevant(Tensor::Outputs, Dim::IC, dense));

    // Depthwise: the output-channel dimension selects input channels.
    const ConvLayer dw = makeDepthwiseConv("dw", 32, 32, 64, 3, 1);
    EXPECT_TRUE(isRelevant(Tensor::Activations, Dim::OC, dw));
}

/**
 * Paper figure 6(c), example 1: nest [W1, H1, C1] (outer to inner)
 * for W-L1.  C1 is the first critical position with Cc1 = C1 *
 * filters; a buffer below Cc1 reloads for every H1 x W1 iteration.
 */
TEST(C3P, PaperExampleOne)
{
    const ConvLayer l = layer3x3();
    LoopNest n;
    n.loops = {{Dim::OW, 4}, {Dim::OH, 4}, {Dim::IC, 8}};
    n.atom = TileSpan{};
    n.atom.co = 8;
    n.atom.ci = 8;
    n.atom.kh = 3;
    n.atom.kw = 3;
    const int64_t filters = 8 * 8 * 9;    // atom weights
    const int64_t cc1 = 8 * filters;      // C1 x filters

    // Buffer >= Cc1: weights stream once (A0).
    const auto big = analyzeBuffer(n, Tensor::Weights, l, cc1);
    EXPECT_EQ(big.fillBytes, cc1);
    EXPECT_DOUBLE_EQ(big.penalty(), 1.0);

    // Buffer < Cc1: the H1 x W1 = 16 region reloads everything.
    const auto small = analyzeBuffer(n, Tensor::Weights, l, cc1 - 1);
    EXPECT_EQ(small.fillBytes, cc1 * 16);
    EXPECT_DOUBLE_EQ(small.penalty(), 16.0);
}

/**
 * Paper figure 6(d), example 2: nest [C2, W1, H1, C1]; the minimal
 * no-penalty capacity depends only on Cp1 because Cp2 sits at the
 * boundary of the nest.
 */
TEST(C3P, PaperExampleTwo)
{
    const ConvLayer l = layer3x3();
    LoopNest n;
    n.loops = {{Dim::OC, 4}, {Dim::OW, 4}, {Dim::OH, 4}, {Dim::IC, 8}};
    n.atom = TileSpan{};
    n.atom.co = 8;
    n.atom.ci = 8;
    n.atom.kh = 3;
    n.atom.kw = 3;
    const int64_t filters = 8 * 8 * 9;
    const int64_t cc1 = 8 * filters; // weights below the C2 loop

    // Cc1 suffices: every C2 group is loaded exactly once -> A0.
    const auto fit = analyzeBuffer(n, Tensor::Weights, l, cc1);
    EXPECT_EQ(fit.fillBytes, 4 * cc1); // A0 = whole weight tensor
    EXPECT_DOUBLE_EQ(fit.penalty(), 1.0);

    // Larger capacities cannot reduce below A0.
    const auto huge = analyzeBuffer(n, Tensor::Weights, l, 100 * cc1);
    EXPECT_EQ(huge.fillBytes, fit.fillBytes);
}

/**
 * Paper figure 6(f), example 4: a bad case for A-L1 where Cc1 gives
 * no reuse — only holding the larger Cc2 footprint helps.
 */
TEST(C3P, PaperExampleFourBadCase)
{
    const ConvLayer l = layer3x3();
    // [IC(outer), OH, OW(inner)] with activations: the inner plane
    // loops are relevant, so a capacity between the OW-level and
    // IC-level footprints yields no reuse across IC... the relevant
    // check: fills with capacity just above the OW footprint equal
    // fills with the atom capacity (no benefit), until the full
    // IC-level footprint fits.
    LoopNest n;
    n.loops = {{Dim::IC, 8}, {Dim::OH, 8}, {Dim::OW, 8}};
    n.atom = TileSpan{};
    n.atom.ci = 8;
    n.atom.kh = 3;
    n.atom.kw = 3;

    const int64_t f_ow = footprintBytes(
        Tensor::Activations, n.spanBelow(2), l); // row of tiles
    const int64_t f_oh =
        footprintBytes(Tensor::Activations, n.spanBelow(1), l);
    const auto mid =
        analyzeBuffer(n, Tensor::Activations, l, f_ow);
    const auto top =
        analyzeBuffer(n, Tensor::Activations, l, f_oh);
    // Holding a full plane row reduces fills; holding the whole
    // IC-group plane reaches the intrinsic A0.
    EXPECT_GT(mid.fillBytes, top.fillBytes);
    EXPECT_EQ(top.fillBytes, top.intrinsicBytes);
}

TEST(C3P, IrrelevantLoopsAreFree)
{
    const ConvLayer l = layer3x3();
    // OC above IC for activations: OC is irrelevant, so a buffer
    // holding the IC-level footprint also retains across OC.
    LoopNest n;
    n.loops = {{Dim::OC, 8}, {Dim::IC, 4}};
    n.atom = TileSpan{};
    n.atom.ho = 4;
    n.atom.wo = 4;
    n.atom.ci = 16;
    n.atom.kh = 3;
    n.atom.kw = 3;
    // Holding the full-ci footprint retains across the irrelevant OC
    // loop for free: fills collapse to the intrinsic A0.
    const int64_t ic_fp =
        footprintBytes(Tensor::Activations, n.spanBelow(1), l);
    const auto r = analyzeBuffer(n, Tensor::Activations, l, ic_fp);
    EXPECT_EQ(r.fitBoundary, 0u);
    EXPECT_EQ(r.fillBytes, r.intrinsicBytes);

    // One byte less and the whole OC x IC product reloads the atom.
    const int64_t atom_fp =
        footprintBytes(Tensor::Activations, n.spanBelow(2), l);
    const auto small =
        analyzeBuffer(n, Tensor::Activations, l, ic_fp - 1);
    EXPECT_EQ(small.fillBytes, atom_fp * 8 * 4);
}

TEST(C3P, AtomLargerThanBufferDegenerates)
{
    const ConvLayer l = layer3x3();
    LoopNest n;
    n.loops = {{Dim::OH, 4}};
    n.atom = TileSpan{};
    n.atom.ho = 8;
    n.atom.wo = 8;
    n.atom.ci = 64;
    n.atom.kh = 3;
    n.atom.kw = 3;
    const auto r = analyzeBuffer(n, Tensor::Activations, l, 16);
    EXPECT_EQ(r.fitBoundary, n.loops.size());
    const int64_t atom_fp =
        footprintBytes(Tensor::Activations, n.spanBelow(1), l);
    EXPECT_EQ(r.fillBytes, atom_fp * 4);
}

TEST(C3P, NestPastDepthLimitPanics)
{
    // buildNests() emits at most 12 loops and the Simba baseline 8; the
    // scan's fixed footprint buffer holds 31.  A deeper nest is a bug
    // in its producer and must fail loudly in both entry points.
    const ConvLayer l = layer3x3();
    LoopNest n;
    n.loops.assign(31, Loop{Dim::IC, 1});
    n.atom = TileSpan{};
    n.atom.ci = 2;
    const auto r = analyzeBuffer(n, Tensor::Weights, l, 1 << 20);
    EXPECT_EQ(r.fitBoundary, 0u);
    n.loops.push_back({Dim::IC, 1});
    expectStatusThrow(
        [&] { analyzeBuffer(n, Tensor::Weights, l, 1 << 20); },
        "32-loop nest");
    std::vector<FillStep> steps;
    expectStatusThrow(
        [&] { appendFillSteps(n, Tensor::Weights, l, steps); },
        "32-loop nest");
}

class C3PMonotone : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(C3PMonotone, FillsNonIncreasingInCapacity)
{
    const ConvLayer l = layer3x3();
    LoopNest n;
    n.loops = {{Dim::OC, 4}, {Dim::OH, 4}, {Dim::IC, 4}, {Dim::KH, 3},
               {Dim::OW, 8}};
    n.atom = TileSpan{};
    n.atom.ho = 2;
    n.atom.wo = 2;
    n.atom.co = 4;
    n.atom.ci = 4;
    n.atom.kw = 3;
    const int64_t cap = GetParam();
    for (Tensor t : {Tensor::Weights, Tensor::Activations,
                     Tensor::Outputs}) {
        const auto a = analyzeBuffer(n, t, l, cap);
        const auto b = analyzeBuffer(n, t, l, cap * 2);
        EXPECT_GE(a.fillBytes, b.fillBytes) << toString(t);
        EXPECT_GE(a.fillBytes, a.intrinsicBytes) << toString(t);
        EXPECT_GE(b.fillBytes, b.intrinsicBytes);
    }
}

INSTANTIATE_TEST_SUITE_P(CapacitySweep, C3PMonotone,
                         ::testing::Values(16, 64, 256, 1024, 4096,
                                           16384, 65536));
