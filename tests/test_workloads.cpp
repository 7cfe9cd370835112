/**
 * @file
 * Transformer-era workloads: native GEMM layers, the lowered
 * attention block, and the batch dimension, verified from layer
 * construction through C3P accounting, energy, the mapping search and
 * the coordinate-level differential replay.
 */

#include <gtest/gtest.h>

#include "expect_status.hpp"

#include "arch/config.hpp"
#include "c3p/access.hpp"
#include "cost/energy.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "nn/parser.hpp"
#include "verif/replay.hpp"

using namespace nnbaton;

namespace {

/** A mapping-search winner for @p layer on the case-study hardware. */
MappingChoice
winnerOf(const ConvLayer &layer)
{
    const auto choice =
        searchLayer(layer, caseStudyConfig(), defaultTech(),
                    SearchEffort::Fast, Objective::MinEnergy);
    EXPECT_TRUE(choice.has_value()) << layer.toString();
    return choice.value();
}

/** The lowered layers of one attention block plus a batched GEMM. */
std::vector<ConvLayer>
transformerLayers()
{
    Model m("t", 24);
    appendAttentionBlock(m, "a", 24, 96, 4, 2);
    m.addLayer(makeGemm("g", 48, 64, 96, 3, 2));
    return m.layers();
}

} // namespace

TEST(WorkloadsGemm, FactorsMIntoBalancedExactPlane)
{
    const ConvLayer sq = makeGemm("sq", 36, 8, 8);
    EXPECT_EQ(sq.ho, 6);
    EXPECT_EQ(sq.wo, 6);
    const ConvLayer rect = makeGemm("rect", 48, 8, 8);
    EXPECT_EQ(rect.ho, 6);
    EXPECT_EQ(rect.wo, 8);
    const ConvLayer prime = makeGemm("prime", 197, 8, 8);
    EXPECT_EQ(prime.ho, 1);
    EXPECT_EQ(prime.wo, 197);
    // The lowering is exact, never padded: MACs and outputs match the
    // native M x N x K workload.
    const ConvLayer g = makeGemm("g", 197, 64, 96, 5);
    EXPECT_EQ(g.macs(), 5LL * 197 * 64 * 96);
    EXPECT_EQ(g.outputVolume(), 5LL * 197 * 64);
    EXPECT_EQ(g.weightVolume(), 64LL * 96);
    EXPECT_TRUE(g.isPointWise());
}

TEST(WorkloadsGemm, ValidateRejectsInconsistentLowering)
{
    ConvLayer g = makeGemm("g", 48, 64, 96);
    g.gemmM = 47; // plane no longer covers M
    expectStatusThrow([&] { g.validate(); }, "GEMM");
    ConvLayer s = makeGemm("s", 48, 64, 96);
    s.kh = 3; // a GEMM has no kernel window
    expectStatusThrow([&] { s.validate(); }, "GEMM");
    expectStatusThrow([] { makeGemm("bad", 0, 8, 8); }, "GEMM M");
}

TEST(WorkloadsGemm, VectorOpsCountPostMacPasses)
{
    const ConvLayer g = makeGemm("g", 16, 16, 16, 4, 3);
    EXPECT_EQ(g.vectorOps(), 3 * g.outputVolume());
    const ConvLayer plain = makeGemm("p", 16, 16, 16, 4);
    EXPECT_EQ(plain.vectorOps(), 0);
    const ConvLayer conv = makeConv("c", 8, 8, 16, 16, 3, 3, 1);
    EXPECT_EQ(conv.vectorOps(), 0);
}

TEST(WorkloadsBatch, ScalesComputeButNotWeights)
{
    ConvLayer one = makeConv("b1", 14, 14, 16, 16, 3, 3, 1);
    ConvLayer four = one;
    four.batch = 4;
    EXPECT_EQ(four.macs(), 4 * one.macs());
    EXPECT_EQ(four.outputVolume(), 4 * one.outputVolume());
    EXPECT_EQ(four.inputVolume(), 4 * one.inputVolume());
    EXPECT_EQ(four.weightVolume(), one.weightVolume());
}

TEST(WorkloadsBatch, WeightFillsAreSharedAcrossSamples)
{
    // All weights fit in W-L1 for this layer, so the analytical fills
    // must not grow with the batch (the batch loop is outermost and
    // weights are batch-irrelevant), while activation fills and DRAM
    // output writes scale exactly linearly.
    const AcceleratorConfig cfg = caseStudyConfig();
    ConvLayer layer = makeConv("wb", 14, 14, 16, 16, 3, 3, 1);
    const Mapping mapping = winnerOf(layer).mapping;

    const AccessAnalysis a1 = analyzeMapping(layer, cfg, mapping);
    layer.batch = 4;
    const AccessAnalysis a4 = analyzeMapping(layer, cfg, mapping);

    EXPECT_EQ(a4.wl1.fillBytes, a1.wl1.fillBytes);
    EXPECT_EQ(a4.counts.dramReadWeightBits,
              a1.counts.dramReadWeightBits);
    EXPECT_EQ(a4.al2.fillBytes, 4 * a1.al2.fillBytes);
    EXPECT_EQ(a4.counts.dramWriteBits, 4 * a1.counts.dramWriteBits);
    EXPECT_EQ(a4.counts.macOps, 4 * a1.counts.macOps);
    EXPECT_EQ(a4.shapes.batchTrips, 4);
    EXPECT_EQ(a4.shapes.coreTilesPerChiplet(),
              4 * a1.shapes.coreTilesPerChiplet());
}

TEST(WorkloadsReplay, ExactEqualityOnGemmAttentionAndBatch)
{
    // The tentpole guarantee: every new layer shape must pass the
    // differential replay bit for bit (all access counts, fills,
    // cycles and energy).
    const AcceleratorConfig cfg = caseStudyConfig();
    const TechnologyModel &tech = defaultTech();
    for (const ConvLayer &layer : transformerLayers()) {
        const MappingChoice choice = winnerOf(layer);
        const DifferentialReport report =
            diffMapping(layer, cfg, tech, choice.mapping);
        EXPECT_TRUE(report.ok())
            << layer.toString() << " mapping "
            << choice.mapping.toString() << "\n"
            << report.toString();
    }
}

TEST(WorkloadsReplay, ExactEqualityUnderAblatedOptions)
{
    const AcceleratorConfig cfg = caseStudyConfig();
    const TechnologyModel &tech = defaultTech();
    const ConvLayer layer = makeGemm("abl", 48, 64, 96, 3, 2);
    const Mapping mapping = winnerOf(layer).mapping;
    for (int mask = 0; mask < 8; ++mask) {
        AnalysisOptions opt;
        opt.rotationSharing = mask & 1;
        opt.wl1Pooling = mask & 2;
        opt.al2Multicast = mask & 4;
        const DifferentialReport report =
            diffMapping(layer, cfg, tech, mapping, opt);
        EXPECT_TRUE(report.ok()) << "mask " << mask << "\n"
                                 << report.toString();
    }
}

TEST(WorkloadsEnergy, VectorTermIsExactAndZeroForConv)
{
    const AcceleratorConfig cfg = caseStudyConfig();
    const TechnologyModel &tech = defaultTech();

    const ConvLayer soft = makeGemm("soft", 24, 24, 16, 8, 3);
    const MappingChoice choice = winnerOf(soft);
    EXPECT_EQ(choice.analysis.counts.vectorOps, soft.vectorOps());
    EXPECT_DOUBLE_EQ(choice.energy.vector,
                     static_cast<double>(soft.vectorOps()) *
                         tech.vectorOpEnergyPerOp);
    EXPECT_GT(choice.energy.vector, 0.0);

    // Conv layers carry no post-ops, so the new term is exactly zero
    // and every pre-existing energy total is unchanged.
    const ConvLayer conv = makeConv("c", 14, 14, 64, 32, 3, 3, 1);
    const MappingChoice cc = winnerOf(conv);
    EXPECT_EQ(cc.analysis.counts.vectorOps, 0);
    EXPECT_EQ(cc.energy.vector, 0.0);
    (void)cfg;
}

TEST(WorkloadsZoo, BertAndVitBuildAndValidate)
{
    const Model bert = makeBertBase(128);
    // 12 encoders x (4 attention GEMMs + 2 FFN GEMMs).
    EXPECT_EQ(bert.layers().size(), 72u);
    for (const ConvLayer &l : bert.layers()) {
        EXPECT_NO_THROW(l.validate()) << l.toString();
        EXPECT_EQ(l.op, LayerOp::Gemm);
    }
    EXPECT_EQ(bert.layer("enc1_attn_scores").batch, 12);
    EXPECT_EQ(bert.layer("enc1_attn_scores").postOps, 3);
    EXPECT_EQ(bert.layer("enc1_attn_scores").gemmK, 64);
    EXPECT_EQ(bert.layer("enc1_ffn1").gemmN, 3072);

    const Model vit = makeVitB16(224);
    EXPECT_EQ(vit.layers().size(), 74u); // patch embed + 72 + head
    EXPECT_EQ(vit.layer("patch_embed").kh, 16);
    EXPECT_EQ(vit.layer("enc1_attn_qkv").gemmM, 197);
    EXPECT_TRUE(vit.layer("head").isPointWise());

    expectStatusThrow([] { makeVitB16(100); }, "multiple of 16");
    expectStatusThrow([] { makeBertBase(1); }, "sequence length");
}

TEST(WorkloadsZoo, ScaleBatchIsMultiplicative)
{
    Model bert = makeBertBase(128);
    bert.scaleBatch(4);
    EXPECT_EQ(bert.layer("enc1_attn_qkv").batch, 4);
    EXPECT_EQ(bert.layer("enc1_attn_scores").batch, 48);
    expectStatusThrow([&] { bert.scaleBatch(0); }, "batch factor");
}

TEST(WorkloadsZoo, ZooModelsReachableThroughParserRoundTrip)
{
    // The satellite contract: zoo transformers must survive the text
    // format (the CLI's models command dumps exactly this).
    for (const Model &m : {makeBertBase(128), makeVitB16(224)}) {
        const ParseResult r = parseModelString(writeModelText(m));
        ASSERT_TRUE(r.ok()) << m.name() << ": " << r.error;
        EXPECT_EQ(writeModelText(*r.model), writeModelText(m));
    }
}
