/**
 * @file
 * Tests for the text-format model parser and writer.
 */

#include <gtest/gtest.h>

#include <random>

#include "nn/parser.hpp"

using namespace nnbaton;

TEST(ParseModel, BasicDescription)
{
    const ParseResult r = parseModelString(
        "# a tiny model\n"
        "model tiny 64\n"
        "conv c1 32 32 16 3 3 3 1\n"
        "dwconv d1 16 16 16 3 2\n"
        "fc head 10 16\n");
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.model->name(), "tiny");
    EXPECT_EQ(r.model->inputResolution(), 64);
    ASSERT_EQ(r.model->layers().size(), 3u);
    EXPECT_EQ(r.model->layer("c1").co, 16);
    EXPECT_TRUE(r.model->layer("d1").isDepthwise());
    EXPECT_EQ(r.model->layer("d1").stride, 2);
    EXPECT_TRUE(r.model->layer("head").isPointWise());
}

TEST(ParseModel, CommentsAndBlankLines)
{
    const ParseResult r = parseModelString(
        "\n"
        "   # leading comment\n"
        "model m 32   # trailing comment\n"
        "\n"
        "conv a 8 8 4 3 3 3 1 # another\n");
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.model->layers().size(), 1u);
}

TEST(ParseModel, ErrorsCarryLineNumbers)
{
    EXPECT_NE(parseModelString("conv a 8 8 4 3 3 3 1\n")
                  .error.find("line 1"),
              std::string::npos); // model line missing
    EXPECT_NE(parseModelString("model m 32\nconv a 8 8\n")
                  .error.find("line 2"),
              std::string::npos); // wrong arity
    EXPECT_NE(parseModelString("model m 32\nconv a 8 8 x 3 3 3 1\n")
                  .error.find("bad integer"),
              std::string::npos);
    EXPECT_NE(parseModelString("model m 32\nblah a 1 2\n")
                  .error.find("unknown layer kind"),
              std::string::npos);
    EXPECT_NE(parseModelString("model m 32\nmodel n 32\n")
                  .error.find("duplicate"),
              std::string::npos);
}

TEST(ParseModel, RejectsEmptyAndZeroes)
{
    EXPECT_FALSE(parseModelString("").ok());
    EXPECT_FALSE(parseModelString("model m 32\n").ok());
    EXPECT_FALSE(
        parseModelString("model m 32\nconv a 0 8 4 3 3 3 1\n").ok());
    EXPECT_FALSE(
        parseModelString("model m 32\nconv a -4 8 4 3 3 3 1\n").ok());
}

TEST(ParseModel, FileErrorsMentionPath)
{
    const ParseResult r = parseModelFile("/nonexistent/nn.model");
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("nonexistent"), std::string::npos);
}

TEST(WriteModelText, RoundTripsZooModels)
{
    for (const Model &m :
         {makeVgg16(224), makeResNet50(224), makeMobileNetV2(224)}) {
        const std::string text = writeModelText(m);
        const ParseResult r = parseModelString(text);
        ASSERT_TRUE(r.ok()) << m.name() << ": " << r.error;
        ASSERT_EQ(r.model->layers().size(), m.layers().size());
        for (size_t i = 0; i < m.layers().size(); ++i) {
            const ConvLayer &a = m.layers()[i];
            const ConvLayer &b = r.model->layers()[i];
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.ho, b.ho);
            EXPECT_EQ(a.wo, b.wo);
            EXPECT_EQ(a.co, b.co);
            EXPECT_EQ(a.ci, b.ci);
            EXPECT_EQ(a.kh, b.kh);
            EXPECT_EQ(a.stride, b.stride);
            EXPECT_EQ(a.groups, b.groups);
            EXPECT_EQ(a.macs(), b.macs());
        }
    }
}

namespace {

/** Field-by-field layer equality (ConvLayer has no operator==). */
void
expectLayersEqual(const ConvLayer &a, const ConvLayer &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.ho, b.ho);
    EXPECT_EQ(a.wo, b.wo);
    EXPECT_EQ(a.co, b.co);
    EXPECT_EQ(a.ci, b.ci);
    EXPECT_EQ(a.kh, b.kh);
    EXPECT_EQ(a.kw, b.kw);
    EXPECT_EQ(a.stride, b.stride);
    EXPECT_EQ(a.groups, b.groups);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.gemmM, b.gemmM);
    EXPECT_EQ(a.gemmN, b.gemmN);
    EXPECT_EQ(a.gemmK, b.gemmK);
    EXPECT_EQ(a.postOps, b.postOps);
}

/** parse(write(m)) must reproduce m exactly. */
void
expectRoundTrips(const Model &m)
{
    const ParseResult r = parseModelString(writeModelText(m));
    ASSERT_TRUE(r.ok()) << m.name() << ": " << r.error;
    EXPECT_EQ(r.model->name(), m.name());
    EXPECT_EQ(r.model->inputResolution(), m.inputResolution());
    ASSERT_EQ(r.model->layers().size(), m.layers().size());
    for (size_t i = 0; i < m.layers().size(); ++i)
        expectLayersEqual(m.layers()[i], r.model->layers()[i]);
}

} // namespace

TEST(ParseModel, DepthwiseNonSquareKernelRoundTrips)
{
    // Regression: the writer used to emit a single kernel column for
    // dwconv, silently squaring non-square kernels on the way back in.
    Model m("t", 32);
    m.addLayer(makeDepthwiseConv("dw_rect", 16, 16, 32, 3, 5, 1));
    m.addLayer(makeDepthwiseConv("dw_sq", 8, 8, 64, 3, 2));
    const std::string text = writeModelText(m);
    EXPECT_NE(text.find("dwconv dw_rect 16 16 32 3 5 1"),
              std::string::npos)
        << text;
    expectRoundTrips(m);
}

TEST(ParseModel, DepthwiseLegacySquareFormStillParses)
{
    const ParseResult r = parseModelString(
        "model t 32\n"
        "dwconv dw 16 16 32 3 1\n");
    ASSERT_TRUE(r.ok()) << r.error;
    const ConvLayer &l = r.model->layers()[0];
    EXPECT_EQ(l.kh, 3);
    EXPECT_EQ(l.kw, 3);
    EXPECT_TRUE(l.isDepthwise());
}

TEST(ParseModel, DepthwiseRejectsWrongArity)
{
    EXPECT_FALSE(
        parseModelString("model t 32\ndwconv dw 16 16 32 3\n").ok());
    EXPECT_FALSE(
        parseModelString("model t 32\ndwconv dw 16 16 32 3 3 1 9\n")
            .ok());
}

TEST(WriteModelText, RoundTripPropertyOverFullZoo)
{
    // Every built-in model must survive write -> parse exactly; this
    // covers dense conv, depthwise (MobileNetV2), fc and the lowered
    // GEMM / attention layers of the transformer zoo.
    for (const Model &m :
         {makeAlexNet(224), makeVgg16(224), makeResNet50(224),
          makeDarkNet19(224), makeMobileNetV2(224), makeBertBase(128),
          makeVitB16(224)}) {
        expectRoundTrips(m);
    }
}

TEST(ParseModel, GemmBatchAndAttentionDirectives)
{
    const ParseResult r = parseModelString(
        "model t 32\n"
        "gemm g0 15 64 96\n"       // prime-ish M -> 3x5 plane
        "batch 4\n"
        "gemm g1 48 64 96 2\n"     // postops carried
        "attention a 24 96 4\n"    // expands to 4 gemm layers
        "batch 1\n"
        "fc head 10 96\n");
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.model->layers().size(), 7u);
    const ConvLayer &g0 = r.model->layer("g0");
    EXPECT_EQ(g0.op, LayerOp::Gemm);
    EXPECT_EQ(g0.gemmM, 15);
    EXPECT_EQ(static_cast<int64_t>(g0.ho) * g0.wo, 15);
    EXPECT_EQ(g0.batch, 1);
    const ConvLayer &g1 = r.model->layer("g1");
    EXPECT_EQ(g1.batch, 4);
    EXPECT_EQ(g1.postOps, 2);
    // Heads fold into the per-head GEMMs' batch; projections keep the
    // sequence batch.
    EXPECT_EQ(r.model->layer("a_qkv").batch, 4);
    EXPECT_EQ(r.model->layer("a_scores").batch, 16);
    EXPECT_EQ(r.model->layer("a_scores").postOps, 3);
    EXPECT_EQ(r.model->layer("a_ctx").batch, 16);
    EXPECT_EQ(r.model->layer("a_ctx").gemmN, 24);
    EXPECT_EQ(r.model->layer("a_proj").batch, 4);
    EXPECT_EQ(r.model->layer("head").batch, 1);
    expectRoundTrips(*r.model);
}

TEST(ParseModel, BatchAppliesToEveryLayerKind)
{
    // `batch` is stateful for every layer kind, so a batch-scaled CNN
    // round-trips: a fabric worker rebuilds its sweep from this text.
    const ParseResult r = parseModelString("model t 32\n"
                                           "batch 2\n"
                                           "conv c 8 8 16 3 3 3 1\n"
                                           "dwconv d 8 8 16 3 3 1\n"
                                           "fc f 10 16\n");
    ASSERT_TRUE(r.ok()) << r.error;
    for (const ConvLayer &l : r.model->layers())
        EXPECT_EQ(l.batch, 2) << l.name;
    Model alexnet = makeAlexNet(224);
    alexnet.scaleBatch(2);
    expectRoundTrips(alexnet);
}

TEST(ParseModel, GemmAndAttentionErrors)
{
    EXPECT_FALSE(parseModelString("model t 32\ngemm g 8 8\n").ok());
    EXPECT_FALSE(
        parseModelString("model t 32\ngemm g 8 8 8 0\n").ok());
    EXPECT_FALSE(parseModelString("model t 32\nbatch 0\n").ok());
    EXPECT_FALSE(parseModelString("model t 32\nbatch\n").ok());
    EXPECT_NE(parseModelString("model t 32\nattention a 16 96 5\n")
                  .error.find("divisible"),
              std::string::npos);
    EXPECT_FALSE(
        parseModelString("model t 32\nattention a 16 96\n").ok());
}

TEST(WriteModelText, RoundTripPropertyOverRandomModels)
{
    // Seeded property test: randomized dense / depthwise / fc mixes.
    // Dense convs keep ho >= 2 so they cannot collide with the fc
    // written form (fc is re-parsed with stride 1 by definition).
    std::mt19937 rng(20260806u);
    auto pick = [&](int lo, int hi) {
        return lo + static_cast<int>(rng() % (hi - lo + 1));
    };
    for (int trial = 0; trial < 50; ++trial) {
        Model m("rand" + std::to_string(trial), pick(16, 512));
        const int layers = pick(1, 12);
        for (int i = 0; i < layers; ++i) {
            const std::string name = "l" + std::to_string(i);
            switch (pick(0, 4)) {
              case 0:
                m.addLayer(makeConv(name, pick(2, 64), pick(1, 64),
                                    pick(1, 512), pick(1, 512),
                                    pick(1, 7), pick(1, 7),
                                    pick(1, 3)));
                break;
              case 1:
                m.addLayer(makeDepthwiseConv(
                    name, pick(1, 64), pick(1, 64), pick(1, 512),
                    pick(1, 7), pick(1, 7), pick(1, 3)));
                break;
              case 2:
                m.addLayer(makeGemm(name, pick(1, 512), pick(1, 512),
                                    pick(1, 512), pick(1, 16),
                                    pick(0, 4)));
                break;
              case 3: {
                const int heads = pick(1, 8);
                appendAttentionBlock(m, name, pick(1, 64), 16 * heads,
                                     heads, pick(1, 8));
                break;
              }
              default:
                m.addLayer(makeFullyConnected(name, pick(1, 4096),
                                              pick(1, 4096)));
                break;
            }
        }
        expectRoundTrips(m);
    }
}
