/**
 * @file
 * Tests for the DNN workload model: layer shape math and the model
 * zoo (AlexNet, VGG-16, ResNet-50, DarkNet-19).
 */

#include <gtest/gtest.h>

#include "expect_status.hpp"

#include "nn/layer.hpp"
#include "nn/model.hpp"

using namespace nnbaton;

TEST(ConvLayer, ShapeMath)
{
    const ConvLayer l = makeConv("t", 56, 56, 64, 3, 3, 3, 1);
    EXPECT_EQ(l.hi(), 58);
    EXPECT_EQ(l.wi(), 58);
    EXPECT_EQ(l.macs(), 56LL * 56 * 64 * 3 * 3 * 3);
    EXPECT_EQ(l.outputVolume(), 56LL * 56 * 64);
    EXPECT_EQ(l.weightVolume(), 3LL * 3 * 3 * 64);
    EXPECT_EQ(l.inputVolume(), 58LL * 58 * 3);
}

TEST(ConvLayer, StridedShapeMath)
{
    // ResNet-50 conv1 shape: 7x7 stride 2 on 224 input.
    const ConvLayer l = makeConv("conv1", 112, 112, 64, 3, 7, 7, 2);
    EXPECT_EQ(l.hi(), 229); // (112-1)*2 + 7
    EXPECT_EQ(l.wi(), 229);
}

TEST(ConvLayer, InputExtentHelper)
{
    EXPECT_EQ(inputExtent(8, 3, 1), 10);
    EXPECT_EQ(inputExtent(8, 7, 2), 21);
    EXPECT_EQ(inputExtent(1, 1, 1), 1);
    EXPECT_EQ(inputExtent(0, 3, 1), 0);
}

TEST(ConvLayer, PointWiseDetection)
{
    EXPECT_TRUE(makeConv("p", 56, 56, 64, 64, 1, 1, 1).isPointWise());
    EXPECT_FALSE(makeConv("c", 56, 56, 64, 64, 3, 3, 1).isPointWise());
}

TEST(ConvLayer, KindTaxonomy)
{
    // VGG-16 conv1: 3 input channels, huge plane -> activation heavy.
    EXPECT_EQ(makeConv("a", 224, 224, 64, 3, 3, 3, 1).kind(),
              LayerKind::ActivationIntensive);
    // VGG-16 conv12: 14x14 plane with 512x512 weights -> weight heavy.
    EXPECT_EQ(makeConv("w", 14, 14, 512, 512, 3, 3, 1).kind(),
              LayerKind::WeightIntensive);
    // ResNet-50 conv1: 7x7 kernel -> large kernel.
    EXPECT_EQ(makeConv("k", 112, 112, 64, 3, 7, 7, 2).kind(),
              LayerKind::LargeKernel);
    // res2a_branch2a: 1x1 kernel -> point-wise.
    EXPECT_EQ(makeConv("p", 56, 56, 64, 64, 1, 1, 1).kind(),
              LayerKind::PointWise);
    // res2a_branch2b: balanced 3x3 -> common.
    EXPECT_EQ(makeConv("c", 56, 56, 64, 64, 3, 3, 1).kind(),
              LayerKind::Common);
}

TEST(ConvLayer, FullyConnectedIsPointWise)
{
    const ConvLayer fc = makeFullyConnected("fc", 1000, 2048);
    EXPECT_TRUE(fc.isPointWise());
    EXPECT_EQ(fc.ho, 1);
    EXPECT_EQ(fc.wo, 1);
    EXPECT_EQ(fc.co, 1000);
    EXPECT_EQ(fc.ci, 2048);
    EXPECT_EQ(fc.macs(), 1000LL * 2048);
}

TEST(Vgg16, LayerTable224)
{
    const Model m = makeVgg16(224);
    EXPECT_EQ(m.layers().size(), 16u); // 13 conv + 3 fc
    const ConvLayer &c1 = m.layer("conv1");
    EXPECT_EQ(c1.ho, 224);
    EXPECT_EQ(c1.co, 64);
    EXPECT_EQ(c1.ci, 3);
    const ConvLayer &c12 = m.layer("conv12");
    EXPECT_EQ(c12.ho, 14);
    EXPECT_EQ(c12.co, 512);
    EXPECT_EQ(c12.ci, 512);
    const ConvLayer &c13 = m.layer("conv13");
    EXPECT_EQ(c13.ho, 14);
    // Total conv+fc MACs of VGG-16 at 224 are ~15.5 GMAC.
    EXPECT_NEAR(static_cast<double>(m.totalMacs()), 15.47e9, 0.2e9);
}

TEST(Vgg16, Resolution512ScalesPlanes)
{
    const Model m = makeVgg16(512);
    EXPECT_EQ(m.layer("conv1").ho, 512);
    EXPECT_EQ(m.layer("conv12").ho, 32);
    EXPECT_EQ(m.inputResolution(), 512);
}

TEST(ResNet50, LayerTable224)
{
    const Model m = makeResNet50(224);
    // 1 stem + 16 blocks x 3 + 4 projections + 1 fc = 54 layers.
    EXPECT_EQ(m.layers().size(), 54u);
    const ConvLayer &c1 = m.layer("conv1");
    EXPECT_EQ(c1.kh, 7);
    EXPECT_EQ(c1.stride, 2);
    EXPECT_EQ(c1.ho, 112);
    const ConvLayer &b2a = m.layer("res2a_branch2a");
    EXPECT_TRUE(b2a.isPointWise());
    EXPECT_EQ(b2a.ho, 56);
    EXPECT_EQ(b2a.co, 64);
    const ConvLayer &b2b = m.layer("res2a_branch2b");
    EXPECT_EQ(b2b.kh, 3);
    EXPECT_EQ(b2b.ci, 64);
    // Stage 5 reaches 2048 channels (paper: "wide models with up to
    // 2048 channels").
    EXPECT_EQ(m.layer("res5c_branch2c").co, 2048);
    // ResNet-50 conv MACs at 224 are ~4 GMAC.
    EXPECT_NEAR(static_cast<double>(m.totalMacs()), 4.1e9, 0.4e9);
}

TEST(ResNet50, DownsampleStrides)
{
    const Model m = makeResNet50(224);
    EXPECT_EQ(m.layer("res3a_branch2a").stride, 2);
    EXPECT_EQ(m.layer("res3a_branch1").stride, 2);
    EXPECT_EQ(m.layer("res2a_branch2a").stride, 1);
    EXPECT_EQ(m.layer("res4a_branch2a").ho, 14);
    EXPECT_EQ(m.layer("res5a_branch2a").ho, 7);
}

TEST(DarkNet19, LayerTable)
{
    const Model m = makeDarkNet19(224);
    EXPECT_EQ(m.layers().size(), 19u);
    EXPECT_EQ(m.layer("conv1").co, 32);
    EXPECT_EQ(m.layer("conv18").co, 1024);
    EXPECT_EQ(m.layer("conv19").co, 1000);
    // Alternating 3x3 / 1x1 structure.
    EXPECT_EQ(m.layer("conv4").kh, 1);
    EXPECT_EQ(m.layer("conv5").kh, 3);
}

TEST(DarkNet19, PeakConvWeightsExceedResNet)
{
    // Paper section VI-B.2: DarkNet's peak weight storage (the
    // 512->1024 3x3 layers, ~4.5 MB) exceeds the ResNet/VGG peak conv
    // layers (~2.25 MB).
    auto peak_conv_weights = [](const Model &m) {
        int64_t peak = 0;
        for (const auto &l : m.layers())
            if (!l.isPointWise() || l.ho > 1) // conv layers only
                peak = std::max(peak, l.weightVolume());
        return peak;
    };
    const int64_t dark = peak_conv_weights(makeDarkNet19(224));
    const int64_t res = peak_conv_weights(makeResNet50(224));
    EXPECT_EQ(makeDarkNet19(224).layer("conv14").weightVolume(),
              1024LL * 512 * 9); // ~4.7M weights = 4.5 MB at 8 bit
    EXPECT_GT(dark, res);
}

TEST(AlexNet, ExactStrideChain)
{
    const Model m = makeAlexNet(224);
    EXPECT_EQ(m.layers().size(), 8u);
    EXPECT_EQ(m.layer("conv1").ho, 55);
    EXPECT_EQ(m.layer("conv1").kh, 11);
    EXPECT_EQ(m.layer("conv2").ho, 27);
    EXPECT_EQ(m.layer("conv3").ho, 13);
    EXPECT_EQ(m.layer("conv5").co, 256);
}

TEST(AlexNet, DiverseKernelSizes)
{
    // Paper: "AlexNet contains convolution layer of diverse kernel
    // sizes, ranging from 3x3 to 11x11".
    const Model m = makeAlexNet(224);
    EXPECT_EQ(m.layer("conv1").kh, 11);
    EXPECT_EQ(m.layer("conv2").kh, 5);
    EXPECT_EQ(m.layer("conv3").kh, 3);
}

TEST(Model, PeakActivationsScaleWithResolution)
{
    // Paper section V-B: peak activation storage of the 512 models is
    // about 4x the 224 ones (early layers dominate).
    const Model a = makeVgg16(224);
    const Model b = makeVgg16(512);
    const double ratio = static_cast<double>(b.peakActivations()) /
                         static_cast<double>(a.peakActivations());
    EXPECT_NEAR(ratio, 512.0 * 512 / (224.0 * 224), 1.0);
}

TEST(Model, LayerLookupAndTotals)
{
    Model m("tiny", 32);
    m.addLayer(makeConv("a", 8, 8, 16, 3, 3, 3, 1));
    m.addLayer(makeConv("b", 8, 8, 16, 16, 1, 1, 1));
    EXPECT_EQ(m.layers().size(), 2u);
    EXPECT_EQ(m.layer("b").ci, 16);
    EXPECT_EQ(m.totalMacs(),
              m.layers()[0].macs() + m.layers()[1].macs());
    EXPECT_EQ(m.totalWeights(),
              m.layers()[0].weightVolume() +
                  m.layers()[1].weightVolume());
    EXPECT_FALSE(m.toString().empty());
}

TEST(RepresentativeLayers, MatchPaperTaxonomy)
{
    const RepresentativeLayers r = representativeLayers(224);
    EXPECT_EQ(r.activationIntensive.kind(),
              LayerKind::ActivationIntensive);
    EXPECT_EQ(r.weightIntensive.kind(), LayerKind::WeightIntensive);
    EXPECT_EQ(r.largeKernel.kind(), LayerKind::LargeKernel);
    EXPECT_EQ(r.pointWise.kind(), LayerKind::PointWise);
    EXPECT_EQ(r.common.kind(), LayerKind::Common);
}

TEST(MobileNetV2, LayerTable)
{
    const Model m = makeMobileNetV2(224);
    // Stem + 17 blocks (16 with expansion = 3 layers, 1 without = 2)
    // + head + fc = 1 + 16*3 + 2 + 1 + 1 = 53 layers.
    EXPECT_EQ(m.layers().size(), 53u);
    EXPECT_EQ(m.layer("conv1").co, 32);
    EXPECT_TRUE(m.layer("block1_dw").isDepthwise());
    EXPECT_EQ(m.layer("block2_expand").co, 16 * 6);
    EXPECT_EQ(m.layer("block17_project").co, 320);
    EXPECT_EQ(m.layer("conv_head").co, 1280);
}

TEST(MobileNetV2, DepthwiseShapeMath)
{
    const Model m = makeMobileNetV2(224);
    const ConvLayer &dw = m.layer("block2_dw");
    EXPECT_EQ(dw.groups, dw.ci);
    EXPECT_EQ(dw.ciPerGroup(), 1);
    // Depthwise MACs: ho*wo*co*kh*kw (one input channel per output).
    EXPECT_EQ(dw.macs(),
              static_cast<int64_t>(dw.ho) * dw.wo * dw.co * 9);
    EXPECT_EQ(dw.weightVolume(), static_cast<int64_t>(dw.co) * 9);
    EXPECT_EQ(dw.stride, 2); // first block of the 24-channel stage
}

TEST(MobileNetV2, FarFewerMacsThanVgg)
{
    // MobileNetV2 is designed to be ~50x cheaper than VGG-16.
    const int64_t mobile = makeMobileNetV2(224).totalMacs();
    const int64_t vgg = makeVgg16(224).totalMacs();
    EXPECT_LT(mobile * 20, vgg);
    EXPECT_NEAR(static_cast<double>(mobile), 0.32e9, 0.15e9);
}

TEST(DepthwiseLayer, ValidationRejectsPartialGroups)
{
    ConvLayer l = makeConv("g", 8, 8, 16, 16, 3, 3, 1);
    l.groups = 4; // grouped-but-not-depthwise is unsupported
    expectStatusThrow([&] { l.validate(); }, "depthwise");
}

TEST(Zoo, LooksUpEveryNameAndRefusesOthers)
{
    ASSERT_EQ(zooModels().size(), 7u);
    for (const ZooModel &zoo : zooModels()) {
        const Model m = makeZooModel(zoo.name, 224);
        EXPECT_EQ(m.layers().size(), zoo.build(224).layers().size())
            << zoo.name;
        EXPECT_FALSE(m.layers().empty()) << zoo.name;
    }
    try {
        makeZooModel("lenet", 224);
        ADD_FAILURE() << "built an unknown model";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
        EXPECT_EQ(e.status().message(),
                  "unknown model 'lenet' (try vgg16, resnet50, darknet19, "
                  "alexnet, mobilenetv2, bert_base or vit_b16)");
    }
}
