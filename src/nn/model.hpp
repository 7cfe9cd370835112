/**
 * @file
 * DNN model container and the built-in model zoo.
 *
 * The zoo encodes the four benchmark networks of the paper (AlexNet,
 * VGG-16, ResNet-50, DarkNet-19) at the two input resolutions used in
 * the evaluation (224x224 for classification, 512x512 for detection).
 * Only CONV and FC layers are listed — the estimation in the paper
 * "calculates the CONV and FC layers", with FC reorganised into
 * point-wise layers.
 */

#ifndef NNBATON_NN_MODEL_HPP
#define NNBATON_NN_MODEL_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace nnbaton {

/** A DNN model: an ordered list of conv/pointwise layer workloads. */
class Model
{
  public:
    Model(std::string name, int input_resolution)
        : name_(std::move(name)), inputResolution_(input_resolution)
    {
    }

    /** Model name, e.g. "VGG-16". */
    const std::string &name() const { return name_; }

    /** Input resolution the layer table was generated for (224 or 512). */
    int inputResolution() const { return inputResolution_; }

    /** Append a layer. */
    void addLayer(ConvLayer layer) { layers_.push_back(std::move(layer)); }

    /** All layers in execution order. */
    const std::vector<ConvLayer> &layers() const { return layers_; }

    /**
     * Multiply every layer's batch dimension by @p factor (the
     * `--batch` / serve `batch` knob).  Multiplicative so layers that
     * already fold heads into their batch (lowered attention) scale
     * with the sequence count instead of being overwritten.
     */
    void scaleBatch(int factor);

    /** Find a layer by name; throws StatusError(NotFound) if absent. */
    const ConvLayer &layer(const std::string &layer_name) const;

    /** Total MACs over all layers. */
    int64_t totalMacs() const;

    /** Total weight elements over all layers. */
    int64_t totalWeights() const;

    /** Largest per-layer activation footprint (input + output), elems. */
    int64_t peakActivations() const;

    /** One line per layer. */
    std::string toString() const;

  private:
    std::string name_;
    int inputResolution_;
    std::vector<ConvLayer> layers_;
};

/**
 * @name Model zoo
 * Builders for the paper's benchmark networks.  @p resolution selects
 * the input size and must be 224 or 512.
 * @{
 */
Model makeAlexNet(int resolution);
Model makeVgg16(int resolution);
Model makeResNet50(int resolution);
Model makeDarkNet19(int resolution);
Model makeMobileNetV2(int resolution);

/** BERT-base encoder stack (12 layers, d=768, 12 heads); @p resolution
 *  is the sequence length (the canonical table uses 128). */
Model makeBertBase(int resolution);

/** ViT-B/16 (patch embed + 12 encoders at seq 197 + head); @p
 *  resolution is the input image size (224 canonical). */
Model makeVitB16(int resolution);

/** One zoo model: its `--model` name and the function that builds it. */
struct ZooModel
{
    const char *name;
    Model (*build)(int resolution);
};

/** The zoo ("alexnet", "vgg16", ..., "vit_b16"), in `nn-baton models`
 *  order. */
std::span<const ZooModel> zooModels();

/** Build the zoo model named @p name at @p resolution.  Throws
 *  StatusError(InvalidArgument) "unknown model" for any other name. */
Model makeZooModel(const std::string &name, int resolution);
/** @} */

/**
 * Append one multi-head self-attention block, lowered to its GEMM
 * sequence: fused QKV projection, per-head score GEMM with a
 * three-pass softmax (max / exp-sum / normalise) as vector post-ops,
 * per-head context GEMM, and the output projection.  Heads fold into
 * the batch dimension of the per-head GEMMs.  @p seq tokens, model
 * width @p d_model divisible by @p heads, @p batch sequences.
 */
void appendAttentionBlock(Model &model, const std::string &prefix,
                          int seq, int d_model, int heads, int batch);

/** Names of the five representative layers used in figures 11 and 12. */
struct RepresentativeLayers
{
    ConvLayer activationIntensive; //!< VGG-16 conv1
    ConvLayer weightIntensive;     //!< VGG-16 conv12
    ConvLayer largeKernel;         //!< ResNet-50 conv1
    ConvLayer pointWise;           //!< ResNet-50 res2a_branch2a
    ConvLayer common;              //!< ResNet-50 res2a_branch2b
};

/** Extract the five case-study layers for a given input resolution. */
RepresentativeLayers representativeLayers(int resolution);

} // namespace nnbaton

#endif // NNBATON_NN_MODEL_HPP
