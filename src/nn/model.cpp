#include "nn/model.hpp"

#include <algorithm>
#include <sstream>

#include "common/status.hpp"

namespace nnbaton {

const ConvLayer &
Model::layer(const std::string &layer_name) const
{
    for (const auto &l : layers_) {
        if (l.name == layer_name)
            return l;
    }
    throwStatus(errNotFound("model %s: no layer named %s", name_.c_str(),
                            layer_name.c_str()));
}

void
Model::scaleBatch(int factor)
{
    if (factor <= 0) {
        throwStatus(errInvalidArgument(
            "model %s: non-positive batch factor %d", name_.c_str(),
            factor));
    }
    for (auto &l : layers_) {
        l.batch *= factor;
        l.validate();
    }
}

int64_t
Model::totalMacs() const
{
    int64_t total = 0;
    for (const auto &l : layers_)
        total += l.macs();
    return total;
}

int64_t
Model::totalWeights() const
{
    int64_t total = 0;
    for (const auto &l : layers_)
        total += l.weightVolume();
    return total;
}

int64_t
Model::peakActivations() const
{
    int64_t peak = 0;
    for (const auto &l : layers_)
        peak = std::max(peak, l.inputVolume() + l.outputVolume());
    return peak;
}

std::string
Model::toString() const
{
    std::ostringstream ss;
    ss << name_ << " @" << inputResolution_ << "x" << inputResolution_
       << " (" << layers_.size() << " layers)\n";
    for (const auto &l : layers_)
        ss << "  " << l.toString() << "\n";
    return ss.str();
}

RepresentativeLayers
representativeLayers(int resolution)
{
    Model vgg = makeVgg16(resolution);
    Model resnet = makeResNet50(resolution);
    RepresentativeLayers out{
        vgg.layer("conv1"),
        vgg.layer("conv12"),
        resnet.layer("conv1"),
        resnet.layer("res2a_branch2a"),
        resnet.layer("res2a_branch2b"),
    };
    return out;
}

namespace {

constexpr ZooModel kZoo[] = {
    {"alexnet", makeAlexNet},         {"vgg16", makeVgg16},
    {"resnet50", makeResNet50},       {"darknet19", makeDarkNet19},
    {"mobilenetv2", makeMobileNetV2}, {"bert_base", makeBertBase},
    {"vit_b16", makeVitB16},
};

} // namespace

std::span<const ZooModel>
zooModels()
{
    return kZoo;
}

Model
makeZooModel(const std::string &name, int resolution)
{
    for (const ZooModel &zoo : kZoo) {
        if (name == zoo.name)
            return zoo.build(resolution);
    }
    throwStatus(errInvalidArgument(
        "unknown model '%s' (try vgg16, resnet50, darknet19, alexnet, "
        "mobilenetv2, bert_base or vit_b16)",
        name.c_str()));
}

} // namespace nnbaton
