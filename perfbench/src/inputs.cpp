#include "inputs.hpp"

#include <sstream>
#include <stdexcept>

#include "harness.hpp"
#include "nn/parser.hpp"

namespace perfbench {

using namespace nnbaton;

namespace {

/** The figure 15 sweep: 4,096 MACs, 3 mm2, Sketch effort, min EDP,
 *  table II memory grid (45,000 points), one thread. */
DseOptions
fig15Options()
{
    DseOptions o;
    o.totalMacs = 4096;
    o.areaLimitMm2 = 3.0;
    o.effort = SearchEffort::Sketch;
    o.objective = Objective::MinEdp;
    o.threads = 1;
    return o;
}

} // namespace

SweepInput
makeSweepInput(uint64_t seed)
{
    Rng rng(seed);
    const size_t first = 13 + rng.below(3); // conv14, conv15 or conv16
    const Model full = makeDarkNet19(224);
    SweepInput in{"conv" + std::to_string(first + 1) + "-" +
                      std::to_string(first + 3),
                  Model(full.name(), full.inputResolution()),
                  fig15Options()};
    for (size_t i = first; i < first + 3; ++i)
        in.model.addLayer(full.layers()[i]);
    return in;
}

std::string
describeInputs(const std::string &workload, uint64_t seed)
{
    if (workload != "sweep" && workload != "fabric")
        throw std::invalid_argument("unknown workload " + workload);
    const SweepInput in = makeSweepInput(seed);
    std::ostringstream ss;
    ss << in.key << "\n" << writeModelText(in.model);
    if (workload == "fabric")
        ss << "workers 2 lanes 1\n";
    return ss.str();
}

} // namespace perfbench
