#include "checks.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "baton/export.hpp"
#include "dse/space.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace nnbaton;

namespace {

std::string
trimNewlines(std::string s)
{
    while (!s.empty() && s.back() == '\n')
        s.pop_back();
    return s;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameEnergy(const EnergyBreakdown &a, const EnergyBreakdown &b)
{
    return sameBits(a.dram, b.dram) && sameBits(a.d2d, b.d2d) &&
           sameBits(a.noc, b.noc) && sameBits(a.al2, b.al2) &&
           sameBits(a.al1, b.al1) && sameBits(a.wl1, b.wl1) &&
           sameBits(a.ol1, b.ol1) && sameBits(a.ol2, b.ol2) &&
           sameBits(a.mac, b.mac) && sameBits(a.vector, b.vector);
}

bool
recommendationReproduces(const Model &model, const DseOptions &options,
                         const PreDesignReport &report)
{
    if (!report.recommended)
        return false;
    const DesignPoint &best = *report.recommended;
    const AcceleratorConfig cfg = makeConfig(best.compute, best.memory);
    if (best.cost.layers.size() != model.layers().size())
        return false;
    for (size_t i = 0; i < model.layers().size(); ++i) {
        const ConvLayer &layer = model.layers()[i];
        const std::optional<MappingChoice> won = searchLayer(
            layer, cfg, defaultTech(), options.effort, options.objective);
        if (!won)
            return false;
        const MappingChoice fresh =
            evaluateMapping(layer, cfg, defaultTech(), won->mapping);
        const LayerCost &swept = best.cost.layers[i];
        if (!sameEnergy(fresh.energy, won->energy) ||
            !sameEnergy(fresh.energy, swept.energy) ||
            fresh.runtime.cycles != won->runtime.cycles ||
            fresh.runtime.cycles != swept.cycles)
            return false;
    }
    return true;
}

} // namespace

Pins
Pins::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pins " + path);
    Pins pins;
    std::string line;
    while (std::getline(in, line)) {
        const size_t tab = line.find('\t');
        if (line.empty() || line[0] == '#' || tab == std::string::npos)
            continue;
        pins.pins_[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return pins;
}

bool
Pins::matches(const std::string &key, const std::string &answer) const
{
    auto it = pins_.find(key);
    return it != pins_.end() && it->second == digestHex(answer);
}

std::string
leanPreExport(const PreDesignReport &report)
{
    std::ostringstream ss;
    exportPreDesign(report, ss, ExportOptions::lean());
    return trimNewlines(ss.str());
}

bool
tallySweepAnswer(const Pins &pins, const std::string &key,
                 const Model &model, const DseOptions &options,
                 const PreDesignReport &report, const std::string &answer,
                 Tally &tally)
{
    const bool ok = pins.matches(key, answer) &&
                    recommendationReproduces(model, options, report);
    if (!ok)
        std::fprintf(stderr, "perfbench: wrong sweep answer for %s\n",
                     key.c_str());
    const int64_t failed =
        ok ? static_cast<int64_t>(report.sweep.poisoned.size()) +
                 report.sweep.skipped
           : report.sweep.swept;
    tally.add(report.sweep.swept, failed);
    return ok;
}

} // namespace perfbench
