#include "mapper/bound.hpp"

#include <algorithm>

#include "common/util.hpp"
#include "cost/energy.hpp"
#include "sim/runtime.hpp"

namespace nnbaton {

namespace {

/**
 * Input bits actually touched producing one output slice, the floor
 * of every activation fill of a buffer whose nest covers that slice.
 * Per dimension this is the halo-inclusive extent (ho-1)*s + kh while
 * windows overlap, but once the stride exceeds the kernel the windows
 * are disjoint and only ho*kh rows are ever read — the extent then
 * counts skipped-over rows and stops being a floor (the access
 * accounting charges touched elements only), so take the smaller.
 * Grouped layers scale the channel need by the output-channel share
 * (a floor of the groups actually touched).
 */
double
actFootprintBits(const ConvLayer &layer, const WorkShape &shape)
{
    const double hi =
        std::min(inputExtent(shape.ho, layer.kh, layer.stride),
                 shape.ho * layer.kh);
    const double wi =
        std::min(inputExtent(shape.wo, layer.kw, layer.stride),
                 shape.wo * layer.kw);
    const double ci =
        layer.groups == 1
            ? static_cast<double>(layer.ci)
            : static_cast<double>(layer.ci) * shape.co / layer.co;
    return hi * wi * ci * 8.0;
}

/**
 * Cycle floor of the EDP bound.  estimateRuntime() streams each
 * chiplet's DRAM share through its PHY and its ring share through
 * its link (tile latency is the max of the phases, summed over
 * tiles), so total cycles >= traffic / (N_P * port width) for
 * either port — and >= the exact compute cycles.  Feeding the
 * *bounded* traffic (never more than the accounted bits) keeps the
 * floor sound.
 */
double
cycleFloor(const AcceleratorConfig &cfg, const TechnologyModel &tech,
           double compute_cycles, double dram_bits, double d2d_bits)
{
    const double np = cfg.package.chiplets;
    const double dram =
        dram_bits / (np * static_cast<double>(tech.dramBitsPerCycle));
    const double ring =
        cfg.package.chiplets > 1
            ? d2d_bits /
                  (np * static_cast<double>(tech.d2dBitsPerCycle))
            : 0.0;
    return std::max({compute_cycles, dram, ring});
}

/** Energy floor plus the DRAM / ring traffic floors it was built
 *  from (the EDP bound reuses the traffic for its cycle floor). */
struct EnergyFloor
{
    double energy = 0.0;
    double dramBits = 0.0;
    double d2dBits = 0.0;
};

EnergyFloor
energyFloorOf(const ConvLayer &layer, const AcceleratorConfig &cfg,
              const TechnologyModel &tech, const MappingShapes &s,
              const Mapping &mapping, const AnalysisOptions &options)
{

    const int np = cfg.package.chiplets;
    const int nc = cfg.chiplet.cores;
    const int cw = mapping.chipChannelWays;
    const int pw = mapping.chipSplit.parts();
    const bool chan = mapping.pkgSpatial == PackagePartition::Channel;

    const double w_bits = layer.weightVolume() * 8.0;
    const double out_bits = layer.outputVolume() * 8.0;
    const int64_t macs = layer.macs();

    // The accounting analyses one representative chiplet / core and
    // multiplies by N_P (resp. N_C), so the cold-miss floor of each
    // fill count is the representative macro's input footprint.
    const double chip_act = actFootprintBits(layer, s.chipletMacro);
    const double core_act = actFootprintBits(layer, s.coreMacro);

    const bool acts_shared = options.rotationSharing && chan && np > 1;
    const bool weights_shared =
        options.rotationSharing && !chan && np > 1;

    EnergyBreakdown e;

    // DRAM: outputs are written exactly once; weights are compulsory
    // (>= one read of every weight regardless of sharing); the shared
    // activations of a rotating C-type split hit DRAM from one
    // chiplet only, otherwise every chiplet loads its own need.
    const double dram_act =
        acts_shared ? chip_act : chip_act * np;
    e.dram = (dram_act + w_bits + out_bits) * tech.dramEnergyPerBit;

    // Ring: rotation forwards the shared tensor (N_P - 1) times.
    double d2d = 0.0;
    if (acts_shared)
        d2d = chip_act * (np - 1);
    else if (weights_shared)
        d2d = w_bits * (np - 1);
    e.d2d = d2d * tech.d2dEnergyPerBit;

    // A-L2: each of the N_P chiplets writes its macro's input once;
    // reads are floored by the per-core fills (pw planar streams per
    // chiplet thanks to multicast).
    e.al2 = (chip_act * np + core_act * pw * np) *
            tech.sramEnergyPerBit(cfg.chiplet.al2Bytes);

    // A-L1 writes: all N_C cores fill their macro's input at least
    // once.  Reads are exact: the active lanes share one P-wide
    // activation vector per cycle (c3p/access.cpp).
    const double al1_w = core_act * nc * np;
    // Integer division mirrors the accounting exactly; rounding up
    // here could push the bound above the true score.
    const double al1_r = static_cast<double>(
        macs * 8 / std::max(1, s.coreTile.co));
    e.al1 = (al1_w + al1_r) * tech.sramEnergyPerBit(cfg.core.al1Bytes);

    // W-L1 writes: every weight enters some pool at least once; a
    // P-type package split replicates the full set per chiplet.
    // Reads are exact: each core tile consumes its weights once.
    const double wl1_w = w_bits * ((!chan && np > 1) ? np : 1);
    const double w_per_tile = static_cast<double>(s.coreTile.co) *
                              layer.ciPerGroup() * layer.kh * layer.kw;
    const double wl1_r = static_cast<double>(s.coreTilesPerChiplet()) *
                         cw * w_per_tile * 8.0 * np;
    e.wl1 = (wl1_w + wl1_r) * tech.sramEnergyPerBit(cfg.core.wl1Bytes);

    // O-L1 and O-L2 are exact closed forms of the accounting.
    const int p = std::min<int>(cfg.core.vectorSize, layer.ciPerGroup());
    e.ol1 = (ceilDiv(macs, p) * 24.0 + layer.outputVolume() * 24.0) *
            tech.rfEnergyPerBitRmw;
    e.ol2 = 2.0 * out_bits *
            tech.sramEnergyPerBit(
                std::max<int64_t>(s.chipletTile.volume(), 1024));

    e.mac = static_cast<double>(macs) * tech.macEnergyPerOp;
    // Vector-ALU passes are mapping-independent, so the exact term is
    // free tightness.
    e.vector = static_cast<double>(layer.vectorOps()) *
               tech.vectorOpEnergyPerOp;
    return EnergyFloor{e.total(), dram_act + w_bits + out_bits, d2d};
}

} // namespace

double
energyLowerBound(const ConvLayer &layer, const AcceleratorConfig &cfg,
                 const TechnologyModel &tech, const Mapping &mapping,
                 const AnalysisOptions &options)
{
    const MappingShapes s = deriveShapes(layer, cfg, mapping);
    return energyFloorOf(layer, cfg, tech, s, mapping, options).energy;
}

double
scoreLowerBound(const ConvLayer &layer, const AcceleratorConfig &cfg,
                const TechnologyModel &tech, const Mapping &mapping,
                Objective objective, const AnalysisOptions &options)
{
    return scoreLowerBound(layer, cfg, tech, mapping,
                           deriveShapes(layer, cfg, mapping), objective,
                           options);
}

double
scoreLowerBound(const ConvLayer &layer, const AcceleratorConfig &cfg,
                const TechnologyModel &tech, const Mapping &mapping,
                const MappingShapes &s, Objective objective,
                const AnalysisOptions &options)
{
    const EnergyFloor f =
        energyFloorOf(layer, cfg, tech, s, mapping, options);
    if (objective == Objective::MinEnergy)
        return f.energy;
    return f.energy *
           cycleFloor(cfg, tech,
                      static_cast<double>(computeCycles(layer, cfg, s)),
                      f.dramBits, f.d2dBits);
}

} // namespace nnbaton
