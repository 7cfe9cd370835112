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

} // namespace

BoundTerms
boundTerms(const ConvLayer &layer, const AcceleratorConfig &cfg,
           const Mapping &mapping, const MappingShapes &s,
           const AnalysisOptions &options)
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

    BoundTerms t;
    EnergyCharges &f = t.floor;

    // DRAM: outputs are written exactly once; weights are compulsory
    // (>= one read of every weight regardless of sharing); the shared
    // activations of a rotating C-type split hit DRAM from one
    // chiplet only, otherwise every chiplet loads its own need.
    const double dram_act =
        acts_shared ? chip_act : chip_act * np;
    f.dram = dram_act + w_bits + out_bits;

    // Ring: rotation forwards the shared tensor (N_P - 1) times.
    if (acts_shared)
        f.d2d = chip_act * (np - 1);
    else if (weights_shared)
        f.d2d = w_bits * (np - 1);

    // A-L2: each of the N_P chiplets writes its macro's input once;
    // reads are floored by the per-core fills (pw planar streams per
    // chiplet thanks to multicast).
    f.al2 = chip_act * np + core_act * pw * np;

    // A-L1 writes: all N_C cores fill their macro's input at least
    // once.  Reads are exact: the active lanes share one P-wide
    // activation vector per cycle (c3p/access.cpp).
    const double al1_w = core_act * nc * np;
    // Integer division mirrors the accounting exactly; rounding up
    // here could push the bound above the true score.
    const double al1_r = static_cast<double>(
        macs * 8 / std::max(1, s.coreTile.co));
    f.al1 = al1_w + al1_r;

    // W-L1 writes: every weight enters some pool at least once; a
    // P-type package split replicates the full set per chiplet.
    // Reads are exact: each core tile consumes its weights once.
    const double wl1_w = w_bits * ((!chan && np > 1) ? np : 1);
    const double w_per_tile = static_cast<double>(s.coreTile.co) *
                              layer.ciPerGroup() * layer.kh * layer.kw;
    const double wl1_r = static_cast<double>(s.coreTilesPerChiplet()) *
                         cw * w_per_tile * 8.0 * np;
    f.wl1 = wl1_w + wl1_r;

    // O-L1 and O-L2 are exact closed forms of the accounting.
    const int p = std::min<int>(cfg.core.vectorSize, layer.ciPerGroup());
    f.ol1 = ceilDiv(macs, p) * 24.0 + layer.outputVolume() * 24.0;
    f.ol2 = 2.0 * out_bits;
    f.ol2Bytes = s.chipletTile.volume();

    f.mac = static_cast<double>(macs);
    // Vector-ALU passes are mapping-independent, so the exact term is
    // free tightness.
    f.vector = static_cast<double>(layer.vectorOps());

    t.computeCycles = computeCycles(layer, cfg, s);
    return t;
}

double
priceLowerBound(const BoundTerms &terms, const AcceleratorConfig &cfg,
                const TechnologyModel &tech, const BufferRates &rates,
                Objective objective)
{
    const double energy = priceEnergy(terms.floor, rates, tech).total();
    if (objective == Objective::MinEnergy)
        return energy;
    return energy * cycleFloor(cfg, tech,
                               static_cast<double>(terms.computeCycles),
                               terms.floor.dram, terms.floor.d2d);
}

double
scoreLowerBound(const ConvLayer &layer, const AcceleratorConfig &cfg,
                const TechnologyModel &tech, const Mapping &mapping,
                Objective objective, const AnalysisOptions &options)
{
    return priceLowerBound(
        boundTerms(layer, cfg, mapping, deriveShapes(layer, cfg, mapping),
                   options),
        cfg, tech, bufferRates(cfg, tech), objective);
}

} // namespace nnbaton
