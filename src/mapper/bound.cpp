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
 * Cycle floor shared by both EDP bounds.  estimateRuntime() streams
 * each chiplet's DRAM share through its PHY and its ring share
 * through its link (tile latency is the max of the phases, summed
 * over tiles), so total cycles >= traffic / (N_P * port width) for
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

namespace {

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

double
subtreeScoreLowerBound(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech,
                       const CandidateSpace::Subtree &st,
                       Objective objective,
                       const AnalysisOptions &options)
{
    const int np = cfg.package.chiplets;
    const int nc = cfg.chiplet.cores;
    const int cw = st.cw;
    const int pw = st.chipSplit.parts();
    const bool chan = st.pkg == PackagePartition::Channel;

    const double w_bits = layer.weightVolume() * 8.0;
    const double out_bits = layer.outputVolume() * 8.0;
    const int64_t macs = layer.macs();

    // Reachable chiplet-tile range: ladders ascend and tiles clamp to
    // the macro, so the componentwise extremes are the first and last
    // rungs.  Every term below takes its minimum over [tile_min,
    // tile_max]; the ladder-dependent quantities are all monotone in
    // the tile, so the extremes bound the whole grid.
    const auto clampTile = [&](int rh, int rw, int rc) {
        return WorkShape{std::min(st.baseH * rh, st.macro.ho),
                         std::min(st.baseW * rw, st.macro.wo),
                         std::min(st.baseC * rc, st.macro.co)};
    };
    const WorkShape tile_min =
        clampTile(st.ladderH.front(), st.ladderW.front(),
                  st.ladderC.front());
    const WorkShape tile_max =
        clampTile(st.ladderH.back(), st.ladderW.back(),
                  st.ladderC.back());
    const auto coreMacroOf = [&](const WorkShape &t) {
        return WorkShape{
            static_cast<int>(ceilDiv(t.ho, st.chipSplit.fh)),
            static_cast<int>(ceilDiv(t.wo, st.chipSplit.fw)),
            static_cast<int>(ceilDiv(t.co, cw))};
    };
    const WorkShape cm_min = coreMacroOf(tile_min);
    const WorkShape cm_max = coreMacroOf(tile_max);

    // The macro workload is fixed across the subtree, so the DRAM and
    // ring terms are the same floors as the per-candidate bound; the
    // per-core fills are floored at the smallest reachable core macro.
    const double chip_act = actFootprintBits(layer, st.macro);
    const double core_act_min = actFootprintBits(layer, cm_min);

    const bool acts_shared = options.rotationSharing && chan && np > 1;
    const bool weights_shared =
        options.rotationSharing && !chan && np > 1;

    EnergyBreakdown e;
    const double dram_act = acts_shared ? chip_act : chip_act * np;
    e.dram = (dram_act + w_bits + out_bits) * tech.dramEnergyPerBit;

    double d2d = 0.0;
    if (acts_shared)
        d2d = chip_act * (np - 1);
    else if (weights_shared)
        d2d = w_bits * (np - 1);
    e.d2d = d2d * tech.d2dEnergyPerBit;

    e.al2 = (chip_act * np + core_act_min * pw * np) *
            tech.sramEnergyPerBit(cfg.chiplet.al2Bytes);

    // A-L1 reads shrink as the per-core channel span widens, so the
    // widest reachable span floors them (integer division as in the
    // accounting).
    const double al1_w = core_act_min * nc * np;
    const int co_max =
        std::max(1, std::min<int>(cfg.core.lanes, cm_max.co));
    const double al1_r = static_cast<double>(macs * 8 / co_max);
    e.al1 = (al1_w + al1_r) * tech.sramEnergyPerBit(cfg.core.al1Bytes);

    // W-L1 reads: the trip-count product telescopes to at least one
    // pass over the chiplet macro's weights per chiplet
    // (coreTilesPerChiplet * cw * coreTile.co >= macro.co for every
    // ladder point), which is the compulsory floor.
    const double wl1_w = w_bits * ((!chan && np > 1) ? np : 1);
    const double wl1_r = static_cast<double>(st.macro.co) *
                         layer.ciPerGroup() * layer.kh * layer.kw *
                         8.0 * np;
    e.wl1 = (wl1_w + wl1_r) * tech.sramEnergyPerBit(cfg.core.wl1Bytes);

    const int p = std::min<int>(cfg.core.vectorSize, layer.ciPerGroup());
    e.ol1 = (ceilDiv(macs, p) * 24.0 + layer.outputVolume() * 24.0) *
            tech.rfEnergyPerBitRmw;
    // The SRAM fit is affine in the buffer size, so the cheaper of
    // the two extreme tile volumes floors the O-L2 energy per bit
    // whatever the slope's sign.
    e.ol2 = 2.0 * out_bits *
            std::min(tech.sramEnergyPerBit(std::max<int64_t>(
                         tile_min.volume(), 1024)),
                     tech.sramEnergyPerBit(std::max<int64_t>(
                         tile_max.volume(), 1024)));

    e.mac = static_cast<double>(macs) * tech.macEnergyPerOp;
    e.vector = static_cast<double>(layer.vectorOps()) *
               tech.vectorOpEnergyPerOp;
    const double energy = e.total();
    if (objective == Objective::MinEnergy)
        return energy;

    // Compute-cycle floor: the H/W trip-count products telescope to
    // macro extent over the chiplet planar split (the C trips are >=
    // 1), and the per-tile kernel factor is mapping-independent.
    double per_tile;
    if (layer.isDepthwise()) {
        per_tile = static_cast<double>(
            ceilDiv(static_cast<int64_t>(layer.kh) * layer.kw,
                    cfg.core.vectorSize));
    } else {
        per_tile = static_cast<double>(layer.kh) * layer.kw *
                   static_cast<double>(ceilDiv(layer.ciPerGroup(), p));
    }
    const double cycles_floor =
        (static_cast<double>(st.macro.ho) / st.chipSplit.fh) *
        (static_cast<double>(st.macro.wo) / st.chipSplit.fw) * per_tile;
    return energy * cycleFloor(cfg, tech, cycles_floor,
                               dram_act + w_bits + out_bits, d2d);
}

double
refinedScoreLowerBound(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech,
                       const Mapping &mapping, Objective objective,
                       const AnalysisOptions &options)
{
    // Exact fills and counts from the real accounting, so the energy
    // term equals the evaluation's bit-for-bit; only the cycle term
    // stays a floor (see the header).  The estimator's cycles are
    // tiles * max(phases) + fill >= each phase total, so the un-ceiled
    // per-port traffic quotients below can never exceed them.
    const AccessAnalysis a =
        analyzeMappingUnchecked(layer, cfg, mapping, options);
    const double energy = computeEnergy(a.counts, cfg, tech).total();
    if (objective == Objective::MinEnergy)
        return energy;
    return energy *
           cycleFloor(
               cfg, tech,
               static_cast<double>(computeCycles(layer, cfg, a.shapes)),
               static_cast<double>(a.counts.dramBits()),
               static_cast<double>(a.counts.d2dBits));
}

} // namespace nnbaton
