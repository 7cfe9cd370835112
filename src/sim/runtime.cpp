#include "sim/runtime.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/util.hpp"

namespace nnbaton {

std::string
RuntimeResult::toString() const
{
    return strprintf("%lld cycles (compute %lld, stall %lld), util %.3f",
                     static_cast<long long>(cycles),
                     static_cast<long long>(computeCycles),
                     static_cast<long long>(stallCycles), utilization);
}

TilePhases
tilePhases(int64_t tiles, int64_t compute_per_tile,
           const AccessCounts &counts, const AcceleratorConfig &cfg,
           const TechnologyModel &tech)
{
    TilePhases ph;
    ph.tiles = tiles;
    ph.computePerTile = compute_per_tile;

    // DRAM traffic is spread over the N_P DDR PHYs (crossbar).
    const int np = cfg.package.chiplets;
    const int64_t dram_per_chiplet =
        ceilDiv(counts.dramReadBits() + counts.dramWriteBits, np);
    ph.dramPerTile =
        ceilDiv(ceilDiv(dram_per_chiplet, ph.tiles),
                tech.dramBitsPerCycle);

    // Ring traffic is spread over the N_P directional links.
    const int64_t ring_per_link = np > 1 ? ceilDiv(counts.d2dBits, np)
                                         : 0;
    ph.ringPerTile = ceilDiv(ceilDiv(ring_per_link, ph.tiles),
                             tech.d2dBitsPerCycle);
    return ph;
}

int64_t
computeCyclesPerTile(const ConvLayer &layer, const AcceleratorConfig &cfg,
                     const MappingShapes &s)
{
    if (layer.isDepthwise()) {
        return static_cast<int64_t>(s.coreTile.ho) * s.coreTile.wo *
               ceilDiv(static_cast<int64_t>(layer.kh) * layer.kw,
                       cfg.core.vectorSize);
    }
    const int p = std::min<int>(cfg.core.vectorSize, layer.ciPerGroup());
    return static_cast<int64_t>(s.coreTile.ho) * s.coreTile.wo *
           layer.kh * layer.kw * ceilDiv(layer.ciPerGroup(), p);
}

namespace {

TilePhases
derivePhases(const ConvLayer &layer, const AcceleratorConfig &cfg,
             const AccessAnalysis &a, const TechnologyModel &tech)
{
    return tilePhases(a.shapes.coreTilesPerChiplet(),
                      computeCyclesPerTile(layer, cfg, a.shapes), a.counts,
                      cfg, tech);
}

} // namespace

int64_t
computeCycles(const ConvLayer &layer, const AcceleratorConfig &cfg,
              const MappingShapes &shapes)
{
    return shapes.coreTilesPerChiplet() *
           computeCyclesPerTile(layer, cfg, shapes);
}

RuntimeResult
estimateRuntime(const ConvLayer &layer, const AcceleratorConfig &cfg,
                const AccessAnalysis &analysis,
                const TechnologyModel &tech)
{
    const TilePhases ph = derivePhases(layer, cfg, analysis, tech);
    RuntimeResult r;
    r.computeCycles = ph.tiles * ph.computePerTile;
    r.cycles = ph.cycles();
    r.stallCycles = r.cycles - r.computeCycles;
    const double peak =
        static_cast<double>(cfg.totalMacs()) * r.cycles;
    r.utilization =
        peak > 0 ? static_cast<double>(layer.macs()) / peak : 0.0;
    return r;
}

RuntimeResult
RuntimeSimulator::run(const ConvLayer &layer,
                      const AccessAnalysis &analysis) const
{
    const TilePhases ph = derivePhases(layer, cfg_, analysis, tech_);
    const MappingShapes &s = analysis.shapes;

    // Walk the chiplet-temporal tile schedule explicitly.  Tiles on
    // the trailing edge of each dimension may be partial; compute
    // shrinks accordingly while loads are already amortised per tile.
    RuntimeResult r;
    int64_t now = ph.dramPerTile; // first-tile load (pipeline fill)
    const int p =
        std::min<int>(cfg_.core.vectorSize, layer.ciPerGroup());

    // Batch samples replay the whole package-temporal schedule once
    // each (outermost loop), exactly like the analytical tile count.
    const int64_t outer =
        static_cast<int64_t>(s.batchTrips) * s.pkgTrips();
    for (int64_t o = 0; o < outer; ++o) {
        for (int th = 0; th < s.chipTripsH; ++th) {
            const int ho = std::min<int>(
                s.coreTile.ho, s.coreMacro.ho - th * s.coreTile.ho);
            for (int tw = 0; tw < s.chipTripsW; ++tw) {
                const int wo = std::min<int>(
                    s.coreTile.wo, s.coreMacro.wo - tw * s.coreTile.wo);
                for (int tc = 0; tc < s.chipTripsC; ++tc) {
                    const int64_t compute =
                        layer.isDepthwise()
                            ? static_cast<int64_t>(std::max(ho, 1)) *
                                  std::max(wo, 1) *
                                  ceilDiv(static_cast<int64_t>(
                                              layer.kh) *
                                              layer.kw,
                                          cfg_.core.vectorSize)
                            : static_cast<int64_t>(std::max(ho, 1)) *
                                  std::max(wo, 1) * layer.kh *
                                  layer.kw *
                                  ceilDiv(layer.ciPerGroup(), p);
                    r.computeCycles += compute;
                    now += std::max({compute, ph.dramPerTile,
                                     ph.ringPerTile});
                }
            }
        }
    }
    r.cycles = now;
    r.stallCycles = r.cycles - r.computeCycles;
    const double peak =
        static_cast<double>(cfg_.totalMacs()) * r.cycles;
    r.utilization =
        peak > 0 ? static_cast<double>(layer.macs()) / peak : 0.0;
    return r;
}

} // namespace nnbaton
