#include "cost/energy.hpp"

#include "common/logging.hpp"

namespace nnbaton {

EnergyBreakdown &
EnergyBreakdown::operator+=(const EnergyBreakdown &other)
{
    dram += other.dram;
    d2d += other.d2d;
    noc += other.noc;
    al2 += other.al2;
    al1 += other.al1;
    wl1 += other.wl1;
    ol1 += other.ol1;
    ol2 += other.ol2;
    mac += other.mac;
    vector += other.vector;
    return *this;
}

EnergyBreakdown
EnergyBreakdown::operator*(double scale) const
{
    EnergyBreakdown e = *this;
    e.dram *= scale;
    e.d2d *= scale;
    e.noc *= scale;
    e.al2 *= scale;
    e.al1 *= scale;
    e.wl1 *= scale;
    e.ol1 *= scale;
    e.ol2 *= scale;
    e.mac *= scale;
    e.vector *= scale;
    return e;
}

std::string
EnergyBreakdown::toString() const
{
    const double mj = 1e-9; // pJ -> mJ
    return strprintf(
        "total %.4f mJ (dram %.4f, d2d %.4f, noc %.4f, al2 %.4f, "
        "al1 %.4f, wl1 %.4f, ol1 %.4f, ol2 %.4f, mac %.4f, vec %.4f)",
        total() * mj, dram * mj, d2d * mj, noc * mj, al2 * mj, al1 * mj,
        wl1 * mj, ol1 * mj, ol2 * mj, mac * mj, vector * mj);
}

BufferRates
bufferRates(const AcceleratorConfig &cfg, const TechnologyModel &tech)
{
    BufferRates r;
    r.al2 = tech.sramEnergyPerBit(cfg.chiplet.al2Bytes);
    r.al1 = tech.sramEnergyPerBit(cfg.core.al1Bytes);
    r.wl1 = tech.sramEnergyPerBit(cfg.core.wl1Bytes);
    return r;
}

EnergyBreakdown
computeEnergy(const AccessCounts &counts, const AcceleratorConfig &cfg,
              const TechnologyModel &tech)
{
    return computeEnergy(counts, bufferRates(cfg, tech), tech);
}

} // namespace nnbaton
