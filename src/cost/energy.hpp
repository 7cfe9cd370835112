/**
 * @file
 * Energy model: converts C3P access counts into picojoules using the
 * technology model (paper table I and figure 10 fits).
 */

#ifndef NNBATON_COST_ENERGY_HPP
#define NNBATON_COST_ENERGY_HPP

#include <algorithm>
#include <cstdint>
#include <string>

#include "arch/config.hpp"
#include "c3p/access.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

/** Per-component energy for one layer (picojoules). */
struct EnergyBreakdown
{
    double dram = 0.0;
    double d2d = 0.0;
    double noc = 0.0; //!< on-chip NoC hops (Simba psum traffic)
    double al2 = 0.0;
    double al1 = 0.0;
    double wl1 = 0.0;
    double ol1 = 0.0;
    double ol2 = 0.0;
    double mac = 0.0;
    double vector = 0.0; //!< post-MAC vector-ALU work (softmax)

    double total() const
    {
        return dram + d2d + noc + al2 + al1 + wl1 + ol1 + ol2 + mac +
               vector;
    }

    /** Sum of the SRAM levels (A-L2 + O-L2 + A-L1 + W-L1). */
    double sram() const { return al2 + al1 + wl1 + ol2; }

    EnergyBreakdown &operator+=(const EnergyBreakdown &other);
    EnergyBreakdown operator*(double scale) const;

    /** One line, mJ units. */
    std::string toString() const;
};

/**
 * Per-bit energies of a configuration's three sized SRAM buffers: the
 * figure 10 linear size fit at each configured macro size.  W-L1 uses
 * its base (single core) macro size even when pooled, since pooling
 * merges macros rather than enlarging them.  The rates depend on the
 * buffer sizes alone, so a search prices all its candidates with one
 * set.
 */
struct BufferRates
{
    double al2 = 0.0;
    double al1 = 0.0;
    double wl1 = 0.0;
};

BufferRates bufferRates(const AcceleratorConfig &cfg,
                        const TechnologyModel &tech);

/**
 * What each EnergyBreakdown component is charged for before pricing:
 * bits moved (accumulator bits for O-L1), operations for the MAC and
 * vector units, and the O-L2 macro size its per-bit energy is fitted
 * at.  computeEnergy() charges the exact access counts; the search's
 * score lower bound (mapper/bound.hpp) charges floors of them.
 */
struct EnergyCharges
{
    double dram = 0.0;
    double d2d = 0.0;
    double noc = 0.0;
    double al2 = 0.0;
    double al1 = 0.0;
    double wl1 = 0.0;
    double ol1 = 0.0;
    double ol2 = 0.0;
    double mac = 0.0;
    double vector = 0.0;
    int64_t ol2Bytes = 0;
};

/** Each component's charge times its per-bit (per-op) energy: the one
 *  place an energy is priced.  Inline, as every scored candidate and
 *  every bound is priced here. */
inline EnergyBreakdown
priceEnergy(const EnergyCharges &c, const BufferRates &rates,
            const TechnologyModel &tech)
{
    EnergyBreakdown e;
    e.dram = c.dram * tech.dramEnergyPerBit;
    e.d2d = c.d2d * tech.d2dEnergyPerBit;
    e.noc = c.noc * tech.nocEnergyPerBit;
    e.al2 = c.al2 * rates.al2;
    e.al1 = c.al1 * rates.al1;
    e.wl1 = c.wl1 * rates.wl1;
    e.ol1 = c.ol1 * tech.rfEnergyPerBitRmw;
    e.ol2 = c.ol2 *
            tech.sramEnergyPerBit(std::max<int64_t>(c.ol2Bytes, 1024));
    e.mac = c.mac * tech.macEnergyPerOp;
    e.vector = c.vector * tech.vectorOpEnergyPerOp;
    return e;
}

/** Energy for @p counts on configuration @p cfg. */
EnergyBreakdown computeEnergy(const AccessCounts &counts,
                              const AcceleratorConfig &cfg,
                              const TechnologyModel &tech);

/** computeEnergy() with @p rates == bufferRates(cfg, tech) supplied;
 *  the same value. */
inline EnergyBreakdown
computeEnergy(const AccessCounts &counts, const BufferRates &rates,
              const TechnologyModel &tech)
{
    // Each pair of counts is summed exactly in integers before it is
    // priced.
    EnergyCharges c;
    c.dram = static_cast<double>(counts.dramBits());
    c.d2d = static_cast<double>(counts.d2dBits);
    c.noc = static_cast<double>(counts.nocBits);
    c.al2 = static_cast<double>(counts.al2ReadBits + counts.al2WriteBits);
    c.al1 = static_cast<double>(counts.al1ReadBits + counts.al1WriteBits);
    c.wl1 = static_cast<double>(counts.wl1ReadBits + counts.wl1WriteBits);
    c.ol1 = static_cast<double>(counts.ol1RmwBits + counts.ol1ReadBits);
    c.ol2 = static_cast<double>(counts.ol2ReadBits + counts.ol2WriteBits);
    c.mac = static_cast<double>(counts.macOps);
    c.vector = static_cast<double>(counts.vectorOps);
    c.ol2Bytes = counts.ol2Bytes;
    return priceEnergy(c, rates, tech);
}

} // namespace nnbaton

#endif // NNBATON_COST_ENERGY_HPP
