/**
 * @file
 * Cheap score lower bounds for the mapping search (score-bound
 * pruning).
 *
 * Evaluating one candidate runs the full C3P accounting — legality
 * check, loop-nest lowering and three buffer analyses — before the
 * energy and runtime models.  The bound below is closed-form
 * arithmetic over the derived shapes, yet is a provable lower bound
 * on the exact score, so pickBest() can skip any candidate whose
 * bound cannot beat the incumbent without changing the search result.
 *
 * The bound combines
 *  - exact terms that the accounting computes in closed form anyway
 *    (MAC ops, O-L1 read-modify-writes and drains, O-L2 traffic,
 *    W-L1 PE-side reads, A-L1 PE-side reads, DRAM output writes), and
 *  - compulsory-traffic floors for everything that depends on the
 *    buffer analyses: every distinct element a level consumes must be
 *    filled at least once (cold misses), so tensor volumes — times
 *    the spatial replication factors the mapping fixes (chiplets
 *    needing the full input under a C-type package split, channel-way
 *    cores each ingesting their planar stream, ring rotation hops) —
 *    floor the fill counts.
 *
 * It comes in two halves.  boundTerms() computes the floors in bits
 * and the compute cycles; none of them reads a buffer size or the
 * technology.  priceLowerBound() prices them through the energy
 * model's own priceEnergy() at one configuration's buffer sizes.
 * scoreLowerBound() runs both on deriveShapes()' shapes.  The
 * memory-axis tables (mapper/memory_table.hpp) store each candidate's
 * terms once, so the table path never runs deriveShapes(): its bound
 * costs the pricing alone, and equals scoreLowerBound() bit for bit.
 *
 * Under-estimation is safe (weaker pruning); over-estimation would
 * change search results, so every term here must stay a true floor
 * of src/c3p/access.cpp's accounting.  tests/test_fuzz.cpp asserts
 * bound <= exact score across randomized layers, configurations and
 * whole candidate sets.
 */

#ifndef NNBATON_MAPPER_BOUND_HPP
#define NNBATON_MAPPER_BOUND_HPP

#include <cstdint>

#include "arch/config.hpp"
#include "c3p/access.hpp"
#include "cost/energy.hpp"
#include "dataflow/mapping.hpp"
#include "mapper/search.hpp"
#include "nn/layer.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

/** The memory- and technology-independent half of a score lower
 *  bound. */
struct BoundTerms
{
    /** Floors of the accounting's per-component charges (bits, or
     *  operations for the MAC and vector units).  noc stays 0. */
    EnergyCharges floor;
    /** The exact compute cycles, the first floor of the cycle count. */
    int64_t computeCycles = 0;
};

/**
 * The bound terms of @p mapping for @p layer on @p cfg's compute
 * geometry (@p shapes == deriveShapes(layer, cfg, mapping)).  Reads no
 * buffer size.  The mapping must be legal (checkMapping() empty), as
 * guaranteed for enumerated candidates.
 */
BoundTerms boundTerms(const ConvLayer &layer, const AcceleratorConfig &cfg,
                      const Mapping &mapping, const MappingShapes &shapes,
                      const AnalysisOptions &options = {});

/**
 * The score lower bound priced from @p terms at @p cfg's buffer sizes
 * (@p rates == bufferRates(cfg, tech)): total energy for
 * Objective::MinEnergy, energy times the cycle floor for
 * Objective::MinEdp.
 */
double priceLowerBound(const BoundTerms &terms,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech,
                       const BufferRates &rates, Objective objective);

/**
 * Lower bound on the pickBest() score of @p mapping:
 * priceLowerBound() of boundTerms() on deriveShapes()' shapes.
 */
double scoreLowerBound(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech,
                       const Mapping &mapping, Objective objective,
                       const AnalysisOptions &options = {});

} // namespace nnbaton

#endif // NNBATON_MAPPER_BOUND_HPP
