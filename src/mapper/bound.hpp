/**
 * @file
 * Cheap score lower bounds for the mapping search (score-bound
 * pruning).
 *
 * Evaluating one candidate runs the full C3P accounting — legality
 * check, loop-nest lowering and three buffer analyses — before the
 * energy and runtime models.  The bound below costs only
 * deriveShapes() plus closed-form arithmetic, yet is a provable lower
 * bound on the exact score, so pickBest() can skip any candidate
 * whose bound cannot beat the incumbent without changing the search
 * result.
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
 * Under-estimation is safe (weaker pruning); over-estimation would
 * change search results, so every term here must stay a true floor
 * of src/c3p/access.cpp's accounting.  tests/test_fuzz.cpp asserts
 * bound <= exact score across randomized layers, configurations and
 * whole candidate sets.
 */

#ifndef NNBATON_MAPPER_BOUND_HPP
#define NNBATON_MAPPER_BOUND_HPP

#include "arch/config.hpp"
#include "c3p/access.hpp"
#include "dataflow/mapping.hpp"
#include "mapper/search.hpp"
#include "nn/layer.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

/**
 * Lower bound on the total energy (pJ) of evaluating @p mapping for
 * @p layer on @p cfg under @p options.  The mapping must be legal
 * (checkMapping() empty), as guaranteed for enumerated candidates.
 */
double energyLowerBound(const ConvLayer &layer,
                        const AcceleratorConfig &cfg,
                        const TechnologyModel &tech,
                        const Mapping &mapping,
                        const AnalysisOptions &options = {});

/**
 * Lower bound on the pickBest() score of @p mapping: total energy for
 * Objective::MinEnergy, energy times the compute-cycle floor for
 * Objective::MinEdp.
 */
double scoreLowerBound(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech,
                       const Mapping &mapping, Objective objective,
                       const AnalysisOptions &options = {});

/** scoreLowerBound() with the mapping's derived shapes supplied
 *  (@p shapes == deriveShapes(layer, cfg, mapping); the memory-axis
 *  tables store them).  Same value. */
double scoreLowerBound(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech,
                       const Mapping &mapping,
                       const MappingShapes &shapes, Objective objective,
                       const AnalysisOptions &options = {});

} // namespace nnbaton

#endif // NNBATON_MAPPER_BOUND_HPP
