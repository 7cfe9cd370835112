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
#include "mapper/candidates.hpp"
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

/**
 * Lower bound on the score of *every* leaf of @p subtree — the
 * branch-level floor the branch-and-bound search prunes whole
 * subtrees with before materialising a single candidate.
 *
 * A subtree fixes the spatial skeleton and the core-tile plane, so
 * the per-chiplet macro workload (and with it the DRAM, ring and MAC
 * terms) is already exact, while the chiplet-tile ladder is still
 * free.  Each ladder-dependent term is replaced by its minimum over
 * the ladder range: activation fills at the largest reachable tile
 * (cold-miss floors shrink as tiles grow), the O-L2 energy-per-bit at
 * the smallest reachable tile (the SRAM fit grows with size), the
 * A-L1 PE-side reads at the widest reachable per-core channel span,
 * and the W-L1 reads at the compulsory one-pass floor.  Every term is
 * <= the corresponding term of scoreLowerBound() for every leaf, so
 * subtreeScoreLowerBound <= min over the subtree's leaves of the
 * exact score (tests/test_fuzz.cpp asserts exactly this).
 */
double subtreeScoreLowerBound(const ConvLayer &layer,
                              const AcceleratorConfig &cfg,
                              const TechnologyModel &tech,
                              const CandidateSpace::Subtree &subtree,
                              Objective objective,
                              const AnalysisOptions &options = {});

/**
 * Tier-2 ("refined") score lower bound: runs the real reuse analyses
 * (analyzeMappingUnchecked — exact fill counts for all three buffers,
 * hence the exact energy), but keeps the runtime floored: the cycle
 * term is max(compute cycles, DRAM traffic / package PHY width, ring
 * traffic / link width) with none of the estimator's per-tile ceils
 * or its pipeline-fill cycle, so the result stays strictly a lower
 * bound of the exact score.
 *
 * This costs roughly two thirds of a full evaluation (it skips the
 * legality check, the energy/runtime report construction and the
 * utilisation model), so the branch-and-bound search only computes it
 * for candidates that already survived the closed-form tier-1 bound,
 * where it prunes the large class of reload-heavy candidates whose
 * traffic the compulsory-miss floors cannot see.  @p mapping must be
 * legal (checkMapping() empty), as enumerated candidates are.
 */
double refinedScoreLowerBound(const ConvLayer &layer,
                              const AcceleratorConfig &cfg,
                              const TechnologyModel &tech,
                              const Mapping &mapping,
                              Objective objective,
                              const AnalysisOptions &options = {});

} // namespace nnbaton

#endif // NNBATON_MAPPER_BOUND_HPP
