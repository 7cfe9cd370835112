/**
 * @file
 * Seeded simulated annealing over the candidate grid (approximate,
 * opt-in).  See docs/search.md for when it pays off.
 */

#ifndef NNBATON_MAPPER_ANNEAL_HPP
#define NNBATON_MAPPER_ANNEAL_HPP

#include <optional>

#include "mapper/candidates.hpp"
#include "mapper/search.hpp"

namespace nnbaton {

/**
 * Seeded simulated annealing over @p space: random single-coordinate
 * moves on the candidate grid (subtree, ladder rungs, order pair)
 * with geometric cooling.  The RNG is seeded from
 * SearchOptions::annealSeed mixed with the layer/config fingerprint,
 * so equal seeds reproduce equal results.
 *
 * The walk stays inside the exhaustive search's candidate set: when
 * any full-lane leaf exists it starts from the first one and treats
 * moves onto degraded-lane leaves as illegal, so its score is never
 * below the exhaustive optimum.  Always returns a legal mapping when
 * one exists, but not necessarily the optimum.
 */
std::optional<MappingChoice>
searchAnneal(const ConvLayer &layer, const AcceleratorConfig &cfg,
             const TechnologyModel &tech, const CandidateSpace &space,
             Objective objective, const SearchOptions &search,
             SearchStats *stats);

} // namespace nnbaton

#endif // NNBATON_MAPPER_ANNEAL_HPP
