/**
 * @file
 * Candidate mapping enumeration for the post-design search (paper
 * section V-C: "The mapping analysis engine adopts exhaustive search
 * to evaluate hundreds of cases, including partition patterns with
 * different height-width ratios and loop transformation of various
 * spatial-temporal combinations").
 */

#ifndef NNBATON_MAPPER_CANDIDATES_HPP
#define NNBATON_MAPPER_CANDIDATES_HPP

#include <vector>

#include "arch/config.hpp"
#include "dataflow/mapping.hpp"
#include "nn/layer.hpp"

namespace nnbaton {

/** Search effort: exhaustive for case studies, fast for model runs,
 *  sketch for the wide pre-design sweeps. */
enum class SearchEffort
{
    Exhaustive, //!< all spatial patterns, dense tile ladder
    Fast,       //!< near-square patterns, sparse tile ladder
    Sketch,     //!< square-only patterns, endpoints-only ladder
};

/**
 * Enumerate legal mapping candidates for @p layer on @p cfg.
 *
 * All six spatial combinations (2 package x 3 chiplet types), all four
 * temporal order pairs, the planar-pattern aspect ratios, and a
 * power-of-two tile ladder are covered.  Candidates that under-fill
 * the MAC lanes (per-core channel span < L) are dropped whenever at
 * least one full-lane candidate exists, mirroring the paper's removal
 * of mismatched (C,C) options for small-channel layers.
 *
 * The order is fixed: spatial skeleton, core-tile plane, chiplet-tile
 * rungs (H, W, C), then the temporal order pair.  The search's prune
 * blocks and first-wins tie-break follow it, so it pins the winners
 * and the work counters (docs/search.md).
 */
std::vector<Mapping> enumerateCandidates(const ConvLayer &layer,
                                         const AcceleratorConfig &cfg,
                                         SearchEffort effort);

/**
 * Enumerate candidates restricted to one (package, chiplet) spatial
 * combination — used by the figure 11 study that compares the six
 * spatial partition strategies with the best temporal choice each.
 */
std::vector<Mapping>
enumerateCandidatesFor(const ConvLayer &layer,
                       const AcceleratorConfig &cfg, SearchEffort effort,
                       PackagePartition pkg, ChipletPartition chip);

} // namespace nnbaton

#endif // NNBATON_MAPPER_CANDIDATES_HPP
