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

#include <cstdint>
#include <optional>
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

/**
 * The candidate space as a two-level grid (docs/search.md).
 *
 * Level 1 fixes a *subtree*: one spatial skeleton (package and
 * chiplet partition primitives with their planar splits and channel
 * ways) plus one (hoC, woC) core-tile plane, with the per-chiplet
 * macro workload and the tile-ladder bases and rungs precomputed.
 * Level 2 is the subtree's *leaves*: the chiplet-tile ladder cross
 * the four temporal order pairs, legality-checked on demand.
 *
 * Every potential leaf — legal or not — owns a unique *ordinal*, its
 * position in the flat enumeration order (subtree-major, then
 * fh → fw → fc → pkgOrder → chipOrder).  enumerateCandidates() emits
 * legal leaves in exactly ascending-ordinal order, so "smallest
 * ordinal wins score ties" reproduces the flat search's first-wins
 * tie-breaking no matter in which order a search visits the grid.
 */
class CandidateSpace
{
  public:
    /** One (spatial skeleton, core-tile plane) subtree. */
    struct Subtree
    {
        // Spatial skeleton.
        PackagePartition pkg = PackagePartition::Channel;
        PlanarSplit pkgSplit;
        ChipletPartition chip = ChipletPartition::Channel;
        int cw = 1;
        PlanarSplit chipSplit;
        // Core-tile plane.
        int hoC = 1, woC = 1;
        // Per-chiplet macro workload under the package split.
        WorkShape macro;
        // Chiplet-tile ladder: tile = min(base * rung, macro).
        int baseH = 1, baseW = 1, baseC = 1;
        std::vector<int> ladderH, ladderW, ladderC;
        // Position of the subtree's first (grid) leaf in the flat
        // enumeration order.
        int64_t firstOrdinal = 0;

        /** Grid size (legal and illegal leaves alike). */
        int64_t gridLeaves() const
        {
            return static_cast<int64_t>(ladderH.size()) *
                   static_cast<int64_t>(ladderW.size()) *
                   static_cast<int64_t>(ladderC.size()) * 4;
        }
    };

    /** One legality-checked candidate. */
    struct Leaf
    {
        Mapping mapping;
        int64_t ordinal = 0; //!< flat enumeration position (unique)
        bool fullLane = false; //!< per-core CO span fills the lanes
    };

    CandidateSpace(const ConvLayer &layer, const AcceleratorConfig &cfg,
                   SearchEffort effort);
    CandidateSpace(const ConvLayer &layer, const AcceleratorConfig &cfg,
                   SearchEffort effort, PackagePartition pkg,
                   ChipletPartition chip);

    size_t size() const { return subtrees_.size(); }
    const Subtree &subtree(size_t i) const { return subtrees_[i]; }

    /** Materialise one grid coordinate of subtree @p i (indices into
     *  the ladders, @p order in [0,4) as pkgOrder*2 + chipOrder).
     *  std::nullopt when the mapping is illegal. */
    std::optional<Leaf> makeLeaf(size_t i, size_t ih, size_t iw,
                                 size_t ic, size_t order) const;

  private:
    const ConvLayer layer_;
    const AcceleratorConfig cfg_;
    std::vector<Subtree> subtrees_;
};

} // namespace nnbaton

#endif // NNBATON_MAPPER_CANDIDATES_HPP
