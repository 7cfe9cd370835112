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
 * A batch of enumerated candidates in structure-of-arrays layout: the
 * mappings, their flat-enumeration ordinals and their lane-class flags
 * live in three parallel arrays.  Blocks are reused across refills —
 * clear() keeps the capacity — so enumeration, which expands subtrees
 * one after another, pays the candidate-storage allocation once
 * instead of once per subtree.
 * Candidates keep ascending-ordinal (enumeration-neighbour) order,
 * which is what makes the incremental evaluator's delta path hit.
 */
class CandidateBlock
{
  public:
    void clear()
    {
        mappings_.clear();
        ordinals_.clear();
        fullLane_.clear();
    }

    void reserve(size_t n)
    {
        mappings_.reserve(n);
        ordinals_.reserve(n);
        fullLane_.reserve(n);
    }

    size_t size() const { return mappings_.size(); }
    bool empty() const { return mappings_.empty(); }

    void push(const Mapping &m, int64_t ordinal, bool full_lane)
    {
        mappings_.push_back(m);
        ordinals_.push_back(ordinal);
        fullLane_.push_back(full_lane ? 1 : 0);
    }

    const Mapping &mapping(size_t i) const { return mappings_[i]; }
    int64_t ordinal(size_t i) const { return ordinals_[i]; }
    bool fullLane(size_t i) const { return fullLane_[i] != 0; }

    bool anyFullLane() const
    {
        for (uint8_t f : fullLane_) {
            if (f)
                return true;
        }
        return false;
    }

    /** Compact in place to one lane class, preserving order. */
    void keepOnly(bool full_lane);

  private:
    std::vector<Mapping> mappings_;
    std::vector<int64_t> ordinals_;
    std::vector<uint8_t> fullLane_;
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

class CandidateSpace;

/**
 * enumerateCandidates() in block form: all legal leaves of @p space in
 * ascending ordinal order, reduced to the preferred lane class
 * (full-lane when any exists, the degraded class otherwise).  @p out
 * is cleared and refilled; reusing one block across layers amortises
 * the candidate-storage allocation to zero on the search hot path.
 */
void enumerateCandidatesInto(const CandidateSpace &space,
                             CandidateBlock &out);

/** Convenience overload constructing the space internally. */
void enumerateCandidatesInto(const ConvLayer &layer,
                             const AcceleratorConfig &cfg,
                             SearchEffort effort, CandidateBlock &out);

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

    /** Expand subtree @p i into its legal leaves, ascending ordinal,
     *  both lane classes (callers filter).  @p out is cleared and
     *  refilled in place (capacity retained across calls). */
    void expandInto(size_t i, CandidateBlock &out) const;

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
