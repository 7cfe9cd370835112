/**
 * @file
 * Memory-axis tables: the candidates of one (layer shape, compute
 * geometry, search effort) analysed once, then priced at any memory
 * allocation by lookups and a few multiplies (docs/architecture.md
 * section 7, "Memory-axis tables").
 *
 * The pre-design sweep searches every layer shape again for each
 * memory allocation of a compute geometry.  Three facts make most of
 * that work redundant (paper section IV-B):
 *  - candidate shapes and loop nests never read a buffer size:
 *    deriveShapes() and buildNests() see only the layer, N_P, N_C, L,
 *    P and the mapping.  Memory enters the candidate set through
 *    legality alone — the O-L1 and A-L1 tile checks and W-L1 >= L*P;
 *  - for a fixed nest a buffer's fills are a step function of its
 *    capacity, changing only at the critical capacities
 *    (appendFillSteps() in c3p/analysis.hpp);
 *  - given the shapes, every access count is an exact integer affine
 *    function of the three fills (c3p/access.cpp).
 *
 * A table stores each distinct candidate once, with its three fill
 * step functions — W-L1 (pooled over the pw cores of a weight stream),
 * A-L1 and A-L2 — and its Terms: the bound terms, the access counts'
 * affine coefficients and the tile schedule.  Identical step runs and
 * identical Terms (candidates that differ only in loop order share
 * theirs) are stored once per table.  Nothing stored is priced, so one
 * table serves any TechnologyModel.  The table also records the
 * candidate order of every legality key it has been asked for,
 * produced by running enumerateCandidates() once for that key, so the
 * enumerator's ordering rules (the core-tile planes' sort and cap, the
 * full-lane filter, ordinal order) are reused rather than re-derived.
 *
 * Each distinct order also carries its search plan (Plan): pickBest()
 * walks it, pricing block floors and distinct Terms with
 * priceLowerBound() and score groups with Terms::score().  MappingCache
 * owns the tables and decides when one is worth building
 * (mapper/cache.hpp).
 */

#ifndef NNBATON_MAPPER_MEMORY_TABLE_HPP
#define NNBATON_MAPPER_MEMORY_TABLE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "arch/config.hpp"
#include "c3p/access.hpp"
#include "c3p/analysis.hpp"
#include "cost/energy.hpp"
#include "dataflow/mapping.hpp"
#include "mapper/bound.hpp"
#include "mapper/candidates.hpp"
#include "mapper/search.hpp"
#include "nn/layer.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

class MemoryAxisTable
{
  public:
    /** A candidate's three fills at one configuration: W-L1 (pooled
     *  over the pw cores of a weight stream), A-L1 and A-L2 bytes. */
    using Fills = std::array<int64_t, 3>;

    /** What pricing a candidate needs besides its three fills.  None
     *  of it reads a buffer size or the technology. */
    struct Terms
    {
        BoundTerms bound; //!< boundTerms() of the candidate

        /** What one byte of a fill adds to one access count. */
        struct Slope
        {
            int64_t perByte = 0;
            uint32_t field = 0; //!< AccessCounts field, in declaration order
            uint32_t fill = 0;  //!< 0 = W-L1, 1 = A-L1, 2 = A-L2
        };
        /** Most access counts never read a fill.  The accounting has
         *  at most seven nonzero slopes: three per W-L1 or A-L2 byte
         *  (DRAM read, L1/L2 write and, for the rotated tensor of a
         *  multi-chiplet package, the ring) and two per A-L1 byte
         *  (A-L2 read, A-L1 write); only one of weights and
         *  activations rotates. */
        static constexpr size_t kMaxSlopes = 7;

        /** The access counts at zero fills, and the nonzero slopes:
         *  countsAt() equals composeAccessAnalysis()' counts at any
         *  three fills. */
        AccessCounts counts;
        Slope slopes[kMaxSlopes];
        int64_t slopeCount = 0;

        int64_t tiles = 0;          //!< core tiles per chiplet
        int64_t computePerTile = 0; //!< computeCyclesPerTile()

        /** The access counts at fills @p wl1, @p al1 and @p al2. */
        AccessCounts countsAt(int64_t wl1, int64_t al1, int64_t al2) const;

        /** The pickBest() score of evaluateMapping(layer, cfg, tech,
         *  mapping), bit for bit, for a candidate with these terms and
         *  @p fills == Candidate::fills(cfg), where @p rates ==
         *  bufferRates(cfg, tech): the unchanged energy and phase
         *  arithmetic on the exact counts.  It reads nothing else, so
         *  equal terms and fills give the same bits.  The bound,
         *  likewise, is priceLowerBound() of bound. */
        double score(const Fills &fills, const AcceleratorConfig &cfg,
                     const TechnologyModel &tech, const BufferRates &rates,
                     Objective objective) const;
    };

    /** One distinct candidate with its memory-independent analysis. */
    struct Candidate
    {
        Mapping mapping;
        const Terms *terms = nullptr;
        /** Step functions (appendFillSteps()): W-L1 (weights,
         *  per-core nest), A-L1 (activations, per-core nest), A-L2
         *  (activations, per-chiplet nest). */
        const FillStep *wl1Steps = nullptr;
        const FillStep *al1Steps = nullptr;
        const FillStep *al2Steps = nullptr;

        /** Fills at @p capacity of the pooled W-L1 (W-L1 bytes x pw). */
        int64_t wl1Fill(int64_t capacity) const
        {
            return fillAtCapacity(wl1Steps, capacity);
        }
        int64_t al1Fill(int64_t capacity) const
        {
            return fillAtCapacity(al1Steps, capacity);
        }
        int64_t al2Fill(int64_t capacity) const
        {
            return fillAtCapacity(al2Steps, capacity);
        }

        /** The fills at @p cfg's buffer sizes: W-L1 at W-L1 bytes x pw,
         *  A-L1 at A-L1 bytes, A-L2 at A-L2 bytes. */
        Fills fills(const AcceleratorConfig &cfg) const
        {
            return {wl1Fill(cfg.core.wl1Bytes * mapping.chipSplit.parts()),
                    al1Fill(cfg.core.al1Bytes),
                    al2Fill(cfg.chiplet.al2Bytes)};
        }

        /** True when @p o has the same Terms, step runs and pw, so the
         *  same fills and score at every configuration.  Interned runs
         *  and Terms compare by address. */
        bool sharesScore(const Candidate &o) const
        {
            return terms == o.terms && wl1Steps == o.wl1Steps &&
                   al1Steps == o.al1Steps && al2Steps == o.al2Steps &&
                   mapping.chipSplit.parts() == o.mapping.chipSplit.parts();
        }
    };

    /**
     * How pickBest() walks a view: the view cut into kPruneBlock
     * candidate blocks, the blocks pruning decisions are frozen over.
     * Per block it stores the component-wise minimum of the members'
     * bound terms (the floor), the members' distinct Terms with their
     * member counts, and the groups of members that share a score
     * (Candidate::sharesScore()), in first-member order.  Members that
     * share Terms share a prune decision within a block, and members of
     * a group share their fills and score, so a block costs one price
     * per floor, distinct Terms and group instead of one per member.
     */
    struct Plan
    {
        struct Block
        {
            BoundTerms floor;       //!< members' component-wise minimum
            uint32_t termsEnd = 0;  //!< its Terms end here in terms
            uint32_t groupsEnd = 0; //!< its groups end here in groups
        };
        struct Group
        {
            uint32_t first = 0; //!< view index of the first member
            uint16_t terms = 0; //!< its Terms' slot within the block
            uint16_t count = 0; //!< members
        };

        const Block *blocks = nullptr;
        size_t blockCount = 0;
        /** Each block's distinct Terms, blocks in order, and the number
         *  of members that have each. */
        const Terms *const *terms = nullptr;
        const uint8_t *termMembers = nullptr;
        size_t termCount = 0;
        const Group *groups = nullptr;
        size_t groupCount = 0;
    };

    /** The candidate order of one legality key, exactly the sequence
     *  enumerateCandidates() returns for a configuration with it, and
     *  its search plan.  The order and the plan's arrays share one
     *  allocation of their exact total size. */
    struct View
    {
        const Candidate *const *order = nullptr;
        size_t count = 0;
        Plan plan;
        std::unique_ptr<std::byte[]> storage;
        size_t storageBytes = 0;

        size_t size() const { return count; }
        bool empty() const { return count == 0; }
        const Candidate *operator[](size_t i) const { return order[i]; }
        const Candidate *const *begin() const { return order; }
        const Candidate *const *end() const { return order + count; }
    };

    /** What one view() call added to the table. */
    struct Growth
    {
        bool key = false;   //!< a legality key, so bytes() changed
        int64_t leaves = 0; //!< distinct candidates
    };

    /** An empty table for @p layer's shape at @p effort; views fill it
     *  on demand. */
    MemoryAxisTable(const ConvLayer &layer, SearchEffort effort);

    /**
     * The candidate order for @p cfg's legality key (O-L1 bytes, A-L1
     * bytes, W-L1 >= L*P), enumerated on first use.  @p cfg must have
     * the compute geometry this table was built for.  Thread-safe; the
     * view and the candidates it points at live as long as the table.
     * @p grew, when non-null, receives what this call added.
     */
    const View &view(const AcceleratorConfig &cfg, Growth *grew = nullptr);

    /** Resident bytes, counted from what the table holds. */
    int64_t bytes() const;

    /** Legality keys enumerated so far. */
    size_t keys() const;

    /** Distinct candidate orders among them (keys that admit the same
     *  candidates in the same order share one). */
    size_t views() const;

  private:
    struct LegalityKey
    {
        int64_t ol1Bytes = 0;
        int64_t al1Bytes = 0;
        bool wl1HoldsVectorStep = false;

        bool operator==(const LegalityKey &) const = default;
    };

    /** What one view() call added: its new candidates, and the step
     *  runs and Terms no earlier chunk holds.  Never reallocated, so
     *  views and candidates can point into it. */
    struct Chunk
    {
        std::unique_ptr<Candidate[]> candidates;
        size_t size = 0;
        std::unique_ptr<FillStep[]> steps;
        size_t stepCount = 0;
        std::unique_ptr<Terms[]> terms;
        size_t termCount = 0;
    };

    /** The view of @p candidates in order: stored ones reused, new
     *  ones analysed into one new chunk.  Caller holds m_. */
    std::unique_ptr<const View> intern(const std::vector<Mapping> &candidates,
                                       const AcceleratorConfig &cfg);

    /** Recount bytes_ from the containers.  Caller holds m_. */
    void recount();

    const ConvLayer layer_;
    const SearchEffort effort_;

    mutable std::mutex m_;
    std::vector<Chunk> chunks_;
    std::vector<std::unique_ptr<const View>> views_; //!< distinct orders
    std::vector<std::pair<LegalityKey, const View *>> keys_;
    int64_t bytes_ = 0;
};

} // namespace nnbaton

#endif // NNBATON_MAPPER_MEMORY_TABLE_HPP
