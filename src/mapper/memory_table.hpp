/**
 * @file
 * Memory-axis tables: the candidates of one (layer shape, compute
 * geometry, search effort) analysed once, then re-scored at any memory
 * allocation by lookups (docs/architecture.md section 7, "Memory-axis
 * tables").
 *
 * The pre-design sweep searches every layer shape again for each
 * memory allocation of a compute geometry.  Two facts make most of
 * that work redundant (paper section IV-B):
 *  - candidate shapes and loop nests never read a buffer size:
 *    deriveShapes() and buildNests() see only the layer, N_P, N_C, L,
 *    P and the mapping.  Memory enters the candidate set through
 *    legality alone — the O-L1 and A-L1 tile checks and W-L1 >= L*P;
 *  - for a fixed nest a buffer's fills are a step function of its
 *    capacity, changing only at the critical capacities
 *    (appendFillSteps() in c3p/analysis.hpp).
 *
 * A table stores each distinct candidate once, with its shapes and
 * three fill step functions: W-L1 (pooled over the pw cores of a
 * weight stream), A-L1 and A-L2.  It also records the candidate order
 * of every legality key it has been asked for, produced by running
 * enumerateCandidates() once for that key, so the enumerator's
 * ordering rules (the core-tile planes' sort and cap, the full-lane
 * filter, ordinal order) are reused rather than re-derived.
 *
 * MappingCache owns the tables and decides when one is worth building
 * (mapper/cache.hpp); pickBest() scores a view's candidates through
 * the ordinary accounting chain fed from the step lookups.
 */

#ifndef NNBATON_MAPPER_MEMORY_TABLE_HPP
#define NNBATON_MAPPER_MEMORY_TABLE_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "arch/config.hpp"
#include "c3p/analysis.hpp"
#include "dataflow/mapping.hpp"
#include "mapper/candidates.hpp"
#include "nn/layer.hpp"

namespace nnbaton {

class MemoryAxisTable
{
  public:
    /** One distinct candidate with its memory-independent analysis. */
    struct Candidate
    {
        Mapping mapping;
        MappingShapes shapes;
        /** Three step functions back to back (appendFillSteps()):
         *  W-L1 (weights, per-core nest) from 0, A-L1 (activations,
         *  per-core nest) from al1Begin, A-L2 (activations,
         *  per-chiplet nest) from al2Begin. */
        uint8_t al1Begin = 0;
        uint8_t al2Begin = 0;
        const FillStep *steps = nullptr;

        /** Fills at @p capacity of the pooled W-L1 (W-L1 bytes x pw). */
        int64_t wl1Fill(int64_t capacity) const
        {
            return fillAtCapacity(steps, capacity);
        }
        int64_t al1Fill(int64_t capacity) const
        {
            return fillAtCapacity(steps + al1Begin, capacity);
        }
        int64_t al2Fill(int64_t capacity) const
        {
            return fillAtCapacity(steps + al2Begin, capacity);
        }
    };

    /** The candidate order of one legality key: exactly the sequence
     *  enumerateCandidates() returns for a configuration with it. */
    using View = std::vector<const Candidate *>;

    /** An empty table for @p layer's shape at @p effort; views fill it
     *  on demand. */
    MemoryAxisTable(const ConvLayer &layer, SearchEffort effort);

    /**
     * The candidate order for @p cfg's legality key (O-L1 bytes, A-L1
     * bytes, W-L1 >= L*P), enumerated on first use.  @p cfg must have
     * the compute geometry this table was built for.  Thread-safe; the
     * view and the candidates it points at live as long as the table.
     * @p leaves_added, when non-null, receives the number of distinct
     * candidates this call added.
     */
    const View &view(const AcceleratorConfig &cfg,
                     int64_t *leaves_added = nullptr);

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

    /** The candidates one view() call added, with their steps.  Never
     *  reallocated, so views can point into it. */
    struct Chunk
    {
        std::unique_ptr<Candidate[]> candidates;
        size_t size = 0;
        std::unique_ptr<FillStep[]> steps;
        size_t stepCount = 0;
    };

    /** @p candidates in order: stored ones reused, new ones analysed
     *  into one new chunk.  Caller holds m_. */
    View intern(const std::vector<Mapping> &candidates,
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
