/**
 * @file
 * The C3P (Critical-Capacity Critical-Position) buffer-reuse analysis
 * (paper section IV-B, equations 1-2).
 *
 * For a buffer of a given capacity and a temporal loop nest, the
 * engine finds the outermost nest boundary whose enclosed tensor
 * footprint still fits the buffer (the retention boundary).  Loops
 * relevant to the tensor are the paper's critical positions and the
 * footprints at their boundaries are the critical capacities;
 * irrelevant loops never grow the footprint, so they are crossed for
 * free — exactly the reuse-region behaviour of the paper.  The fill
 * traffic from the parent memory level is then
 *
 *     fills = footprint(retention) * prod(trips of loops above it)
 *
 * which equals the paper's A0 * prod(P_k) penalty form (the paper
 * writes A0 * (1 + prod P_k), counting the intrinsic load separately;
 * we fold it in, the difference is the off-by-one of the first load).
 */

#ifndef NNBATON_C3P_ANALYSIS_HPP
#define NNBATON_C3P_ANALYSIS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "c3p/footprint.hpp"
#include "dataflow/loopnest.hpp"

namespace nnbaton {

/** One critical position found by the scan (reported for inspection). */
struct CriticalPoint
{
    size_t boundary;          //!< nest boundary index (above loops[b])
    int64_t criticalCapacity; //!< bytes needed to retain across it
};

/** Result of analysing one buffer for one tensor. */
struct ReuseResult
{
    int64_t fillBytes = 0;      //!< traffic from the parent level
    int64_t footprintAtFit = 0; //!< retained working set in bytes
    size_t fitBoundary = 0;     //!< retention boundary index
    int64_t intrinsicBytes = 0; //!< A0: footprint of the whole nest
    std::vector<CriticalPoint> criticalPoints;

    /** Penalty factor fills / A0 (1.0 when the buffer is large enough). */
    double penalty() const
    {
        return intrinsicBytes > 0
                   ? static_cast<double>(fillBytes) / intrinsicBytes
                   : 1.0;
    }
};

/**
 * Analyse @p tensor through @p nest for a buffer of @p capacity_bytes.
 *
 * The atom footprint is assumed to fit (legality-checked by the
 * mapper); if it does not, fills degenerate to atom * total trips and
 * a warning flag is set in the result via fitBoundary == loops.size().
 */
ReuseResult analyzeBuffer(const LoopNest &nest, Tensor tensor,
                          const ConvLayer &layer, int64_t capacity_bytes);

/**
 * analyzeBuffer() in a single inward-to-outward pass: every boundary
 * footprint is produced by one running span accumulation instead of an
 * O(n) spanBelow() walk per boundary, cutting the scan from quadratic
 * to linear in the nest depth.  Span products are the same exact
 * int64 multiplications in a different (commutative) order, so the
 * result is bit-identical to analyzeBuffer() on every field — the
 * incremental evaluator's hot path relies on that, and the C3P fuzz
 * suite pins it.
 */
ReuseResult analyzeBufferFast(const LoopNest &nest, Tensor tensor,
                              const ConvLayer &layer,
                              int64_t capacity_bytes);

/**
 * analyzeBufferFast() writing into caller-owned storage: @p out's
 * criticalPoints vector keeps its capacity across calls, so a hot loop
 * feeding the same result slot back in allocates nothing in the steady
 * state (the incremental evaluator's memo fills its ring entries this
 * way).  All fields are fully (re)assigned.
 */
void analyzeBufferFastInto(const LoopNest &nest, Tensor tensor,
                           const ConvLayer &layer, int64_t capacity_bytes,
                           ReuseResult &out);

/**
 * One step of a buffer's fill function: every capacity of at least
 * @p minCapacity bytes (and below the previous step's) fills
 * @p fillBytes from the parent level.
 */
struct FillStep
{
    int64_t minCapacity;
    int64_t fillBytes;
};

/**
 * Append @p tensor's fills through @p nest as a step function of the
 * buffer capacity: the paper's critical capacities, taken from the same
 * boundary-footprint scan analyzeBufferFast() runs.  Steps are emitted
 * in descending minCapacity, one per boundary whose footprint undercuts
 * every outer one.  The last step has minCapacity INT64_MIN: it also
 * covers capacities below every footprint, where analyzeBuffer()
 * retains at the atom boundary.  fillAtCapacity() over the steps equals
 * analyzeBuffer(nest, tensor, layer, c).fillBytes for every c.
 */
void appendFillSteps(const LoopNest &nest, Tensor tensor,
                     const ConvLayer &layer, std::vector<FillStep> &out);

/** Fill bytes at @p capacity_bytes of the step function starting at
 *  @p steps (as appendFillSteps() emitted it). */
inline int64_t
fillAtCapacity(const FillStep *steps, int64_t capacity_bytes)
{
    while (steps->minCapacity > capacity_bytes)
        ++steps;
    return steps->fillBytes;
}

} // namespace nnbaton

#endif // NNBATON_C3P_ANALYSIS_HPP
