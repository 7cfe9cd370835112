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
#include <vector>

#include "c3p/footprint.hpp"
#include "dataflow/loopnest.hpp"

namespace nnbaton {

/** Result of analysing one buffer for one tensor.  Plain data: no
 *  heap state, so copying a result per candidate costs no allocation. */
struct ReuseResult
{
    int64_t fillBytes = 0;      //!< traffic from the parent level
    int64_t footprintAtFit = 0; //!< retained working set in bytes
    size_t fitBoundary = 0;     //!< retention boundary index
    int64_t intrinsicBytes = 0; //!< A0: footprint of the whole nest

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
 * One inward-to-outward pass produces every boundary footprint from a
 * running span, so the scan is linear in the nest depth; a nest deeper
 * than 31 loops panics.  The atom footprint is assumed to fit
 * (legality-checked by the mapper); if it does not, fills degenerate
 * to atom * total trips and the result flags it with
 * fitBoundary == loops.size().
 */
ReuseResult analyzeBuffer(const LoopNest &nest, Tensor tensor,
                          const ConvLayer &layer, int64_t capacity_bytes);

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
 * boundary-footprint scan analyzeBuffer() runs.  Steps are emitted
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
