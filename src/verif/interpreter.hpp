/**
 * @file
 * Brute-force reference model for the C3P analysis.
 *
 * The interpreter walks a loop nest recursively and, at each subtree,
 * decides at runtime whether the buffer can retain that subtree's
 * tensor tile (the same all-or-nothing retention semantics the paper's
 * C3P methodology encodes).  When a subtree is retained, its fill
 * traffic is measured by *exhaustively enumerating the unique element
 * coordinates* the subtree touches — no closed-form footprint math is
 * shared with the analytical engine, so agreement between the two is a
 * real check of the footprint formulas, halo handling and trip
 * products.
 *
 * Intended for tests on small nests; complexity is the number of
 * touched elements.
 */

#ifndef NNBATON_VERIF_INTERPRETER_HPP
#define NNBATON_VERIF_INTERPRETER_HPP

#include <cstdint>

#include "c3p/analysis.hpp"
#include "c3p/footprint.hpp"
#include "dataflow/loopnest.hpp"
#include "nn/layer.hpp"

namespace nnbaton {

/** Reference result. */
struct ReferenceResult
{
    int64_t fillBytes = 0;     //!< total bytes filled from the parent
    int64_t retainedTiles = 0; //!< number of retained subtrees
};

/**
 * Replay @p nest for @p tensor with a buffer of @p capacity_bytes and
 * measure fill traffic by coordinate enumeration.
 */
ReferenceResult referenceFills(const LoopNest &nest, Tensor tensor,
                               const ConvLayer &layer,
                               int64_t capacity_bytes);

/**
 * The textbook form of analyzeBuffer(): every boundary footprint is
 * recomputed from LoopNest::spanBelow(), a quadratic scan that shares
 * no code with the production scan, so tests can hold the production
 * scan and the fill step functions to it field by field.  No depth
 * limit.
 */
ReuseResult referenceAnalyzeBuffer(const LoopNest &nest, Tensor tensor,
                                   const ConvLayer &layer,
                                   int64_t capacity_bytes);

} // namespace nnbaton

#endif // NNBATON_VERIF_INTERPRETER_HPP
