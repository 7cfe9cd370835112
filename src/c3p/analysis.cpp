#include "c3p/analysis.hpp"

#include <bit>
#include <limits>

#include "common/logging.hpp"

namespace nnbaton {

ReuseResult
analyzeBuffer(const LoopNest &nest, Tensor tensor, const ConvLayer &layer,
              int64_t capacity_bytes)
{
    ReuseResult r;
    const size_t nb = nest.loops.size();
    r.intrinsicBytes = footprintBytes(tensor, nest.spanBelow(0), layer);

    // Record critical positions: boundaries above relevant loops,
    // innermost first, with the footprint (critical capacity) enclosed
    // below the *next outer* boundary once the loop is crossed.
    for (size_t i = nb; i-- > 0;) {
        if (isRelevant(tensor, nest.loops[i].dim, layer)) {
            r.criticalPoints.push_back(
                {i, footprintBytes(tensor, nest.spanBelow(i), layer)});
        }
    }

    // Retention scan: outermost boundary whose footprint fits.
    // Footprints are non-decreasing toward boundary 0, so scan from
    // the top down until one fits.
    size_t fit = nb;
    for (size_t b = 0; b <= nb; ++b) {
        if (footprintBytes(tensor, nest.spanBelow(b), layer) <=
            capacity_bytes) {
            fit = b;
            break;
        }
    }
    r.fitBoundary = fit;
    r.footprintAtFit = footprintBytes(tensor, nest.spanBelow(fit), layer);
    r.fillBytes = r.footprintAtFit * nest.tripsAbove(fit);
    return r;
}

ReuseResult
analyzeBufferFast(const LoopNest &nest, Tensor tensor,
                  const ConvLayer &layer, int64_t capacity_bytes)
{
    ReuseResult r;
    analyzeBufferFastInto(nest, tensor, layer, capacity_bytes, r);
    return r;
}

namespace {

/** The deepest nest buildNests() emits is B + 3 package-temporal +
 *  3 chiplet-temporal + IC + KH + KW + OH + OW = 12 loops; anything
 *  deeper is a foreign nest. */
constexpr size_t kMaxDepth = 31;

/**
 * Fill fp[b] with the boundary-b footprint, exactly
 * footprintBytes(spanBelow(b)), for every b in [0, nest depth], from
 * one running span grown outward from the atom.  Crossing an
 * irrelevant loop never grows the footprint (the C3P reuse-region
 * property: footprintBytes() reads none of the dims isRelevant()
 * rejects), so those boundaries carry the inner value over instead of
 * recomputing it.  Returns the relevant-loop mask (bit i for loop i,
 * loops below kMaxDepth only).
 */
uint32_t
boundaryFootprints(const LoopNest &nest, Tensor tensor,
                   const ConvLayer &layer, int64_t *fp)
{
    const size_t nb = nest.loops.size();
    uint32_t rel_mask = 0;
    TileSpan span = nest.atom;
    fp[nb] = footprintBytes(tensor, span, layer);
    for (size_t i = nb; i-- > 0;) {
        const Dim d = nest.loops[i].dim;
        span.at(d) *= nest.loops[i].trips;
        if (isRelevant(tensor, d, layer)) {
            if (i < kMaxDepth)
                rel_mask |= uint32_t{1} << i;
            fp[i] = footprintBytes(tensor, span, layer);
        } else {
            fp[i] = fp[i + 1];
        }
    }
    return rel_mask;
}

} // namespace

void
analyzeBufferFastInto(const LoopNest &nest, Tensor tensor,
                      const ConvLayer &layer, int64_t capacity_bytes,
                      ReuseResult &out)
{
    const size_t nb = nest.loops.size();
    if (nb > kMaxDepth) {
        out = analyzeBuffer(nest, tensor, layer, capacity_bytes);
        return;
    }

    int64_t fp[kMaxDepth + 1];
    const uint32_t rel_mask = boundaryFootprints(nest, tensor, layer, fp);
    const size_t relevant = static_cast<size_t>(std::popcount(rel_mask));

    out.intrinsicBytes = fp[0];
    out.criticalPoints.clear();
    out.criticalPoints.reserve(relevant);
    for (size_t i = nb; i-- > 0;) {
        if (rel_mask & (uint32_t{1} << i))
            out.criticalPoints.push_back({i, fp[i]});
    }
    size_t fit = nb;
    for (size_t b = 0; b <= nb; ++b) {
        if (fp[b] <= capacity_bytes) {
            fit = b;
            break;
        }
    }
    out.fitBoundary = fit;
    out.footprintAtFit = fp[fit];
    out.fillBytes = out.footprintAtFit * nest.tripsAbove(fit);
}

void
appendFillSteps(const LoopNest &nest, Tensor tensor,
                const ConvLayer &layer, std::vector<FillStep> &out)
{
    const size_t nb = nest.loops.size();
    int64_t local[kMaxDepth + 1];
    std::vector<int64_t> deep;
    int64_t *fp = local;
    if (nb > kMaxDepth) {
        deep.resize(nb + 1);
        fp = deep.data();
    }
    boundaryFootprints(nest, tensor, layer, fp);

    // analyzeBuffer() retains at the first (outermost) boundary whose
    // footprint fits, so a capacity selects the first boundary that
    // undercuts every outer footprint and is at most the capacity.
    // Only those boundaries become steps; trips is tripsAbove(b).
    int64_t trips = 1;
    int64_t least = std::numeric_limits<int64_t>::max();
    size_t last = 0;
    for (size_t b = 0; b <= nb; ++b) {
        if (fp[b] < least) {
            least = fp[b];
            last = b;
            out.push_back({fp[b], fp[b] * trips});
        }
        if (b < nb)
            trips *= nest.loops[b].trips;
    }
    // Below every footprint the atom boundary retains.  When the atom
    // already owns the last step, that step simply extends downward.
    if (last == nb)
        out.back().minCapacity = std::numeric_limits<int64_t>::min();
    else
        out.push_back({std::numeric_limits<int64_t>::min(), fp[nb] * trips});
}

} // namespace nnbaton
