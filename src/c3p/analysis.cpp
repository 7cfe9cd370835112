#include "c3p/analysis.hpp"

#include <limits>

#include "common/logging.hpp"

namespace nnbaton {

namespace {

/** The deepest nest buildNests() emits is B + 3 package-temporal +
 *  3 chiplet-temporal + IC + KH + KW + OH + OW = 12 loops, and the
 *  Simba baseline's is 8; anything past this is a foreign nest. */
constexpr size_t kMaxDepth = 31;

/**
 * Fill fp[b] with the boundary-b footprint, exactly
 * footprintBytes(spanBelow(b)), for every b in [0, nest depth], from
 * one running span grown outward from the atom.  Crossing an
 * irrelevant loop never grows the footprint (the C3P reuse-region
 * property: footprintBytes() reads none of the dims isRelevant()
 * rejects), so those boundaries carry the inner value over instead of
 * recomputing it.  @p fp holds kMaxDepth + 1 entries; a deeper nest
 * panics.
 */
void
boundaryFootprints(const LoopNest &nest, Tensor tensor,
                   const ConvLayer &layer, int64_t *fp)
{
    const size_t nb = nest.loops.size();
    if (nb > kMaxDepth) {
        panic("C3P scan: a %zu-loop nest exceeds the %zu-loop limit "
              "(%s)",
              nb, kMaxDepth, nest.toString().c_str());
    }
    TileSpan span = nest.atom;
    fp[nb] = footprintBytes(tensor, span, layer);
    for (size_t i = nb; i-- > 0;) {
        const Dim d = nest.loops[i].dim;
        span.at(d) *= nest.loops[i].trips;
        fp[i] = isRelevant(tensor, d, layer)
                    ? footprintBytes(tensor, span, layer)
                    : fp[i + 1];
    }
}

} // namespace

ReuseResult
analyzeBuffer(const LoopNest &nest, Tensor tensor, const ConvLayer &layer,
              int64_t capacity_bytes)
{
    int64_t fp[kMaxDepth + 1];
    boundaryFootprints(nest, tensor, layer, fp);

    // Retention scan: outermost boundary whose footprint fits.
    // Footprints are non-decreasing toward boundary 0, so scan from
    // the top down until one fits; the atom retains when none does.
    const size_t nb = nest.loops.size();
    size_t fit = nb;
    for (size_t b = 0; b <= nb; ++b) {
        if (fp[b] <= capacity_bytes) {
            fit = b;
            break;
        }
    }
    ReuseResult r;
    r.intrinsicBytes = fp[0];
    r.fitBoundary = fit;
    r.footprintAtFit = fp[fit];
    r.fillBytes = r.footprintAtFit * nest.tripsAbove(fit);
    return r;
}

void
appendFillSteps(const LoopNest &nest, Tensor tensor,
                const ConvLayer &layer, std::vector<FillStep> &out)
{
    const size_t nb = nest.loops.size();
    int64_t fp[kMaxDepth + 1];
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
