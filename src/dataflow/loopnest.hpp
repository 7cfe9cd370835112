/**
 * @file
 * Temporal loop-nest IR.
 *
 * A mapping is lowered to per-buffer temporal loop nests; the C3P
 * engine then scans footprints over nest boundaries.  Loops are listed
 * outermost first.  The "atom" is the tile enclosed below the
 * innermost loop; spans accumulate multiplicatively as the scan moves
 * outward.
 */

#ifndef NNBATON_DATAFLOW_LOOPNEST_HPP
#define NNBATON_DATAFLOW_LOOPNEST_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "dataflow/mapping.hpp"
#include "nn/layer.hpp"

namespace nnbaton {

/** Loop dimensions of the seven-dim nest handled by the framework. */
enum class Dim
{
    OH, //!< output rows
    OW, //!< output columns
    OC, //!< output channels
    IC, //!< input channels
    KH, //!< kernel rows
    KW, //!< kernel columns
    B,  //!< batch samples (irrelevant to weights)
};

const char *toString(Dim d);

/** One temporal loop. */
struct Loop
{
    Dim dim;
    int64_t trips;
};

/** Extents of a tile along each dimension. */
struct TileSpan
{
    int64_t ho = 1;
    int64_t wo = 1;
    int64_t co = 1;
    int64_t ci = 1;
    int64_t kh = 1;
    int64_t kw = 1;
    int64_t b = 1;

    int64_t &at(Dim d);
    int64_t at(Dim d) const;
};

/** A temporal loop nest with its innermost atom tile. */
struct LoopNest
{
    std::vector<Loop> loops; //!< outermost first
    TileSpan atom;           //!< tile enclosed below the last loop

    /**
     * Tile spans enclosed below boundary @p b.  Boundary b sits above
     * loops[b]; boundary loops.size() is the atom itself, boundary 0
     * encloses the whole nest.
     */
    TileSpan spanBelow(size_t b) const;

    /** Product of trip counts of loops above boundary @p b. */
    int64_t tripsAbove(size_t b) const;

    /** Total iterations of the whole nest. */
    int64_t totalTrips() const { return tripsAbove(loops.size()); }

    /** e.g. "OC:4 OH:7 OW:7 | IC:8 KH:3 KW:3 OH:8 OW:8". */
    std::string toString() const;
};

/**
 * The per-buffer nests derived from a mapping (see DESIGN.md
 * section 4):
 * - perCore drives W-L1 and A-L1 analysis: package-temporal +
 *   chiplet-temporal + weight-stationary core loops, unit atom with
 *   the spatial core-tile spans (lanes along OC, vector size along
 *   IC).
 * - perChiplet drives A-L2 analysis: package-temporal loops over
 *   chiplet-tile atoms.
 */
struct NestSet
{
    LoopNest perCore;
    LoopNest perChiplet;
};

/** Lower a mapping to its per-buffer loop nests. */
NestSet buildNests(const ConvLayer &layer, const AcceleratorConfig &cfg,
                   const Mapping &mapping, const MappingShapes &shapes);

/**
 * buildNests() into caller-owned storage: @p out's loop vectors are
 * cleared and refilled in place, so a caller evaluating a candidate
 * stream (analyzeMapping()'s per-thread scratch) pays the allocation
 * once and reuses the capacity for every subsequent rebuild.
 */
void buildNestsInto(const ConvLayer &layer, const AcceleratorConfig &cfg,
                    const Mapping &mapping, const MappingShapes &shapes,
                    NestSet &out);

} // namespace nnbaton

#endif // NNBATON_DATAFLOW_LOOPNEST_HPP
