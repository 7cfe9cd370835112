/**
 * @file
 * The output-centric hierarchical mapping description (paper section
 * IV-A, figures 4 and 5).
 *
 * A layer's output cube HO x WO x CO is carved up by:
 *  1. a package-level spatial primitive (C-type or P-type) over the
 *     N_P chiplets,
 *  2. a package-level temporal primitive iterating each chiplet's
 *     macro workload in chiplet tiles HOt x WOt x COt,
 *  3. a chiplet-level spatial primitive (C-, P- or H-type) over the
 *     N_C cores,
 *  4. a chiplet-level temporal primitive iterating each core's macro
 *     workload in core tiles HOc x WOc x L, and
 *  5. the weight-stationary core loops (CI, KH, KW, OH, OW), with the
 *     rotating primitive streaming the shared tensor around the ring.
 */

#ifndef NNBATON_DATAFLOW_MAPPING_HPP
#define NNBATON_DATAFLOW_MAPPING_HPP

#include <cstdint>
#include <string>

#include "arch/config.hpp"
#include "dataflow/partition.hpp"
#include "nn/layer.hpp"

namespace nnbaton {

/** Package-level spatial partition dimension (figure 5 (a)-(b)). */
enum class PackagePartition
{
    Channel, //!< C-type: chiplets take disjoint CO slices, share inputs
    Plane,   //!< P-type: chiplets take disjoint HO/WO tiles, share weights
};

/** Chiplet-level spatial partition (figure 5 (c)-(e)). */
enum class ChipletPartition
{
    Channel, //!< all cores differ in CO
    Plane,   //!< all cores differ in the output plane
    Hybrid,  //!< H-type: split both CO and the plane simultaneously
};

/** Temporal loop-unrolling priority (figure 6(a)). */
enum class LoopOrder
{
    ChannelPriority, //!< C dimension in the inner loop (weights reused)
    PlanePriority,   //!< H-W dimensions in the inner loop (acts reused)
};

const char *toString(PackagePartition p);
const char *toString(ChipletPartition p);
const char *toString(LoopOrder o);

/** An output-cube slice (all extents in output elements). */
struct WorkShape
{
    int ho = 0;
    int wo = 0;
    int co = 0;

    int64_t volume() const
    {
        return static_cast<int64_t>(ho) * wo * co;
    }

    bool operator==(const WorkShape &) const = default;
};

/** A complete per-layer mapping specification. */
struct Mapping
{
    // Package-level spatial primitive.
    PackagePartition pkgSpatial = PackagePartition::Channel;
    PlanarSplit pkgSplit; //!< used when pkgSpatial == Plane

    // Chiplet-level spatial primitive.
    ChipletPartition chipSpatial = ChipletPartition::Channel;
    int chipChannelWays = 1; //!< cw: cores that differ in CO
    PlanarSplit chipSplit;   //!< pw = chipSplit.parts(): plane ways

    // Package-level temporal primitive: single chiplet workload.
    WorkShape chipletTile;
    LoopOrder pkgOrder = LoopOrder::ChannelPriority;

    // Chiplet-level temporal primitive: single core workload plane
    // (the channel extent of a core tile is the lane count L).
    int hoC = 1;
    int woC = 1;
    LoopOrder chipOrder = LoopOrder::ChannelPriority;

    /** Compact textual form, e.g. "(C,H) T(28x28x64) c(8x8) CP/PP". */
    std::string toString() const;

    /** The spatial-combo label used on the x-axis of figure 11. */
    std::string spatialLabel() const;

    bool operator==(const Mapping &) const = default;
};

/**
 * Derived per-level workload shapes for a (layer, config, mapping)
 * triple.  All counts use ceiling division; edge tiles are modelled at
 * full size (documented approximation, see DESIGN.md section 4).
 */
struct MappingShapes
{
    WorkShape chipletMacro; //!< per-chiplet workload after pkg spatial
    WorkShape chipletTile;  //!< single chiplet workload (temporal unit)
    WorkShape coreMacro;    //!< per-core share of one chiplet tile
    WorkShape coreTile;     //!< single core workload (hoC x woC x L)

    // Package-temporal trip counts over the chiplet macro workload.
    int pkgTripsH = 1;
    int pkgTripsW = 1;
    int pkgTripsC = 1;

    // Chiplet-temporal trip counts over the core macro workload.
    int chipTripsH = 1;
    int chipTripsW = 1;
    int chipTripsC = 1;

    // Batch trips of the outermost temporal loop (one per sample).
    int batchTrips = 1;

    int64_t pkgTrips() const
    {
        return static_cast<int64_t>(pkgTripsH) * pkgTripsW * pkgTripsC;
    }

    int64_t chipTrips() const
    {
        return static_cast<int64_t>(chipTripsH) * chipTripsW * chipTripsC;
    }

    /** Core tiles executed per chiplet for the whole layer (every
     *  sample of the batch). */
    int64_t coreTilesPerChiplet() const
    {
        return static_cast<int64_t>(batchTrips) * pkgTrips() *
               chipTrips();
    }
};

/**
 * Compute the derived shapes.  Throws StatusError(InvalidArgument) if
 * the mapping is malformed for the configuration; use checkMapping()
 * first for a soft answer.
 */
MappingShapes deriveShapes(const ConvLayer &layer,
                           const AcceleratorConfig &cfg,
                           const Mapping &mapping);

/**
 * Soft legality check (paper's candidate pruning): spatial factors
 * must fit the workload, the chiplet tile must cover the core split,
 * O-L1 must hold a core tile of partial sums, A-L1 one input slice,
 * and W-L1 one vector-step of weights.
 *
 * @return empty string if legal, else a human-readable reason.
 */
std::string checkMapping(const ConvLayer &layer,
                         const AcceleratorConfig &cfg,
                         const Mapping &mapping, int psum_bits = 24);

/** checkMapping() that also hands back the derived shapes (assigned
 *  whenever the spatial split is well formed, so always when the
 *  mapping is legal), for callers that go on to use them. */
std::string checkMapping(const ConvLayer &layer,
                         const AcceleratorConfig &cfg,
                         const Mapping &mapping, MappingShapes &shapes,
                         int psum_bits = 24);

} // namespace nnbaton

#endif // NNBATON_DATAFLOW_MAPPING_HPP
