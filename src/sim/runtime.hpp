/**
 * @file
 * Runtime model (paper section V-C: "We establish a simulator to
 * obtain the runtime for a specific workload").
 *
 * Two implementations share one machine model:
 *  - estimateRuntime(): closed-form cycle estimate used inside the
 *    mapping search and the DSE sweeps (O(1) per evaluation);
 *  - RuntimeSimulator: a per-tile phase simulator with double-buffered
 *    load/compute overlap, ring-rotation steps, and edge tiles, used
 *    for the final reported numbers and to validate the estimate.
 *
 * Runtime depends on the total MAC count and the achieved utilisation
 * (lane/vector padding plus transfer-bound stalls), exactly the two
 * factors the paper names.
 */

#ifndef NNBATON_SIM_RUNTIME_HPP
#define NNBATON_SIM_RUNTIME_HPP

#include <algorithm>
#include <cstdint>
#include <string>

#include "arch/config.hpp"
#include "c3p/access.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

/** Runtime result for one layer. */
struct RuntimeResult
{
    int64_t cycles = 0;        //!< total cycles at the core clock
    int64_t computeCycles = 0; //!< pure compute, no stalls
    int64_t stallCycles = 0;   //!< transfer-bound stall cycles
    double utilization = 0.0;  //!< effective MACs / (peak MACs * cycles)

    std::string toString() const;
};

/** Closed-form runtime estimate for an analysed mapping. */
RuntimeResult estimateRuntime(const ConvLayer &layer,
                              const AcceleratorConfig &cfg,
                              const AccessAnalysis &analysis,
                              const TechnologyModel &tech);

/**
 * The closed-form estimate's per-chiplet tile schedule: the core-tile
 * count, the cycles to compute one tile, and the cycles to stream one
 * tile's share of the layer's DRAM traffic (over the N_P DDR PHYs)
 * and ring traffic (over the N_P directional links).
 */
struct TilePhases
{
    int64_t tiles = 0;          //!< core tiles per chiplet
    int64_t computePerTile = 0; //!< cycles to compute one core tile
    int64_t dramPerTile = 0;    //!< cycles to stream one tile's DRAM IO
    int64_t ringPerTile = 0;    //!< cycles of ring rotation per tile

    /** estimateRuntime()'s cycles: each tile takes the longest of its
     *  three phases, plus the first tile's load (pipeline fill). */
    int64_t cycles() const
    {
        return tiles * std::max({computePerTile, dramPerTile,
                                 ringPerTile}) +
               dramPerTile;
    }
};

/**
 * The phases of @p tiles core tiles of @p compute_per_tile cycles each
 * moving @p counts' DRAM and ring traffic.  estimateRuntime() and the
 * memory-axis table score (mapper/memory_table.hpp) both time a layer
 * through this one function.
 */
TilePhases tilePhases(int64_t tiles, int64_t compute_per_tile,
                      const AccessCounts &counts,
                      const AcceleratorConfig &cfg,
                      const TechnologyModel &tech);

/** Cycles to compute one core tile of @p shapes: one per vector-MAC
 *  step (dense layers reduce the input channels over the P-wide
 *  vector, depthwise layers pack the kernel window into it). */
int64_t computeCyclesPerTile(const ConvLayer &layer,
                             const AcceleratorConfig &cfg,
                             const MappingShapes &shapes);

/**
 * Pure compute cycles (no stalls) for a mapping's derived shapes: the
 * core-tile count times the per-tile vector-MAC issue count.  This is
 * a hard floor on estimateRuntime()'s cycle count (which models edge
 * tiles at full size, like the shapes), which is what the mapping
 * search's score-bound pruning needs (mapper/bound.hpp).  The phase
 * simulator shrinks edge tiles and may report fewer compute cycles;
 * the search never scores with the simulator.
 */
int64_t computeCycles(const ConvLayer &layer,
                      const AcceleratorConfig &cfg,
                      const MappingShapes &shapes);

/**
 * Per-tile phase simulator.
 *
 * Each chiplet runs its core-tile schedule; a tile's next-tile loads
 * (DRAM) and rotation steps (ring) overlap the current tile's compute
 * thanks to the double-buffered A-L1/W-L1, so the tile latency is the
 * max of the three phases.  The first tile pays its load latency in
 * full (pipeline fill) and the last output drain is overlapped except
 * for the final write-back.
 */
class RuntimeSimulator
{
  public:
    RuntimeSimulator(const AcceleratorConfig &cfg,
                     const TechnologyModel &tech)
        : cfg_(cfg), tech_(tech)
    {
    }

    /** Simulate one layer under an analysed mapping. */
    RuntimeResult run(const ConvLayer &layer,
                      const AccessAnalysis &analysis) const;

  private:
    const AcceleratorConfig &cfg_;
    const TechnologyModel &tech_;
};

} // namespace nnbaton

#endif // NNBATON_SIM_RUNTIME_HPP
