/**
 * @file
 * The seeded input of the `sweep` and `fabric` workloads.  The seed
 * decides what the program sees; the program never sees the seed.
 *
 * Every seed does the same amount of work: steadiness is judged across
 * runs with different seeds, so a seed that picked a cheaper input
 * would read as noise.  Seeds therefore choose among sweep windows
 * with the same layer shapes.
 */

#ifndef PERFBENCH_INPUTS_HPP
#define PERFBENCH_INPUTS_HPP

#include <cstdint>
#include <string>

#include "dse/explorer.hpp"
#include "nn/model.hpp"

namespace perfbench {

/**
 * The sweep (and fabric) input: three consecutive DarkNet-19@224
 * layers starting at conv14, conv15 or conv16, swept over the figure
 * 15 space (4,096 MACs, 3 mm2, Sketch effort, min EDP, table II grid:
 * 45,000 points) at one thread.  Each window holds the same two shapes
 * (1024x512 3x3 and 512x1024 1x1 at 7x7) with one of them repeated,
 * so every window costs the same two searches and one cache read per
 * design point.
 */
struct SweepInput
{
    std::string key; //!< "conv14-16": names the pinned answer
    nnbaton::Model model;
    nnbaton::DseOptions options;
};

SweepInput makeSweepInput(uint64_t seed);

/** Canonical text of the inputs @p workload ("sweep" or "fabric")
 *  sees for @p seed. */
std::string describeInputs(const std::string &workload, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HPP
