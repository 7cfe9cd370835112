/**
 * @file
 * The directional ring NoP rotation schedule (paper figure 3).
 *
 * With a C-type package partition the chiplets share activations:
 * each chiplet holds 1/N_P of the input channels, computes on its
 * chunk, then writes the chunk through to the next chiplet; after
 * N_P - 1 transfers every chiplet has seen the whole tensor.  P-type
 * partitions rotate weights the same way.  This module computes the
 * exact per-step schedule — bits per link, cycles per step, and the
 * overlap with compute.  It is a test reference: nothing outside
 * src/sim/ calls planRotation(), and tests/test_ring.cpp checks it
 * against the access model's D2D traffic.
 */

#ifndef NNBATON_SIM_RING_HPP
#define NNBATON_SIM_RING_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace nnbaton {

/** One rotation step: every chiplet forwards its chunk simultaneously. */
struct RotationStep
{
    int step = 0;            //!< 0-based step index (1..N_P-1 transfer)
    int64_t bitsPerLink = 0; //!< bits written through each ring link
    int64_t cycles = 0;      //!< cycles at the given link bandwidth
};

/** A complete rotation of one shared-tensor working set. */
struct RotationPlan
{
    int chiplets = 1;
    int64_t chunkBits = 0;  //!< shared-tensor bits resident per chiplet
    std::vector<RotationStep> steps;

    /** Total bits crossing each ring link for the full rotation. */
    int64_t bitsPerLink() const;

    /** Total bits crossing all N_P links. */
    int64_t totalBits() const;

    /** Cycles for the full rotation if nothing overlaps it. */
    int64_t totalCycles() const;

    /**
     * Cycles NOT hidden behind compute when each step overlaps the
     * computation of the freshly received chunk.
     */
    int64_t exposedCycles(int64_t compute_cycles_per_chunk) const;

    std::string toString() const;
};

/**
 * Plan the rotation of a shared working set of @p shared_bits total
 * across @p chiplets, with @p link_bits_per_cycle ring bandwidth.
 * Each chiplet starts with shared_bits / chiplets resident; N_P - 1
 * steps circulate the remainder.  A single chiplet needs no rotation.
 */
RotationPlan planRotation(int chiplets, int64_t shared_bits,
                          int link_bits_per_cycle);

} // namespace nnbaton

#endif // NNBATON_SIM_RING_HPP
