/**
 * @file
 * The pre-design exploration space (paper table II): computation
 * resources (vector size P, lanes L, cores N_C, chiplets N_P) and
 * memory footprints (O-L1, A-L1, W-L1, A-L2).
 */

#ifndef NNBATON_DSE_SPACE_HPP
#define NNBATON_DSE_SPACE_HPP

#include <cstdint>
#include <vector>

#include "arch/config.hpp"

namespace nnbaton {

/** One compute allocation (N_P, N_C, L, P). */
struct ComputeAllocation
{
    int chiplets = 1;
    int cores = 1;
    int lanes = 1;
    int vectorSize = 1;

    int64_t totalMacs() const
    {
        return static_cast<int64_t>(chiplets) * cores * lanes *
               vectorSize;
    }
};

/** One memory allocation (bytes). */
struct MemoryAllocation
{
    int64_t ol1Bytes = 0;
    int64_t al1Bytes = 0;
    int64_t wl1Bytes = 0;
    int64_t al2Bytes = 0;
};

/**
 * All table II compute allocations whose MAC product equals
 * @p total_macs: P, L in {2,4,8,16}, N_C in {1,2,4,8,16}, N_P in
 * {1,2,4,8}.
 */
std::vector<ComputeAllocation> enumerateCompute(int64_t total_macs);

/**
 * The table II memory grid: O-L1 {48,96,144} B, A-L1 {1..128} KB and
 * W-L1 {2..256} KB in power-of-two steps, A-L2 {32..256} KB.  The
 * paper's validity pruning (a core's A-L1 must not exceed the shared
 * A-L2) is applied here.  Built once per process, on first use.
 */
const std::vector<MemoryAllocation> &enumerateMemory();

/** Total table II memory grid size before pruning. */
int64_t memoryGridSize();

/**
 * Memory scaled proportionally to the compute resources (figure 14:
 * "we assemble the memory hierarchy with buffer sizes proportional to
 * the computation resources"), anchored at the section VI-A case
 * study (8 lanes x 8 vector, 8 cores: 1.5 KB O-L1, 800 B A-L1, 18 KB
 * W-L1, 64 KB A-L2).
 */
MemoryAllocation proportionalMemory(const ComputeAllocation &compute);

/** Assemble a full AcceleratorConfig from the two allocations. */
AcceleratorConfig makeConfig(const ComputeAllocation &compute,
                             const MemoryAllocation &memory);

} // namespace nnbaton

#endif // NNBATON_DSE_SPACE_HPP
