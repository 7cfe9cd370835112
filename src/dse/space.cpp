#include "dse/space.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/util.hpp"

namespace nnbaton {

namespace {

const int kVectorOptions[] = {2, 4, 8, 16};
const int kLaneOptions[] = {2, 4, 8, 16};
const int kCoreOptions[] = {1, 2, 4, 8, 16};
const int kChipletOptions[] = {1, 2, 4, 8};

const int64_t kOl1Options[] = {48, 96, 144};

/** Sizes from @p lo to @p hi: powers of two plus the 1.5x rungs the
 *  paper's linear memory model enables (e.g. 72 KB, 144 KB). */
std::vector<int64_t>
sizeLadder(int64_t lo, int64_t hi, bool with_mid)
{
    std::vector<int64_t> out;
    for (int64_t v = lo; v <= hi; v *= 2) {
        out.push_back(v);
        if (with_mid && v * 3 / 2 <= hi)
            out.push_back(v * 3 / 2);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

std::vector<ComputeAllocation>
enumerateCompute(int64_t total_macs)
{
    std::vector<ComputeAllocation> out;
    for (int np : kChipletOptions)
        for (int nc : kCoreOptions)
            for (int l : kLaneOptions)
                for (int p : kVectorOptions) {
                    ComputeAllocation c{np, nc, l, p};
                    if (c.totalMacs() == total_macs)
                        out.push_back(c);
                }
    return out;
}

const std::vector<MemoryAllocation> &
enumerateMemory()
{
    // Every sweep and every sweepUnit request reads the same grid.
    static const std::vector<MemoryAllocation> grid = [] {
        std::vector<MemoryAllocation> out;
        for (int64_t ol1 : kOl1Options)
            for (int64_t al1 : sizeLadder(1_KB, 128_KB, false))
                for (int64_t wl1 : sizeLadder(2_KB, 256_KB, true))
                    for (int64_t al2 : sizeLadder(32_KB, 256_KB, true)) {
                        if (al1 > al2)
                            continue; // invalid: core buffer exceeds shared
                        out.push_back({ol1, al1, wl1, al2});
                    }
        return out;
    }();
    return grid;
}

int64_t
memoryGridSize()
{
    return static_cast<int64_t>(std::size(kOl1Options)) *
           static_cast<int64_t>(sizeLadder(1_KB, 128_KB, false).size()) *
           static_cast<int64_t>(sizeLadder(2_KB, 256_KB, true).size()) *
           static_cast<int64_t>(sizeLadder(32_KB, 256_KB, true).size());
}

MemoryAllocation
proportionalMemory(const ComputeAllocation &compute)
{
    MemoryAllocation m;
    m.ol1Bytes = 1536 * compute.lanes / 8;
    m.al1Bytes = 800 * compute.vectorSize / 8;
    m.wl1Bytes = 18_KB * compute.lanes * compute.vectorSize / 64;
    m.al2Bytes = 8_KB * compute.cores;
    return m;
}

AcceleratorConfig
makeConfig(const ComputeAllocation &compute,
           const MemoryAllocation &memory)
{
    AcceleratorConfig cfg;
    cfg.package.chiplets = compute.chiplets;
    cfg.chiplet.cores = compute.cores;
    cfg.core.lanes = compute.lanes;
    cfg.core.vectorSize = compute.vectorSize;
    cfg.core.ol1Bytes = memory.ol1Bytes;
    cfg.core.al1Bytes = memory.al1Bytes;
    cfg.core.wl1Bytes = memory.wl1Bytes;
    cfg.chiplet.al2Bytes = memory.al2Bytes;
    cfg.validate();
    return cfg;
}

} // namespace nnbaton
