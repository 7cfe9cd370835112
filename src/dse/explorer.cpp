#include "dse/explorer.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"
#include "common/trace.hpp"
#include "dse/driver.hpp"

namespace nnbaton {

namespace {

/** Lease TTL of a local-only sweep: its lanes never crash alone, so
 *  a lease should only outlast the slowest unit, not ever expire. */
constexpr double kLocalLeaseSeconds = 24 * 3600.0;

/** Index of the first point with the least @p score, if any. */
template <typename Score>
std::optional<size_t>
argmin(const std::vector<DesignPoint> &points, Score score)
{
    std::optional<size_t> best;
    double bestScore = std::numeric_limits<double>::max();
    for (size_t i = 0; i < points.size(); ++i) {
        if (score(points[i]) < bestScore) {
            bestScore = score(points[i]);
            best = i;
        }
    }
    return best;
}

} // namespace

SearchEffort
sweepEffort(bool proportional_mem)
{
    return proportional_mem ? SearchEffort::Fast : SearchEffort::Sketch;
}

std::string
DesignPoint::toString() const
{
    return strprintf(
        "%d-%d-%d-%d | O-L1 %lldB A-L1 %lldK W-L1 %lldK A-L2 %lldK | "
        "%.2f mm2 | %.3f mJ %.3f ms",
        compute.chiplets, compute.cores, compute.lanes,
        compute.vectorSize, static_cast<long long>(memory.ol1Bytes),
        static_cast<long long>(memory.al1Bytes / 1024),
        static_cast<long long>(memory.wl1Bytes / 1024),
        static_cast<long long>(memory.al2Bytes / 1024), area.total(),
        cost.energyMj(), runtimeMs());
}

std::optional<size_t>
DseResult::bestEdp() const
{
    return argmin(points, [](const DesignPoint &p) { return p.edp(); });
}

std::optional<size_t>
DseResult::bestEnergy() const
{
    return argmin(points, [](const DesignPoint &p) {
        return p.cost.energy.total();
    });
}

DseResult
explore(const Model &model, const DseOptions &options,
        const TechnologyModel &tech)
{
    NNBATON_TRACE_SCOPE("dse.explore");
    SweepDriver driver(model, options, tech, /*unitPoints=*/0,
                       static_cast<size_t>(std::max(1, options.threads)),
                       kLocalLeaseSeconds);
    driver.runLocalLanes();
    return driver.finish();
}

} // namespace nnbaton
