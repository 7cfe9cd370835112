#include "dse/slice.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/status.hpp"
#include "common/trace.hpp"
#include "verif/fault.hpp"

namespace nnbaton {

SweepTaskSpace::SweepTaskSpace(const DseOptions &options)
    : computes_(enumerateCompute(options.totalMacs)),
      proportional_(options.proportionalMem)
{
    if (computes_.empty()) {
        throwStatus(errInvalidArgument(
            "explore: no table II compute allocation yields %lld MACs",
            static_cast<long long>(options.totalMacs)));
    }
    if (!proportional_)
        memories_ = enumerateMemory(); // the process-wide grid, not a copy
}

int64_t
SweepTaskSpace::size() const
{
    const int64_t computes = static_cast<int64_t>(computes_.size());
    return proportional_
               ? computes
               : computes * static_cast<int64_t>(memories_.size());
}

std::vector<SweepTask>
SweepTaskSpace::range(int64_t begin, int64_t end) const
{
    if (begin < 0 || end < begin || end > size()) {
        throwStatus(errInvalidArgument(
            "sweep tasks [%lld, %lld) out of range for %lld tasks",
            static_cast<long long>(begin), static_cast<long long>(end),
            static_cast<long long>(size())));
    }
    // Compute-major: every memory allocation of one compute
    // allocation, then the next.
    std::vector<SweepTask> tasks;
    tasks.reserve(static_cast<size_t>(end - begin));
    const int64_t m = static_cast<int64_t>(memories_.size());
    for (int64_t i = begin; i < end; ++i) {
        if (proportional_) {
            const ComputeAllocation &compute =
                computes_[static_cast<size_t>(i)];
            tasks.push_back({compute, proportionalMemory(compute)});
        } else {
            tasks.push_back({computes_[static_cast<size_t>(i / m)],
                             memories_[static_cast<size_t>(i % m)]});
        }
    }
    return tasks;
}

std::vector<SweepTask>
enumerateSweepTasks(const DseOptions &options)
{
    NNBATON_TRACE_SCOPE("dse.enumerate_space");
    const SweepTaskSpace space(options);
    return space.range(0, space.size());
}

SweepPointOutcome
evaluateSweepPoint(const Model &model, const DseOptions &options,
                   const TechnologyModel &tech, const SweepTask &task,
                   MappingCache &cache)
{
    NNBATON_TRACE_SCOPE("dse.design_point");

    SweepPointOutcome out;
    AcceleratorConfig cfg = makeConfig(task.compute, task.memory);
    AreaBreakdown area = chipletArea(cfg, tech, defaultOl2Bytes(cfg));
    if (options.areaLimitMm2 > 0.0 &&
        area.total() > options.areaLimitMm2) {
        out.kind = SweepPointOutcome::AreaRejected;
        return out;
    }
    SearchOptions search;
    search.boundPruning = options.boundPruning;
    search.cancel = options.cancel;
    ModelMappingResult mapped =
        mapModel(model, cfg, tech, options.effort, options.objective,
                 search, &cache);
    out.stats = mapped.stats;
    if (!mapped.feasible) {
        out.kind = SweepPointOutcome::Infeasible;
        return out;
    }
    out.kind = SweepPointOutcome::Valid;
    out.point.compute = task.compute;
    out.point.memory = task.memory;
    out.point.area = area;
    out.point.cost = std::move(mapped.cost);
    out.point.clockGhz = tech.frequencyGhz;
    return out;
}

void
keepWinnerLedgers(std::span<SweepPointOutcome> outcomes)
{
    SweepWinners winners;
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].kind == SweepPointOutcome::Valid)
            winners.offer(i, outcomes[i].point);
    }
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (!winners.has(i)) // move-assigned, so the storage is freed
            outcomes[i].point.cost.layers = std::vector<LayerCost>();
    }
}

std::vector<SweepPointOutcome>
evaluateSweepSlice(const Model &model, const DseOptions &options,
                   const TechnologyModel &tech,
                   std::span<const SweepTask> slice, int64_t begin,
                   MappingCache &cache)
{
    std::vector<SweepPointOutcome> outcomes(slice.size());
    for (size_t k = 0; k < slice.size(); ++k) {
        SweepPointOutcome &out = outcomes[k];
        if (options.cancel && options.cancel->cancelled()) {
            out.kind = SweepPointOutcome::Skipped;
            continue;
        }
        try {
            verif::injectPointFault(begin + static_cast<int64_t>(k));
            out = evaluateSweepPoint(model, options, tech, slice[k],
                                     cache);
        } catch (const std::exception &e) {
            const auto *status = dynamic_cast<const StatusError *>(&e);
            const StatusCode code =
                status ? status->status().code() : StatusCode::Internal;
            if (code == StatusCode::Cancelled ||
                code == StatusCode::DeadlineExceeded) {
                out.kind = SweepPointOutcome::Skipped;
                continue;
            }
            if (options.strict)
                throw;
            out.kind = SweepPointOutcome::Poisoned;
            out.error = e.what(); // a StatusError's is its status text
        }
        verif::notifyPointCompleted(options.cancel);
    }
    keepWinnerLedgers(outcomes);
    return outcomes;
}

DseResult
collectSweepOutcomes(const std::vector<SweepTask> &tasks,
                     std::vector<SweepPointOutcome> &outcomes)
{
    NNBATON_TRACE_SCOPE("dse.collect");
    keepWinnerLedgers(outcomes);
    DseResult result;
    result.points.reserve(static_cast<size_t>(
        std::count_if(outcomes.begin(), outcomes.end(), [](const auto &o) {
            return o.kind == SweepPointOutcome::Valid;
        })));
    for (size_t i = 0; i < outcomes.size(); ++i) {
        SweepPointOutcome &out = outcomes[i];
        ++result.swept;
        result.search += out.stats;
        if (out.restored)
            ++result.resumed;
        switch (out.kind) {
        case SweepPointOutcome::AreaRejected:
            ++result.areaRejected;
            break;
        case SweepPointOutcome::Infeasible:
            ++result.infeasible;
            break;
        case SweepPointOutcome::Valid:
            result.points.push_back(std::move(out.point));
            break;
        case SweepPointOutcome::Poisoned:
            result.poisoned.push_back(
                {tasks[i].compute, tasks[i].memory,
                 static_cast<int64_t>(i), std::move(out.error)});
            break;
        case SweepPointOutcome::Skipped:
            ++result.skipped;
            break;
        }
    }
    result.complete = result.skipped == 0;
    return result;
}

} // namespace nnbaton
