#include "dse/lease.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace nnbaton {

namespace {

using SteadyClock = std::chrono::steady_clock;

} // namespace

LeaseTable::LeaseTable(std::vector<WorkUnit> units, double leaseSeconds)
    : leaseTtl_(steadyDuration(leaseSeconds > 0 ? leaseSeconds : 1.0))
{
    slots_.reserve(units.size());
    for (WorkUnit &unit : units) {
        if (unit.id != static_cast<int64_t>(slots_.size())) {
            panic("lease table: unit %lld at position %zu",
                  static_cast<long long>(unit.id), slots_.size());
        }
        slots_.push_back(Slot{unit, State::Pending, {}});
    }
}

LeaseTable::Slot *
LeaseTable::slotOf(int64_t unitId)
{
    return unitId >= 0 && unitId < static_cast<int64_t>(slots_.size())
               ? &slots_[static_cast<size_t>(unitId)]
               : nullptr;
}

std::optional<WorkUnit>
LeaseTable::claimLocked(SteadyClock::time_point now)
{
    while (firstPending_ < slots_.size() &&
           slots_[firstPending_].state != State::Pending)
        ++firstPending_;
    Slot *pick = firstPending_ < slots_.size() ? &slots_[firstPending_]
                                               : nullptr;
    if (pick == nullptr) {
        // No pending work: steal the longest-expired lease, if any
        // (its holder crashed or stalled past the TTL).
        for (Slot &slot : slots_) {
            if (slot.state != State::Leased || slot.leaseDeadline > now)
                continue;
            if (pick == nullptr ||
                slot.leaseDeadline < pick->leaseDeadline)
                pick = &slot;
        }
        if (pick == nullptr)
            return std::nullopt;
        ++leasesExpired_;
    }
    pick->state = State::Leased;
    pick->leaseDeadline = now + leaseTtl_;
    return pick->unit;
}

std::optional<WorkUnit>
LeaseTable::claim(const CancelToken *cancel)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (cancel && cancel->cancelled())
            return std::nullopt;
        if (done_ == static_cast<int64_t>(slots_.size()))
            return std::nullopt;

        const auto now = SteadyClock::now();
        if (std::optional<WorkUnit> unit = claimLocked(now))
            return unit;

        // Every incomplete unit holds a live lease.  Sleep until the
        // nearest lease can expire (or a completion wakes us), then
        // re-evaluate; the extra cancellation poll bounds shutdown
        // latency.
        auto wake = now + leaseTtl_;
        for (const Slot &slot : slots_) {
            if (slot.state == State::Leased)
                wake = std::min(wake, slot.leaseDeadline);
        }
        wake = std::min(wake, now + std::chrono::milliseconds(100));
        cv_.wait_until(lock, wake);
    }
}

std::optional<WorkUnit>
LeaseTable::tryClaim()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return claimLocked(SteadyClock::now());
}

void
LeaseTable::release(int64_t unitId)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Slot *slot = slotOf(unitId);
        if (slot && slot->state == State::Leased) {
            slot->state = State::Pending;
            firstPending_ =
                std::min(firstPending_, static_cast<size_t>(unitId));
        }
    }
    cv_.notify_all();
}

bool
LeaseTable::complete(int64_t unitId)
{
    bool first = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (Slot *slot = slotOf(unitId)) {
            if (slot->state == State::Done) {
                ++duplicates_;
            } else {
                slot->state = State::Done;
                ++done_;
                first = true;
            }
        }
    }
    cv_.notify_all();
    return first;
}

bool
LeaseTable::allDone() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return done_ == static_cast<int64_t>(slots_.size());
}

std::vector<WorkUnit>
LeaseTable::incompleteUnits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<WorkUnit> out;
    for (const Slot &slot : slots_) {
        if (slot.state != State::Done)
            out.push_back(slot.unit);
    }
    return out;
}

int64_t
LeaseTable::leasesExpired() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return leasesExpired_;
}

int64_t
LeaseTable::duplicateCompletions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return duplicates_;
}

} // namespace nnbaton
