/**
 * @file
 * The sweep's lease table: which work units are pending, leased, or
 * done.  Every lane of a sweep (dse/driver.hpp) claims from one.
 *
 * Work stealing falls out of the lease discipline.  claim() hands out
 * pending units first; when none remain it re-issues the unit whose
 * lease expired longest ago — covering both crashed workers (their
 * lease times out and another lane finishes the unit) and
 * stragglers (a stalled worker's unit is re-evaluated elsewhere; the
 * first completion wins).  complete() is idempotent: exactly one
 * caller gets `true` per unit and owns writing the merged outcome,
 * so a late duplicate from a slow lane can never race the winner's
 * writes — it is counted and dropped.
 *
 * All waiting happens on the internal condition variable with short
 * timeouts, re-checking cancellation and lease expiry, so a sweep
 * with every worker wedged still makes progress (claim returns the
 * expired unit to whoever asks next).
 */

#ifndef NNBATON_DSE_LEASE_HPP
#define NNBATON_DSE_LEASE_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "common/cancel.hpp"
#include "dse/slice.hpp"

namespace nnbaton {

class LeaseTable
{
  public:
    /** @p units are numbered by position (units[i].id == i), so an id
     *  names its slot.  @p leaseSeconds is how long a claimed unit
     *  stays exclusively leased before it becomes claimable again. */
    LeaseTable(std::vector<WorkUnit> units, double leaseSeconds);

    /**
     * Claim the next unit to evaluate: a pending unit if any, else
     * the longest-expired lease (re-issue; bumps leasesExpired).
     * Blocks while every incomplete unit holds a live lease, waking
     * when one completes, a lease expires, or @p cancel fires.
     * Returns nullopt when every unit is complete or the wait was
     * cancelled.
     */
    std::optional<WorkUnit> claim(const CancelToken *cancel);

    /**
     * claim() without the wait: a pending unit, else the
     * longest-expired lease, else nullopt at once.  Never takes a
     * live lease.  A lane that still holds a unit claims its next one
     * this way: waiting would, at the sweep's tail, block it on its
     * own live lease until the TTL expired.
     */
    std::optional<WorkUnit> tryClaim();

    /**
     * Return a claimed unit to the pending pool immediately (the
     * claimer hit a failure and is not going to finish it); other
     * lanes can pick it up without waiting out the lease.
     */
    void release(int64_t unitId);

    /**
     * Record @p unitId finished.  True for the first completion —
     * the caller owns merging the unit's outcomes; false for
     * duplicates (counted, dropped).
     */
    bool complete(int64_t unitId);

    /** Units in the table. */
    int64_t size() const { return static_cast<int64_t>(slots_.size()); }

    /** True once every unit has completed. */
    bool allDone() const;

    /** Units never completed (cancelled sweep); sweep-order. */
    std::vector<WorkUnit> incompleteUnits() const;

    int64_t leasesExpired() const;
    int64_t duplicateCompletions() const;

  private:
    /** The pending-then-expired pick shared by both claims; leases
     *  it until @p now + TTL.  Caller holds mutex_. */
    std::optional<WorkUnit>
    claimLocked(std::chrono::steady_clock::time_point now);

    enum class State
    {
        Pending,
        Leased,
        Done,
    };
    struct Slot
    {
        WorkUnit unit;
        State state = State::Pending;
        std::chrono::steady_clock::time_point leaseDeadline{};
    };

    /** The slot of @p unitId, or null for an id not in the table.
     *  Caller holds mutex_. */
    Slot *slotOf(int64_t unitId);

    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    std::vector<Slot> slots_; //!< slots_[id] holds unit id
    /** No slot before this one is Pending, so a claim never rescans
     *  the claimed prefix; release() moves it back. */
    size_t firstPending_ = 0;
    const std::chrono::steady_clock::duration leaseTtl_;
    int64_t done_ = 0;
    int64_t leasesExpired_ = 0;
    int64_t duplicates_ = 0;
};

} // namespace nnbaton

#endif // NNBATON_DSE_LEASE_HPP
