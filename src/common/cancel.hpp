/**
 * @file
 * Cooperative cancellation for long-running sweeps and searches.
 *
 * A CancelToken combines an explicit cancel flag (set by a SIGINT /
 * SIGTERM handler or programmatically) with an optional wall-clock
 * deadline.  Inner loops poll cancelled() — a relaxed atomic load
 * plus, when a deadline is armed, one steady_clock read — and unwind
 * with StatusCode::Cancelled / DeadlineExceeded.  The sweep engine
 * treats an unwound design point as "skipped", finishes the points
 * already in flight, flushes checkpoints/traces and returns a partial
 * result marked complete=false, so a Ctrl-C never discards completed
 * work.
 *
 * Tokens are passive: nothing is ever blocked on one, so a token may
 * be shared by any number of threads and polled at any granularity.
 */

#ifndef NNBATON_COMMON_CANCEL_HPP
#define NNBATON_COMMON_CANCEL_HPP

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.hpp"

namespace nnbaton {

/**
 * @p seconds as a steady_clock duration, for a deadline or a lease
 * TTL: a negative span is zero, and 1e9 s (about 32 years) or more,
 * NaN included, saturates there and so means "never" instead of
 * overflowing into a time already past.
 */
std::chrono::steady_clock::duration steadyDuration(double seconds);

class CancelToken
{
  public:
    /** Request cancellation (async-signal-safe: one atomic store). */
    void requestCancel() { cancelled_.store(true, std::memory_order_relaxed); }

    /** Arm a wall-clock deadline @p seconds from now (<= 0 fires
     *  immediately); overwrites any earlier deadline. */
    void setDeadlineAfter(double seconds);

    /** Drop the flag and the deadline (tests reuse tokens). */
    void reset();

    /**
     * Chain this token under @p parent (borrowed; may be null to
     * unlink): cancelled() then also reports true once the parent
     * fires.  The serving daemon links every per-request deadline
     * token under its shutdown token so SIGTERM interrupts in-flight
     * evaluations too.  The parent must outlive this token.
     */
    void linkParent(const CancelToken *parent)
    {
        parent_.store(parent, std::memory_order_relaxed);
    }

    /** True once cancelled or past the deadline. */
    bool cancelled() const;

    /**
     * OK while running; errCancelled / errDeadlineExceeded once
     * cancelled().  The sweep engine converts the non-OK codes into
     * skipped (not poisoned) design points.
     */
    Status toStatus() const;

  private:
    std::atomic<bool> cancelled_{false};
    std::atomic<int64_t> deadlineNs_{0}; //!< steady_clock ns; 0 = none
    std::atomic<const CancelToken *> parent_{nullptr}; //!< borrowed
};

/**
 * The process-wide token the CLI wires into flows so one SIGINT stops
 * every running sweep.  Library code never consults it implicitly —
 * it only honours tokens passed in through options.
 */
CancelToken &globalCancelToken();

/**
 * Route SIGINT and SIGTERM to globalCancelToken().requestCancel().
 * Called by the CLI drivers; safe to call more than once.  A second
 * SIGINT after cancellation is requested falls back to the default
 * disposition, so a wedged run can still be killed.
 */
void installCancelSignalHandlers();

} // namespace nnbaton

#endif // NNBATON_COMMON_CANCEL_HPP
