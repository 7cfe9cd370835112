/**
 * @file
 * Exponential backoff with deterministic jitter and bounded retries.
 *
 * Every network caller in the tree (the fabric coordinator retrying a
 * worker, `nn-baton request` retrying a daemon) shares this one
 * policy object so retry behaviour is uniform and testable.  The
 * jitter is derived from a seeded xorshift stream rather than a
 * wall-clock RNG: two runs with the same seed produce the same delay
 * sequence, which keeps the chaos tests reproducible while still
 * de-synchronising real fleets (every worker seeds with its own
 * endpoint hash).
 */

#ifndef NNBATON_COMMON_BACKOFF_HPP
#define NNBATON_COMMON_BACKOFF_HPP

#include <cstdint>

namespace nnbaton {

/** Retry policy knobs (milliseconds). */
struct BackoffPolicy
{
    int64_t initialDelayMs = 50;  //!< first retry delay
    int64_t maxDelayMs = 5000;    //!< exponential growth cap
    double multiplier = 2.0;      //!< per-attempt growth factor
    double jitter = 0.25;         //!< +/- fraction of the base delay
    int maxRetries = 5;           //!< attempts before giving up
};

/**
 * One retry sequence.  Usage:
 *
 * @code
 *   Backoff backoff(policy, seed);
 *   while (!backoff.exhausted()) {
 *       if (tryOnce().ok()) break;
 *       if (!sleepWithCancel(backoff.nextDelayMs(), cancel)) break;
 *   }
 * @endcode
 */
class Backoff
{
  public:
    explicit Backoff(const BackoffPolicy &policy, uint64_t seed = 1);

    /** True once maxRetries delays have been handed out. */
    bool exhausted() const { return attempts_ >= policy_.maxRetries; }

    /** Retries consumed so far. */
    int attempts() const { return attempts_; }

    /**
     * The next delay in milliseconds: base * multiplier^attempt,
     * capped at maxDelayMs, with +/- jitter applied from the seeded
     * stream.  Advances the attempt counter.
     */
    int64_t nextDelayMs();

    /** Restart the sequence (a success resets the failure streak). */
    void reset() { attempts_ = 0; }

  private:
    uint64_t nextRandom();

    BackoffPolicy policy_;
    uint64_t state_;
    int attempts_ = 0;
};

/** Interruptible sleep: returns early (false) once @p cancel is
 *  cancelled, polling every few milliseconds.  A null token sleeps
 *  the full delay. */
class CancelToken;
bool sleepWithCancel(int64_t delayMs, const CancelToken *cancel);

} // namespace nnbaton

#endif // NNBATON_COMMON_BACKOFF_HPP
