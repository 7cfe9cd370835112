/**
 * @file
 * The coordinator's view of one remote worker: a `nn-baton serve`
 * daemon reachable over TCP (or a Unix socket for same-host tests).
 *
 * A lane keeps kUnitsInFlight units outstanding on its worker's one
 * connection: the daemon answers a connection's lines in order, so
 * the worker evaluates the next unit while the lane decodes the last
 * reply.  receive() owns the failure policy for the endpoint:
 *
 *  - any failure (connect refused, dropped connection, I/O timeout,
 *    corrupted frame, a retryable {"ok":false} envelope such as
 *    admission-control overload) closes the connection, since it is
 *    out of step with the outstanding requests;
 *  - a retryable failure counts one failed attempt toward a
 *    consecutive-failure budget, however many units were
 *    outstanding; after exponential backoff with jitter, every
 *    outstanding request is re-sent, in order, on a fresh connection;
 *  - exhausting the budget quarantines the worker — the fabric stops
 *    handing it units and releases its outstanding ones for work
 *    stealing;
 *  - non-retryable failures (fingerprint mismatch, invalid request)
 *    quarantine immediately: a worker that disagrees about the design
 *    space cannot be allowed to poison the merged result;
 *  - any success resets the failure budget and the backoff schedule.
 *
 * The backoff stream is seeded from the endpoint string, so retry
 * jitter is deterministic per worker and reproducible in tests.
 */

#ifndef NNBATON_FABRIC_WORKER_HPP
#define NNBATON_FABRIC_WORKER_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/backoff.hpp"
#include "common/cancel.hpp"
#include "common/net.hpp"
#include "fabric/wire.hpp"

namespace nnbaton {
namespace fabric {

/** Units a lane keeps outstanding on its worker's connection: one
 *  being evaluated, one queued behind it. */
constexpr size_t kUnitsInFlight = 2;

/** Per-worker failure/retry policy. */
struct WorkerPolicy
{
    /** Wall-clock budget for establishing a connection. */
    double connectTimeoutSeconds = 5.0;

    /** Per-line I/O budget; also bounds how long a stalled worker
     *  can hold this lane before the attempt fails. */
    double ioTimeoutSeconds = 30.0;

    /** Consecutive failed attempts before quarantine. */
    int maxFailures = 3;

    /** Backoff between retryable failures. */
    BackoffPolicy backoff;
};

class WorkerClient
{
  public:
    WorkerClient(std::string endpoint, WorkerPolicy policy);

    bool quarantined() const { return quarantined_; }
    int64_t retries() const { return retries_; }

    /** Units submitted and not yet answered. */
    size_t outstanding() const { return window_.size(); }

    /** The unit the next receive() answers; outstanding() > 0. */
    const WorkUnit &oldest() const { return window_.front().unit; }

    /** Queue @p unit with its encoded @p requestLine; it goes out on
     *  the next receive(). */
    void submit(const WorkUnit &unit, std::string requestLine);

    /**
     * Send every outstanding request this connection has not carried
     * yet, then receive and validate the reply to oldest(), applying
     * the retry/backoff policy above.  On success that unit is no
     * longer outstanding.  On a non-OK return the worker is
     * quarantined, or @p cancel fired (it also aborts waits between
     * retries); the outstanding units are then the caller's to
     * release (takeOutstanding()).
     */
    StatusOr<SweepUnitResult> receive(const std::string &sweepFp,
                                      const std::string &techFp,
                                      const CancelToken *cancel);

    /** Forget every outstanding unit and return them, oldest first. */
    std::vector<WorkUnit> takeOutstanding();

  private:
    struct Request
    {
        WorkUnit unit;
        std::string line;
    };

    /** Connect if needed and send the unsent outstanding requests. */
    Status flush();

    const std::string endpoint_;
    const WorkerPolicy policy_;
    LineChannel channel_;
    Backoff backoff_;
    std::deque<Request> window_; //!< outstanding, oldest first
    size_t sent_ = 0; //!< leading window_ requests channel_ carried
    int consecutiveFailures_ = 0;
    int64_t retries_ = 0;
    bool quarantined_ = false;
};

} // namespace fabric
} // namespace nnbaton

#endif // NNBATON_FABRIC_WORKER_HPP
