#include "fabric/worker.hpp"

#include <functional>

#include "common/logging.hpp"
#include "serve/protocol.hpp"

namespace nnbaton {
namespace fabric {

namespace {

/** Failures worth retrying on the same worker.  The serve-level
 *  retryable set (overload, cancellation, deadline) plus DataLoss:
 *  a corrupted frame is a transport accident, not the worker's
 *  opinion, and a fresh connection usually clears it. */
bool
retryableFailure(const Status &status)
{
    return serve::isRetryableCode(status.code()) ||
           status.code() == StatusCode::DataLoss;
}

} // namespace

WorkerClient::WorkerClient(std::string endpoint, WorkerPolicy policy)
    : endpoint_(std::move(endpoint)), policy_(policy),
      // Seeded from the endpoint string: each worker gets its own
      // deterministic jitter stream, so retry storms desynchronise
      // across workers yet tests replay exactly.
      backoff_(policy.backoff, std::hash<std::string>{}(endpoint_))
{
}

void
WorkerClient::submit(const WorkUnit &unit, std::string requestLine)
{
    window_.push_back(Request{unit, std::move(requestLine)});
}

std::vector<WorkUnit>
WorkerClient::takeOutstanding()
{
    std::vector<WorkUnit> units;
    for (const Request &request : window_)
        units.push_back(request.unit);
    window_.clear();
    sent_ = 0;
    return units;
}

Status
WorkerClient::flush()
{
    if (!channel_.connected()) {
        sent_ = 0;
        StatusOr<LineChannel> channel = connectLineChannel(
            endpoint_, policy_.connectTimeoutSeconds);
        if (!channel.ok())
            return channel.status();
        channel_ = std::move(channel).value();
    }
    for (; sent_ < window_.size(); ++sent_) {
        Status sent = channel_.sendLine(window_[sent_].line,
                                        policy_.ioTimeoutSeconds);
        if (!sent.ok())
            return sent;
    }
    return Status::okStatus();
}

StatusOr<SweepUnitResult>
WorkerClient::receive(const std::string &sweepFp,
                      const std::string &techFp,
                      const CancelToken *cancel)
{
    for (;;) {
        if (cancel && cancel->cancelled())
            return errCancelled("fabric: sweep cancelled");

        Status failure = flush();
        if (failure.ok()) {
            StatusOr<std::string> line =
                channel_.recvLine(policy_.ioTimeoutSeconds);
            if (line.ok()) {
                StatusOr<SweepUnitResult> result = parseSweepUnitResponse(
                    line.value(), oldest(), sweepFp, techFp);
                if (result.ok()) {
                    window_.pop_front();
                    --sent_;
                    consecutiveFailures_ = 0;
                    backoff_.reset();
                    return result;
                }
                failure = result.status();
            } else {
                failure = line.status();
            }
        }
        // The connection is out of step with the outstanding requests
        // (half a reply may be in flight, a frame torn, a later reply
        // queued); drop it so a retry starts clean.
        channel_.close();

        if (!retryableFailure(failure)) {
            // The worker answered coherently but wrongly (fingerprint
            // mismatch, unknown op): it disagrees about the design
            // space and must not be asked again.
            quarantined_ = true;
            return failure.withContext(
                strprintf("worker %s quarantined", endpoint_.c_str()));
        }

        // One failed attempt, however many units were outstanding.
        ++retries_;
        ++consecutiveFailures_;
        if (consecutiveFailures_ >= policy_.maxFailures) {
            quarantined_ = true;
            return failure.withContext(strprintf(
                "worker %s quarantined after %d consecutive failures",
                endpoint_.c_str(), consecutiveFailures_));
        }
        const int64_t delayMs = backoff_.nextDelayMs();
        debugLog("fabric: worker %s unit %lld failed (%s); re-sending "
                 "%zu unit(s) in %lldms",
                 endpoint_.c_str(), static_cast<long long>(oldest().id),
                 failure.toString().c_str(), window_.size(),
                 static_cast<long long>(delayMs));
        if (!sleepWithCancel(delayMs, cancel))
            return errCancelled("fabric: sweep cancelled");
    }
}

} // namespace fabric
} // namespace nnbaton
