#include "common/cancel.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>

namespace nnbaton {

namespace {

int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

extern "C" void
cancelSignalHandler(int)
{
    // One relaxed atomic store: async-signal-safe.  Restoring the
    // default disposition means a second signal kills the process
    // even if the run never polls the token.
    globalCancelToken().requestCancel();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
}

} // namespace

std::chrono::steady_clock::duration
steadyDuration(double seconds)
{
    constexpr double kNeverSeconds = 1e9;
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(
            !(seconds < kNeverSeconds) ? kNeverSeconds
                                       : std::max(seconds, 0.0)));
}

void
CancelToken::setDeadlineAfter(double seconds)
{
    const std::chrono::nanoseconds span = steadyDuration(seconds);
    deadlineNs_.store(steadyNowNs() + span.count(),
                      std::memory_order_relaxed);
}

void
CancelToken::reset()
{
    cancelled_.store(false, std::memory_order_relaxed);
    deadlineNs_.store(0, std::memory_order_relaxed);
    parent_.store(nullptr, std::memory_order_relaxed);
}

bool
CancelToken::cancelled() const
{
    if (cancelled_.load(std::memory_order_relaxed))
        return true;
    int64_t deadline = deadlineNs_.load(std::memory_order_relaxed);
    if (deadline != 0 && steadyNowNs() >= deadline)
        return true;
    const CancelToken *parent =
        parent_.load(std::memory_order_relaxed);
    return parent && parent->cancelled();
}

Status
CancelToken::toStatus() const
{
    if (cancelled_.load(std::memory_order_relaxed))
        return errCancelled("cancellation requested");
    int64_t deadline = deadlineNs_.load(std::memory_order_relaxed);
    if (deadline != 0 && steadyNowNs() >= deadline)
        return errDeadlineExceeded("wall-clock deadline expired");
    const CancelToken *parent =
        parent_.load(std::memory_order_relaxed);
    if (parent)
        return parent->toStatus();
    return Status::okStatus();
}

CancelToken &
globalCancelToken()
{
    static CancelToken token;
    return token;
}

void
installCancelSignalHandlers()
{
    std::signal(SIGINT, cancelSignalHandler);
    std::signal(SIGTERM, cancelSignalHandler);
}

} // namespace nnbaton
