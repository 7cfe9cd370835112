#include "common/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <vector>

#include "common/status.hpp"
#include "common/trace.hpp"

namespace nnbaton {

namespace {

std::atomic<int> currentLevel{static_cast<int>(LogLevel::Info)};

/**
 * "<timestamp> [t<thread> r<request>] " — the wall clock, the small
 * trace thread tag and (when inside a request) the request id, so log
 * lines from parallel workers and daemon lanes can be correlated with
 * spans, flight-recorder events and access-log records.
 */
std::string
linePrefix()
{
    const uint64_t rid = obs::currentRequestId();
    if (rid) {
        return strprintf("%s [t%u r%llu] ", wallClockIso8601().c_str(),
                         obs::currentThreadTag(),
                         static_cast<unsigned long long>(rid));
    }
    return strprintf("%s [t%u] ", wallClockIso8601().c_str(),
                     obs::currentThreadTag());
}

/**
 * Format prefix + message + newline into one buffer and emit it with
 * a single fwrite, so concurrent reporters never interleave mid-line
 * (stdio locks the stream per call).
 */
void
vreport(const char *prefix, const char *fmt, va_list ap)
{
    std::string line = linePrefix() + prefix + vstrprintf(fmt, ap) +
                       "\n";
    std::fwrite(line.data(), 1, line.size(), stderr);
}

bool
levelEnabled(LogLevel level)
{
    return static_cast<int>(level) >=
           currentLevel.load(std::memory_order_relaxed);
}

} // namespace

void
setLogLevel(LogLevel level)
{
    currentLevel.store(static_cast<int>(level),
                       std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        currentLevel.load(std::memory_order_relaxed));
}

bool
parseLogLevel(const std::string &name, LogLevel &out)
{
    if (name == "debug")
        out = LogLevel::Debug;
    else if (name == "info")
        out = LogLevel::Info;
    else if (name == "warn")
        out = LogLevel::Warn;
    else if (name == "quiet")
        out = LogLevel::Quiet;
    else
        return false;
    return true;
}

void
debugLog(const char *fmt, ...)
{
    if (!levelEnabled(LogLevel::Debug))
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("debug: ", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (!levelEnabled(LogLevel::Info))
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("info: ", fmt, ap);
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    if (!levelEnabled(LogLevel::Warn))
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("warn: ", fmt, ap);
    va_end(ap);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string message = vstrprintf(fmt, ap);
    va_end(ap);
    const std::string line =
        linePrefix() + "panic: " + message + "\n";
    std::fwrite(line.data(), 1, line.size(), stderr);
    throwStatus(Status(StatusCode::Internal, std::move(message)));
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrprintf(fmt, ap);
    va_end(ap);
    return s;
}

std::string
wallClockIso8601()
{
    using namespace std::chrono;
    const system_clock::time_point now = system_clock::now();
    const std::time_t secs = system_clock::to_time_t(now);
    const int millis = static_cast<int>(
        duration_cast<milliseconds>(now.time_since_epoch()).count() %
        1000);
    std::tm tmv{};
    gmtime_r(&secs, &tmv);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &tmv);
    return strprintf("%s.%03dZ", buf, millis);
}

std::string
vstrprintf(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

} // namespace nnbaton

