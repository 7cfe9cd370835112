/**
 * @file
 * gem5-style status reporting helpers.
 *
 * inform()/warn()/debugLog() print status without stopping the
 * program; panic() reports an internal invariant violation and throws
 * a StatusError (StatusCode::Internal).  User errors are reported via
 * the Status types in common/status.hpp — the library never calls
 * exit()/abort(); only the CLI drivers under tools/ turn errors into
 * exit codes.
 *
 * All reporting functions are thread-safe: each message is formatted
 * into a single buffer and written with one stdio call, so output
 * from parallel sweep workers never interleaves mid-line.  Every line
 * is prefixed with a UTC wall-clock timestamp, the writer's trace
 * thread tag and — inside a serve request — the request id
 * ("2026-08-08T17:00:00.123Z [t3 r42] info: ...").  Verbosity is
 * controlled by an atomic log level (setLogLevel / --log-level).
 */

#ifndef NNBATON_COMMON_LOGGING_HPP
#define NNBATON_COMMON_LOGGING_HPP

#include <cstdarg>
#include <string>

namespace nnbaton {

/** Message severities, in increasing order of importance. */
enum class LogLevel
{
    Debug = 0, //!< debugLog(): extra detail for developers
    Info = 1,  //!< inform(): normal progress (the default level)
    Warn = 2,  //!< warn(): suspicious but recoverable
    Quiet = 3, //!< only panic() (which always prints)
};

/** Set the minimum severity that gets printed (atomic, thread-safe). */
void setLogLevel(LogLevel level);

/** The current minimum printed severity. */
LogLevel logLevel();

/**
 * Parse "debug" / "info" / "warn" / "quiet" into a level.  Returns
 * false (leaving @p out untouched) for anything else.
 */
bool parseLogLevel(const std::string &name, LogLevel &out);

/** Print a debug message to stderr (prefixed "debug:"). */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr (prefixed "info:"). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning message to stderr (prefixed "warn:"). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation: print the message and throw
 * a StatusError with StatusCode::Internal.  Use for conditions that
 * should never happen regardless of input.  Callers that cannot
 * tolerate unwinding (the sweep engine's workers) quarantine the
 * exception; the CLI turns it into a nonzero exit.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** va_list variant of strprintf (shared by the Status builders). */
std::string vstrprintf(const char *fmt, va_list ap);

/**
 * The current wall-clock time as "2026-08-08T17:00:00.123Z" (UTC,
 * millisecond precision).  Used by the log-line prefix and the serve
 * access log.
 */
std::string wallClockIso8601();

} // namespace nnbaton

#endif // NNBATON_COMMON_LOGGING_HPP
