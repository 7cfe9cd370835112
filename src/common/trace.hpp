/**
 * @file
 * Scoped trace spans for the DSE/mapping pipeline.
 *
 * Usage: drop NNBATON_TRACE_SCOPE("dse.map_model") at the top of a
 * scope.  Every span's wall-clock extent is timed into the calling
 * thread's buffer: into its latency ledger, which the metrics registry
 * reports as one "<span>_ns" histogram per span name and which never
 * drops a span; into its flight ring (below); and, when tracing is
 * enabled (obs::setTracingEnabled), into its Chrome trace buffer,
 * exported as trace-event JSON (open in Perfetto or chrome://tracing).
 * The trace buffer keeps each thread's newest 2^20 spans: past that
 * cap it overwrites its oldest 4,096-span chunk.
 *
 * Recording is observation-only and lock-free on the hot path: only
 * the owning thread writes its buffer, publishing each trace event
 * with a release store of the count, so writers never block each
 * other and the exporter (which reads under the chunk mutex, taken by
 * the writer once per chunk, with an acquire load of the count) sees
 * only fully written events.  The buffers are owned by a process-wide
 * registry and outlive their threads, so pools may come and go
 * between reads.
 *
 * Span names must be string literals (or otherwise outlive the
 * process): buffers store the pointer, not a copy.
 */

#ifndef NNBATON_COMMON_TRACE_HPP
#define NNBATON_COMMON_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace nnbaton {

namespace obs {

struct HistogramSnapshot; // common/metrics.hpp

/** One completed span, times in nanoseconds since the trace origin. */
struct TraceEvent
{
    const char *name = nullptr; //!< static string, "subsystem.phase"
    uint32_t tid = 0;           //!< small per-thread id (not the OS tid)
    uint64_t startNs = 0;
    uint64_t durNs = 0;
    uint64_t rid = 0; //!< request id the span ran under (0 = none)
};

/** Turn span collection on or off (off by default). */
void setTracingEnabled(bool enabled);

/** True when spans are currently being collected. */
bool tracingEnabled();

/** Nanoseconds since the process trace origin (steady clock). */
uint64_t traceNowNs();

/** Record a completed span in the calling thread's buffer.  Panics,
 *  naming the span, when the ledger has no slot left for the name. */
void recordSpan(const char *name, uint64_t startNs, uint64_t endNs);

/** One histogram of span durations (ns) per span name, named
 *  "<span>_ns", merged over every thread that ever recorded it. */
std::vector<HistogramSnapshot> spanHistograms();

/** Zero every span histogram; not safe while spans are recorded. */
void resetSpanHistograms();

/**
 * Call @p fn on every trace event each thread still holds, thread by
 * thread, oldest first.  Each thread's buffer is walked under its
 * chunk mutex, so @p fn must not record spans.  Safe while other
 * threads are still tracing: a thread's events published before its
 * walk starts are included, later ones are not; a thread that needs a
 * new chunk meanwhile waits for its walk to end.
 */
void forEachTraceEvent(const std::function<void(const TraceEvent &)> &fn);

/** Trace events overwritten because a thread buffer hit its cap. */
int64_t droppedTraceEvents();

/**
 * Stream the collected spans as a Chrome trace-event JSON object
 * ({"traceEvents":[...],"droppedEvents":n}) through
 * forEachTraceEvent(), with no copy of the trace.  The "cat" of each
 * event is the span-name prefix before the first '.'; "ts" and "dur"
 * are exact microseconds.
 */
void writeChromeTrace(std::ostream &os);

// ---------------------------------------------------------------------
// Request-scoped context: a per-thread request id threaded through
// spans, flight-recorder events and log lines so everything one
// request touched can be correlated postmortem.

/** Allocate a fresh nonzero request id (process-wide counter). */
uint64_t nextRequestId();

/** Set the calling thread's current request id (0 clears it). */
void setCurrentRequestId(uint64_t rid);

/** The calling thread's current request id (0 when outside one). */
uint64_t currentRequestId();

/** The calling thread's small trace id (allocates it on first use). */
uint32_t currentThreadTag();

/** RAII: set the thread's request id for a scope, restore the old. */
class RequestIdScope
{
  public:
    explicit RequestIdScope(uint64_t rid) : prev_(currentRequestId())
    {
        setCurrentRequestId(rid);
    }

    ~RequestIdScope() { setCurrentRequestId(prev_); }

    RequestIdScope(const RequestIdScope &) = delete;
    RequestIdScope &operator=(const RequestIdScope &) = delete;

  private:
    const uint64_t prev_;
};

// ---------------------------------------------------------------------
// Flight recorder: an always-on, fixed-size per-thread ring of the
// most recent spans and marks (riding the same thread buffers as the
// tracer).  Unlike tracing it is bounded and never off, so a crash,
// deadline blowup or failed request can always dump the last few
// hundred events per thread as a postmortem.

/** Per-thread flight ring capacity in events (a power of two). */
size_t flightRingCapacity();

/** Record an instant event (durNs 0) into the calling thread's ring. */
void flightMark(const char *name);

/**
 * The flight recorder as a JSON value: {"capacity":N,"threads":[
 * {"tid":t,"events":[{"name":...,"rid":...,"startNs":...,"durNs":...}
 * ]}],"truncated":b}, oldest event first.  "truncated" means some ring
 * wrapped, so older events of that thread are gone.
 */
std::string flightRecorderJson();

/**
 * Async-signal-safe flight dump: {"flightRecorder":<the value
 * above>} and a newline, hand-formatted straight to @p fd from a
 * lock-free buffer list (no locks, no allocation, write(2) only).
 * flightRecorderJson() runs the same formatter into a string.  Events
 * may be torn mid-overwrite under concurrent writers: fields are
 * individually consistent (each slot field is an atomic) but a slot
 * can mix two events; acceptable for a best-effort postmortem.
 */
void writeFlightRecorderToFd(int fd);

/**
 * Install a fatal-signal handler (SIGSEGV/SIGBUS/SIGFPE/SIGILL/
 * SIGABRT) that dumps the flight recorder to @p path (stderr when
 * null/empty), then re-raises with the default disposition so the
 * process still dies with the original signal.  Idempotent; the path
 * is copied into static storage.
 */
void installFlightSignalHandler(const char *path);

/** RAII span; prefer the NNBATON_TRACE_SCOPE macro. */
class TraceScope
{
  public:
    explicit TraceScope(const char *name)
        : name_(name), start_(traceNowNs())
    {
    }

    ~TraceScope() { recordSpan(name_, start_, traceNowNs()); }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    const char *name_;
    const uint64_t start_;
};

} // namespace obs
} // namespace nnbaton

#define NNBATON_TRACE_CAT2(a, b) a##b
#define NNBATON_TRACE_CAT(a, b) NNBATON_TRACE_CAT2(a, b)

/** Trace the enclosing scope as a span named @p name (a literal). */
#define NNBATON_TRACE_SCOPE(name)                                       \
    ::nnbaton::obs::TraceScope NNBATON_TRACE_CAT(nnbatonTraceScope_,    \
                                                 __LINE__)(name)

#endif // NNBATON_COMMON_TRACE_HPP
