#include "common/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include <fcntl.h>
#include <unistd.h>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"

namespace nnbaton {
namespace obs {

namespace {

std::atomic<bool> tracingOn{false};
std::atomic<int64_t> droppedEvents{0};

std::atomic<uint64_t> ridCounter{0};
thread_local uint64_t currentRid = 0;

/**
 * One flight-ring slot.  Every field is its own relaxed atomic so the
 * ring stays data-race-free under TSan while the writer overwrites
 * wrapped slots: a concurrent reader may see a slot mixing two events
 * (documented in the header), but never a torn field — names are
 * pointers to string literals, so the pointer load is always valid.
 */
struct FlightSlot
{
    std::atomic<const char *> name{nullptr};
    std::atomic<uint64_t> startNs{0};
    std::atomic<uint64_t> durNs{0};
    std::atomic<uint64_t> rid{0};
};

/** One span name's latency histogram (ns) in one thread's ledger. */
struct SpanSlot
{
    std::atomic<const char *> name{nullptr}; //!< null while free
    Histogram latency; //!< written by the owning thread only
};

/**
 * A chunked event buffer owned by one writer thread, keeping its
 * newest kMaxChunks chunks.
 *
 * The writer appends into the current chunk (no synchronisation) and
 * then publishes the new total with a release store of `count`;
 * readers take `chunksMutex` (so the chunk list is stable), load
 * `count` with acquire, and read the events from `firstEvent` up to
 * it.  The writer takes the mutex only to start a chunk, once per
 * kChunkEvents spans: a fresh one below the cap, else the oldest,
 * whose spans it counts as dropped.  No reader is then inside that
 * chunk, and none reads past `count` in it.
 */
struct ThreadBuffer
{
    static constexpr size_t kChunkEvents = 4096;
    /** Per-thread cap of 2^20 events; past it the oldest chunk is
     *  recycled. */
    static constexpr size_t kMaxChunks = 256;
    /** Flight-ring capacity (power of two; newest events win). */
    static constexpr size_t kFlightEvents = 512;
    /** Ledger slots: room for every distinct span name one thread
     *  records (15 in the program, a few more in its tests). */
    static constexpr size_t kSpanSlots = 64;

    const uint32_t tid;

    std::atomic<uint64_t> count{0}; //!< events ever appended

    std::mutex chunksMutex; //!< guards `chunks` and `firstEvent` (not
                            //!< the events, published by `count`)
    std::vector<std::unique_ptr<TraceEvent[]>> chunks; //!< oldest first
    uint64_t firstEvent = 0; //!< index of chunks[0][0] among all events

    // Writer-thread-only state.
    TraceEvent *current = nullptr;
    size_t currentUsed = kChunkEvents;

    // The flight ring: always-on, fixed-size, oldest slots
    // overwritten.  Readable from a signal handler (atomic fields, no
    // locks) and from the JSON exporter.
    std::array<FlightSlot, kFlightEvents> flight;
    std::atomic<uint64_t> flightCount{0};

    // The latency ledger: slots keyed by the name literal's address,
    // claimed in first-use order and never freed.
    std::array<SpanSlot, kSpanSlots> spans;

    /** Intrusive lock-free list link for the signal-safe walker;
     *  buffers are registry-owned and never freed, so raw pointers
     *  stay valid for the life of the process. */
    ThreadBuffer *flightNextBuffer = nullptr;

    explicit ThreadBuffer(uint32_t id) : tid(id) {}

    void
    append(const char *name, uint64_t startNs, uint64_t durNs,
           uint64_t rid)
    {
        const uint64_t n = count.load(std::memory_order_relaxed);
        if (currentUsed == kChunkEvents) {
            // Only this thread resizes `chunks`, so it reads the size
            // unlocked and allocates outside the lock.
            std::unique_ptr<TraceEvent[]> fresh;
            if (chunks.size() < kMaxChunks)
                fresh = std::make_unique<TraceEvent[]>(kChunkEvents);
            std::lock_guard<std::mutex> lock(chunksMutex);
            if (fresh) {
                chunks.push_back(std::move(fresh));
            } else {
                std::rotate(chunks.begin(), chunks.begin() + 1,
                            chunks.end());
                firstEvent += kChunkEvents;
                droppedEvents.fetch_add(kChunkEvents,
                                        std::memory_order_relaxed);
            }
            current = chunks.back().get();
            currentUsed = 0;
        }
        TraceEvent &e = current[currentUsed++];
        e.name = name;
        e.tid = tid;
        e.startNs = startNs;
        e.durNs = durNs;
        e.rid = rid;
        count.store(n + 1, std::memory_order_release);
    }

    void
    tally(const char *name, uint64_t durNs)
    {
        for (SpanSlot &s : spans) {
            const char *owner = s.name.load(std::memory_order_relaxed);
            if (!owner)
                s.name.store(name, std::memory_order_release); // claim
            else if (owner != name)
                continue;
            s.latency.record(static_cast<int64_t>(durNs));
            return;
        }
        panic("span ledger full: thread %u has no slot for span '%s' "
              "(%zu names already)",
              tid, name, kSpanSlots);
    }

    void
    appendFlight(const char *name, uint64_t startNs, uint64_t durNs,
                 uint64_t rid)
    {
        const uint64_t n = flightCount.load(std::memory_order_relaxed);
        FlightSlot &s = flight[n % kFlightEvents];
        s.name.store(name, std::memory_order_relaxed);
        s.startNs.store(startNs, std::memory_order_relaxed);
        s.durNs.store(durNs, std::memory_order_relaxed);
        s.rid.store(rid, std::memory_order_relaxed);
        // Release-publish so a (non-signal) reader that acquires the
        // count sees every field of the slots before it.
        flightCount.store(n + 1, std::memory_order_release);
    }
};

/** Head of the lock-free buffer list the signal handler walks. */
std::atomic<ThreadBuffer *> flightListHead{nullptr};

/** All thread buffers ever created; buffers outlive their threads. */
struct TraceRegistry
{
    std::mutex m;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    uint32_t nextTid = 1;

    static TraceRegistry &
    instance()
    {
        static TraceRegistry r;
        return r;
    }

    std::shared_ptr<ThreadBuffer>
    createBuffer()
    {
        std::lock_guard<std::mutex> lock(m);
        auto buf = std::make_shared<ThreadBuffer>(nextTid++);
        buffers.push_back(buf);
        // Publish onto the signal handler's lock-free list (push-only;
        // entries live as long as the registry).
        ThreadBuffer *raw = buf.get();
        raw->flightNextBuffer =
            flightListHead.load(std::memory_order_relaxed);
        while (!flightListHead.compare_exchange_weak(
            raw->flightNextBuffer, raw, std::memory_order_release,
            std::memory_order_relaxed)) {
        }
        return buf;
    }

    std::vector<std::shared_ptr<ThreadBuffer>>
    snapshotBuffers()
    {
        std::lock_guard<std::mutex> lock(m);
        return buffers;
    }
};

ThreadBuffer &
threadBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buf =
        TraceRegistry::instance().createBuffer();
    return *buf;
}

/** The span-name prefix before the first '.', as the Chrome "cat". */
std::string
categoryOf(const char *name)
{
    const std::string s(name);
    const size_t dot = s.find('.');
    return dot == std::string::npos ? s : s.substr(0, dot);
}

} // namespace

void
setTracingEnabled(bool enabled)
{
    tracingOn.store(enabled, std::memory_order_relaxed);
}

bool
tracingEnabled()
{
    return tracingOn.load(std::memory_order_relaxed);
}

uint64_t
traceNowNs()
{
    static const std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin)
            .count());
}

void
recordSpan(const char *name, uint64_t startNs, uint64_t endNs)
{
    const uint64_t durNs = endNs >= startNs ? endNs - startNs : 0;
    const uint64_t rid = currentRid;
    ThreadBuffer &buf = threadBuffer();
    buf.tally(name, durNs);
    if (tracingEnabled())
        buf.append(name, startNs, durNs, rid);
    buf.appendFlight(name, startNs, durNs, rid);
}

void
forEachTraceEvent(const std::function<void(const TraceEvent &)> &fn)
{
    constexpr size_t kChunk = ThreadBuffer::kChunkEvents;
    for (const auto &buf : TraceRegistry::instance().snapshotBuffers()) {
        std::lock_guard<std::mutex> lock(buf->chunksMutex);
        const uint64_t n =
            buf->count.load(std::memory_order_acquire) - buf->firstEvent;
        for (uint64_t i = 0; i < n; ++i)
            fn(buf->chunks[i / kChunk][i % kChunk]);
    }
}

std::vector<HistogramSnapshot>
spanHistograms()
{
    // Slots are keyed by address; two sites (or translation units)
    // may hold the same name at different addresses, so merge by text.
    std::map<std::string, HistogramSnapshot> byName;
    for (const auto &buf : TraceRegistry::instance().snapshotBuffers()) {
        for (const SpanSlot &s : buf->spans) {
            const char *name = s.name.load(std::memory_order_acquire);
            if (!name)
                break;
            byName[name].merge(s.latency);
        }
    }
    std::vector<HistogramSnapshot> out;
    for (auto &[name, h] : byName) {
        h.name = name + "_ns";
        out.push_back(std::move(h));
    }
    return out;
}

void
resetSpanHistograms()
{
    for (const auto &buf : TraceRegistry::instance().snapshotBuffers()) {
        for (SpanSlot &s : buf->spans)
            s.latency.reset();
    }
}

int64_t
droppedTraceEvents()
{
    return droppedEvents.load(std::memory_order_relaxed);
}

uint64_t
nextRequestId()
{
    return ridCounter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void
setCurrentRequestId(uint64_t rid)
{
    currentRid = rid;
}

uint64_t
currentRequestId()
{
    return currentRid;
}

uint32_t
currentThreadTag()
{
    return threadBuffer().tid;
}

size_t
flightRingCapacity()
{
    return ThreadBuffer::kFlightEvents;
}

void
flightMark(const char *name)
{
    threadBuffer().appendFlight(name, traceNowNs(), 0, currentRid);
}

namespace {

/**
 * A tiny async-signal-safe writer: fixed stack buffer, write(2) on
 * flush, hand-rolled integer formatting.  No locks, no allocation, no
 * stdio — everything a signal handler is allowed to do.  Flushing
 * into a string instead allocates: not for the signal handler.
 */
struct FdWriter
{
    int fd = -1;
    std::string *out = nullptr;
    char buf[512];
    size_t len = 0;

    explicit FdWriter(int f) : fd(f) {}
    explicit FdWriter(std::string *s) : out(s) {}

    void
    flush()
    {
        if (out) {
            out->append(buf, len);
            len = 0;
            return;
        }
        size_t off = 0;
        while (off < len) {
            const ssize_t n = ::write(fd, buf + off, len - off);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                break; // nothing safe to do; drop the rest
            }
            off += static_cast<size_t>(n);
        }
        len = 0;
    }

    void
    put(char c)
    {
        if (len == sizeof(buf))
            flush();
        buf[len++] = c;
    }

    void
    str(const char *s)
    {
        for (; *s; ++s)
            put(*s);
    }

    /** A JSON string from a span-name literal; control characters,
     *  quotes and backslashes become '_' (names never contain them). */
    void
    jsonStr(const char *s)
    {
        put('"');
        for (; *s; ++s) {
            const unsigned char c = static_cast<unsigned char>(*s);
            put(c < 0x20 || c == '"' || c == '\\' ? '_'
                                                  : static_cast<char>(c));
        }
        put('"');
    }

    void
    u64(uint64_t v)
    {
        char digits[20];
        int n = 0;
        do {
            digits[n++] = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v);
        while (n)
            put(digits[--n]);
    }
};

/** The flight recorder's JSON value (flightRecorderJson()'s shape),
 *  walking the lock-free buffer list. */
void
writeFlightValue(FdWriter &w)
{
    w.str("{\"capacity\":");
    w.u64(ThreadBuffer::kFlightEvents);
    w.str(",\"threads\":[");
    bool firstThread = true;
    bool truncated = false;
    for (ThreadBuffer *buf =
             flightListHead.load(std::memory_order_acquire);
         buf; buf = buf->flightNextBuffer) {
        const uint64_t n =
            buf->flightCount.load(std::memory_order_acquire);
        if (!n)
            continue;
        truncated = truncated || n > ThreadBuffer::kFlightEvents;
        if (!firstThread)
            w.put(',');
        firstThread = false;
        w.str("{\"tid\":");
        w.u64(buf->tid);
        w.str(",\"events\":[");
        // Oldest retained event first; slots older than the capacity
        // have been overwritten.
        const uint64_t keep =
            std::min<uint64_t>(n, ThreadBuffer::kFlightEvents);
        bool firstEvent = true;
        for (uint64_t i = n - keep; i < n; ++i) {
            const FlightSlot &s =
                buf->flight[i % ThreadBuffer::kFlightEvents];
            const char *name = s.name.load(std::memory_order_relaxed);
            if (!name)
                continue;
            if (!firstEvent)
                w.put(',');
            firstEvent = false;
            w.str("{\"name\":");
            w.jsonStr(name);
            w.str(",\"rid\":");
            w.u64(s.rid.load(std::memory_order_relaxed));
            w.str(",\"startNs\":");
            w.u64(s.startNs.load(std::memory_order_relaxed));
            w.str(",\"durNs\":");
            w.u64(s.durNs.load(std::memory_order_relaxed));
            w.put('}');
        }
        w.str("]}");
    }
    w.str(truncated ? "],\"truncated\":true}" : "],\"truncated\":false}");
}

} // namespace

std::string
flightRecorderJson()
{
    std::string out;
    FdWriter w(&out);
    writeFlightValue(w);
    w.flush();
    return out;
}

void
writeFlightRecorderToFd(int fd)
{
    FdWriter w(fd);
    w.str("{\"flightRecorder\":");
    writeFlightValue(w);
    w.str("}\n");
    w.flush();
}

namespace {

char flightDumpPath[512] = {0};
std::atomic<bool> flightHandlerInstalled{false};

extern "C" void
flightFatalHandler(int sig)
{
    // Everything below is async-signal-safe: open/write/close and the
    // lock-free FdWriter walk.
    int fd = 2;
    if (flightDumpPath[0]) {
        const int f = ::open(flightDumpPath,
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (f >= 0)
            fd = f;
    }
    {
        FdWriter note(2);
        note.str("nn-baton: fatal signal ");
        note.u64(static_cast<uint64_t>(sig));
        note.str(", dumping flight recorder\n");
        note.flush();
    }
    writeFlightRecorderToFd(fd);
    if (fd != 2)
        ::close(fd);
    // SA_RESETHAND restored the default disposition on entry, so
    // re-raising terminates the process with the original signal.
    ::raise(sig);
}

} // namespace

void
installFlightSignalHandler(const char *path)
{
    if (path && *path) {
        std::strncpy(flightDumpPath, path,
                     sizeof(flightDumpPath) - 1);
        flightDumpPath[sizeof(flightDumpPath) - 1] = '\0';
    } else {
        flightDumpPath[0] = '\0';
    }
    if (flightHandlerInstalled.exchange(true))
        return; // path updated above; handlers already in place
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = flightFatalHandler;
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
        ::sigaction(sig, &sa, nullptr);
}

void
writeChromeTrace(std::ostream &os)
{
    JsonWriter j(os);
    j.beginObject();
    j.key("traceEvents").beginArray();

    // Process-name metadata record (Perfetto shows it as the track
    // group title).
    j.beginObject();
    j.field("ph", "M");
    j.field("pid", 0);
    j.field("tid", 0);
    j.field("name", "process_name");
    j.key("args").beginObject();
    j.field("name", "nn-baton");
    j.endObject();
    j.endObject();

    forEachTraceEvent([&j](const TraceEvent &e) {
        j.beginObject();
        j.field("ph", "X");
        j.field("pid", 0);
        j.field("tid", static_cast<int64_t>(e.tid));
        j.field("name", e.name);
        j.field("cat", categoryOf(e.name));
        // Chrome timestamps are microseconds.  The shortest exact
        // text of ns / 1e3 keeps every nanosecond digit for the first
        // 52 days of trace clock.
        j.fieldExact("ts", static_cast<double>(e.startNs) / 1e3);
        j.fieldExact("dur", static_cast<double>(e.durNs) / 1e3);
        if (e.rid) {
            j.key("args").beginObject();
            j.field("rid", static_cast<int64_t>(e.rid));
            j.endObject();
        }
        j.endObject();
    });
    j.endArray();
    j.field("droppedEvents", droppedTraceEvents());
    j.endObject();
    os << "\n";
}

} // namespace obs
} // namespace nnbaton
