/**
 * @file
 * In-memory spans recorded by the benchmark around its own calls into
 * the program's modules (never inside the program).  A span's name is
 * "<module>.<call>", so the module is the layer the time is charged
 * to; a layer's self time is its spans' durations minus their child
 * spans.  Spans are kept in memory and written out once, at exit.
 * Every span is opened on the benchmark's main thread.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;   //!< "<module>.<call>"
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1; //!< index of the enclosing span, -1 at the root
    uint64_t rid = 0;    //!< request id shared by one op's spans
    int64_t calls = 1;   //!< calls covered (a timed batch covers many)
};

/** Per-name or per-layer totals over the recorded spans. */
struct SpanTotals
{
    int64_t spans = 0;
    int64_t calls = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;
};

class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span inside the innermost open one; returns its index. */
    int32_t begin(const char *name, uint64_t rid, int64_t calls);

    /** Close span @p index. */
    void end(int32_t index);

    /** Totals keyed by span name. */
    std::map<std::string, SpanTotals> byName() const;

    /** Totals keyed by layer (the name up to its first '.'). */
    std::map<std::string, SpanTotals> byLayer() const;

    /** Write every span as JSON; false when the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int32_t> open_; //!< indices of the open spans, innermost last
    bool enabled_ = false;
};

/** The process-wide tracer. */
Tracer &tracer();

/** RAII span; does nothing while the tracer is disabled. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, uint64_t rid = 0,
                       int64_t calls = 1)
        : index_(tracer().enabled() ? tracer().begin(name, rid, calls)
                                    : -1)
    {
    }
    ~SpanScope()
    {
        if (index_ >= 0)
            tracer().end(index_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    int32_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
