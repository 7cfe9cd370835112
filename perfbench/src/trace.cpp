#include "trace.hpp"

#include <fstream>

#include "harness.hpp"

namespace perfbench {

namespace {

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

int32_t
Tracer::begin(const char *name, uint64_t rid, int64_t calls)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.rid = rid;
    s.calls = calls;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    const int32_t index = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
}

void
Tracer::end(int32_t index)
{
    spans_[static_cast<size_t>(index)].endNs = nowNs();
    open_.pop_back();
}

std::map<std::string, SpanTotals>
Tracer::byName() const
{
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childNs[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        SpanTotals &t = out[s.name];
        ++t.spans;
        t.calls += s.calls;
        t.totalNs += s.endNs - s.startNs;
        t.selfNs += s.endNs - s.startNs - childNs[i];
    }
    return out;
}

std::map<std::string, SpanTotals>
Tracer::byLayer() const
{
    std::map<std::string, SpanTotals> out;
    for (const auto &[name, t] : byName()) {
        SpanTotals &l = out[layerOf(name)];
        l.spans += t.spans;
        l.calls += t.calls;
        l.totalNs += t.totalNs;
        l.selfNs += t.selfNs;
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(s.name)
            << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
            << ",\"parent\":" << s.parent << ",\"rid\":" << s.rid
            << ",\"calls\":" << s.calls << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
