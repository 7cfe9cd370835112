#include "mapper/memory_table.hpp"

#include <unordered_map>

#include "common/util.hpp"
#include "dataflow/loopnest.hpp"

namespace nnbaton {

namespace {

struct MappingHash
{
    size_t operator()(const Mapping &m) const
    {
        uint64_t h = 1469598103934665603ull;
        const auto mix = [&h](int64_t v) {
            h ^= static_cast<uint64_t>(v);
            h *= 1099511628211ull;
        };
        mix(static_cast<int64_t>(m.pkgSpatial) << 8 |
            static_cast<int64_t>(m.chipSpatial) << 4 |
            static_cast<int64_t>(m.pkgOrder) << 2 |
            static_cast<int64_t>(m.chipOrder));
        mix(static_cast<int64_t>(m.pkgSplit.fh) << 32 | m.pkgSplit.fw);
        mix(static_cast<int64_t>(m.chipSplit.fh) << 32 | m.chipSplit.fw);
        mix(static_cast<int64_t>(m.hoC) << 32 | m.woC);
        mix(static_cast<int64_t>(m.chipletTile.ho) << 32 |
            m.chipletTile.wo);
        mix(static_cast<int64_t>(m.chipletTile.co) << 32 |
            m.chipChannelWays);
        return static_cast<size_t>(h);
    }
};

/** True when @p view holds exactly @p candidates, in order. */
bool
sameOrder(const MemoryAxisTable::View &view,
          const std::vector<Mapping> &candidates)
{
    if (view.size() != candidates.size())
        return false;
    for (size_t i = 0; i < view.size(); ++i) {
        if (view[i]->mapping != candidates[i])
            return false;
    }
    return true;
}

} // namespace

MemoryAxisTable::MemoryAxisTable(const ConvLayer &layer,
                                 SearchEffort effort)
    : layer_(layer), effort_(effort)
{
    recount();
}

MemoryAxisTable::View
MemoryAxisTable::intern(const std::vector<Mapping> &candidates,
                        const AcceleratorConfig &cfg)
{
    std::unordered_map<Mapping, const Candidate *, MappingHash> stored;
    for (const Chunk &chunk : chunks_) {
        for (size_t i = 0; i < chunk.size; ++i)
            stored.emplace(chunk.candidates[i].mapping,
                           &chunk.candidates[i]);
    }

    // Analyse the new candidates: derived shapes and the three fill
    // step functions, none of which reads a buffer size.  A new
    // mapping is claimed with a null entry, filled in once its chunk
    // exists.
    std::vector<Candidate> analysed;
    std::vector<FillStep> steps;
    std::vector<size_t> step_begin;
    for (const Mapping &m : candidates) {
        if (!stored.emplace(m, nullptr).second)
            continue;
        Candidate &c = analysed.emplace_back();
        c.mapping = m;
        c.shapes = deriveShapes(layer_, cfg, m);
        const NestSet nests = buildNests(layer_, cfg, m, c.shapes);
        step_begin.push_back(steps.size());
        appendFillSteps(nests.perCore, Tensor::Weights, layer_, steps);
        c.al1Begin = static_cast<uint8_t>(steps.size() - step_begin.back());
        appendFillSteps(nests.perCore, Tensor::Activations, layer_, steps);
        c.al2Begin = static_cast<uint8_t>(steps.size() - step_begin.back());
        appendFillSteps(nests.perChiplet, Tensor::Activations, layer_,
                        steps);
    }

    if (!analysed.empty()) {
        Chunk &chunk = chunks_.emplace_back();
        chunk.size = analysed.size();
        chunk.candidates = std::make_unique<Candidate[]>(chunk.size);
        chunk.stepCount = steps.size();
        chunk.steps = std::make_unique<FillStep[]>(chunk.stepCount);
        std::copy(steps.begin(), steps.end(), chunk.steps.get());
        for (size_t k = 0; k < chunk.size; ++k) {
            Candidate &c = chunk.candidates[k];
            c = analysed[k];
            c.steps = chunk.steps.get() + step_begin[k];
            stored[c.mapping] = &c;
        }
    }

    View order;
    order.reserve(candidates.size());
    for (const Mapping &m : candidates)
        order.push_back(stored.at(m));
    return order;
}

const MemoryAxisTable::View &
MemoryAxisTable::view(const AcceleratorConfig &cfg, int64_t *leaves_added)
{
    const LegalityKey key{
        cfg.core.ol1Bytes, cfg.core.al1Bytes,
        cfg.core.wl1Bytes >=
            static_cast<int64_t>(cfg.core.lanes) * cfg.core.vectorSize};
    if (leaves_added)
        *leaves_added = 0;
    std::lock_guard<std::mutex> lock(m_);
    for (const auto &[k, v] : keys_) {
        if (k == key)
            return *v;
    }

    // A new legality key: the ordinary enumerator decides its
    // candidates and their order.  Keys that admit the same sequence
    // (buffer sizes past every legality threshold) share one view.
    const std::vector<Mapping> candidates =
        enumerateCandidates(layer_, cfg, effort_);
    const View *shared = nullptr;
    for (const auto &v : views_) {
        if (sameOrder(*v, candidates)) {
            shared = v.get();
            break;
        }
    }
    const size_t chunks = chunks_.size();
    if (!shared) {
        views_.push_back(
            std::make_unique<const View>(intern(candidates, cfg)));
        shared = views_.back().get();
    }
    keys_.emplace_back(key, shared);
    if (leaves_added && chunks_.size() > chunks)
        *leaves_added = static_cast<int64_t>(chunks_.back().size);
    recount();
    return *shared;
}

void
MemoryAxisTable::recount()
{
    // The table with its shared_ptr control block, the three
    // directories, each chunk's candidate and step arrays, and each
    // distinct view with its order.
    int64_t n =
        heapBlockBytes(sizeof(MemoryAxisTable) + 2 * sizeof(void *)) +
        heapBlockBytes(
            static_cast<int64_t>(chunks_.capacity() * sizeof(Chunk))) +
        heapBlockBytes(static_cast<int64_t>(
            views_.capacity() * sizeof(std::unique_ptr<const View>))) +
        heapBlockBytes(static_cast<int64_t>(
            keys_.capacity() *
            sizeof(std::pair<LegalityKey, const View *>)));
    for (const Chunk &chunk : chunks_) {
        n += heapBlockBytes(
                 static_cast<int64_t>(chunk.size * sizeof(Candidate))) +
             heapBlockBytes(
                 static_cast<int64_t>(chunk.stepCount * sizeof(FillStep)));
    }
    for (const auto &v : views_) {
        n += heapBlockBytes(sizeof(View)) +
             heapBlockBytes(static_cast<int64_t>(
                 v->capacity() * sizeof(const Candidate *)));
    }
    bytes_ = n;
}

int64_t
MemoryAxisTable::bytes() const
{
    std::lock_guard<std::mutex> lock(m_);
    return bytes_;
}

size_t
MemoryAxisTable::keys() const
{
    std::lock_guard<std::mutex> lock(m_);
    return keys_.size();
}

size_t
MemoryAxisTable::views() const
{
    std::lock_guard<std::mutex> lock(m_);
    return views_.size();
}

} // namespace nnbaton
