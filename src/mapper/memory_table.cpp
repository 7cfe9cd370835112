#include "mapper/memory_table.hpp"

#include <array>
#include <cstring>
#include <iterator>
#include <limits>
#include <unordered_map>

#include "common/logging.hpp"
#include "common/util.hpp"
#include "dataflow/loopnest.hpp"
#include "sim/runtime.hpp"

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

/** Every AccessCounts field: each one is priced, so each gets affine
 *  coefficients. */
constexpr int64_t AccessCounts::*kCountFields[] = {
    &AccessCounts::dramReadActBits, &AccessCounts::dramReadWeightBits,
    &AccessCounts::dramWriteBits,   &AccessCounts::d2dBits,
    &AccessCounts::nocBits,         &AccessCounts::al2ReadBits,
    &AccessCounts::al2WriteBits,    &AccessCounts::al1ReadBits,
    &AccessCounts::al1WriteBits,    &AccessCounts::wl1ReadBits,
    &AccessCounts::wl1WriteBits,    &AccessCounts::ol1RmwBits,
    &AccessCounts::ol1ReadBits,     &AccessCounts::ol2ReadBits,
    &AccessCounts::ol2WriteBits,    &AccessCounts::macOps,
    &AccessCounts::vectorOps,       &AccessCounts::ol2Bytes};
static_assert(sizeof(AccessCounts) ==
                  std::size(kCountFields) * sizeof(int64_t),
              "kCountFields must name every AccessCounts field");
static_assert(sizeof(MemoryAxisTable::Terms::Slope) == 2 * sizeof(int64_t),
              "a Slope holds no padding");

/**
 * The Terms of @p m.  The count coefficients are read off the
 * accounting itself: composeAccessAnalysis() at zero fills and at the
 * three unit fills.  A fifth fill vector checks them, so an accounting
 * change that stops the counts being affine in the fills panics here
 * instead of mispricing.
 */
MemoryAxisTable::Terms
termsOf(const ConvLayer &layer, const AcceleratorConfig &cfg,
        const Mapping &m, const MappingShapes &shapes)
{
    const auto countsAt = [&](int64_t wl1, int64_t al1, int64_t al2) {
        ReuseResult w, a1, a2;
        w.fillBytes = wl1;
        a1.fillBytes = al1;
        a2.fillBytes = al2;
        return composeAccessAnalysis(layer, cfg, m, AnalysisOptions{},
                                     shapes, w, a1, a2)
            .counts;
    };

    MemoryAxisTable::Terms t;
    t.bound = boundTerms(layer, cfg, m, shapes);
    t.counts = countsAt(0, 0, 0);
    const AccessCounts unit[3] = {countsAt(1, 0, 0), countsAt(0, 1, 0),
                                  countsAt(0, 0, 1)};
    for (uint32_t fill = 0; fill < 3; ++fill) {
        for (uint32_t i = 0; i < std::size(kCountFields); ++i) {
            const int64_t slope =
                unit[fill].*kCountFields[i] - t.counts.*kCountFields[i];
            if (slope == 0)
                continue;
            if (t.slopeCount ==
                static_cast<int64_t>(MemoryAxisTable::Terms::kMaxSlopes)) {
                panic("memory-axis table: the access counts of %s %s "
                      "depend on the fills through more than %zu "
                      "slopes; raise Terms::kMaxSlopes",
                      layer.name.c_str(), m.toString().c_str(),
                      MemoryAxisTable::Terms::kMaxSlopes);
            }
            t.slopes[t.slopeCount++] = {slope, i, fill};
        }
    }
    t.tiles = shapes.coreTilesPerChiplet();
    t.computePerTile = computeCyclesPerTile(layer, cfg, shapes);

    const int64_t probe[3] = {1000003, 10007, 100003};
    const AccessCounts want = countsAt(probe[0], probe[1], probe[2]);
    const AccessCounts got = t.countsAt(probe[0], probe[1], probe[2]);
    for (const auto field : kCountFields) {
        if (want.*field != got.*field) {
            panic("memory-axis table: the access counts of %s %s (%s) "
                  "are not affine in the fills:\n  accounting:   %s\n"
                  "  coefficients: %s",
                  layer.name.c_str(), m.toString().c_str(),
                  cfg.toString().c_str(), want.toString().c_str(),
                  got.toString().c_str());
        }
    }
    return t;
}

/** Stored bytes compared by content.  Step runs and Terms are built
 *  from 8-byte fields (a Slope's two 4-byte fields fill one), so they
 *  hold no padding and equal bytes mean equal values. */
struct Bytes
{
    const unsigned char *p;
    size_t n;

    bool operator==(const Bytes &o) const
    {
        return n == o.n && std::memcmp(p, o.p, n) == 0;
    }
};

template <typename T>
Bytes
bytesOf(const T *p, size_t count)
{
    return {reinterpret_cast<const unsigned char *>(p), count * sizeof(T)};
}

struct BytesHash
{
    size_t operator()(const Bytes &b) const
    {
        uint64_t h = 1469598103934665603ull;
        for (size_t i = 0; i + sizeof(uint64_t) <= b.n;
             i += sizeof(uint64_t)) {
            uint64_t word;
            std::memcpy(&word, b.p + i, sizeof(word));
            h ^= word;
            h *= 1099511628211ull;
        }
        return static_cast<size_t>(h);
    }
};

/** Steps in the run starting at @p run, its INT64_MIN step included. */
size_t
runLength(const FillStep *run)
{
    size_t n = 1;
    while (run[n - 1].minCapacity != std::numeric_limits<int64_t>::min())
        ++n;
    return n;
}

/** Where an interned run or Terms lives: in an earlier chunk, or at
 *  an offset of the chunk being built. */
template <typename T>
struct Placed
{
    const T *stored = nullptr;
    size_t offset = 0;

    const T *in(const T *chunk) const
    {
        return stored ? stored : chunk + offset;
    }
};

/** Place @p count items at @p p: found among @p stored, found among
 *  this chunk's @p added, or appended to @p out. */
template <typename T>
Placed<T>
place(const T *p, size_t count,
      const std::unordered_map<Bytes, const T *, BytesHash> &stored,
      std::unordered_map<Bytes, size_t, BytesHash> &added,
      std::vector<T> &out)
{
    const Bytes key = bytesOf(p, count);
    if (const auto it = stored.find(key); it != stored.end())
        return {it->second, 0};
    const auto [it, inserted] = added.try_emplace(key, out.size());
    if (inserted)
        out.insert(out.end(), p, p + count);
    return {nullptr, it->second};
}

} // namespace

AccessCounts
MemoryAxisTable::Terms::countsAt(int64_t wl1, int64_t al1,
                                 int64_t al2) const
{
    const int64_t fills[3] = {wl1, al1, al2};
    AccessCounts c = counts;
    for (int64_t k = 0; k < slopeCount; ++k) {
        const Slope &s = slopes[k];
        c.*kCountFields[s.field] += s.perByte * fills[s.fill];
    }
    return c;
}

double
MemoryAxisTable::Candidate::score(const AcceleratorConfig &cfg,
                                  const TechnologyModel &tech,
                                  const BufferRates &rates,
                                  Objective objective) const
{
    const AccessCounts counts = terms->countsAt(
        wl1Fill(cfg.core.wl1Bytes * mapping.chipSplit.parts()),
        al1Fill(cfg.core.al1Bytes), al2Fill(cfg.chiplet.al2Bytes));
    const double energy = computeEnergy(counts, rates, tech).total();
    if (objective == Objective::MinEnergy)
        return energy;
    return energy * tilePhases(terms->tiles, terms->computePerTile,
                               counts, cfg, tech)
                        .cycles();
}

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
    std::unordered_map<Bytes, const FillStep *, BytesHash> stored_runs;
    std::unordered_map<Bytes, const Terms *, BytesHash> stored_terms;
    for (const Chunk &chunk : chunks_) {
        for (size_t i = 0; i < chunk.size; ++i)
            stored.emplace(chunk.candidates[i].mapping,
                           &chunk.candidates[i]);
        for (size_t i = 0; i < chunk.stepCount;) {
            const size_t n = runLength(&chunk.steps[i]);
            stored_runs.emplace(bytesOf(&chunk.steps[i], n),
                                &chunk.steps[i]);
            i += n;
        }
        for (size_t i = 0; i < chunk.termCount; ++i)
            stored_terms.emplace(bytesOf(&chunk.terms[i], 1),
                                 &chunk.terms[i]);
    }

    // Analyse the new candidates: the three fill step functions and
    // the Terms, none of which reads a buffer size.  A new mapping is
    // claimed with a null entry, filled in once its chunk exists.
    struct Analysed
    {
        Mapping mapping;
        size_t runs[3]; //!< W-L1, A-L1, A-L2 offsets in raw_steps
    };
    std::vector<Analysed> analysed;
    std::vector<FillStep> raw_steps;
    std::vector<Terms> raw_terms;
    raw_terms.reserve(candidates.size());
    for (const Mapping &m : candidates) {
        if (!stored.emplace(m, nullptr).second)
            continue;
        Analysed &a = analysed.emplace_back();
        a.mapping = m;
        const MappingShapes shapes = deriveShapes(layer_, cfg, m);
        const NestSet nests = buildNests(layer_, cfg, m, shapes);
        a.runs[0] = raw_steps.size();
        appendFillSteps(nests.perCore, Tensor::Weights, layer_, raw_steps);
        a.runs[1] = raw_steps.size();
        appendFillSteps(nests.perCore, Tensor::Activations, layer_,
                        raw_steps);
        a.runs[2] = raw_steps.size();
        appendFillSteps(nests.perChiplet, Tensor::Activations, layer_,
                        raw_steps);
        raw_terms.push_back(termsOf(layer_, cfg, m, shapes));
    }

    if (!analysed.empty()) {
        // Keep each run and each Terms no chunk holds yet, once.
        std::vector<FillStep> steps;
        std::vector<Terms> terms;
        terms.reserve(raw_terms.size());
        std::unordered_map<Bytes, size_t, BytesHash> added_runs;
        std::unordered_map<Bytes, size_t, BytesHash> added_terms;
        std::vector<std::array<Placed<FillStep>, 3>> runs(analysed.size());
        std::vector<Placed<Terms>> placed_terms(analysed.size());
        for (size_t k = 0; k < analysed.size(); ++k) {
            for (int b = 0; b < 3; ++b) {
                const FillStep *run = &raw_steps[analysed[k].runs[b]];
                runs[k][b] = place(run, runLength(run), stored_runs,
                                   added_runs, steps);
            }
            placed_terms[k] =
                place(&raw_terms[k], 1, stored_terms, added_terms, terms);
        }

        Chunk &chunk = chunks_.emplace_back();
        chunk.size = analysed.size();
        chunk.candidates = std::make_unique<Candidate[]>(chunk.size);
        chunk.stepCount = steps.size();
        chunk.steps = std::make_unique<FillStep[]>(chunk.stepCount);
        std::copy(steps.begin(), steps.end(), chunk.steps.get());
        chunk.termCount = terms.size();
        chunk.terms = std::make_unique<Terms[]>(chunk.termCount);
        std::copy(terms.begin(), terms.end(), chunk.terms.get());
        for (size_t k = 0; k < chunk.size; ++k) {
            Candidate &c = chunk.candidates[k];
            c.mapping = analysed[k].mapping;
            c.terms = placed_terms[k].in(chunk.terms.get());
            c.wl1Steps = runs[k][0].in(chunk.steps.get());
            c.al1Steps = runs[k][1].in(chunk.steps.get());
            c.al2Steps = runs[k][2].in(chunk.steps.get());
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
    // directories, each chunk's candidate, step and Terms arrays, and
    // each distinct view with its order.
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
                 static_cast<int64_t>(chunk.stepCount * sizeof(FillStep))) +
             heapBlockBytes(
                 static_cast<int64_t>(chunk.termCount * sizeof(Terms)));
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
