/**
 * @file
 * Memory-axis tables (mapper/memory_table.hpp): the fill step
 * functions against the reference (quadratic) buffer scan, table-served
 * searches against fresh ones field by field, the second-miss build
 * rule on a zoo `post` and a figure 15 sweep window, the mapper table
 * counters as observation only, and the search plans: block floors
 * against their members' bounds, and the plan walk against a
 * per-candidate reference loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "arch/area.hpp"
#include "common/cancel.hpp"
#include "common/status.hpp"
#include "common/util.hpp"
#include "baton/baton.hpp"
#include "c3p/analysis.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "dataflow/loopnest.hpp"
#include "dse/explorer.hpp"
#include "dse/slice.hpp"
#include "dse/space.hpp"
#include "mapper/bound.hpp"
#include "mapper/cache.hpp"
#include "mapper/candidates.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"
#include "verif/fault.hpp"
#include "verif/interpreter.hpp"

using namespace nnbaton;

namespace {

template <typename T>
T
pick(std::mt19937 &g, const std::vector<T> &options)
{
    return options[g() % options.size()];
}

/** A seeded random layer of one of the four workload families the
 *  analysis distinguishes: dense conv, depthwise conv, GEMM, and a
 *  batched GEMM with post-MAC vector work. */
ConvLayer
randomLayer(std::mt19937 &g, int kind)
{
    switch (kind % 4) {
      case 0: {
        const int k = pick(g, std::vector<int>{1, 3, 5});
        return makeConv("conv", pick(g, std::vector<int>{7, 14, 28, 56}),
                        pick(g, std::vector<int>{7, 14, 28, 56}),
                        pick(g, std::vector<int>{32, 128, 512}),
                        pick(g, std::vector<int>{16, 64, 256}), k, k,
                        pick(g, std::vector<int>{1, 2}));
      }
      case 1:
        return makeDepthwiseConv(
            "dw", pick(g, std::vector<int>{14, 28, 56}),
            pick(g, std::vector<int>{14, 28, 56}),
            pick(g, std::vector<int>{32, 96, 256}),
            pick(g, std::vector<int>{3, 5}),
            pick(g, std::vector<int>{1, 2}));
      case 2:
        return makeGemm("gemm", pick(g, std::vector<int>{64, 196, 512}),
                        pick(g, std::vector<int>{64, 256, 768}),
                        pick(g, std::vector<int>{64, 256, 768}));
      default:
        return makeGemm("bgemm", pick(g, std::vector<int>{49, 128}),
                        pick(g, std::vector<int>{64, 128}),
                        pick(g, std::vector<int>{64, 256}),
                        pick(g, std::vector<int>{2, 4}),
                        pick(g, std::vector<int>{0, 3}));
    }
}

/** A seeded table II configuration: a compute allocation of a few MAC
 *  budgets crossed with a memory allocation of the table II grid. */
AcceleratorConfig
randomConfig(std::mt19937 &g, const ComputeAllocation &compute)
{
    static const std::vector<MemoryAllocation> memories =
        enumerateMemory();
    return makeConfig(compute, memories[g() % memories.size()]);
}

std::vector<ComputeAllocation>
someComputes(std::mt19937 &g, size_t n)
{
    std::vector<ComputeAllocation> all;
    for (int64_t macs : {512, 2048, 4096}) {
        for (const ComputeAllocation &c : enumerateCompute(macs))
            all.push_back(c);
    }
    std::shuffle(all.begin(), all.end(), g);
    all.resize(std::min(n, all.size()));
    return all;
}

void
expectSameReuse(const ReuseResult &a, const ReuseResult &b,
                const std::string &ctx)
{
    EXPECT_EQ(a.fillBytes, b.fillBytes) << ctx;
    EXPECT_EQ(a.footprintAtFit, b.footprintAtFit) << ctx;
    EXPECT_EQ(a.fitBoundary, b.fitBoundary) << ctx;
    EXPECT_EQ(a.intrinsicBytes, b.intrinsicBytes) << ctx;
}

void
expectSameShape(const WorkShape &a, const WorkShape &b,
                const std::string &ctx)
{
    EXPECT_EQ(a.ho, b.ho) << ctx;
    EXPECT_EQ(a.wo, b.wo) << ctx;
    EXPECT_EQ(a.co, b.co) << ctx;
}

/** Every field of two MappingChoices, bit for bit. */
void
expectSameChoice(const MappingChoice &a, const MappingChoice &b,
                 const std::string &ctx)
{
    const Mapping &m = a.mapping;
    const Mapping &n = b.mapping;
    EXPECT_EQ(m.pkgSpatial, n.pkgSpatial) << ctx;
    EXPECT_EQ(m.pkgSplit, n.pkgSplit) << ctx;
    EXPECT_EQ(m.chipSpatial, n.chipSpatial) << ctx;
    EXPECT_EQ(m.chipChannelWays, n.chipChannelWays) << ctx;
    EXPECT_EQ(m.chipSplit, n.chipSplit) << ctx;
    expectSameShape(m.chipletTile, n.chipletTile, ctx);
    EXPECT_EQ(m.pkgOrder, n.pkgOrder) << ctx;
    EXPECT_EQ(m.hoC, n.hoC) << ctx;
    EXPECT_EQ(m.woC, n.woC) << ctx;
    EXPECT_EQ(m.chipOrder, n.chipOrder) << ctx;

    const AccessCounts &c = a.analysis.counts;
    const AccessCounts &d = b.analysis.counts;
    EXPECT_EQ(c.dramReadActBits, d.dramReadActBits) << ctx;
    EXPECT_EQ(c.dramReadWeightBits, d.dramReadWeightBits) << ctx;
    EXPECT_EQ(c.dramWriteBits, d.dramWriteBits) << ctx;
    EXPECT_EQ(c.d2dBits, d.d2dBits) << ctx;
    EXPECT_EQ(c.nocBits, d.nocBits) << ctx;
    EXPECT_EQ(c.al2ReadBits, d.al2ReadBits) << ctx;
    EXPECT_EQ(c.al2WriteBits, d.al2WriteBits) << ctx;
    EXPECT_EQ(c.al1ReadBits, d.al1ReadBits) << ctx;
    EXPECT_EQ(c.al1WriteBits, d.al1WriteBits) << ctx;
    EXPECT_EQ(c.wl1ReadBits, d.wl1ReadBits) << ctx;
    EXPECT_EQ(c.wl1WriteBits, d.wl1WriteBits) << ctx;
    EXPECT_EQ(c.ol1RmwBits, d.ol1RmwBits) << ctx;
    EXPECT_EQ(c.ol1ReadBits, d.ol1ReadBits) << ctx;
    EXPECT_EQ(c.ol2ReadBits, d.ol2ReadBits) << ctx;
    EXPECT_EQ(c.ol2WriteBits, d.ol2WriteBits) << ctx;
    EXPECT_EQ(c.macOps, d.macOps) << ctx;
    EXPECT_EQ(c.vectorOps, d.vectorOps) << ctx;
    EXPECT_EQ(c.ol2Bytes, d.ol2Bytes) << ctx;

    const MappingShapes &s = a.analysis.shapes;
    const MappingShapes &t = b.analysis.shapes;
    expectSameShape(s.chipletMacro, t.chipletMacro, ctx);
    expectSameShape(s.chipletTile, t.chipletTile, ctx);
    expectSameShape(s.coreMacro, t.coreMacro, ctx);
    expectSameShape(s.coreTile, t.coreTile, ctx);
    EXPECT_EQ(s.pkgTripsH, t.pkgTripsH) << ctx;
    EXPECT_EQ(s.pkgTripsW, t.pkgTripsW) << ctx;
    EXPECT_EQ(s.pkgTripsC, t.pkgTripsC) << ctx;
    EXPECT_EQ(s.chipTripsH, t.chipTripsH) << ctx;
    EXPECT_EQ(s.chipTripsW, t.chipTripsW) << ctx;
    EXPECT_EQ(s.chipTripsC, t.chipTripsC) << ctx;
    EXPECT_EQ(s.batchTrips, t.batchTrips) << ctx;

    expectSameReuse(a.analysis.wl1, b.analysis.wl1, ctx + " wl1");
    expectSameReuse(a.analysis.al1, b.analysis.al1, ctx + " al1");
    expectSameReuse(a.analysis.al2, b.analysis.al2, ctx + " al2");
    EXPECT_EQ(a.analysis.laneUtilization, b.analysis.laneUtilization)
        << ctx;
    EXPECT_EQ(a.analysis.vectorUtilization, b.analysis.vectorUtilization)
        << ctx;

    const EnergyBreakdown &e = a.energy;
    const EnergyBreakdown &f = b.energy;
    EXPECT_EQ(e.dram, f.dram) << ctx;
    EXPECT_EQ(e.d2d, f.d2d) << ctx;
    EXPECT_EQ(e.noc, f.noc) << ctx;
    EXPECT_EQ(e.al2, f.al2) << ctx;
    EXPECT_EQ(e.al1, f.al1) << ctx;
    EXPECT_EQ(e.wl1, f.wl1) << ctx;
    EXPECT_EQ(e.ol1, f.ol1) << ctx;
    EXPECT_EQ(e.ol2, f.ol2) << ctx;
    EXPECT_EQ(e.mac, f.mac) << ctx;
    EXPECT_EQ(e.vector, f.vector) << ctx;

    EXPECT_EQ(a.runtime.cycles, b.runtime.cycles) << ctx;
    EXPECT_EQ(a.runtime.computeCycles, b.runtime.computeCycles) << ctx;
    EXPECT_EQ(a.runtime.stallCycles, b.runtime.stallCycles) << ctx;
    EXPECT_EQ(a.runtime.utilization, b.runtime.utilization) << ctx;
}

/** The table key of a search: layer shape, compute geometry, effort. */
using TableKey = std::tuple<int, int, int, int, int, int, int, int, int,
                            int, int, int, int, int, int>;

TableKey
tableKeyOf(const ConvLayer &l, const ComputeAllocation &c,
           SearchEffort effort)
{
    return {l.ho,       l.wo,         l.co,         l.ci,
            l.kh,       l.kw,         l.stride,     l.groups,
            l.batch,    l.postOps,    c.chiplets,   c.cores,
            c.lanes,    c.vectorSize, static_cast<int>(effort)};
}

Model
oneLayerModel(const ConvLayer &layer)
{
    Model m("one", 224);
    m.addLayer(layer);
    return m;
}

/** The figure 15 sweep over a two-shape DarkNet-19@224 window
 *  (conv14, conv15): 4,096 MACs, 3 mm2, Sketch, min EDP, table II
 *  memory grid. */
Model
fig15Window()
{
    const Model full = makeDarkNet19(224);
    Model m(full.name(), full.inputResolution());
    for (size_t i = 13; i < 15; ++i)
        m.addLayer(full.layers()[i]);
    return m;
}

DseOptions
fig15Options(int threads, MappingCache *cache)
{
    DseOptions o;
    o.totalMacs = 4096;
    o.areaLimitMm2 = 3.0;
    o.effort = SearchEffort::Sketch;
    o.objective = Objective::MinEdp;
    o.threads = threads;
    o.cache = cache;
    return o;
}

} // namespace

TEST(MemoryAxisTable, StepLookupMatchesAnalyzeBuffer)
{
    // The oracle is the quadratic reference scan, not analyzeBuffer():
    // the production scan and appendFillSteps() share one
    // boundary-footprint pass, so it could not catch a bug there.
    std::mt19937 g(20260417);
    int64_t checked = 0;
    int64_t nothing_fits = 0;
    for (int trial = 0; trial < 24; ++trial) {
        const ConvLayer layer = randomLayer(g, trial);
        for (const ComputeAllocation &compute : someComputes(g, 3)) {
            const AcceleratorConfig cfg = randomConfig(g, compute);
            const std::vector<Mapping> candidates =
                enumerateCandidates(layer, cfg, SearchEffort::Fast);
            // The table stores each distinct run once; its candidates
            // must still read their own fills through the shared runs.
            MemoryAxisTable table(layer, SearchEffort::Fast);
            const MemoryAxisTable::View &view = table.view(cfg);
            ASSERT_EQ(view.size(), candidates.size());
            using Lookup =
                int64_t (MemoryAxisTable::Candidate::*)(int64_t) const;
            for (size_t k = 0; k < candidates.size(); k += 7) {
                const Mapping &m = candidates[k];
                const MappingShapes shapes =
                    deriveShapes(layer, cfg, m);
                const NestSet nests = buildNests(layer, cfg, m, shapes);
                for (const auto &[nest, tensor, interned] :
                     {std::tuple<const LoopNest *, Tensor, Lookup>{
                          &nests.perCore, Tensor::Weights,
                          &MemoryAxisTable::Candidate::wl1Fill},
                      std::tuple<const LoopNest *, Tensor, Lookup>{
                          &nests.perCore, Tensor::Activations,
                          &MemoryAxisTable::Candidate::al1Fill},
                      std::tuple<const LoopNest *, Tensor, Lookup>{
                          &nests.perChiplet, Tensor::Activations,
                          &MemoryAxisTable::Candidate::al2Fill}}) {
                    std::vector<FillStep> steps;
                    appendFillSteps(*nest, tensor, layer, steps);
                    ASSERT_EQ(steps.back().minCapacity,
                              std::numeric_limits<int64_t>::min());

                    // Exactly at (and just below) every breakpoint
                    // and the atom footprint, below it, and at random
                    // sizes.
                    const int64_t atom =
                        footprintBytes(tensor, nest->atom, layer);
                    std::vector<int64_t> caps{0, 1, atom, atom - 1};
                    for (const FillStep &s : steps) {
                        if (s.minCapacity > 0) {
                            caps.push_back(s.minCapacity);
                            caps.push_back(s.minCapacity - 1);
                        }
                    }
                    // The outermost footprint, or the atom's when it
                    // is the only step.
                    const int64_t top =
                        std::max(atom, steps.front().minCapacity);
                    std::uniform_int_distribution<int64_t> size(
                        1, std::max<int64_t>(2, top * 2));
                    for (int r = 0; r < 8; ++r)
                        caps.push_back(size(g));

                    for (const int64_t cap : caps) {
                        const ReuseResult ref = referenceAnalyzeBuffer(
                            *nest, tensor, layer, cap);
                        ASSERT_EQ(fillAtCapacity(steps.data(), cap),
                                  ref.fillBytes)
                            << layer.toString() << " " << m.toString()
                            << " " << toString(tensor) << " cap " << cap
                            << " nest " << nest->toString();
                        ASSERT_EQ((view[k]->*interned)(cap), ref.fillBytes)
                            << "interned run: " << layer.toString() << " "
                            << m.toString() << " " << toString(tensor)
                            << " cap " << cap;
                        if (atom > cap)
                            ++nothing_fits;
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 10000);
    EXPECT_GT(nothing_fits, 0);
}

TEST(MemoryAxisTable, StoredTermsPriceLikeFreshEvaluation)
{
    // A table candidate's bound and score come from stored terms: the
    // bound's floors, the access counts' affine coefficients and the
    // tile schedule.  They must equal scoreLowerBound() and the fresh
    // evaluation's score double for double (EXPECT_EQ, no tolerance):
    // both run the same pricing arithmetic on the same integers.  One
    // cache serves two technology models, since a table must store
    // nothing priced.
    TechnologyModel other = defaultTech();
    other.dramEnergyPerBit = 11.5;
    other.d2dEnergyPerBit = 2.3;
    other.nocEnergyPerBit = 0.6;
    other.rfEnergyPerBitRmw = 0.09;
    other.macEnergyPerOp = 0.031;
    other.vectorOpEnergyPerOp = 0.07;
    other.sramEnergyPerBitKb = {0.21, 0.027};
    other.dramBitsPerCycle = 64;
    other.d2dBitsPerCycle = 32;
    const TechnologyModel *const techs[] = {&defaultTech(), &other};

    std::mt19937 g(20261017);
    // Dense, depthwise (the grouped layers the analysis supports, one
    // with a non-square kernel), GEMM, batched GEMM, a batched conv and
    // a GEMM with a softmax's post-MAC passes.
    std::vector<ConvLayer> layers;
    for (int kind = 0; kind < 4; ++kind)
        layers.push_back(randomLayer(g, kind));
    ConvLayer batched = randomLayer(g, 0);
    batched.batch = 2;
    layers.push_back(batched);
    layers.push_back(makeDepthwiseConv("dw3x5", 28, 28, 64, 3, 5, 2));
    layers.push_back(makeGemm("softmax", 196, 196, 64, 2, 3));

    // One random table II point per legality key of the grid.
    std::vector<MemoryAllocation> grid = enumerateMemory();
    std::shuffle(grid.begin(), grid.end(), g);
    std::vector<MemoryAllocation> key_points;
    std::set<std::pair<int64_t, int64_t>> keys_seen;
    for (const MemoryAllocation &m : grid) {
        if (keys_seen.insert({m.ol1Bytes, m.al1Bytes}).second)
            key_points.push_back(m);
    }

    MappingCache cache;
    int64_t priced = 0;
    int64_t straddles = 0;
    for (size_t li = 0; li < layers.size(); ++li) {
        const ConvLayer &layer = layers[li];
        const SearchEffort effort =
            li % 2 ? SearchEffort::Fast : SearchEffort::Sketch;
        for (const ComputeAllocation &compute : someComputes(g, 2)) {
            std::vector<AcceleratorConfig> points;
            for (const MemoryAllocation &m : key_points)
                points.push_back(makeConfig(compute, m));
            // The key whose W-L1 cannot hold one vector step.
            AcceleratorConfig no_step = points.front();
            no_step.core.wl1Bytes =
                static_cast<int64_t>(compute.lanes) * compute.vectorSize -
                1;
            points.push_back(no_step);
            const size_t key_count = points.size();

            for (size_t p = 0; p < points.size(); ++p) {
                const AcceleratorConfig cfg = points[p];
                std::shared_ptr<const MemoryAxisTable::View> view =
                    cache.tableView(layer, cfg, effort);
                if (!view)
                    view = cache.tableView(layer, cfg, effort);
                ASSERT_TRUE(view);
                if (p < key_count && !view->empty()) {
                    // More points of this key (and of A-L1 neighbour
                    // keys): one byte either side of a fill step of a
                    // random candidate, per buffer.
                    const MemoryAxisTable::Candidate &c =
                        *(*view)[g() % view->size()];
                    const int64_t pw = c.mapping.chipSplit.parts();
                    const auto stepOf = [&](const FillStep *run) {
                        std::vector<int64_t> caps;
                        for (; run->minCapacity !=
                               std::numeric_limits<int64_t>::min();
                             ++run) {
                            if (run->minCapacity > pw)
                                caps.push_back(run->minCapacity);
                        }
                        return caps.empty() ? int64_t{0}
                                            : caps[g() % caps.size()];
                    };
                    if (const int64_t cap = stepOf(c.wl1Steps)) {
                        // The pooled W-L1 holds W-L1 bytes x pw.
                        for (const int64_t bytes :
                             {ceilDiv(cap, pw), (cap - 1) / pw}) {
                            AcceleratorConfig v = cfg;
                            v.core.wl1Bytes = bytes;
                            points.push_back(v);
                        }
                        ++straddles;
                    }
                    if (const int64_t cap = stepOf(c.al1Steps)) {
                        for (const int64_t bytes : {cap, cap - 1}) {
                            AcceleratorConfig v = cfg;
                            v.core.al1Bytes = bytes;
                            points.push_back(v);
                        }
                        ++straddles;
                    }
                    if (const int64_t cap = stepOf(c.al2Steps)) {
                        for (const int64_t bytes : {cap, cap - 1}) {
                            AcceleratorConfig v = cfg;
                            v.chiplet.al2Bytes = bytes;
                            points.push_back(v);
                        }
                        ++straddles;
                    }
                }

                for (const TechnologyModel *tech : techs) {
                    const BufferRates rates = bufferRates(cfg, *tech);
                    for (const MemoryAxisTable::Candidate *c : *view) {
                        const MappingChoice fresh =
                            evaluateMapping(layer, cfg, *tech, c->mapping);
                        for (const Objective objective :
                             {Objective::MinEnergy, Objective::MinEdp}) {
                            // Streamed only on failure.
                            const auto ctx = [&] {
                                return layer.toString() + " " +
                                       cfg.toString() + " " +
                                       c->mapping.toString() +
                                       (tech == techs[0] ? " default"
                                                         : " other") +
                                       (objective == Objective::MinEdp
                                            ? " edp"
                                            : " energy");
                            };
                            EXPECT_EQ(priceLowerBound(c->terms->bound,
                                                      cfg, *tech, rates,
                                                      objective),
                                      scoreLowerBound(layer, cfg, *tech,
                                                      c->mapping,
                                                      objective))
                                << ctx();
                            EXPECT_EQ(c->terms->score(c->fills(cfg), cfg,
                                                      *tech, rates,
                                                      objective),
                                      objective == Objective::MinEnergy
                                          ? fresh.energy.total()
                                          : fresh.edp())
                                << ctx();
                            ++priced;
                        }
                        if (HasFailure())
                            return;
                    }
                }
            }
        }
    }
    EXPECT_GT(priced, 1000000);
    EXPECT_GT(straddles, 500);
}

TEST(MemoryAxisTable, ViewEqualsEnumerationAtEveryLegalityKey)
{
    // Whichever key built a table first, each view must be exactly the
    // enumerator's sequence for any configuration with its legality
    // key.  The probes reach the corners where O-L1, A-L1 and W-L1
    // change the candidate set; A-L2 and larger W-L1 sizes vary freely.
    std::mt19937 g(3);
    const std::vector<ConvLayer> layers{
        makeConv("wide", 28, 28, 64, 64, 5, 5, 2),
        makeConv("deep", 14, 14, 256, 128, 3, 3, 1),
        makeDepthwiseConv("dw", 56, 56, 96, 5, 1),
        makeGemm("gemm", 196, 256, 768)};
    const std::vector<ComputeAllocation> computes{
        {2, 4, 2, 16}, {4, 8, 8, 8}, {1, 16, 4, 2}};
    const std::vector<int64_t> free_sizes{2_KB, 18_KB, 64_KB, 256_KB};
    size_t tables = 0;
    size_t distinct_views = 0;
    for (const ConvLayer &layer : layers) {
        for (const ComputeAllocation &compute : computes) {
            for (const SearchEffort effort :
                 {SearchEffort::Sketch, SearchEffort::Fast}) {
                std::vector<AcceleratorConfig> configs;
                for (const int64_t ol1 : {48, 96, 144}) {
                    for (int64_t al1 = 1_KB; al1 <= 128_KB; al1 *= 2) {
                        configs.push_back(
                            makeConfig(compute, {ol1, al1, 18_KB, 64_KB}));
                    }
                }
                AcceleratorConfig no_vector_step = configs.front();
                no_vector_step.core.wl1Bytes =
                    static_cast<int64_t>(compute.lanes) *
                        compute.vectorSize -
                    1;
                configs.push_back(no_vector_step);
                std::shuffle(configs.begin(), configs.end(), g);

                MemoryAxisTable table(layer, effort);
                for (AcceleratorConfig cfg : configs) {
                    cfg.chiplet.al2Bytes = pick(g, free_sizes);
                    if (cfg.core.wl1Bytes > 1_KB)
                        cfg.core.wl1Bytes = pick(g, free_sizes);
                    const MemoryAxisTable::View &view = table.view(cfg);
                    const std::vector<Mapping> candidates =
                        enumerateCandidates(layer, cfg, effort);
                    const std::string ctx =
                        layer.toString() + " " + cfg.toString();
                    ASSERT_EQ(view.size(), candidates.size()) << ctx;
                    for (size_t i = 0; i < candidates.size(); ++i) {
                        ASSERT_EQ(view[i]->mapping.toString(),
                                  candidates[i].toString())
                            << ctx << " #" << i;
                        const MappingShapes s =
                            deriveShapes(layer, cfg, candidates[i]);
                        EXPECT_EQ(view[i]->terms->tiles,
                                  s.coreTilesPerChiplet())
                            << ctx;
                        EXPECT_EQ(view[i]->terms->computePerTile,
                                  computeCyclesPerTile(layer, cfg, s))
                            << ctx;
                        EXPECT_EQ(view[i]->terms->bound.computeCycles,
                                  computeCycles(layer, cfg, s))
                            << ctx;
                    }
                }
                EXPECT_EQ(table.keys(), configs.size());
                ++tables;
                distinct_views += table.views();
            }
        }
    }
    // The probes did reach keys with different candidate sets.
    EXPECT_GT(distinct_views, 2 * tables);
}

TEST(MemoryAxisTable, TableSearchMatchesFreshSearch)
{
    // One shared cache sees each (layer, geometry) at several memory
    // points: the first search enumerates, the rest are served from
    // the table.  Each must equal a cache-less search exactly.
    std::mt19937 g(7);
    MappingCache shared;
    std::map<TableKey, int64_t> misses;
    for (int trial = 0; trial < 16; ++trial) {
        const ConvLayer layer = randomLayer(g, trial);
        const Model model = oneLayerModel(layer);
        const SearchEffort effort =
            trial % 2 ? SearchEffort::Fast : SearchEffort::Sketch;
        const Objective objective =
            trial % 3 ? Objective::MinEdp : Objective::MinEnergy;
        for (const ComputeAllocation &compute : someComputes(g, 2)) {
            for (int point = 0; point < 4; ++point) {
                const AcceleratorConfig cfg = randomConfig(g, compute);
                const ModelMappingResult viaCache =
                    mapModel(model, cfg, defaultTech(), effort,
                             objective, SearchOptions{}, &shared);
                SearchStats fresh_stats;
                const std::optional<MappingChoice> fresh =
                    searchLayer(layer, cfg, defaultTech(), effort,
                                objective, SearchOptions{}, &fresh_stats);
                const std::string ctx = layer.toString() + " " +
                                        cfg.toString() + " point " +
                                        std::to_string(point);
                ASSERT_EQ(viaCache.feasible, fresh.has_value()) << ctx;
                EXPECT_EQ(viaCache.stats.evaluated, fresh_stats.evaluated)
                    << ctx;
                EXPECT_EQ(viaCache.stats.pruned, fresh_stats.pruned)
                    << ctx;
                if (fresh)
                    expectSameChoice(viaCache.choices[0], *fresh, ctx);
                misses[tableKeyOf(layer, compute, effort)] +=
                    viaCache.stats.cacheMisses;
            }
        }
    }
    // Every miss of a (shape, geometry, effort) after its first ran
    // on that key's table, built once.
    int64_t expected_hits = 0;
    int64_t expected_builds = 0;
    for (const auto &[key, n] : misses) {
        expected_hits += std::max<int64_t>(0, n - 1);
        expected_builds += n >= 2 ? 1 : 0;
    }
    EXPECT_GT(expected_hits, 0);
    EXPECT_EQ(shared.tableHits(), expected_hits);
    EXPECT_EQ(shared.tableBuilds(), expected_builds);
}

TEST(MemoryAxisTable, PostOnZooModelBuildsNoTables)
{
    // A post maps each shape once per configuration: repeated blocks
    // are memo hits within the call, never second misses, so no table
    // is built.
    MappingCache cache;
    const PostDesignReport report =
        PostDesignFlow(caseStudyConfig(), defaultTech(),
                       SearchEffort::Fast)
            .run(makeResNet50(224), &cache);
    EXPECT_TRUE(report.feasible);
    EXPECT_GT(report.stats.cacheHits, 0);
    EXPECT_EQ(cache.tableBuilds(), 0);
    EXPECT_EQ(cache.tableHits(), 0);
}

TEST(MemoryAxisTable, Fig15WindowBuildsOneTablePerShapeAndGeometry)
{
    const Model model = fig15Window();
    const TechnologyModel &tech = defaultTech();

    // A table is built for every (shape, geometry) searched at two or
    // more memory points: every point that passes the area budget
    // searches each shape once.
    std::map<std::tuple<int, int, int, int>, int> searched_points;
    MappingCache probe;
    const DseOptions probe_opt = fig15Options(1, &probe);
    for (const SweepTask &task : enumerateSweepTasks(probe_opt)) {
        const AcceleratorConfig cfg = makeConfig(task.compute, task.memory);
        if (chipletArea(cfg, tech, defaultOl2Bytes(cfg)).total() <=
            probe_opt.areaLimitMm2) {
            ++searched_points[{task.compute.chiplets, task.compute.cores,
                               task.compute.lanes,
                               task.compute.vectorSize}];
        }
    }
    std::set<TableKey> shapes;
    for (const ConvLayer &layer : model.layers())
        shapes.insert(tableKeyOf(layer, {}, SearchEffort::Sketch));
    int64_t expected_tables = 0;
    for (const auto &[geometry, points] : searched_points) {
        if (points >= 2)
            expected_tables += static_cast<int64_t>(shapes.size());
    }
    ASSERT_GT(expected_tables, 0);

    obs::Counter &table_bytes =
        obs::MetricsRegistry::instance().counter("mapper.table.bytes");
    std::optional<DseResult> serial;
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(threads);
        MappingCache cache;
        const int64_t bytes_before = table_bytes.value();
        const DseResult r =
            explore(model, fig15Options(threads, &cache), tech);
        EXPECT_EQ(cache.tableBuilds(), expected_tables);
        EXPECT_EQ(r.cacheEntries, expected_tables);
        // The tables stay small.
        EXPECT_LE(table_bytes.value() - bytes_before, int64_t{5} << 20);
        if (!serial) {
            serial = r;
            continue;
        }
        EXPECT_EQ(r.swept, serial->swept);
        EXPECT_EQ(r.areaRejected, serial->areaRejected);
        EXPECT_EQ(r.infeasible, serial->infeasible);
        EXPECT_EQ(r.search.evaluated, serial->search.evaluated);
        EXPECT_EQ(r.search.pruned, serial->search.pruned);
        EXPECT_EQ(r.search.cacheHits, serial->search.cacheHits);
        EXPECT_EQ(r.search.cacheMisses, serial->search.cacheMisses);
        EXPECT_EQ(r.cacheEntries, serial->cacheEntries);
        ASSERT_EQ(r.points.size(), serial->points.size());
        for (size_t i = 0; i < r.points.size(); ++i) {
            EXPECT_EQ(r.points[i].cost.energy.total(),
                      serial->points[i].cost.energy.total())
                << i;
            EXPECT_EQ(r.points[i].cost.cycles, serial->points[i].cost.cycles)
                << i;
        }
    }
}

TEST(MemoryAxisTable, CountersAreObservationOnly)
{
    // The mapper.table.* counters mirror the cache's own, and turning
    // the observability stack on changes no result.
    const ConvLayer layer = makeConv("c", 28, 28, 256, 128, 3, 3, 1);
    const Model model = oneLayerModel(layer);
    std::mt19937 g(11);
    const ComputeAllocation compute = enumerateCompute(2048).front();
    std::vector<AcceleratorConfig> configs;
    for (int i = 0; i < 6; ++i)
        configs.push_back(randomConfig(g, compute));

    const auto run = [&](bool observed, MappingCache &cache) {
        SearchOptions search;
        obs::setTracingEnabled(observed);
        std::vector<ModelMappingResult> out;
        for (const AcceleratorConfig &cfg : configs) {
            out.push_back(mapModel(model, cfg, defaultTech(),
                                   SearchEffort::Sketch,
                                   Objective::MinEdp, search, &cache));
        }
        obs::setTracingEnabled(false);
        return out;
    };

    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    const int64_t builds0 = reg.counter("mapper.table.builds").value();
    const int64_t hits0 = reg.counter("mapper.table.hits").value();
    const int64_t leaves0 = reg.counter("mapper.table.leaves").value();
    const int64_t bytes0 = reg.counter("mapper.table.bytes").value();
    MappingCache plain_cache;
    const std::vector<ModelMappingResult> plain = run(false, plain_cache);
    EXPECT_EQ(reg.counter("mapper.table.builds").value() - builds0,
              plain_cache.tableBuilds());
    EXPECT_EQ(reg.counter("mapper.table.hits").value() - hits0,
              plain_cache.tableHits());
    EXPECT_EQ(plain_cache.tableBuilds(), 1);
    EXPECT_EQ(plain_cache.tableHits(),
              static_cast<int64_t>(configs.size()) - 1);
    EXPECT_GT(reg.counter("mapper.table.leaves").value() - leaves0, 0);
    EXPECT_GT(reg.counter("mapper.table.bytes").value() - bytes0, 0);

    MappingCache observed_cache;
    const std::vector<ModelMappingResult> observed =
        run(true, observed_cache);
    ASSERT_EQ(plain.size(), observed.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        ASSERT_EQ(plain[i].feasible, observed[i].feasible);
        EXPECT_EQ(plain[i].stats.evaluated, observed[i].stats.evaluated);
        EXPECT_EQ(plain[i].stats.pruned, observed[i].stats.pruned);
        if (plain[i].feasible) {
            expectSameChoice(plain[i].choices[0], observed[i].choices[0],
                             "config " + std::to_string(i));
        }
    }
}

namespace {

/** A technology a request could carry: every number positive and
 *  finite, each double scaled by a random factor. */
TechnologyModel
requestValidTech(std::mt19937 &g)
{
    TechnologyModel t = defaultTech();
    std::uniform_real_distribution<double> scale(0.1, 10.0);
    forEachTechParameter(t, [&](const char *, auto &v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>)
            v *= scale(g);
    });
    t.dramBitsPerCycle = pick(g, std::vector<int>{32, 128, 512});
    t.d2dBitsPerCycle = pick(g, std::vector<int>{16, 64, 256});
    return t;
}

/** What a search returned, or the per-candidate reference loop. */
struct Searched
{
    bool found = false;
    size_t index = 0; //!< into the enumeration (= the view's order)
    double score = 0;
    int64_t evaluated = 0;
    int64_t pruned = 0;
};

/**
 * The exhaustive search written out per candidate: blocks of
 * kPruneBlock candidates, each pruned against the incumbent frozen at
 * its start with pickBest()'s margin, survivors scored by
 * evaluateMapping() and reduced with strict '<'.  @p blocks receives
 * the number of blocks.
 */
Searched
referenceSearch(const ConvLayer &layer, const AcceleratorConfig &cfg,
                const TechnologyModel &tech,
                const std::vector<Mapping> &candidates, Objective objective,
                bool prune, size_t *blocks = nullptr)
{
    Searched r;
    size_t n = 0;
    for (size_t base = 0; base < candidates.size(); base += kPruneBlock) {
        ++n;
        const bool bounded = prune && r.found;
        const double threshold = r.score * (1.0 + 1e-9);
        for (size_t i = base;
             i < std::min(candidates.size(), base + kPruneBlock); ++i) {
            if (bounded && scoreLowerBound(layer, cfg, tech, candidates[i],
                                           objective) >= threshold) {
                ++r.pruned;
                continue;
            }
            const MappingChoice c =
                evaluateMapping(layer, cfg, tech, candidates[i]);
            const double score = objective == Objective::MinEnergy
                                     ? c.energy.total()
                                     : c.edp();
            ++r.evaluated;
            if (!r.found || score < r.score) {
                r.found = true;
                r.index = i;
                r.score = score;
            }
        }
    }
    if (blocks)
        *blocks = n;
    return r;
}

/** A search of @p layer at @p cfg served by a table view: the cache
 *  has seen the key once already, so mapModel() walks its plan. */
Searched
tableSearch(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const TechnologyModel &tech, SearchEffort effort,
            Objective objective, bool prune,
            const std::vector<Mapping> &candidates)
{
    MappingCache cache;
    EXPECT_FALSE(cache.tableView(layer, cfg, effort));
    SearchOptions search;
    search.boundPruning = prune;
    const ModelMappingResult r = mapModel(oneLayerModel(layer), cfg, tech,
                                          effort, objective, search, &cache);
    EXPECT_EQ(cache.tableHits(), 1);
    Searched out;
    out.found = r.feasible;
    out.evaluated = r.stats.evaluated;
    out.pruned = r.stats.pruned;
    if (r.feasible) {
        const MappingChoice &c = r.choices[0];
        out.index = static_cast<size_t>(
            std::find(candidates.begin(), candidates.end(), c.mapping) -
            candidates.begin());
        out.score = objective == Objective::MinEnergy ? c.energy.total()
                                                      : c.edp();
    }
    return out;
}

void
expectSameSearch(const Searched &walk, const Searched &ref,
                 const std::string &ctx)
{
    ASSERT_EQ(walk.found, ref.found) << ctx;
    EXPECT_EQ(walk.evaluated, ref.evaluated) << ctx;
    EXPECT_EQ(walk.pruned, ref.pruned) << ctx;
    if (ref.found) {
        EXPECT_EQ(walk.index, ref.index) << ctx;
        EXPECT_EQ(std::bit_cast<uint64_t>(walk.score),
                  std::bit_cast<uint64_t>(ref.score))
            << ctx;
    }
}

/** Random (layer, configuration) pairs across the four layer kinds. */
std::vector<std::pair<ConvLayer, AcceleratorConfig>>
randomSearches(std::mt19937 &g, int layers, size_t computes)
{
    std::vector<std::pair<ConvLayer, AcceleratorConfig>> out;
    for (int kind = 0; kind < layers; ++kind) {
        const ConvLayer layer = randomLayer(g, kind);
        for (const ComputeAllocation &compute : someComputes(g, computes))
            out.emplace_back(layer, randomConfig(g, compute));
    }
    return out;
}

} // namespace

TEST(SearchPlan, BlocksCoverTheViewAndFloorEveryMembersBound)
{
    // Every block of a plan accounts for each of its members once, in
    // one distinct Terms and one score group whose first member it
    // shares fills with, and its floor prices at or below each
    // member's scoreLowerBound() for any request-valid technology.
    std::mt19937 g(20261021);
    int64_t members_checked = 0;
    int64_t strict = 0;
    for (const auto &[layer, cfg] : randomSearches(g, 8, 3)) {
        for (const SearchEffort effort :
             {SearchEffort::Sketch, SearchEffort::Fast}) {
            MemoryAxisTable table(layer, effort);
            const MemoryAxisTable::View &view = table.view(cfg);
            const MemoryAxisTable::Plan &plan = view.plan;
            ASSERT_EQ(plan.blockCount,
                      (view.size() + kPruneBlock - 1) / kPruneBlock);
            const TechnologyModel techs[] = {defaultTech(),
                                             requestValidTech(g),
                                             requestValidTech(g)};
            for (size_t b = 0; b < plan.blockCount; ++b) {
                const size_t base = b * kPruneBlock;
                const size_t end = std::min(view.size(), base + kPruneBlock);
                const size_t t0 = b ? plan.blocks[b - 1].termsEnd : 0;
                const size_t g0 = b ? plan.blocks[b - 1].groupsEnd : 0;
                const MemoryAxisTable::Plan::Block &block = plan.blocks[b];
                int64_t in_terms = 0;
                for (size_t t = t0; t < block.termsEnd; ++t)
                    in_terms += plan.termMembers[t];
                int64_t in_groups = 0;
                for (size_t k = g0; k < block.groupsEnd; ++k) {
                    const MemoryAxisTable::Plan::Group &grp = plan.groups[k];
                    ASSERT_GE(grp.first, base);
                    ASSERT_LT(grp.first, end);
                    if (k > g0) {
                        EXPECT_GT(grp.first, plan.groups[k - 1].first);
                    }
                    ASSERT_LT(t0 + grp.terms, block.termsEnd);
                    EXPECT_EQ(plan.terms[t0 + grp.terms],
                              view[grp.first]->terms);
                    in_groups += grp.count;
                }
                EXPECT_EQ(in_terms, static_cast<int64_t>(end - base));
                EXPECT_EQ(in_groups, static_cast<int64_t>(end - base));
                for (size_t i = base; i < end; ++i) {
                    int groups = 0;
                    for (size_t k = g0; k < block.groupsEnd; ++k) {
                        const size_t first = plan.groups[k].first;
                        groups += view[first]->sharesScore(*view[i]) &&
                                  first <= i;
                    }
                    EXPECT_EQ(groups, 1) << "member " << i;
                    EXPECT_EQ(std::count(&plan.terms[t0],
                                         &plan.terms[block.termsEnd],
                                         view[i]->terms),
                              1);
                }
                for (const TechnologyModel &tech : techs) {
                    ASSERT_TRUE(boundIsMonotone(tech));
                    const BufferRates rates = bufferRates(cfg, tech);
                    for (const Objective objective :
                         {Objective::MinEnergy, Objective::MinEdp}) {
                        const double floor = priceLowerBound(
                            block.floor, cfg, tech, rates, objective);
                        for (size_t i = base; i < end; ++i) {
                            const double bound =
                                scoreLowerBound(layer, cfg, tech,
                                                view[i]->mapping, objective);
                            ASSERT_LE(floor, bound)
                                << layer.toString() << " "
                                << cfg.toString() << " "
                                << view[i]->mapping.toString();
                            strict += floor < bound;
                            ++members_checked;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(members_checked, 100000);
    EXPECT_GT(strict, 0);
}

TEST(SearchPlan, WalkMatchesAPerCandidateReference)
{
    // The plan walk returns the reference loop's winner index, score
    // bits and counters at every effort, both objectives, with and
    // without pruning, under the default and random request-valid
    // technologies.
    std::mt19937 g(4242);
    int64_t searched = 0;
    int64_t pruned = 0;
    for (const SearchEffort effort :
         {SearchEffort::Sketch, SearchEffort::Fast,
          SearchEffort::Exhaustive}) {
        const bool exhaustive = effort == SearchEffort::Exhaustive;
        for (const auto &[layer, cfg] :
             randomSearches(g, exhaustive ? 2 : 6, exhaustive ? 1 : 2)) {
            const std::vector<Mapping> candidates =
                enumerateCandidates(layer, cfg, effort);
            const TechnologyModel techs[] = {defaultTech(),
                                             requestValidTech(g)};
            for (const TechnologyModel &tech : techs) {
                for (const Objective objective :
                     {Objective::MinEnergy, Objective::MinEdp}) {
                    for (const bool prune : {true, false}) {
                        const std::string ctx =
                            layer.toString() + " " + cfg.toString() +
                            " effort " +
                            std::to_string(static_cast<int>(effort)) +
                            (objective == Objective::MinEdp ? " edp"
                                                            : " energy") +
                            (prune ? " pruned" : " unpruned");
                        const Searched ref = referenceSearch(
                            layer, cfg, tech, candidates, objective, prune);
                        expectSameSearch(tableSearch(layer, cfg, tech,
                                                     effort, objective,
                                                     prune, candidates),
                                         ref, ctx);
                        if (HasFailure())
                            return;
                        ++searched;
                        pruned += ref.pruned;
                    }
                }
            }
        }
    }
    EXPECT_GT(searched, 100);
    EXPECT_GT(pruned, 0);
}

TEST(SearchPlan, WalkStopsAtTheBlockItIsAbortedAt)
{
    // The walk polls once per block, before the block's work, as the
    // candidate loop does: a fault armed for poll k aborts a search of
    // more than k blocks, with no counter counted, and a search of k
    // blocks or fewer returns the reference loop's answer.  (A fired
    // cancellation token is the same poll, which mapModel() also makes
    // between layers.)
    const ConvLayer layer = makeConv("c", 28, 28, 256, 128, 3, 3, 1);
    const AcceleratorConfig cfg = caseStudyConfig();
    const std::vector<Mapping> candidates =
        enumerateCandidates(layer, cfg, SearchEffort::Fast);
    size_t blocks = 0;
    const Searched ref =
        referenceSearch(layer, cfg, defaultTech(), candidates,
                        Objective::MinEdp, true, &blocks);
    ASSERT_GT(blocks, 3u);
    obs::Counter &evaluated =
        obs::MetricsRegistry::instance().counter(
            "mapper.candidates.evaluated");
    for (const size_t k : {size_t{0}, size_t{1}, blocks / 2, blocks - 1,
                           blocks, blocks + 1}) {
        SCOPED_TRACE(k);
        verif::FaultPlan plan;
        plan.failAtSearchBlock = static_cast<int64_t>(k);
        verif::armFaultPlan(plan);
        const int64_t before = evaluated.value();
        if (k < blocks) {
            EXPECT_THROW(tableSearch(layer, cfg, defaultTech(),
                                     SearchEffort::Fast, Objective::MinEdp,
                                     true, candidates),
                         StatusError);
            EXPECT_EQ(evaluated.value(), before);
        } else {
            expectSameSearch(tableSearch(layer, cfg, defaultTech(),
                                         SearchEffort::Fast,
                                         Objective::MinEdp, true,
                                         candidates),
                             ref, "unfired");
        }
        verif::disarmFaultPlan();
    }

    // A token that has fired stops the search before any block.
    CancelToken token;
    token.requestCancel();
    MappingCache cache;
    cache.tableView(layer, cfg, SearchEffort::Fast);
    SearchOptions search;
    search.cancel = &token;
    EXPECT_THROW(mapModel(oneLayerModel(layer), cfg, defaultTech(),
                          SearchEffort::Fast, Objective::MinEdp, search,
                          &cache),
                 StatusError);
}

TEST(SearchPlan, NonMonotoneTechnologiesFallBackToTermsDecisions)
{
    // A library technology with a negative energy, or an SRAM energy
    // that falls with size, breaks the floor's guarantee: some block
    // floor then prices above a member's bound.  The walk must then
    // decide per distinct Terms and still match the reference loop.
    TechnologyModel negative_dram = defaultTech();
    negative_dram.dramEnergyPerBit = -2.0;
    TechnologyModel falling_sram = defaultTech();
    falling_sram.sramEnergyPerBitKb = {2.0, -0.004};
    std::mt19937 g(99);
    const auto searches = randomSearches(g, 6, 2);
    for (const TechnologyModel &tech : {negative_dram, falling_sram}) {
        EXPECT_FALSE(boundIsMonotone(tech));
        int64_t floor_above_a_member = 0;
        for (const auto &[layer, cfg] : searches) {
            MemoryAxisTable table(layer, SearchEffort::Fast);
            const MemoryAxisTable::View &view = table.view(cfg);
            const BufferRates rates = bufferRates(cfg, tech);
            for (size_t b = 0; b < view.plan.blockCount; ++b) {
                const double floor =
                    priceLowerBound(view.plan.blocks[b].floor, cfg, tech,
                                    rates, Objective::MinEnergy);
                for (size_t i = b * kPruneBlock;
                     i < std::min(view.size(), (b + 1) * kPruneBlock); ++i) {
                    floor_above_a_member +=
                        floor > scoreLowerBound(layer, cfg, tech,
                                                view[i]->mapping,
                                                Objective::MinEnergy);
                }
            }
            const std::vector<Mapping> candidates =
                enumerateCandidates(layer, cfg, SearchEffort::Fast);
            for (const Objective objective :
                 {Objective::MinEnergy, Objective::MinEdp}) {
                expectSameSearch(
                    tableSearch(layer, cfg, tech, SearchEffort::Fast,
                                objective, true, candidates),
                    referenceSearch(layer, cfg, tech, candidates, objective,
                                    true),
                    layer.toString() + " " + cfg.toString());
            }
        }
        EXPECT_GT(floor_above_a_member, 0);
    }
}
