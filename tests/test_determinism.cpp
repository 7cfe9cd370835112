/**
 * @file
 * The parallel sweep engine's central promise: explore() produces
 * bit-identical results (points, scores, mapping choices, and work
 * counters) at any thread count, and mapModel() the same results
 * with or without the shared cross-point cache.
 */

#include <gtest/gtest.h>

#include "dse/explorer.hpp"
#include "mapper/cache.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"

using namespace nnbaton;

namespace {

/** Small model with a repeated layer shape so the cache sees hits. */
Model
miniModel()
{
    Model m("mini", 64);
    m.addLayer(makeConv("a1", 32, 32, 128, 64, 3, 3, 1));
    m.addLayer(makeConv("b", 16, 16, 256, 128, 1, 1, 1));
    m.addLayer(makeConv("a2", 32, 32, 128, 64, 3, 3, 1));
    return m;
}

DseResult
sweep(int threads, bool pruning = true)
{
    DseOptions opt;
    opt.totalMacs = 2048;
    opt.proportionalMem = true;
    opt.effort = SearchEffort::Fast;
    opt.threads = threads;
    opt.boundPruning = pruning;
    return explore(miniModel(), opt, defaultTech());
}

void
expectIdentical(const DseResult &a, const DseResult &b)
{
    EXPECT_EQ(a.swept, b.swept);
    EXPECT_EQ(a.areaRejected, b.areaRejected);
    EXPECT_EQ(a.infeasible, b.infeasible);
    EXPECT_EQ(a.search.evaluated, b.search.evaluated);
    EXPECT_EQ(a.search.pruned, b.search.pruned);
    EXPECT_EQ(a.search.cacheHits, b.search.cacheHits);
    EXPECT_EQ(a.search.cacheMisses, b.search.cacheMisses);
    EXPECT_EQ(a.cacheEntries, b.cacheEntries);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        const DesignPoint &p = a.points[i];
        const DesignPoint &q = b.points[i];
        EXPECT_EQ(p.compute.chiplets, q.compute.chiplets) << i;
        EXPECT_EQ(p.compute.cores, q.compute.cores) << i;
        EXPECT_EQ(p.compute.lanes, q.compute.lanes) << i;
        EXPECT_EQ(p.compute.vectorSize, q.compute.vectorSize) << i;
        EXPECT_EQ(p.memory.ol1Bytes, q.memory.ol1Bytes) << i;
        EXPECT_EQ(p.memory.al1Bytes, q.memory.al1Bytes) << i;
        EXPECT_EQ(p.memory.wl1Bytes, q.memory.wl1Bytes) << i;
        EXPECT_EQ(p.memory.al2Bytes, q.memory.al2Bytes) << i;
        // Bit-identical scores: EXPECT_EQ on doubles, no tolerance.
        EXPECT_EQ(p.cost.energy.total(), q.cost.energy.total()) << i;
        EXPECT_EQ(p.cost.cycles, q.cost.cycles) << i;
        EXPECT_EQ(p.edp(), q.edp()) << i;
    }
}

} // namespace

TEST(Determinism, ExploreParallelMatchesSerial)
{
    const DseResult serial = sweep(1);
    for (int threads : {2, 4}) {
        const DseResult parallel = sweep(threads);
        SCOPED_TRACE(threads);
        expectIdentical(serial, parallel);
    }
}

TEST(Determinism, ExplorePruningPreservesPoints)
{
    // Pruning may only skip full evaluations, never change any
    // surviving point's score or the chosen best.
    const DseResult pruned = sweep(1, /*pruning=*/true);
    const DseResult full = sweep(1, /*pruning=*/false);
    EXPECT_EQ(pruned.swept, full.swept);
    ASSERT_EQ(pruned.points.size(), full.points.size());
    for (size_t i = 0; i < pruned.points.size(); ++i) {
        EXPECT_EQ(pruned.points[i].cost.energy.total(),
                  full.points[i].cost.energy.total());
        EXPECT_EQ(pruned.points[i].edp(), full.points[i].edp());
    }
    EXPECT_LE(pruned.search.evaluated, full.search.evaluated);
    EXPECT_EQ(full.search.pruned, 0);
    EXPECT_EQ(pruned.search.evaluated + pruned.search.pruned,
              full.search.evaluated);
    ASSERT_EQ(pruned.bestEdp().has_value(), full.bestEdp().has_value());
    if (pruned.bestEdp())
        EXPECT_EQ(*pruned.bestEdp(), *full.bestEdp());
}

TEST(Determinism, ExploreCountersAreConsistent)
{
    const DseResult r = sweep(4);
    // Every point searches the mini model's two distinct shapes once
    // each, and its repeated shape is a hit within the point.
    EXPECT_GT(r.swept, 0);
    EXPECT_EQ(r.areaRejected, 0);
    EXPECT_EQ(r.search.cacheMisses, 2 * r.swept);
    EXPECT_EQ(r.search.cacheHits, r.swept);
    // Proportional memory gives each geometry one memory point, so no
    // shape is searched twice on a geometry and no table is built.
    EXPECT_EQ(r.cacheEntries, 0);
    EXPECT_GT(r.search.evaluated, 0);
}

TEST(Determinism, TransformerLayersAcrossThreadsAndModes)
{
    // Transformer-era shapes (batched GEMMs, the lowered attention
    // block with its vector-op tail) map feasibly, and the repeated
    // GEMM exercises the batch/postOps-aware cache key.
    Model m("tf", 24);
    appendAttentionBlock(m, "a", 24, 96, 4, 2);
    m.addLayer(makeGemm("g1", 48, 64, 96, 3, 2));
    m.addLayer(makeGemm("g2", 48, 64, 96, 3, 2)); // cache repeat
    const ModelMappingResult r =
        mapModel(m, caseStudyConfig(), defaultTech(), SearchEffort::Fast);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.stats.cacheHits, 1); // g2 repeats g1 exactly
}

TEST(Determinism, BatchChangesCacheKeyNotDeterminism)
{
    // Two layers identical except for batch must be searched apart
    // (a batch-1 winner reused for batch-4 would break replay), and
    // the mapped totals must scale deterministically.
    Model m("bk", 16);
    m.addLayer(makeGemm("b1", 48, 64, 96, 1));
    m.addLayer(makeGemm("b4", 48, 64, 96, 4));
    const AcceleratorConfig cfg = caseStudyConfig();
    const ModelMappingResult r =
        mapModel(m, cfg, defaultTech(), SearchEffort::Fast,
                 Objective::MinEnergy);
    ASSERT_TRUE(r.feasible);
    EXPECT_FALSE(
        MappingCache::tableKey(m.layers()[0], cfg, SearchEffort::Fast) ==
        MappingCache::tableKey(m.layers()[1], cfg, SearchEffort::Fast));
    EXPECT_EQ(r.stats.cacheHits, 0);
    EXPECT_EQ(r.stats.cacheMisses, 2);
}

TEST(Determinism, SharedCacheDoesNotChangeResults)
{
    const Model model = miniModel();
    const AcceleratorConfig cfg = caseStudyConfig();
    MappingCache cache;
    const ModelMappingResult fresh =
        mapModel(model, cfg, defaultTech(), SearchEffort::Fast,
                 Objective::MinEnergy, SearchOptions{}, &cache);
    // Two distinct shapes -> two searches, one hit for the repeat; a
    // shape's first search builds no table.
    EXPECT_EQ(fresh.stats.cacheMisses, 2);
    EXPECT_EQ(fresh.stats.cacheHits, 1);
    EXPECT_EQ(cache.size(), 0u);

    // A second run against the warmed cache searches on the tables
    // the first run's misses earned: same cost, same work counters.
    const ModelMappingResult warmed =
        mapModel(model, cfg, defaultTech(), SearchEffort::Fast,
                 Objective::MinEnergy, SearchOptions{}, &cache);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.tableHits(), 2);
    EXPECT_EQ(warmed.stats.cacheHits, 1);
    EXPECT_EQ(warmed.stats.cacheMisses, 2);
    EXPECT_EQ(warmed.stats.evaluated, fresh.stats.evaluated);
    EXPECT_EQ(warmed.stats.pruned, fresh.stats.pruned);
    EXPECT_EQ(warmed.cost.energy.total(), fresh.cost.energy.total());
    EXPECT_EQ(warmed.cost.cycles, fresh.cost.cycles);
}
