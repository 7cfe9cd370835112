/**
 * @file
 * The search-strategy contract (docs/search.md):
 *
 *  - annealing always returns a legal mapping when one exists, never
 *    beats the true optimum (it walks the exhaustive candidate set,
 *    lane class included), and equal seeds reproduce equal results.
 */

#include <gtest/gtest.h>

#include <random>

#include "dataflow/mapping.hpp"
#include "mapper/cache.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"

using namespace nnbaton;

namespace {

double
scoreOf(const MappingChoice &c, Objective obj)
{
    return obj == Objective::MinEnergy ? c.energy.total() : c.edp();
}

std::mt19937 &
rng(uint32_t seed)
{
    static std::mt19937 gen;
    gen.seed(seed);
    return gen;
}

int
pick(std::mt19937 &g, std::initializer_list<int> values)
{
    std::uniform_int_distribution<size_t> d(0, values.size() - 1);
    return *(values.begin() + d(g));
}

AcceleratorConfig
randomConfig(std::mt19937 &g)
{
    AcceleratorConfig cfg;
    cfg.package.chiplets = pick(g, {1, 2, 4, 8});
    cfg.chiplet.cores = pick(g, {1, 2, 4, 8});
    cfg.core.lanes = pick(g, {4, 8, 16});
    cfg.core.vectorSize = pick(g, {4, 8, 16});
    cfg.core.ol1Bytes = pick(g, {768, 1536, 3072});
    cfg.core.al1Bytes = pick(g, {800, 2048, 8192});
    cfg.core.wl1Bytes = pick(g, {8192, 18432, 65536});
    cfg.chiplet.al2Bytes = pick(g, {32768, 65536, 262144});
    cfg.validate();
    return cfg;
}

ConvLayer
randomLayer(std::mt19937 &g)
{
    if (pick(g, {0, 1, 2}) == 0) {
        return makeDepthwiseConv("fuzz-dw", pick(g, {7, 14, 28}),
                                 pick(g, {7, 14, 28}),
                                 pick(g, {32, 64, 128}), 3,
                                 pick(g, {1, 2}));
    }
    return makeConv("fuzz", pick(g, {7, 14, 28, 56}),
                    pick(g, {7, 14, 28, 56}), pick(g, {32, 64, 256}),
                    pick(g, {16, 64, 256}), pick(g, {1, 3}),
                    pick(g, {1, 3}), pick(g, {1, 2}));
}

} // namespace

/** Anneal must key the cache per seed: two seeds, two entries. */
TEST(SearchModes, AnnealCacheKeysIncludeSeed)
{
    const Model model = Model("one", 8);
    Model m("one", 8);
    m.addLayer(makeConv("a", 14, 14, 64, 32, 3, 3, 1));
    MappingCache cache;
    SearchOptions a;
    a.mode = SearchMode::Anneal;
    a.annealSeed = 1;
    (void)mapModel(m, caseStudyConfig(), defaultTech(),
                   SearchEffort::Fast, Objective::MinEnergy, a, &cache);
    EXPECT_EQ(cache.size(), 1u);
    a.annealSeed = 2;
    (void)mapModel(m, caseStudyConfig(), defaultTech(),
                   SearchEffort::Fast, Objective::MinEnergy, a, &cache);
    EXPECT_EQ(cache.size(), 2u);
    // Exhaustive keys one deterministic entry, independent of seed.
    SearchOptions ex;
    (void)mapModel(m, caseStudyConfig(), defaultTech(),
                   SearchEffort::Fast, Objective::MinEnergy, ex,
                   &cache);
    EXPECT_EQ(cache.size(), 3u);
    ex.annealSeed = 2;
    ModelMappingResult shared =
        mapModel(m, caseStudyConfig(), defaultTech(),
                 SearchEffort::Fast, Objective::MinEnergy, ex, &cache);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(shared.stats.cacheHits, 1);
}

class AnnealFuzz : public ::testing::TestWithParam<uint32_t>
{
};

/**
 * Annealing legality and reproducibility on random cases: whenever
 * the exhaustive search finds a winner, anneal finds a legal mapping
 * whose score is no better than the optimum (same grid), and the same
 * seed reproduces the same mapping while runs stay independent of
 * each other.
 */
TEST_P(AnnealFuzz, LegalReproducibleNeverBeatsOptimum)
{
    auto &g = rng(GetParam() * 805306457u);
    const TechnologyModel &tech = defaultTech();
    for (int iter = 0; iter < 6; ++iter) {
        const AcceleratorConfig cfg = randomConfig(g);
        const ConvLayer layer = randomLayer(g);
        for (Objective obj :
             {Objective::MinEnergy, Objective::MinEdp}) {
            const auto best = searchLayer(
                layer, cfg, tech, SearchEffort::Fast, obj,
                SearchOptions{});

            SearchOptions an;
            an.mode = SearchMode::Anneal;
            an.annealSeed = 7u + GetParam();
            an.annealIterations = 120;
            SearchStats stats;
            const auto first = searchLayer(
                layer, cfg, tech, SearchEffort::Fast, obj, an, &stats);

            ASSERT_EQ(best.has_value(), first.has_value())
                << "seed " << GetParam() << " iter " << iter << " "
                << layer.toString();
            if (!best)
                continue;
            // Legal, and never better than the true optimum.
            EXPECT_EQ(checkMapping(layer, cfg, first->mapping), "")
                << first->mapping.toString();
            EXPECT_GE(scoreOf(*first, obj), scoreOf(*best, obj));
            // Work was bounded by the move budget plus the init scan.
            EXPECT_GT(stats.evaluated, 0);

            // Same seed, same result — bit for bit.
            const auto again = searchLayer(
                layer, cfg, tech, SearchEffort::Fast, obj, an);
            ASSERT_TRUE(again.has_value());
            EXPECT_EQ(first->mapping.toString(),
                      again->mapping.toString());
            EXPECT_EQ(scoreOf(*first, obj), scoreOf(*again, obj));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnnealFuzz,
                         ::testing::Values(1u, 2u, 3u));

/**
 * Anneal walks the exhaustive search's candidate set, lane class
 * included: on every MobileNetV2@224 layer (case-study config, seed 1,
 * 400 moves) its score is no better than the exhaustive optimum, and
 * its winner fills the MAC lanes whenever the exhaustive winner does.
 * Depthwise layers are the trap: their degraded-lane leaves can score
 * below every full-lane candidate.
 */
TEST(SearchModes, AnnealStaysInExhaustiveCandidateSet)
{
    const Model model = makeMobileNetV2(224);
    const AcceleratorConfig cfg = caseStudyConfig();
    const TechnologyModel &tech = defaultTech();
    const ModelMappingResult exhaustive =
        mapModel(model, cfg, tech, SearchEffort::Exhaustive,
                 Objective::MinEnergy, SearchOptions{});
    SearchOptions an;
    an.mode = SearchMode::Anneal;
    an.annealSeed = 1;
    an.annealIterations = 400;
    const ModelMappingResult anneal =
        mapModel(model, cfg, tech, SearchEffort::Exhaustive,
                 Objective::MinEnergy, an);
    ASSERT_TRUE(exhaustive.feasible);
    ASSERT_TRUE(anneal.feasible);
    ASSERT_EQ(anneal.choices.size(), exhaustive.choices.size());

    const auto fullLane = [&](const ConvLayer &layer, const Mapping &m) {
        return deriveShapes(layer, cfg, m).coreMacro.co >=
               cfg.core.lanes;
    };
    for (size_t i = 0; i < exhaustive.choices.size(); ++i) {
        const ConvLayer &layer = model.layers()[i];
        const MappingChoice &best = exhaustive.choices[i];
        const MappingChoice &walk = anneal.choices[i];
        EXPECT_GE(walk.energy.total(), best.energy.total())
            << layer.name << " " << walk.mapping.toString();
        if (fullLane(layer, best.mapping)) {
            EXPECT_TRUE(fullLane(layer, walk.mapping))
                << layer.name << " " << walk.mapping.toString();
        }
    }
    EXPECT_GE(anneal.cost.energy.total(), exhaustive.cost.energy.total());
}
