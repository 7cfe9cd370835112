/**
 * @file
 * Randomised property tests (seeded, deterministic):
 *
 *  - the analytical C3P engine must agree with the brute-force
 *    coordinate-enumerating reference on random divisible loop nests
 *    across tensors and capacities;
 *  - every mapping candidate the enumerator produces for random
 *    layers/configs must be legal and satisfy the access-accounting
 *    invariants (exact output traffic, cold-tensor floors, capacity
 *    monotonicity);
 *  - the search's score lower bound must never exceed the exact score
 *    of any candidate, and the pruned search must return the same
 *    best mapping as the exhaustive one (pruning soundness);
 *  - the linear buffer scan must equal the quadratic reference scan
 *    field by field, and a walk of single-field mapping mutations
 *    through one thread's evaluator must equal an evaluation built
 *    from by-value nests and the reference scan at every step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "c3p/access.hpp"
#include "cost/energy.hpp"
#include "mapper/bound.hpp"
#include "mapper/candidates.hpp"
#include "mapper/search.hpp"
#include "sim/runtime.hpp"
#include "tech/technology.hpp"
#include "verif/interpreter.hpp"
#include "verif/random_mapping.hpp"
#include "verif/replay.hpp"

using namespace nnbaton;

namespace {

/** Deterministic RNG so failures are reproducible. */
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

/** A random small layer with a matching random nest. */
struct FuzzCase
{
    ConvLayer layer;
    LoopNest nest;
};

FuzzCase
randomNest(std::mt19937 &g)
{
    FuzzCase c;
    const int k = pick(g, {1, 3, 5});
    const int s = pick(g, {1, 2});
    const int atom_h = pick(g, {1, 2, 4});
    const int atom_w = pick(g, {1, 2, 4});
    const int atom_c = pick(g, {2, 4});
    const int atom_i = pick(g, {2, 4});
    const int th = pick(g, {1, 2, 3});
    const int tw = pick(g, {1, 2, 4});
    const int tc = pick(g, {1, 2, 3});
    const int ti = pick(g, {1, 2});

    c.layer = makeConv("fuzz", atom_h * th, atom_w * tw, atom_c * tc,
                       atom_i * ti, k, k, s);

    // Random loop order over the four dims (kernel loops sometimes).
    std::vector<Loop> loops;
    if (th > 1)
        loops.push_back({Dim::OH, th});
    if (tw > 1)
        loops.push_back({Dim::OW, tw});
    if (tc > 1)
        loops.push_back({Dim::OC, tc});
    if (ti > 1)
        loops.push_back({Dim::IC, ti});
    if (k > 1 && pick(g, {0, 1})) {
        loops.push_back({Dim::KH, k});
        loops.push_back({Dim::KW, k});
    }
    std::shuffle(loops.begin(), loops.end(), g);
    c.nest.loops = loops;
    c.nest.atom = TileSpan{};
    c.nest.atom.ho = atom_h;
    c.nest.atom.wo = atom_w;
    c.nest.atom.co = atom_c;
    c.nest.atom.ci = atom_i;
    // Kernel dims not covered by loops stay whole in the atom.
    bool kh_looped = false;
    for (const Loop &l : loops)
        kh_looped |= l.dim == Dim::KH;
    if (!kh_looped) {
        c.nest.atom.kh = k;
        c.nest.atom.kw = k;
    }
    return c;
}

} // namespace

class C3PFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(C3PFuzz, AnalyticalMatchesReferenceOnRandomNests)
{
    auto &g = rng(GetParam());
    for (int iter = 0; iter < 20; ++iter) {
        const FuzzCase c = randomNest(g);
        for (Tensor t : {Tensor::Weights, Tensor::Activations,
                         Tensor::Outputs}) {
            // Capacities at every boundary footprint +/- 1.
            for (size_t b = 0; b <= c.nest.loops.size(); ++b) {
                const int64_t fp =
                    footprintBytes(t, c.nest.spanBelow(b), c.layer);
                for (int64_t cap : {fp - 1, fp, fp + 7}) {
                    if (cap <= 0)
                        continue;
                    const auto ana =
                        analyzeBuffer(c.nest, t, c.layer, cap);
                    const auto ref =
                        referenceFills(c.nest, t, c.layer, cap);
                    ASSERT_EQ(ana.fillBytes, ref.fillBytes)
                        << "seed " << GetParam() << " iter " << iter
                        << " tensor " << toString(t) << " cap " << cap
                        << " nest " << c.nest.toString() << " layer "
                        << c.layer.toString();
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, C3PFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

class MappingFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(MappingFuzz, CandidatesLegalAndInvariantsHold)
{
    auto &g = rng(GetParam() * 977u);
    for (int iter = 0; iter < 4; ++iter) {
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

        const ConvLayer layer = makeConv(
            "fuzz", pick(g, {7, 14, 28, 56}), pick(g, {7, 14, 28, 56}),
            pick(g, {32, 64, 256}), pick(g, {16, 64, 256}),
            pick(g, {1, 3}), pick(g, {1, 3}), pick(g, {1, 2}));

        const auto cands =
            enumerateCandidates(layer, cfg, SearchEffort::Fast);
        for (const Mapping &m : cands) {
            ASSERT_EQ(checkMapping(layer, cfg, m), "")
                << "seed " << GetParam() << " " << m.toString();
            const auto a = analyzeMapping(layer, cfg, m);
            // Output traffic is exact regardless of mapping.
            EXPECT_EQ(a.counts.dramWriteBits,
                      layer.outputVolume() * 8);
            // Weights must be read from DRAM at least once.
            EXPECT_GE(a.counts.dramReadBits(),
                      layer.weightVolume() * 8);
            // Utilisation fractions stay in (0, 1].
            EXPECT_GT(a.laneUtilization, 0.0);
            EXPECT_LE(a.laneUtilization, 1.0);
            EXPECT_GT(a.vectorUtilization, 0.0);
            EXPECT_LE(a.vectorUtilization, 1.0);
            // No D2D traffic on a single chiplet.
            if (cfg.package.chiplets == 1)
                EXPECT_EQ(a.counts.d2dBits, 0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappingFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u));

class CapacityMonotoneFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(CapacityMonotoneFuzz, LargerBuffersNeverIncreaseTraffic)
{
    auto &g = rng(GetParam() * 31337u);
    const ConvLayer layer = makeConv(
        "fuzz", pick(g, {14, 28, 56}), pick(g, {14, 28, 56}),
        pick(g, {64, 256}), pick(g, {64, 128}), 3, 3, 1);
    AcceleratorConfig cfg = caseStudyConfig();

    Mapping m;
    m.pkgSpatial = PackagePartition::Channel;
    m.chipSpatial = ChipletPartition::Channel;
    m.chipChannelWays = cfg.chiplet.cores;
    m.chipletTile = {14, 14, 64};
    m.hoC = 4;
    m.woC = 4;
    if (!checkMapping(layer, cfg, m).empty())
        GTEST_SKIP();

    int64_t prev_dram = INT64_MAX;
    for (int64_t wl1 = 2048; wl1 <= 262144; wl1 *= 2) {
        cfg.core.wl1Bytes = wl1;
        const auto a = analyzeMapping(layer, cfg, m);
        EXPECT_LE(a.counts.dramReadBits(), prev_dram) << wl1;
        prev_dram = a.counts.dramReadBits();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapacityMonotoneFuzz,
                         ::testing::Values(7u, 11u, 19u));

namespace {

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
    // Every third layer depthwise; strided 1x1 shortcuts included
    // deliberately — their input footprint is the tricky case for the
    // activation floor in the bound.
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

double
exactScore(const MappingChoice &c, Objective objective)
{
    return objective == Objective::MinEnergy ? c.energy.total()
                                             : c.edp();
}

} // namespace

class PruningFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(PruningFuzz, BoundNeverExceedsExactScore)
{
    auto &g = rng(GetParam() * 7919u);
    const TechnologyModel &tech = defaultTech();
    for (int iter = 0; iter < 3; ++iter) {
        const AcceleratorConfig cfg = randomConfig(g);
        const ConvLayer layer = randomLayer(g);
        const auto cands =
            enumerateCandidates(layer, cfg, SearchEffort::Fast);
        for (const Mapping &m : cands) {
            const MappingChoice c =
                evaluateMapping(layer, cfg, tech, m);
            for (Objective obj :
                 {Objective::MinEnergy, Objective::MinEdp}) {
                const double bound =
                    scoreLowerBound(layer, cfg, tech, m, obj);
                const double exact = exactScore(c, obj);
                // Soundness: allow only FP rounding slack.
                EXPECT_LE(bound, exact * (1.0 + 1e-9))
                    << "seed " << GetParam() << " iter " << iter
                    << " obj " << static_cast<int>(obj) << " layer "
                    << layer.toString() << " mapping " << m.toString();
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruningFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

class PruningSearchFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(PruningSearchFuzz, PrunedSearchMatchesExhaustive)
{
    auto &g = rng(GetParam() * 104729u);
    const TechnologyModel &tech = defaultTech();
    for (int iter = 0; iter < 3; ++iter) {
        const AcceleratorConfig cfg = randomConfig(g);
        const ConvLayer layer = randomLayer(g);
        for (Objective obj :
             {Objective::MinEnergy, Objective::MinEdp}) {
            SearchOptions pruned_opt;
            pruned_opt.boundPruning = true;
            SearchStats pruned_stats;
            const auto pruned =
                searchLayer(layer, cfg, tech, SearchEffort::Fast, obj,
                            pruned_opt, &pruned_stats);

            SearchOptions full_opt;
            full_opt.boundPruning = false;
            SearchStats full_stats;
            const auto full =
                searchLayer(layer, cfg, tech, SearchEffort::Fast, obj,
                            full_opt, &full_stats);

            ASSERT_EQ(pruned.has_value(), full.has_value())
                << "seed " << GetParam() << " iter " << iter;
            if (!pruned)
                continue;
            // Same winner, bit-identical score.
            EXPECT_EQ(exactScore(*pruned, obj), exactScore(*full, obj))
                << layer.toString();
            EXPECT_EQ(pruned->mapping.toString(),
                      full->mapping.toString())
                << layer.toString();
            // Pruning only ever skips work.
            EXPECT_EQ(full_stats.pruned, 0);
            EXPECT_LE(pruned_stats.evaluated, full_stats.evaluated);
            EXPECT_EQ(pruned_stats.evaluated + pruned_stats.pruned,
                      full_stats.evaluated);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruningSearchFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u));

namespace {

/**
 * A layer small enough that the coordinate-enumerating replay stays
 * cheap (its cost is the number of touched elements).
 */
ConvLayer
smallLayer(std::mt19937 &g)
{
    // Batch stays small so the coordinate enumeration (linear in
    // touched elements, hence in batch) remains cheap.
    const int batch = pick(g, {1, 1, 2, 3});
    switch (pick(g, {0, 1, 2, 3})) {
      case 0: {
        ConvLayer l = makeDepthwiseConv(
            "fuzz-dw", pick(g, {4, 7, 8}), pick(g, {4, 7, 8}),
            pick(g, {8, 16, 32}), 3, pick(g, {1, 2}));
        l.batch = batch;
        return l;
      }
      case 1:
        // Native GEMM, sometimes with a softmax-style vector tail.
        return makeGemm("fuzz-gemm", pick(g, {15, 24, 49, 64}),
                        pick(g, {8, 16, 32}), pick(g, {8, 16, 32}),
                        batch, pick(g, {0, 0, 3}));
      default: {
        ConvLayer l = makeConv(
            "fuzz", pick(g, {4, 7, 8, 14}), pick(g, {4, 7, 8, 14}),
            pick(g, {8, 16, 32}), pick(g, {8, 16, 32}),
            pick(g, {1, 3}), pick(g, {1, 3}), pick(g, {1, 2}));
        l.batch = batch;
        return l;
      }
    }
}

} // namespace

class ReplayFuzz : public ::testing::TestWithParam<uint32_t>
{
};

/**
 * The full-hierarchy differential check of this PR's tentpole: random
 * legal mappings (generator, not the candidate enumerator) on random
 * layers and buffer capacities must replay to bit-identical access
 * counts, cycles and energy.  Ten seeds x 50 mappings = 500 cases.
 */
TEST_P(ReplayFuzz, FullHierarchyReplayMatchesAnalyticalEngine)
{
    auto &g = rng(GetParam() * 48271u);
    const TechnologyModel &tech = defaultTech();
    int replayed = 0;
    for (int attempt = 0; attempt < 400 && replayed < 50; ++attempt) {
        const AcceleratorConfig cfg = randomConfig(g);
        const ConvLayer layer = smallLayer(g);
        const auto mapping = randomMapping(g, layer, cfg, 16);
        if (!mapping)
            continue;
        ++replayed;
        const DifferentialReport report =
            diffMapping(layer, cfg, tech, *mapping);
        if (!report.ok()) {
            // Shrink before reporting so the failure is actionable.
            DiffCase c{layer, cfg, *mapping};
            const DiffCase reduced = minimizeFailure(
                c, [&](const DiffCase &n) {
                    return !diffMapping(n.layer, n.cfg, tech,
                                        n.mapping)
                                .ok();
                });
            FAIL() << "seed " << GetParam() << " replay mismatch\n"
                   << report.toString() << "full case: "
                   << c.toString() << "\nminimised: "
                   << reduced.toString() << "\n"
                   << diffMapping(reduced.layer, reduced.cfg, tech,
                                  reduced.mapping)
                          .toString();
        }
    }
    // The generator must actually exercise the differential check.
    EXPECT_EQ(replayed, 50) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u, 9u, 10u));

class BufferFastFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BufferFastFuzz, FastScanMatchesReferenceScan)
{
    // The linear scan analyzeBuffer() must equal the quadratic
    // reference scan on every field, for the nests real mappings lower
    // to, across all three tensors and a ladder of capacities spanning
    // never-fits to always-fits.
    auto &g = rng(GetParam() ^ 0x5eed);
    const AcceleratorConfig cfg = caseStudyConfig();
    const ConvLayer layer = randomLayer(g);
    const std::optional<Mapping> m = randomMapping(g, layer, cfg);
    if (!m)
        GTEST_SKIP() << "no legal mapping for " << layer.toString();
    const MappingShapes shapes = deriveShapes(layer, cfg, *m);
    const NestSet nests = buildNests(layer, cfg, *m, shapes);
    for (const LoopNest *nest : {&nests.perCore, &nests.perChiplet}) {
        for (Tensor t : {Tensor::Weights, Tensor::Activations,
                         Tensor::Outputs}) {
            for (int64_t cap = 1; cap <= (int64_t(1) << 40); cap <<= 4) {
                const ReuseResult ref =
                    referenceAnalyzeBuffer(*nest, t, layer, cap);
                const ReuseResult fast =
                    analyzeBuffer(*nest, t, layer, cap);
                ASSERT_EQ(fast.fillBytes, ref.fillBytes) << cap;
                ASSERT_EQ(fast.footprintAtFit, ref.footprintAtFit);
                ASSERT_EQ(fast.fitBoundary, ref.fitBoundary);
                ASSERT_EQ(fast.intrinsicBytes, ref.intrinsicBytes);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferFastFuzz,
                         ::testing::Range(0u, 16u));

namespace {

/** Mutate exactly one mapping field: a tile factor, a loop order, the
 *  core-tile plane or the chiplet split's orientation. */
Mapping
mutateOneField(std::mt19937 &g, const Mapping &m)
{
    const auto halveOrDouble = [&g](int v) {
        return std::max(1, pick(g, {0, 1}) ? v * 2 : v / 2);
    };
    const auto flip = [](LoopOrder o) {
        return o == LoopOrder::ChannelPriority ? LoopOrder::PlanePriority
                                               : LoopOrder::ChannelPriority;
    };
    Mapping out = m;
    switch (g() % 8) {
      case 0:
        out.chipletTile.ho = halveOrDouble(m.chipletTile.ho);
        break;
      case 1:
        out.chipletTile.wo = halveOrDouble(m.chipletTile.wo);
        break;
      case 2:
        out.chipletTile.co = halveOrDouble(m.chipletTile.co);
        break;
      case 3:
        out.pkgOrder = flip(m.pkgOrder);
        break;
      case 4:
        out.chipOrder = flip(m.chipOrder);
        break;
      case 5:
        out.hoC = halveOrDouble(m.hoC);
        break;
      case 6:
        out.woC = halveOrDouble(m.woC);
        break;
      default:
        out.chipSplit = {m.chipSplit.fw, m.chipSplit.fh};
        break;
    }
    return out;
}

/** evaluateMapping()'s answer rebuilt from parts it does not share:
 *  by-value nests instead of its per-thread scratch, and the quadratic
 *  reference scan instead of analyzeBuffer(). */
MappingChoice
independentEvaluation(const ConvLayer &layer, const AcceleratorConfig &cfg,
                      const TechnologyModel &tech, const Mapping &m)
{
    const MappingShapes shapes = deriveShapes(layer, cfg, m);
    const NestSet nests = buildNests(layer, cfg, m, shapes);
    MappingChoice c;
    c.mapping = m;
    c.analysis = composeAccessAnalysis(
        layer, cfg, m, AnalysisOptions{}, shapes,
        referenceAnalyzeBuffer(nests.perCore, Tensor::Weights, layer,
                               cfg.core.wl1Bytes * m.chipSplit.parts()),
        referenceAnalyzeBuffer(nests.perCore, Tensor::Activations, layer,
                               cfg.core.al1Bytes),
        referenceAnalyzeBuffer(nests.perChiplet, Tensor::Activations,
                               layer, cfg.chiplet.al2Bytes));
    c.energy = computeEnergy(c.analysis.counts, cfg, tech);
    c.runtime = estimateRuntime(layer, cfg, c.analysis, tech);
    return c;
}

bool
sameReuse(const ReuseResult &a, const ReuseResult &b)
{
    return a.fillBytes == b.fillBytes &&
           a.footprintAtFit == b.footprintAtFit &&
           a.fitBoundary == b.fitBoundary &&
           a.intrinsicBytes == b.intrinsicBytes;
}

bool
sameChoice(const MappingChoice &a, const MappingChoice &b)
{
    return a.analysis.counts.toString() == b.analysis.counts.toString() &&
           sameReuse(a.analysis.wl1, b.analysis.wl1) &&
           sameReuse(a.analysis.al1, b.analysis.al1) &&
           sameReuse(a.analysis.al2, b.analysis.al2) &&
           a.energy.total() == b.energy.total() &&
           a.runtime.cycles == b.runtime.cycles && a.edp() == b.edp();
}

} // namespace

class IncrementalFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(IncrementalFuzz, RandomWalkMatchesFullEvaluation)
{
    // A walk of incremental (single-field, legality-gated) mapping
    // mutations, evaluated one after another on this thread, so every
    // step runs analyzeMapping() on nest scratch the previous step
    // left behind, often of a different depth.  Each step must equal
    // the independent evaluation bit for bit; a divergence is shrunk
    // to a minimal case before it is reported.
    auto &g = rng(GetParam());
    const AcceleratorConfig cfg = caseStudyConfig();
    const TechnologyModel &tech = defaultTech();
    const ConvLayer layer = randomLayer(g);
    const std::optional<Mapping> start = randomMapping(g, layer, cfg);
    if (!start)
        GTEST_SKIP() << "no legal mapping for " << layer.toString();

    const auto diverges = [&](const DiffCase &dc) {
        return !sameChoice(
            evaluateMapping(dc.layer, dc.cfg, tech, dc.mapping),
            independentEvaluation(dc.layer, dc.cfg, tech, dc.mapping));
    };

    Mapping cur = *start;
    int accepted = 0;
    for (int step = 0; step < 120; ++step) {
        const Mapping next = mutateOneField(g, cur);
        if (!checkMapping(layer, cfg, next).empty())
            continue; // illegal mutation; draw again from cur
        ++accepted;
        if (!sameChoice(evaluateMapping(layer, cfg, tech, next),
                        independentEvaluation(layer, cfg, tech, next))) {
            const DiffCase shrunk =
                minimizeFailure({layer, cfg, next}, diverges);
            FAIL() << "evaluateMapping diverges at step " << step
                   << "; minimal case " << shrunk.toString();
        }
        cur = next;
    }
    EXPECT_GT(accepted, 0) << layer.toString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzz,
                         ::testing::Range(0u, 24u));
