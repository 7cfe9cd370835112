/**
 * @file
 * Tests for candidate enumeration, the per-layer mapping search and
 * the whole-model post-design flow, plus the access-accounting
 * invariants the search relies on.
 */

#include <gtest/gtest.h>

#include <set>

#include "c3p/access.hpp"
#include "dse/space.hpp"
#include "mapper/cache.hpp"
#include "mapper/candidates.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"

using namespace nnbaton;

TEST(Candidates, AllLegalAndCoverSpatialCombos)
{
    const ConvLayer layer = makeConv("t", 56, 56, 256, 128, 3, 3, 1);
    const AcceleratorConfig cfg = caseStudyConfig();
    const auto cands =
        enumerateCandidates(layer, cfg, SearchEffort::Exhaustive);
    ASSERT_FALSE(cands.empty());

    std::set<std::string> combos;
    for (const Mapping &m : cands) {
        EXPECT_EQ(checkMapping(layer, cfg, m), "") << m.toString();
        combos.insert(m.spatialLabel());
    }
    // All six spatial combinations appear for a wide, large layer.
    EXPECT_EQ(combos.size(), 6u) << "got only " << combos.size();
}

TEST(Candidates, PaperCaseDropsUnderfilledLanes)
{
    // Paper figure 11 removes (C,C) for conv layers with small output
    // channels: a 64-channel layer split 4 x 8 ways leaves 2 channels
    // per core against 8 lanes.
    const ConvLayer conv1 = makeConv("c", 224, 224, 64, 3, 3, 3, 1);
    const AcceleratorConfig cfg = caseStudyConfig();
    const auto cands =
        enumerateCandidates(conv1, cfg, SearchEffort::Exhaustive);
    for (const Mapping &m : cands) {
        EXPECT_NE(m.spatialLabel(), "(C,C)") << m.toString();
    }
}

TEST(Candidates, FallbackWhenNothingFillsLanes)
{
    // A 4-channel layer cannot fill 8 lanes under any partition, so
    // the degraded candidates must be returned instead of nothing.
    const ConvLayer narrow = makeConv("n", 56, 56, 4, 64, 3, 3, 1);
    const auto cands = enumerateCandidates(narrow, caseStudyConfig(),
                                           SearchEffort::Exhaustive);
    EXPECT_FALSE(cands.empty());
}

TEST(Candidates, FastEffortIsSubsetSized)
{
    const ConvLayer layer = makeConv("t", 56, 56, 256, 128, 3, 3, 1);
    const AcceleratorConfig cfg = caseStudyConfig();
    const auto fast =
        enumerateCandidates(layer, cfg, SearchEffort::Fast);
    const auto full =
        enumerateCandidates(layer, cfg, SearchEffort::Exhaustive);
    EXPECT_FALSE(fast.empty());
    EXPECT_LT(fast.size(), full.size());
}

TEST(Candidates, FilteredEnumerationRespectsCombo)
{
    const ConvLayer layer = makeConv("t", 56, 56, 256, 128, 3, 3, 1);
    const auto cands = enumerateCandidatesFor(
        layer, caseStudyConfig(), SearchEffort::Exhaustive,
        PackagePartition::Plane, ChipletPartition::Hybrid);
    ASSERT_FALSE(cands.empty());
    for (const Mapping &m : cands)
        EXPECT_EQ(m.spatialLabel(), "(P,H)");
}

TEST(AccessCounts, OutputTrafficIsExact)
{
    // Output-centric dataflow: every output crosses O-L2 and DRAM
    // exactly once at 8 bits, independent of the mapping.
    const ConvLayer layer = makeConv("t", 56, 56, 256, 128, 3, 3, 1);
    const AcceleratorConfig cfg = caseStudyConfig();
    for (const Mapping &m :
         enumerateCandidates(layer, cfg, SearchEffort::Fast)) {
        const auto a = analyzeMapping(layer, cfg, m);
        EXPECT_EQ(a.counts.dramWriteBits, layer.outputVolume() * 8);
        EXPECT_EQ(a.counts.ol2WriteBits, layer.outputVolume() * 8);
        EXPECT_EQ(a.counts.macOps, layer.macs());
    }
}

TEST(AccessCounts, DramReadsCoverColdTensors)
{
    // DRAM reads can never be below one cold pass over weights plus
    // the package's unique activation demand.
    const ConvLayer layer = makeConv("t", 28, 28, 512, 256, 3, 3, 1);
    const AcceleratorConfig cfg = caseStudyConfig();
    for (const Mapping &m :
         enumerateCandidates(layer, cfg, SearchEffort::Fast)) {
        const auto a = analyzeMapping(layer, cfg, m);
        EXPECT_GE(a.counts.dramReadBits(), layer.weightVolume() * 8)
            << m.toString();
    }
}

TEST(AccessCounts, RotationSharingSplitsDramAndD2d)
{
    // C-type package split shares activations: the ring must carry
    // (Np-1) copies of the A-L2 fill stream.
    const ConvLayer layer = makeConv("t", 56, 56, 256, 128, 3, 3, 1);
    const AcceleratorConfig cfg = caseStudyConfig();
    Mapping m;
    m.pkgSpatial = PackagePartition::Channel;
    m.chipSpatial = ChipletPartition::Channel;
    m.chipChannelWays = 8;
    m.chipletTile = {16, 16, 64};
    m.hoC = 8;
    m.woC = 8;
    const auto a = analyzeMapping(layer, cfg, m);
    EXPECT_EQ(a.counts.d2dBits % 3, 0); // (Np-1) = 3 copies
    EXPECT_GT(a.counts.d2dBits, 0);
    // Same mapping on a single chiplet has no D2D at all.
    AcceleratorConfig one = cfg;
    one.package.chiplets = 1;
    Mapping m1 = m;
    m1.chipletTile.co = 256;
    const auto a1 = analyzeMapping(layer, one, m1);
    EXPECT_EQ(a1.counts.d2dBits, 0);
}

TEST(SearchLayer, FindsMappingForAllRepresentativeLayers)
{
    const AcceleratorConfig cfg = caseStudyConfig();
    const RepresentativeLayers reps = representativeLayers(224);
    for (const ConvLayer *l :
         {&reps.activationIntensive, &reps.weightIntensive,
          &reps.largeKernel, &reps.pointWise, &reps.common}) {
        const auto best = searchLayer(*l, cfg, defaultTech());
        ASSERT_TRUE(best.has_value()) << l->name;
        EXPECT_GT(best->energy.total(), 0.0);
        EXPECT_GT(best->runtime.cycles, 0);
    }
}

TEST(SearchLayer, BestBeatsEveryFastCandidate)
{
    const ConvLayer layer = makeConv("t", 56, 56, 256, 128, 3, 3, 1);
    const AcceleratorConfig cfg = caseStudyConfig();
    const auto best = searchLayer(layer, cfg, defaultTech());
    ASSERT_TRUE(best.has_value());
    for (const Mapping &m :
         enumerateCandidates(layer, cfg, SearchEffort::Fast)) {
        const auto c = evaluateMapping(layer, cfg, defaultTech(), m);
        EXPECT_LE(best->energy.total(), c.energy.total() + 1e-6)
            << m.toString();
    }
}

TEST(SearchLayer, EdpObjectiveNeverWorseEdp)
{
    const ConvLayer layer = makeConv("t", 56, 56, 256, 128, 3, 3, 1);
    const AcceleratorConfig cfg = caseStudyConfig();
    const auto e = searchLayer(layer, cfg, defaultTech(),
                               SearchEffort::Exhaustive,
                               Objective::MinEnergy);
    const auto d = searchLayer(layer, cfg, defaultTech(),
                               SearchEffort::Exhaustive,
                               Objective::MinEdp);
    ASSERT_TRUE(e && d);
    EXPECT_LE(d->edp(), e->edp() + 1e-6);
    EXPECT_LE(e->energy.total(), d->energy.total() + 1e-6);
}

TEST(SearchLayerWithSpatial, RespectsRestriction)
{
    const ConvLayer layer = makeConv("t", 56, 56, 256, 128, 3, 3, 1);
    const auto r = searchLayerWithSpatial(
        layer, caseStudyConfig(), defaultTech(),
        PackagePartition::Channel, ChipletPartition::Plane);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->mapping.spatialLabel(), "(C,P)");
}

TEST(MapModel, CoversAllLayersAndDedupsShapes)
{
    const Model model = makeResNet50(224);
    const auto r = mapModel(model, caseStudyConfig(), defaultTech(),
                            SearchEffort::Fast);
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.choices.size(), model.layers().size());
    EXPECT_EQ(r.cost.layers.size(), model.layers().size());
    EXPECT_GT(r.cost.energy.total(), 0.0);
    EXPECT_GT(r.cost.cycles, 0);
    // Identical repeated blocks must produce identical choices.
    const auto &l = model.layers();
    for (size_t i = 0; i + 3 < l.size(); ++i) {
        for (size_t j = i + 1; j < l.size(); ++j) {
            if (l[i].ho == l[j].ho && l[i].wo == l[j].wo &&
                l[i].co == l[j].co && l[i].ci == l[j].ci &&
                l[i].kh == l[j].kh && l[i].stride == l[j].stride) {
                EXPECT_EQ(r.cost.layers[i].energy.total(),
                          r.cost.layers[j].energy.total());
            }
        }
    }
}

TEST(MapModel, LayerwiseStrategiesDiffer)
{
    // Paper section VI-A.1: NN-Baton picks distinct mapping
    // strategies layer-wise; a model with diverse layers must not end
    // up with a single spatial combo everywhere.
    const Model model = makeVgg16(224);
    const auto r = mapModel(model, caseStudyConfig(), defaultTech(),
                            SearchEffort::Fast);
    std::set<std::string> combos;
    for (const auto &c : r.choices)
        combos.insert(c.mapping.spatialLabel());
    EXPECT_GT(combos.size(), 1u);
}

TEST(AnalysisOptions, DisablingMechanismsNeverReducesEnergy)
{
    // Ablation invariants: each dataflow mechanism can only help (or
    // be neutral) for the mapping chosen with everything enabled.
    const AcceleratorConfig cfg = caseStudyConfig();
    const ConvLayer layers[] = {
        makeConv("wide", 28, 28, 512, 256, 3, 3, 1),
        makeConv("planar", 112, 112, 64, 32, 3, 3, 1),
    };
    for (const ConvLayer &layer : layers) {
        const auto best = searchLayer(layer, cfg, defaultTech());
        ASSERT_TRUE(best.has_value());
        const double full = best->energy.total();
        for (int knob = 0; knob < 3; ++knob) {
            AnalysisOptions o;
            if (knob == 0)
                o.rotationSharing = false;
            else if (knob == 1)
                o.wl1Pooling = false;
            else
                o.al2Multicast = false;
            const auto ablated = evaluateMapping(
                layer, cfg, defaultTech(), best->mapping, o);
            EXPECT_GE(ablated.energy.total(), full - 1e-6)
                << layer.name << " knob " << knob;
        }
    }
}

TEST(AnalysisOptions, RotationOffMovesTrafficToDram)
{
    const ConvLayer layer = makeConv("t", 56, 56, 256, 128, 3, 3, 1);
    const AcceleratorConfig cfg = caseStudyConfig();
    Mapping m;
    m.pkgSpatial = PackagePartition::Channel; // activations shared
    m.chipSpatial = ChipletPartition::Channel;
    m.chipChannelWays = 8;
    m.chipletTile = {16, 16, 64};
    m.hoC = 8;
    m.woC = 8;
    const auto with = analyzeMapping(layer, cfg, m);
    AnalysisOptions off;
    off.rotationSharing = false;
    const auto without = analyzeMapping(layer, cfg, m, off);
    EXPECT_GT(with.counts.d2dBits, 0);
    EXPECT_EQ(without.counts.d2dBits, 0);
    EXPECT_GT(without.counts.dramReadBits(), with.counts.dramReadBits());
}

TEST(MapModel, MobileNetV2DepthwiseFeasible)
{
    // The depthwise extension must map end to end.
    const Model model = makeMobileNetV2(224);
    const auto r = mapModel(model, caseStudyConfig(), defaultTech(),
                            SearchEffort::Fast);
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.choices.size(), model.layers().size());
}

TEST(SearchLayer, DepthwiseActivationFootprintFollowsLanes)
{
    // For a depthwise layer the activation traffic tracks the output
    // channels; a sanity check that the analysis wires OC relevance.
    const ConvLayer dw = makeDepthwiseConv("dw", 56, 56, 144, 3, 1);
    const auto best =
        searchLayer(dw, caseStudyConfig(), defaultTech());
    ASSERT_TRUE(best.has_value());
    // Weight volume is tiny (co * 9), so weight DRAM must be small.
    EXPECT_LE(best->analysis.counts.dramReadBits(),
              (dw.inputVolume() * 16 + dw.weightVolume() * 64) * 8);
    EXPECT_EQ(best->analysis.counts.macOps, dw.macs());
}

// ---------------------------------------------------------------------
// MappingCache: memory-axis tables shared across calls, and mapModel()'s
// per-call shape memo.  The cache outlives a single fixed-tech run in
// the serving daemon, so these invariants guard against cross-request
// aliasing and unbounded growth.
// ---------------------------------------------------------------------

namespace {

/** A small layer whose table key differs by @p i alone: post-ops
 *  change the key but not the candidates, so every table holds the
 *  same. */
ConvLayer
cacheLayer(int i)
{
    ConvLayer l = makeConv("t", 8, 8, 16, 16, 1, 1, 1);
    l.postOps = i;
    return l;
}

/** Two searches of @p layer: the second builds its table. */
void
buildTable(MappingCache &cache, const ConvLayer &layer)
{
    EXPECT_FALSE(
        cache.tableView(layer, caseStudyConfig(), SearchEffort::Sketch));
    EXPECT_TRUE(
        cache.tableView(layer, caseStudyConfig(), SearchEffort::Sketch));
}

} // namespace

TEST(MappingCache, SharedCacheServesTwoTechModelsCorrectly)
{
    // Two clients sharing one daemon cache but using different
    // technology models must each get the energies a fresh single-tech
    // run computes — never each other's.  Tables hold no technology
    // state, so the second model searches on the first one's tables.
    const Model model = makeAlexNet(224);
    const AcceleratorConfig cfg = caseStudyConfig();
    TechnologyModel hot = defaultTech();
    hot.dramEnergyPerBit *= 3; // DRAM-dominated designs diverge hard

    SearchOptions search;
    MappingCache shared;
    const auto viaSharedA =
        mapModel(model, cfg, defaultTech(), SearchEffort::Fast,
                 Objective::MinEnergy, search, &shared);
    const auto viaSharedB =
        mapModel(model, cfg, hot, SearchEffort::Fast,
                 Objective::MinEnergy, search, &shared);
    const auto freshA = mapModel(model, cfg, defaultTech(),
                                 SearchEffort::Fast);
    const auto freshB = mapModel(model, cfg, hot, SearchEffort::Fast);

    EXPECT_EQ(viaSharedA.cost.energy.total(), freshA.cost.energy.total());
    EXPECT_EQ(viaSharedB.cost.energy.total(), freshB.cost.energy.total());
    // The perturbed model must actually produce a different total, or
    // the aliasing this test guards against would be invisible.
    EXPECT_NE(viaSharedA.cost.energy.total(),
              viaSharedB.cost.energy.total());
    EXPECT_GT(shared.tableHits(), 0);

    // A rerun on the warm cache repeats the cold run's work and
    // counts: no search result outlives its call.
    const auto warm =
        mapModel(model, cfg, hot, SearchEffort::Fast,
                 Objective::MinEnergy, search, &shared);
    EXPECT_EQ(warm.cost.energy.total(), freshB.cost.energy.total());
    for (const ModelMappingResult *r : {&viaSharedB, &warm}) {
        EXPECT_EQ(r->stats.evaluated, freshB.stats.evaluated);
        EXPECT_EQ(r->stats.pruned, freshB.stats.pruned);
        EXPECT_EQ(r->stats.cacheHits, freshB.stats.cacheHits);
        EXPECT_EQ(r->stats.cacheMisses, freshB.stats.cacheMisses);
    }
}

TEST(MappingCache, LruEvictionHonoursByteCapacity)
{
    // Every table here holds the same, so one probe sizes the cap.
    MappingCache probe;
    buildTable(probe, cacheLayer(0));
    const int64_t per_table = probe.bytes();
    ASSERT_GT(per_table, 0);

    MappingCache cache;
    // Room for 2 tables per shard.
    const int64_t cap = 2 * per_table * MappingCache::kShards;
    cache.setCapacity(cap);
    const int kMany = 2 * static_cast<int>(MappingCache::kShards) * 8;
    for (int i = 0; i < kMany; ++i) {
        buildTable(cache, cacheLayer(i));
        ASSERT_LE(cache.bytes(), cap) << i;
    }
    EXPECT_EQ(cache.tableBuilds(), kMany);
    EXPECT_GT(cache.evictions(), 0);
    EXPECT_LE(cache.size(), static_cast<size_t>(cap / per_table));

    // The coldest key was evicted: its miss count starts over.  The
    // newest is resident and serves a view without a rebuild.
    const AcceleratorConfig cfg = caseStudyConfig();
    EXPECT_FALSE(cache.tableView(cacheLayer(0), cfg, SearchEffort::Sketch));
    EXPECT_TRUE(
        cache.tableView(cacheLayer(kMany - 1), cfg, SearchEffort::Sketch));
    EXPECT_EQ(cache.tableBuilds(), kMany);
}

TEST(MappingCache, UnboundedByDefaultNeverEvicts)
{
    MappingCache cache;
    for (int i = 0; i < 64; ++i)
        buildTable(cache, cacheLayer(i));
    EXPECT_EQ(cache.size(), 64u);
    EXPECT_EQ(cache.tableBuilds(), 64);
    EXPECT_EQ(cache.evictions(), 0);
}

TEST(MappingCache, CappedCacheOfRealSearchesStaysUnderItsCap)
{
    // Real memory-axis tables, counted from what they hold, under a
    // cap far below the sweep's working set: every search must leave
    // bytes() within the cap and return the answers and work counters
    // an unbounded cache returns.
    const Model model = [] {
        Model m("capped", 56);
        m.addLayer(makeConv("a", 14, 14, 128, 64, 3, 3, 1));
        m.addLayer(makeConv("b", 7, 7, 256, 128, 1, 1, 1));
        return m;
    }();
    const std::vector<MemoryAllocation> memories = enumerateMemory();
    const std::vector<ComputeAllocation> computes = enumerateCompute(512);
    ASSERT_GE(computes.size(), 2u);

    MappingCache unbounded;
    MappingCache capped;
    const int64_t cap = 96 << 10;
    capped.setCapacity(cap);
    for (size_t c = 0; c < 2; ++c) {
        for (size_t i = 0; i < memories.size(); i += 9) {
            const AcceleratorConfig cfg =
                makeConfig(computes[c], memories[i]);
            const ModelMappingResult a =
                mapModel(model, cfg, defaultTech(), SearchEffort::Sketch,
                         Objective::MinEdp, SearchOptions{}, &unbounded);
            const ModelMappingResult b =
                mapModel(model, cfg, defaultTech(), SearchEffort::Sketch,
                         Objective::MinEdp, SearchOptions{}, &capped);
            ASSERT_LE(capped.bytes(), cap) << cfg.toString();
            ASSERT_EQ(a.feasible, b.feasible);
            EXPECT_EQ(a.cost.energy.total(), b.cost.energy.total());
            EXPECT_EQ(a.cost.cycles, b.cost.cycles);
            EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
            EXPECT_EQ(a.stats.pruned, b.stats.pruned);
        }
    }
    EXPECT_GT(capped.evictions(), 0);
    EXPECT_GT(unbounded.tableHits(), 0);
    // Each table holds at least its key.
    EXPECT_GE(unbounded.bytes(),
              static_cast<int64_t>(unbounded.size() *
                                   sizeof(MappingCache::Key)));
}

TEST(MappingCache, KeysChangeWithEveryFieldThatChangesASearch)
{
    // One field at a time of the layer and the configuration.  The
    // table key must change with every layer-shape and compute-geometry
    // field and with the effort, and with nothing else: one table
    // serves every buffer size, technology and objective.  Within one
    // mapModel() call the geometry and effort are fixed, so the same
    // key memoises repeated shapes there.  The layer name and the
    // conv/GEMM op tag are the only shape fields allowed to leave it
    // alone (equivalent lowered shapes share a table and a memo slot;
    // the accounting never reads them).
    const ConvLayer layer = makeConv("k", 28, 28, 64, 32, 3, 3, 1);
    const AcceleratorConfig cfg = caseStudyConfig();
    const TechnologyModel &tech = defaultTech();
    const SearchEffort effort = SearchEffort::Fast;
    const Objective objective = Objective::MinEnergy;
    const MappingCache::Key table_key =
        MappingCache::tableKey(layer, cfg, effort);

    using LayerEdit = std::pair<const char *, void (*)(ConvLayer &)>;
    const LayerEdit shape_fields[] = {
        {"ho", [](ConvLayer &l) { l.ho *= 2; }},
        {"wo", [](ConvLayer &l) { l.wo *= 2; }},
        {"co", [](ConvLayer &l) { l.co *= 2; }},
        {"ci", [](ConvLayer &l) { l.ci *= 2; }},
        {"kh", [](ConvLayer &l) { l.kh = 1; }},
        {"kw", [](ConvLayer &l) { l.kw = 5; }},
        {"stride", [](ConvLayer &l) { l.stride = 2; }},
        {"groups", [](ConvLayer &l) { l.groups = 2; }},
        {"batch", [](ConvLayer &l) { l.batch = 4; }},
        {"postOps", [](ConvLayer &l) { l.postOps = 3; }},
    };
    for (const auto &[field, edit] : shape_fields) {
        ConvLayer l = layer;
        edit(l);
        EXPECT_FALSE(MappingCache::tableKey(l, cfg, effort) == table_key)
            << field;
    }
    const LayerEdit shared_fields[] = {
        {"name", [](ConvLayer &l) { l.name = "other"; }},
        {"op", [](ConvLayer &l) { l.op = LayerOp::Gemm; }},
        {"gemmM", [](ConvLayer &l) { l.gemmM = 784; }},
        {"gemmN", [](ConvLayer &l) { l.gemmN = 64; }},
        {"gemmK", [](ConvLayer &l) { l.gemmK = 32; }},
    };
    for (const auto &[field, edit] : shared_fields) {
        ConvLayer l = layer;
        edit(l);
        EXPECT_TRUE(MappingCache::tableKey(l, cfg, effort) == table_key)
            << field;
    }
    // The sharing is sound: a GEMM and the conv it lowers to search to
    // the same answer, and one mapModel() call searches them once.
    const ConvLayer gemm = makeGemm("g", 196, 64, 128);
    ConvLayer lowered = makeConv("c", gemm.ho, gemm.wo, 64, 128, 1, 1, 1);
    EXPECT_TRUE(MappingCache::tableKey(gemm, cfg, effort) ==
                MappingCache::tableKey(lowered, cfg, effort));
    const auto g = searchLayer(gemm, cfg, tech, effort, objective);
    const auto c = searchLayer(lowered, cfg, tech, effort, objective);
    ASSERT_TRUE(g && c);
    EXPECT_EQ(g->mapping, c->mapping);
    EXPECT_EQ(g->energy.total(), c->energy.total());
    EXPECT_EQ(g->runtime.cycles, c->runtime.cycles);
    Model pair("pair", 14);
    pair.addLayer(gemm);
    pair.addLayer(lowered);
    const ModelMappingResult both =
        mapModel(pair, cfg, tech, effort, objective);
    EXPECT_EQ(both.stats.cacheMisses, 1);
    EXPECT_EQ(both.stats.cacheHits, 1);

    using ConfigEdit =
        std::pair<const char *, void (*)(AcceleratorConfig &)>;
    const ConfigEdit geometry_fields[] = {
        {"chiplets", [](AcceleratorConfig &c) { c.package.chiplets = 2; }},
        {"cores", [](AcceleratorConfig &c) { c.chiplet.cores = 4; }},
        {"lanes", [](AcceleratorConfig &c) { c.core.lanes = 16; }},
        {"vectorSize", [](AcceleratorConfig &c) { c.core.vectorSize = 4; }},
    };
    const ConfigEdit buffer_fields[] = {
        {"al2Bytes", [](AcceleratorConfig &c) { c.chiplet.al2Bytes *= 2; }},
        {"al1Bytes", [](AcceleratorConfig &c) { c.core.al1Bytes *= 2; }},
        {"wl1Bytes", [](AcceleratorConfig &c) { c.core.wl1Bytes *= 2; }},
        {"ol1Bytes", [](AcceleratorConfig &c) { c.core.ol1Bytes *= 2; }},
    };
    for (const auto &[field, edit] : geometry_fields) {
        AcceleratorConfig c = cfg;
        edit(c);
        EXPECT_FALSE(MappingCache::tableKey(layer, c, effort) == table_key)
            << field;
    }
    for (const auto &[field, edit] : buffer_fields) {
        AcceleratorConfig c = cfg;
        edit(c);
        EXPECT_TRUE(MappingCache::tableKey(layer, c, effort) == table_key)
            << field;
    }
    EXPECT_FALSE(MappingCache::tableKey(layer, cfg, SearchEffort::Sketch) ==
                 table_key);
}

TEST(MappingCache, MapModelMemoisesRepeatedShapesWithinOneCall)
{
    // Repeated shapes are searched once per call, whatever their
    // names, and each repeat returns its first search's answer.
    Model m("memo", 56);
    m.addLayer(makeConv("a", 14, 14, 64, 32, 3, 3, 1));
    m.addLayer(makeConv("b", 14, 14, 64, 64, 1, 1, 1));
    m.addLayer(makeConv("a2", 14, 14, 64, 32, 3, 3, 1));
    m.addLayer(makeConv("b2", 14, 14, 64, 64, 1, 1, 1));
    m.addLayer(makeConv("a3", 14, 14, 64, 32, 3, 3, 1));
    const AcceleratorConfig cfg = caseStudyConfig();
    MappingCache cache;
    for (int call = 0; call < 2; ++call) {
        SCOPED_TRACE(call);
        const ModelMappingResult r =
            mapModel(m, cfg, defaultTech(), SearchEffort::Fast,
                     Objective::MinEnergy, SearchOptions{}, &cache);
        ASSERT_TRUE(r.feasible);
        EXPECT_EQ(r.stats.cacheMisses, 2);
        EXPECT_EQ(r.stats.cacheHits, 3);
        ASSERT_EQ(r.choices.size(), 5u);
        for (size_t i = 0; i < r.choices.size(); ++i) {
            const std::optional<MappingChoice> fresh = searchLayer(
                m.layers()[i], cfg, defaultTech(), SearchEffort::Fast);
            ASSERT_TRUE(fresh);
            EXPECT_EQ(r.choices[i].mapping, fresh->mapping) << i;
            EXPECT_EQ(r.choices[i].energy.total(), fresh->energy.total())
                << i;
            EXPECT_EQ(r.cost.layers[i].layerName, m.layers()[i].name);
        }
    }
    // The second call's two searches ran on the tables the first
    // call's misses earned.
    EXPECT_EQ(cache.tableBuilds(), 2);
    EXPECT_EQ(cache.tableHits(), 2);
}
