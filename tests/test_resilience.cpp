/**
 * @file
 * Tests for the resilient-sweep machinery: Status propagation,
 * cooperative cancellation, poisoned-point quarantine, checkpoint
 * round-trips and the kill/resume determinism guarantee.
 */

#include <gtest/gtest.h>

#include "expect_status.hpp"

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "common/cancel.hpp"
#include "common/status.hpp"
#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"
#include "verif/fault.hpp"

using namespace nnbaton;

namespace {

Model
miniModel()
{
    Model m("mini", 64);
    m.addLayer(makeConv("a", 32, 32, 128, 64, 3, 3, 1));
    m.addLayer(makeConv("b", 16, 16, 256, 128, 1, 1, 1));
    return m;
}

DseOptions
sweepOptions()
{
    DseOptions opt;
    opt.totalMacs = 2048;
    opt.proportionalMem = true;
    opt.effort = SearchEffort::Fast;
    opt.threads = 2;
    return opt;
}

std::string
tmpPath(const char *name)
{
    return ::testing::TempDir() + name;
}

/** Exact (bit-for-bit) equality of two evaluated design points. */
void
expectSamePoint(const DesignPoint &a, const DesignPoint &b)
{
    EXPECT_EQ(a.compute.chiplets, b.compute.chiplets);
    EXPECT_EQ(a.compute.cores, b.compute.cores);
    EXPECT_EQ(a.compute.lanes, b.compute.lanes);
    EXPECT_EQ(a.compute.vectorSize, b.compute.vectorSize);
    EXPECT_EQ(a.memory.ol1Bytes, b.memory.ol1Bytes);
    EXPECT_EQ(a.memory.al1Bytes, b.memory.al1Bytes);
    EXPECT_EQ(a.memory.wl1Bytes, b.memory.wl1Bytes);
    EXPECT_EQ(a.memory.al2Bytes, b.memory.al2Bytes);
    EXPECT_EQ(a.area.total(), b.area.total());
    EXPECT_EQ(a.clockGhz, b.clockGhz);
    EXPECT_EQ(a.cost.cycles, b.cost.cycles);
    EXPECT_EQ(a.cost.energy.total(), b.cost.energy.total());
    EXPECT_EQ(a.cost.energy.dram, b.cost.energy.dram);
    EXPECT_EQ(a.cost.energy.mac, b.cost.energy.mac);
    EXPECT_EQ(a.edp(), b.edp());
    ASSERT_EQ(a.cost.layers.size(), b.cost.layers.size());
    for (size_t i = 0; i < a.cost.layers.size(); ++i) {
        EXPECT_EQ(a.cost.layers[i].cycles, b.cost.layers[i].cycles);
        EXPECT_EQ(a.cost.layers[i].energy.total(),
                  b.cost.layers[i].energy.total());
    }
}

void
expectSameResult(const DseResult &a, const DseResult &b)
{
    EXPECT_EQ(a.swept, b.swept);
    EXPECT_EQ(a.areaRejected, b.areaRejected);
    EXPECT_EQ(a.infeasible, b.infeasible);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i)
        expectSamePoint(a.points[i], b.points[i]);
    ASSERT_EQ(a.bestEdp().has_value(), b.bestEdp().has_value());
    if (a.bestEdp())
        EXPECT_EQ(*a.bestEdp(), *b.bestEdp());
    ASSERT_EQ(a.bestEnergy().has_value(), b.bestEnergy().has_value());
    if (a.bestEnergy())
        EXPECT_EQ(*a.bestEnergy(), *b.bestEnergy());
}

/** RAII so a failing test cannot leave a fault plan armed. */
struct ScopedFaultPlan
{
    explicit ScopedFaultPlan(const verif::FaultPlan &plan)
    {
        verif::armFaultPlan(plan);
    }
    ~ScopedFaultPlan() { verif::disarmFaultPlan(); }
};

} // namespace

TEST(Status, CodesMessagesAndContext)
{
    const Status ok = Status::okStatus();
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.toString(), "OK");
    EXPECT_TRUE(ok.withContext("reading").ok());

    const Status s = errInvalidArgument("bad value %d", 7);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_EQ(s.message(), "bad value 7");
    EXPECT_NE(s.toString().find("INVALID_ARGUMENT"), std::string::npos);

    const Status chained =
        s.withContext("parsing --threads").withContext("startup");
    EXPECT_EQ(chained.code(), StatusCode::InvalidArgument);
    EXPECT_EQ(chained.message(),
              "startup: parsing --threads: bad value 7");
}

TEST(Status, StatusOrValueAndError)
{
    StatusOr<int> good(42);
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_TRUE(good.status().ok());

    StatusOr<int> bad(errNotFound("no such thing"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::NotFound);
    expectStatusThrow([&] { bad.value(); }, "no such thing");
}

TEST(Status, ThrowStatusUpgradesOk)
{
    // Throwing OK would silently drop an error path; it becomes an
    // Internal error instead.
    try {
        throwStatus(Status::okStatus());
        ADD_FAILURE() << "throwStatus returned";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::Internal);
    }
}

TEST(CancelToken, FlagAndDeadline)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_TRUE(token.toStatus().ok());

    token.requestCancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.toStatus().code(), StatusCode::Cancelled);

    token.reset();
    EXPECT_FALSE(token.cancelled());

    token.setDeadlineAfter(-1.0); // already expired
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.toStatus().code(), StatusCode::DeadlineExceeded);

    token.setDeadlineAfter(3600.0); // far future
    EXPECT_FALSE(token.cancelled());
    token.reset();
}

TEST(ResilientSweep, PoisonedPointIsQuarantined)
{
    const Model model = miniModel();
    const DseOptions opt = sweepOptions();
    const DseResult fresh = explore(model, opt, defaultTech());
    ASSERT_GT(fresh.swept, 4);

    verif::FaultPlan plan;
    plan.failAtPoint = 3;
    ScopedFaultPlan armed(plan);

    const DseResult r = explore(model, opt, defaultTech());
    EXPECT_TRUE(r.complete);
    ASSERT_EQ(r.poisoned.size(), 1u);
    EXPECT_EQ(r.poisoned[0].sweepIndex, 3);
    EXPECT_NE(r.poisoned[0].error.find("injected fault"),
              std::string::npos);
    EXPECT_NE(r.poisoned[0].error.find("INTERNAL"), std::string::npos);
    // Every other point is still evaluated.
    EXPECT_EQ(r.swept, fresh.swept);
    EXPECT_EQ(static_cast<int64_t>(r.points.size()) + r.areaRejected +
                  r.infeasible,
              fresh.swept - 1);
}

TEST(ResilientSweep, StrictModeRethrows)
{
    verif::FaultPlan plan;
    plan.failAtPoint = 2;
    ScopedFaultPlan armed(plan);

    DseOptions opt = sweepOptions();
    opt.strict = true;
    expectStatusThrow(
        [&] { explore(miniModel(), opt, defaultTech()); },
        "injected fault");
}

TEST(ResilientSweep, SearchBlockFaultIsQuarantinedToo)
{
    // A fault thrown deep inside pickBest() unwinds through
    // evaluatePoint and is quarantined like any other worker error.
    verif::FaultPlan plan;
    plan.failAtSearchBlock = 0;
    ScopedFaultPlan armed(plan);

    DseOptions opt = sweepOptions();
    opt.threads = 1; // deterministic victim
    const DseResult r = explore(miniModel(), opt, defaultTech());
    EXPECT_TRUE(r.complete);
    ASSERT_EQ(r.poisoned.size(), 1u);
    EXPECT_NE(r.poisoned[0].error.find("inside mapping search"),
              std::string::npos);
}

TEST(ResilientSweep, ExpiredDeadlineSkipsEverything)
{
    CancelToken token;
    token.setDeadlineAfter(-1.0);

    DseOptions opt = sweepOptions();
    opt.cancel = &token;
    const DseResult r = explore(miniModel(), opt, defaultTech());
    EXPECT_FALSE(r.complete);
    EXPECT_EQ(r.skipped, r.swept);
    EXPECT_TRUE(r.points.empty());
}

TEST(Checkpoint, RoundTripAndFingerprint)
{
    const Model model = miniModel();
    const DseOptions opt = sweepOptions();
    const std::string path = tmpPath("ckpt_roundtrip.json");
    std::remove(path.c_str());

    DseOptions with_ckpt = opt;
    with_ckpt.checkpointPath = path;
    with_ckpt.checkpointEvery = 4;
    const DseResult r = explore(model, with_ckpt, defaultTech());
    EXPECT_TRUE(r.complete);

    const SweepCheckpoint ckpt = loadSweepCheckpoint(path).value();
    EXPECT_TRUE(ckpt.complete);
    EXPECT_EQ(ckpt.fingerprint, sweepFingerprint(model, opt));
    EXPECT_EQ(static_cast<int64_t>(ckpt.entries.size()), r.swept);

    // Resuming a complete checkpoint re-evaluates nothing and
    // reproduces the result bit-for-bit.
    DseOptions resume = opt;
    resume.resumePath = path;
    const DseResult again = explore(model, resume, defaultTech());
    EXPECT_EQ(again.resumed, r.swept);
    expectSameResult(r, again);
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingAndMalformedFiles)
{
    EXPECT_EQ(loadSweepCheckpoint(tmpPath("nope_missing.json"))
                  .status()
                  .code(),
              StatusCode::NotFound);

    const std::string path = tmpPath("ckpt_bad.json");
    FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"format\": \"something-else\"}", f);
    std::fclose(f);
    EXPECT_EQ(loadSweepCheckpoint(path).status().code(),
              StatusCode::DataLoss);
    std::remove(path.c_str());
}

TEST(Checkpoint, FingerprintMismatchRefusesResume)
{
    const Model model = miniModel();
    const std::string path = tmpPath("ckpt_mismatch.json");

    DseOptions opt = sweepOptions();
    opt.checkpointPath = path;
    explore(model, opt, defaultTech());

    DseOptions other = sweepOptions();
    other.objective = Objective::MinEdp; // scores differently
    other.resumePath = path;
    expectStatusThrow(
        [&] { explore(model, other, defaultTech()); },
        "different sweep");
    std::remove(path.c_str());
}

/** Expect @p fn to throw FAILED_PRECONDITION naming another sweep. */
template <typename Fn>
void
expectOtherSweep(Fn &&fn)
{
    try {
        fn();
        ADD_FAILURE() << "resumed a checkpoint of another sweep";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::FailedPrecondition)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("different sweep"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * A checkpoint names its sweep by the model's content, not its name.
 * Model::scaleBatch() keeps the name, and so can two --model-file
 * models; resuming either from a batch-1 checkpoint used to restore
 * its points and recommend their winner.
 */
TEST(Checkpoint, SameNameDifferentModelRefusesResume)
{
    const Model model = miniModel();
    const std::string path = tmpPath("ckpt_same_name.json");
    DseOptions opt = sweepOptions();
    opt.checkpointPath = path;
    explore(model, opt, defaultTech());

    DseOptions resume = sweepOptions();
    resume.resumePath = path;
    Model batched = miniModel();
    batched.scaleBatch(2);
    ASSERT_EQ(batched.name(), model.name());
    expectOtherSweep([&] { explore(batched, resume, defaultTech()); });

    Model edited("mini", 64);
    edited.addLayer(makeConv("a", 32, 32, 128, 64, 3, 3, 1));
    edited.addLayer(makeConv("b", 16, 16, 256, 128, 3, 3, 1));
    expectOtherSweep([&] { explore(edited, resume, defaultTech()); });
    std::remove(path.c_str());
}

/**
 * Checkpoints from before the model-text digest keyed the model by
 * name alone ("name|resolution|options...").  They still resume where
 * the name was unambiguous, an unedited zoo model at batch 1, and
 * nowhere else.
 */
TEST(Checkpoint, LegacyZooCheckpointStillResumes)
{
    const Model zoo = makeAlexNet(224);
    const std::string path = tmpPath("ckpt_legacy.json");
    DseOptions opt = sweepOptions();
    opt.checkpointPath = path;
    const DseResult fresh = explore(zoo, opt, defaultTech());

    // Rewrite the fingerprint to the name-keyed form: drop the third
    // field, the model-text digest.
    const std::string fp = sweepFingerprint(zoo, sweepOptions());
    const size_t digest = fp.find('|', fp.find('|') + 1);
    const std::string legacy =
        fp.substr(0, digest) + fp.substr(fp.find('|', digest + 1));
    std::string text;
    {
        std::ifstream in(path);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    const size_t at = text.find(fp);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, fp.size(), legacy);
    std::ofstream(path) << text;
    ASSERT_EQ(loadSweepCheckpoint(path).value().fingerprint, legacy);

    DseOptions resume = sweepOptions();
    resume.resumePath = path;
    const DseResult again = explore(zoo, resume, defaultTech());
    EXPECT_EQ(again.resumed, fresh.swept);
    expectSameResult(fresh, again);

    Model batched = makeAlexNet(224);
    batched.scaleBatch(2);
    expectOtherSweep([&] { explore(batched, resume, defaultTech()); });
    Model impostor("AlexNet", 224);
    const Model mini = miniModel();
    for (const ConvLayer &l : mini.layers())
        impostor.addLayer(l);
    expectOtherSweep([&] { explore(impostor, resume, defaultTech()); });
    std::remove(path.c_str());
}

TEST(Checkpoint, InjectedWriteFailureDoesNotAbortSweep)
{
    const std::string path = tmpPath("ckpt_failwrite.json");
    std::remove(path.c_str());

    verif::FaultPlan plan;
    plan.failNextCheckpointWrite = true;
    ScopedFaultPlan armed(plan);

    DseOptions opt = sweepOptions();
    opt.checkpointPath = path;
    opt.checkpointEvery = 4;
    const DseResult r = explore(miniModel(), opt, defaultTech());
    // The first flush fails (and is only counted), later flushes
    // succeed: the sweep completes and the final snapshot is whole.
    EXPECT_TRUE(r.complete);
    EXPECT_TRUE(r.poisoned.empty());
    const SweepCheckpoint ckpt = loadSweepCheckpoint(path).value();
    EXPECT_TRUE(ckpt.complete);
    EXPECT_EQ(static_cast<int64_t>(ckpt.entries.size()), r.swept);
    std::remove(path.c_str());
}

TEST(Checkpoint, KillResumeDeterminism)
{
    const Model model = miniModel();
    const DseOptions base = sweepOptions();
    const std::string path = tmpPath("ckpt_killresume.json");
    std::remove(path.c_str());

    // Reference: one uninterrupted sweep.
    const DseResult reference = explore(model, base, defaultTech());
    ASSERT_GT(reference.swept, 4);

    // Interrupted run: cancel after a seeded-random number of
    // completed points, checkpointing at every boundary.
    std::mt19937 gen(0xba70);
    std::uniform_int_distribution<int64_t> d(1, reference.swept - 2);
    const int64_t cut = d(gen);

    verif::FaultPlan plan;
    plan.cancelAfterPoints = cut;
    CancelToken token;
    {
        ScopedFaultPlan armed(plan);
        DseOptions interrupted = base;
        interrupted.checkpointPath = path;
        interrupted.checkpointEvery = 1;
        interrupted.cancel = &token;
        const DseResult partial =
            explore(model, interrupted, defaultTech());
        EXPECT_FALSE(partial.complete);
        EXPECT_GT(partial.skipped, 0);
    }

    const SweepCheckpoint ckpt = loadSweepCheckpoint(path).value();
    EXPECT_FALSE(ckpt.complete);
    EXPECT_GE(static_cast<int64_t>(ckpt.entries.size()), cut);
    EXPECT_LT(static_cast<int64_t>(ckpt.entries.size()),
              reference.swept);

    // Resume with a different thread count: identical points,
    // classification counts and winner.
    DseOptions resumed = base;
    resumed.resumePath = path;
    resumed.threads = 1;
    const DseResult full = explore(model, resumed, defaultTech());
    EXPECT_TRUE(full.complete);
    EXPECT_EQ(full.resumed,
              static_cast<int64_t>(ckpt.entries.size()));
    expectSameResult(reference, full);
    std::remove(path.c_str());
}
