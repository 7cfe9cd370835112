/**
 * @file
 * Tests for the resilient-sweep machinery: Status propagation,
 * cooperative cancellation, poisoned-point quarantine, checkpoint
 * round-trips and the kill/resume determinism guarantee.
 */

#include <gtest/gtest.h>

#include "expect_status.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/metrics.hpp"
#include "common/status.hpp"
#include "common/trace.hpp"
#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"
#include "dse/slice.hpp"
#include "mapper/cache.hpp"
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

/** A deadline past what a steady_clock count holds saturates at
 *  "never" instead of overflowing into a time already past. */
TEST(CancelToken, HugeDeadlineNeverFires)
{
    CancelToken token;
    for (double seconds : {1e10, 1e30,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
        token.setDeadlineAfter(seconds);
        EXPECT_FALSE(token.cancelled()) << seconds;
        EXPECT_TRUE(token.toStatus().ok()) << seconds;
    }
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

/**
 * --strict stays fail-fast with several lanes: the first point that
 * throws stops every lane at its next claim, so the others do not
 * drain the 72,000-point table II sweep before the error surfaces.
 * A fault at point 0 fires before the other lanes have started; one
 * at point 1,280, the first of the 41st 32-point unit, fires once
 * every lane is running.
 */
TEST(ResilientSweep, StrictStopsEveryLane)
{
    const auto designPointSpans = [] {
        int64_t n = 0;
        obs::forEachTraceEvent([&n](const obs::TraceEvent &e) {
            n += std::string(e.name) == "dse.design_point" ? 1 : 0;
        });
        return n;
    };
    DseOptions opt = sweepOptions();
    opt.proportionalMem = false;
    opt.effort = sweepEffort(false);
    opt.threads = 4;
    opt.strict = true;
    const int64_t points =
        static_cast<int64_t>(enumerateSweepTasks(opt).size());
    ASSERT_GT(points, 10000);
    for (const int64_t failAt : {int64_t{0}, int64_t{1280}}) {
        verif::FaultPlan plan;
        plan.failAtPoint = failAt;
        ScopedFaultPlan armed(plan);
        const int64_t before = designPointSpans();
        obs::setTracingEnabled(true);
        expectStatusThrow(
            [&] { explore(miniModel(), opt, defaultTech()); },
            "injected fault");
        obs::setTracingEnabled(false);
        const int64_t evaluated = designPointSpans() - before;
        EXPECT_LT(10 * evaluated, points)
            << "fault at " << failAt << ": " << evaluated << " of "
            << points << " points evaluated";
    }
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

/** Replace the fingerprint @p from of the checkpoint at @p path with
 *  @p to, as an older build would have written it. */
void
rewriteFingerprint(const std::string &path, const std::string &from,
                   const std::string &to)
{
    std::string text;
    {
        std::ifstream in(path);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    const size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, from.size(), to);
    std::ofstream(path) << text;
    ASSERT_EQ(loadSweepCheckpoint(path).value().fingerprint, to);
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
    ASSERT_NO_FATAL_FAILURE(rewriteFingerprint(path, fp, legacy));

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

/**
 * Checkpoints of the retired anneal search are refused: their
 * fingerprints end "|anneal|<seed>|<moves>", or "|anneal|<seed>"
 * before the move budget was keyed, where every sweep's now ends
 * "|exhaustive|0".
 */
TEST(Checkpoint, AnnealCheckpointIsRefused)
{
    const Model model = makeAlexNet(224);
    const std::string path = tmpPath("ckpt_anneal.json");
    DseOptions opt;
    opt.totalMacs = 4096;
    opt.proportionalMem = true;
    DseOptions write = opt;
    write.checkpointPath = path;
    const DseResult fresh = explore(model, write, defaultTech());

    DseOptions resume = opt;
    resume.resumePath = path;
    EXPECT_EQ(explore(model, resume, defaultTech()).resumed, fresh.swept);

    const std::string fp = sweepFingerprint(model, opt);
    const std::string tail = "|exhaustive|0";
    ASSERT_TRUE(fp.ends_with(tail)) << fp;
    const std::string stem = fp.substr(0, fp.size() - tail.size());
    std::string from = fp;
    for (const char *anneal : {"|anneal|1|400", "|anneal|1"}) {
        ASSERT_NO_FATAL_FAILURE(
            rewriteFingerprint(path, from, stem + anneal));
        from = stem + anneal;
        expectOtherSweep([&] { explore(model, resume, defaultTech()); });
    }
    std::remove(path.c_str());
}

/**
 * The sweep fingerprint changes with every DseOptions field that
 * changes a sweep's answers, one field at a time, and with nothing
 * else.
 */
TEST(Checkpoint, FingerprintChangesWithEveryFieldThatChangesASweep)
{
    const Model model = miniModel();
    using Edit =
        std::pair<const char *, std::function<void(DseOptions &)>>;
    const Edit sweep_fields[] = {
        {"totalMacs", [](DseOptions &o) { o.totalMacs = 4096; }},
        {"areaLimitMm2", [](DseOptions &o) { o.areaLimitMm2 = 3.0; }},
        {"proportionalMem",
         [](DseOptions &o) { o.proportionalMem = !o.proportionalMem; }},
        {"effort", [](DseOptions &o) { o.effort = SearchEffort::Sketch; }},
        {"objective",
         [](DseOptions &o) { o.objective = Objective::MinEdp; }},
    };
    CancelToken token;
    MappingCache cache;
    const Edit neutral_fields[] = {
        {"threads", [](DseOptions &o) { o.threads = 4; }},
        {"boundPruning", [](DseOptions &o) { o.boundPruning = false; }},
        {"progressSeconds", [](DseOptions &o) { o.progressSeconds = 5; }},
        {"strict", [](DseOptions &o) { o.strict = true; }},
        {"checkpointPath",
         [](DseOptions &o) { o.checkpointPath = "a.json"; }},
        {"checkpointEvery", [](DseOptions &o) { o.checkpointEvery = 3; }},
        {"resumePath", [](DseOptions &o) { o.resumePath = "b.json"; }},
        {"cancel", [&](DseOptions &o) { o.cancel = &token; }},
        {"cache", [&](DseOptions &o) { o.cache = &cache; }},
    };
    const DseOptions base = sweepOptions();
    const std::string fp = sweepFingerprint(model, base);
    const auto changed =
        [&](const std::function<void(DseOptions &)> &edit) {
            DseOptions o = base;
            edit(o);
            return sweepFingerprint(model, o) != fp;
        };
    for (const auto &[field, edit] : sweep_fields)
        EXPECT_TRUE(changed(edit)) << field;
    for (const auto &[field, edit] : neutral_fields)
        EXPECT_FALSE(changed(edit)) << field;
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

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream(path, std::ios::trunc) << text;
}

/** The lines of @p text, newlines dropped. */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

int64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::instance().counter(name).value();
}

/** An uninterrupted sweep of miniModel() checkpointed to @p path
 *  after every point. */
DseResult
journalledSweep(const std::string &path)
{
    std::remove(path.c_str());
    DseOptions opt = sweepOptions();
    opt.checkpointPath = path;
    opt.checkpointEvery = 1;
    return explore(miniModel(), opt, defaultTech());
}

/** Resume the sweep of miniModel() from @p path. */
DseResult
resumeSweep(const std::string &path)
{
    DseOptions opt = sweepOptions();
    opt.resumePath = path;
    return explore(miniModel(), opt, defaultTech());
}

} // namespace

/**
 * A flush appends what settled since the last one and rewrites
 * nothing: flushing after every point writes each record once.  The
 * sink used to rewrite the whole file at every flush, quadratic bytes
 * in the number of points.
 */
TEST(Checkpoint, EveryOutcomeIsWrittenOnce)
{
    const std::string path = tmpPath("ckpt_once.json");
    const int64_t before = counterValue("dse.checkpoint.bytes");
    const DseResult r = journalledSweep(path);
    const int64_t written = counterValue("dse.checkpoint.bytes") - before;
    const int64_t size = static_cast<int64_t>(readFile(path).size());
    ASSERT_GT(r.swept, 8);
    EXPECT_GE(written, size);
    EXPECT_LT(written, 2 * size);
    // Header, one line per point, completion mark.
    EXPECT_EQ(static_cast<int64_t>(splitLines(readFile(path)).size()),
              r.swept + 2);
    std::remove(path.c_str());
}

/**
 * A kill in the middle of an append leaves a torn final line; the
 * loader keeps every record before it and the resume is bit-identical.
 */
TEST(Checkpoint, TornFinalLineKeepsEveryRecordBeforeIt)
{
    const std::string path = tmpPath("ckpt_torn.json");
    const DseResult reference = journalledSweep(path);
    const std::string text = readFile(path);
    const std::vector<std::string> lines = splitLines(text);
    const size_t cut_line = lines.size() / 2;
    size_t offset = 0;
    for (size_t i = 0; i < cut_line; ++i)
        offset += lines[i].size() + 1;
    writeFile(path, text.substr(0, offset + lines[cut_line].size() / 2));

    const SweepCheckpoint ckpt = loadSweepCheckpoint(path).value();
    EXPECT_FALSE(ckpt.complete);
    EXPECT_EQ(ckpt.entries.size(), cut_line - 1); // less the header
    const DseResult resumed = resumeSweep(path);
    EXPECT_EQ(resumed.resumed, static_cast<int64_t>(cut_line - 1));
    expectSameResult(reference, resumed);
    std::remove(path.c_str());
}

/** Only the final line may be torn: damage anywhere else is data
 *  loss, not a shorter resume. */
TEST(Checkpoint, MalformedInnerLineIsDataLoss)
{
    const std::string path = tmpPath("ckpt_inner.json");
    journalledSweep(path);
    std::vector<std::string> lines = splitLines(readFile(path));
    lines[lines.size() / 2].resize(lines[lines.size() / 2].size() / 2);
    std::string text;
    for (const std::string &line : lines)
        text += line + "\n";
    writeFile(path, text);
    EXPECT_EQ(loadSweepCheckpoint(path).status().code(),
              StatusCode::DataLoss);
    std::remove(path.c_str());
}

/** A checkpoint never records a poisoned point, so a record of that
 *  kind, or of a kind no build wrote, is data loss. */
TEST(Checkpoint, PoisonedOrUnknownKindIsDataLoss)
{
    const std::string path = tmpPath("ckpt_kind.json");
    journalledSweep(path);
    const std::vector<std::string> lines = splitLines(readFile(path));
    for (const char *record :
         {R"({"key":"k","kind":"poisoned","error":"INTERNAL: boom"})",
          R"({"key":"k","kind":"skipped"})",
          R"({"key":"k","kind":"exploded"})"}) {
        writeFile(path, lines[0] + "\n" + record + "\n" + lines[1] + "\n");
        EXPECT_EQ(loadSweepCheckpoint(path).status().code(),
                  StatusCode::DataLoss)
            << record;
    }
    std::remove(path.c_str());
}

/**
 * A record whose cycles overflow an int64_t, or whose point is not the
 * one its key names, refuses to resume with DATA_LOSS naming the
 * record.  Both used to resume: the overflow as a negative cycle count
 * (and so a negative EDP that won the sweep), the foreign point in its
 * key's slot.
 */
TEST(Checkpoint, RecordThatDoesNotReadBackRefusesToResume)
{
    const std::string path = tmpPath("ckpt_numbers.json");
    journalledSweep(path);
    const std::vector<std::string> lines = splitLines(readFile(path));
    std::vector<size_t> valid;
    for (size_t i = 1; i < lines.size(); ++i) {
        if (lines[i].find("\"kind\":\"valid\"") != std::string::npos)
            valid.push_back(i);
    }
    ASSERT_GE(valid.size(), 2u);
    const auto keyOf = [&lines](size_t i) {
        return parseJson(lines[i]).value.find("key")->string;
    };
    const auto expectDataLoss = [&](size_t target, const std::string &line,
                                    const std::string &key) {
        std::string text;
        for (size_t i = 0; i < lines.size(); ++i)
            text += (i == target ? line : lines[i]) + "\n";
        writeFile(path, text);
        try {
            resumeSweep(path);
            ADD_FAILURE() << "resumed " << line.substr(0, 120);
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code(), StatusCode::DataLoss) << e.what();
            EXPECT_NE(std::string(e.what()).find("entry " + key),
                      std::string::npos)
                << e.what();
        }
    };

    // The model's cycle count, the record's first "cycles" member.
    const std::string &first = lines[valid[0]];
    const size_t at = first.find("\"cycles\":") + 9;
    expectDataLoss(valid[0],
                   first.substr(0, at) + "1e30" +
                       first.substr(first.find(',', at)),
                   keyOf(valid[0]));

    // Another point's key on this point's record.
    const std::string theirs = keyOf(valid[1]);
    std::string foreign = first;
    foreign.replace(foreign.find(keyOf(valid[0])), keyOf(valid[0]).size(),
                    theirs);
    expectDataLoss(valid[0], foreign, theirs);

    // A version-1 document is held to the same rule.
    writeFile(path, "{\"format\":\"nn-baton-sweep-checkpoint\","
                    "\"version\":1,\"fingerprint\":\"f\","
                    "\"complete\":false,\"entries\":[" +
                        foreign + "]}\n");
    const Status v1 = loadSweepCheckpoint(path).status();
    EXPECT_EQ(v1.code(), StatusCode::DataLoss) << v1.toString();
    EXPECT_NE(v1.message().find("entry " + theirs), std::string::npos)
        << v1.toString();
    std::remove(path.c_str());
}

/** Version-1 checkpoints, one document rewritten at every flush,
 *  still resume bit-identically. */
TEST(Checkpoint, Version1DocumentStillResumes)
{
    const std::string path = tmpPath("ckpt_v1.json");
    const DseResult reference = journalledSweep(path);
    std::vector<std::string> lines = splitLines(readFile(path));
    // The form earlier builds wrote: the header's members, then the
    // records, in key order, as the "entries" array.
    std::string header = lines.front();
    const std::string v2 = "\"version\":2";
    ASSERT_NE(header.find(v2), std::string::npos) << header;
    header.replace(header.find(v2), v2.size(), "\"version\":1");
    header.pop_back(); // the closing brace
    std::vector<std::string> records(lines.begin() + 1, lines.end() - 1);
    std::sort(records.begin(), records.end());
    std::string doc = header + ",\"complete\":true,\"entries\":[";
    for (size_t i = 0; i < records.size(); ++i)
        doc += (i ? "," : "") + records[i];
    writeFile(path, doc + "]}\n");

    const SweepCheckpoint ckpt = loadSweepCheckpoint(path).value();
    EXPECT_TRUE(ckpt.complete);
    EXPECT_EQ(static_cast<int64_t>(ckpt.entries.size()), reference.swept);
    const DseResult resumed = resumeSweep(path);
    EXPECT_EQ(resumed.resumed, reference.swept);
    expectSameResult(reference, resumed);
    std::remove(path.c_str());
}

/**
 * A resume that checkpoints to the path it resumed from carries every
 * restored outcome into its own journal, so a second interruption
 * loses none of them.
 */
TEST(Checkpoint, ResumeIntoItsOwnPathKeepsRestoredOutcomes)
{
    const Model model = miniModel();
    const std::string path = tmpPath("ckpt_own_path.json");
    std::remove(path.c_str());
    const DseResult reference =
        explore(model, sweepOptions(), defaultTech());
    ASSERT_GT(reference.swept, 8);

    const auto interrupted = [&](int64_t after, bool resume) {
        verif::FaultPlan plan;
        plan.cancelAfterPoints = after;
        ScopedFaultPlan armed(plan);
        CancelToken token;
        DseOptions opt = sweepOptions();
        opt.threads = 1;
        opt.checkpointPath = path;
        opt.checkpointEvery = 1;
        opt.cancel = &token;
        if (resume)
            opt.resumePath = path;
        EXPECT_FALSE(explore(model, opt, defaultTech()).complete);
        return loadSweepCheckpoint(path).value();
    };
    const SweepCheckpoint first = interrupted(3, false);
    ASSERT_EQ(first.entries.size(), 3u);
    const SweepCheckpoint second = interrupted(3, true);
    EXPECT_EQ(second.entries.size(), 6u);
    for (const auto &entry : first.entries)
        EXPECT_EQ(second.entries.count(entry.first), 1u) << entry.first;

    DseOptions resume = sweepOptions();
    resume.resumePath = path;
    const DseResult full = explore(model, resume, defaultTech());
    EXPECT_EQ(full.resumed, 6);
    expectSameResult(reference, full);
    std::remove(path.c_str());
}

/** A flush that fails keeps its records pending; the next flush writes
 *  them, so the journal loses nothing the sweep settled. */
TEST(Checkpoint, FailedFlushKeepsItsOutcomesForTheNext)
{
    const std::string path = tmpPath("ckpt_failed_flush.json");
    std::remove(path.c_str());
    verif::FaultPlan plan;
    plan.failNextCheckpointWrite = true;
    plan.cancelAfterPoints = 6;
    ScopedFaultPlan armed(plan);
    CancelToken token;
    DseOptions opt = sweepOptions();
    opt.threads = 1;
    opt.checkpointPath = path;
    opt.checkpointEvery = 4;
    opt.cancel = &token;
    const int64_t failures = counterValue("dse.checkpoint.failures");
    const DseResult r = explore(miniModel(), opt, defaultTech());
    EXPECT_FALSE(r.complete);
    EXPECT_EQ(counterValue("dse.checkpoint.failures") - failures, 1);
    // The first flush (4 points) failed; the final flush wrote them
    // with the 2 settled after.
    const SweepCheckpoint ckpt = loadSweepCheckpoint(path).value();
    EXPECT_FALSE(ckpt.complete);
    EXPECT_EQ(ckpt.entries.size(), 6u);
    std::remove(path.c_str());
}

/**
 * A record carries every energy term.  The vector-ALU term (softmax
 * post-ops in attention) used to be left out, so a resumed or
 * distributed transformer sweep restored every point without it: a
 * BERT-base sweep came back cheaper than the sweep that wrote it.
 */
TEST(Checkpoint, RecordsKeepTheVectorEnergyTerm)
{
    Model model("attention", 64);
    model.addLayer(makeGemm("scores", 64, 64, 32, 4, 3));
    model.addLayer(makeGemm("context", 64, 32, 64, 4));
    const std::string path = tmpPath("ckpt_vector.json");
    std::remove(path.c_str());
    DseOptions opt = sweepOptions();
    opt.checkpointPath = path;
    const DseResult fresh = explore(model, opt, defaultTech());
    ASSERT_FALSE(fresh.points.empty());
    EXPECT_GT(fresh.points.front().cost.energy.vector, 0.0);

    DseOptions resume = sweepOptions();
    resume.resumePath = path;
    const DseResult again = explore(model, resume, defaultTech());
    EXPECT_EQ(again.resumed, fresh.swept);
    expectSameResult(fresh, again);
    for (size_t i = 0; i < fresh.points.size() && i < again.points.size();
         ++i) {
        EXPECT_EQ(again.points[i].cost.energy.vector,
                  fresh.points[i].cost.energy.vector);
        EXPECT_EQ(again.points[i].cost.layers[0].energy.vector,
                  fresh.points[i].cost.layers[0].energy.vector);
    }
    std::remove(path.c_str());
}
