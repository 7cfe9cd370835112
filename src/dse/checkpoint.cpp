#include "dse/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "nn/parser.hpp"
#include "verif/fault.hpp"

namespace nnbaton {

namespace {

constexpr const char *kFormat = "nn-baton-sweep-checkpoint";

/** Version 1 was one JSON document, rewritten whole at every flush;
 *  it is still read. */
constexpr int kVersion = 2;

/** Record kind names, indexed by SweepPointOutcome::Kind.  Skipped
 *  points never leave the process. */
constexpr std::array<const char *, 4> kKindNames = {
    "area_rejected", "infeasible", "valid", "poisoned"};

/** Restored outcomes are written to the journal in chunks of this
 *  many bytes, so a resume holds no second copy of them. */
constexpr size_t kSeedChunkBytes = 1 << 20;

/** The members a record's arrays carry, in array order: compute
 *  fields are positive ints, byte sizes non-negative int64_t, the rest
 *  finite doubles.  Energy arrays written before the vector-ALU term
 *  was recorded stop after mac; they read with vector = 0, exact for
 *  every model without vector post-ops. */
constexpr int ComputeAllocation::*kComputeTerms[] = {
    &ComputeAllocation::chiplets, &ComputeAllocation::cores,
    &ComputeAllocation::lanes, &ComputeAllocation::vectorSize};
constexpr int64_t MemoryAllocation::*kMemoryTerms[] = {
    &MemoryAllocation::ol1Bytes, &MemoryAllocation::al1Bytes,
    &MemoryAllocation::wl1Bytes, &MemoryAllocation::al2Bytes};
constexpr double AreaBreakdown::*kAreaTerms[] = {
    &AreaBreakdown::macs, &AreaBreakdown::sram, &AreaBreakdown::rf,
    &AreaBreakdown::grsPhy, &AreaBreakdown::ddrPhy};
constexpr double EnergyBreakdown::*kEnergyTerms[] = {
    &EnergyBreakdown::dram, &EnergyBreakdown::d2d, &EnergyBreakdown::noc,
    &EnergyBreakdown::al2,  &EnergyBreakdown::al1, &EnergyBreakdown::wl1,
    &EnergyBreakdown::ol1,  &EnergyBreakdown::ol2, &EnergyBreakdown::mac,
    &EnergyBreakdown::vector};

/** Write @p terms of @p t as an array, doubles exact. */
template <typename T, typename F, size_t N>
void
writeTerms(JsonWriter &j, const T &t, F T::*const (&terms)[N])
{
    j.beginArray();
    for (F T::*term : terms) {
        if constexpr (std::is_same_v<F, double>)
            j.valueExact(t.*term);
        else
            j.value(t.*term);
    }
    j.endArray();
}

/** Inverse of writeTerms() for the array @p v; it may stop
 *  @p optional terms short, which keep their values, and an integer
 *  term is at least @p lo. */
template <typename T, typename F, size_t N>
void
readTerms(JsonReader &in, const JsonValue *v, const char *name, T &t,
          F T::*const (&terms)[N], size_t optional = 0, int64_t lo = 0)
{
    v = in.get(v, name, JsonValue::Type::Array);
    if (v && (v->array.size() + optional < N || v->array.size() > N))
        in.refuse("'%s' has %zu terms, not %zu", name, v->array.size(), N);
    for (size_t i = 0; in.ok() && i < v->array.size(); ++i) {
        if constexpr (std::is_same_v<F, double>)
            in.read(&v->array[i], name, t.*terms[i]);
        else
            in.read(&v->array[i], name, t.*terms[i], lo);
    }
}

/** A full DesignPoint, doubles exact (JsonWriter::valueExact). */
void
writeDesignPoint(JsonWriter &j, const DesignPoint &p)
{
    j.beginObject();
    j.key("compute");
    writeTerms(j, p.compute, kComputeTerms);
    j.key("memory");
    writeTerms(j, p.memory, kMemoryTerms);
    j.key("area");
    writeTerms(j, p.area, kAreaTerms);
    j.fieldExact("clockGhz", p.clockGhz);
    j.key("cost").beginObject();
    j.field("model", p.cost.modelName);
    j.field("cycles", p.cost.cycles);
    j.key("energy");
    writeTerms(j, p.cost.energy, kEnergyTerms);
    j.key("layers").beginArray();
    for (const LayerCost &l : p.cost.layers) {
        j.beginObject();
        j.field("name", l.layerName);
        j.field("cycles", l.cycles);
        j.fieldExact("utilization", l.utilization);
        j.key("energy");
        writeTerms(j, l.energy, kEnergyTerms);
        j.endObject();
    }
    j.endArray();
    j.endObject(); // cost
    j.endObject(); // point
}

/** Inverse of writeDesignPoint(). */
Status
readDesignPoint(const JsonValue &v, DesignPoint &p)
{
    JsonReader in(StatusCode::DataLoss);
    readTerms(in, v.find("compute"), "compute", p.compute, kComputeTerms,
              0, 1);
    readTerms(in, v.find("memory"), "memory", p.memory, kMemoryTerms);
    readTerms(in, v.find("area"), "area", p.area, kAreaTerms);
    in.read(v.find("clockGhz"), "clockGhz", p.clockGhz);
    const JsonValue *cost =
        in.get(v.find("cost"), "cost", JsonValue::Type::Object);
    if (cost == nullptr)
        return in.status();
    in.read(cost->find("model"), "model", p.cost.modelName);
    in.read(cost->find("cycles"), "cycles", p.cost.cycles, 0);
    p.cost.energy = EnergyBreakdown{};
    readTerms(in, cost->find("energy"), "energy", p.cost.energy,
              kEnergyTerms, 1);
    const JsonValue *layers =
        in.get(cost->find("layers"), "layers", JsonValue::Type::Array);
    if (layers == nullptr)
        return in.status();
    p.cost.layers.assign(layers->array.size(), LayerCost{});
    for (size_t i = 0; in.ok() && i < layers->array.size(); ++i) {
        const JsonValue &lv = layers->array[i];
        LayerCost &lc = p.cost.layers[i];
        in.read(lv.find("name"), "name", lc.layerName);
        in.read(lv.find("cycles"), "cycles", lc.cycles, 0);
        in.read(lv.find("utilization"), "utilization", lc.utilization);
        readTerms(in, lv.find("energy"), "energy", lc.energy,
                  kEnergyTerms, 1);
    }
    return in.status();
}

/** One journal line: {"key":...,<outcome>}. */
std::string
recordLine(const std::string &key, const SweepPointOutcome &out)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject();
    j.field("key", key);
    writeSweepOutcomeJson(j, out);
    j.endObject();
    ss << '\n';
    return ss.str();
}

/** Add @p record (a version-1 entry or a journal line) to @p out. */
Status
readRecord(const JsonValue &record, SweepCheckpoint &out)
{
    const JsonValue *key = record.find("key");
    if (key == nullptr || !key->isString())
        return errDataLoss("malformed entry");
    SweepPointOutcome outcome;
    Status s = readSweepOutcomeJson(record, outcome);
    // A checkpoint never records a poisoned point: a resume retries it.
    if (s.ok() && outcome.kind == SweepPointOutcome::Poisoned)
        s = errDataLoss("poisoned");
    // A valid point must sit under its own key, or a resume would put
    // it in another task's slot.
    if (s.ok() && outcome.kind == SweepPointOutcome::Valid) {
        const std::string own =
            designPointKey(outcome.point.compute, outcome.point.memory);
        if (own != key->string)
            s = errDataLoss("its point is %s", own.c_str());
    }
    if (!s.ok())
        return s.withContext("entry " + key->string);
    out.entries.emplace(key->string, std::move(outcome));
    return Status::okStatus();
}

/** The body of the version-1 document @p root. */
Status
readVersion1(const JsonValue &root, SweepCheckpoint &out)
{
    const JsonValue *complete = root.find("complete");
    const JsonValue *entries = root.find("entries");
    if (complete == nullptr || !complete->isBool() ||
        entries == nullptr || !entries->isArray()) {
        return errDataLoss("malformed document");
    }
    out.complete = complete->boolean;
    for (const JsonValue &entry : entries->array) {
        Status s = readRecord(entry, out);
        if (!s.ok())
            return s;
    }
    return Status::okStatus();
}

/** The lines of a journal after its header, read one at a time. */
Status
readJournal(std::istream &is, SweepCheckpoint &out)
{
    std::string line;
    for (long long n = 2; std::getline(is, line); ++n) {
        const JsonParseResult parsed = parseJson(line);
        if (!parsed.ok() || !parsed.value.isObject()) {
            // A kill in the middle of an append leaves a final line
            // without its newline; every line before it is whole.
            if (is.eof())
                break;
            return errDataLoss("line %lld is malformed", n);
        }
        Status s;
        if (const JsonValue *complete = parsed.value.find("complete")) {
            if (!complete->isBool())
                s = errDataLoss("malformed completion mark");
            out.complete = complete->boolean;
        } else {
            s = readRecord(parsed.value, out);
        }
        if (!s.ok())
            return s.withContext(strprintf("line %lld", n));
    }
    return Status::okStatus();
}

/** Write all of @p bytes to @p fd; false (errno set) on failure. */
bool
writeAll(int fd, const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

void
writeSweepOutcomeJson(JsonWriter &j, const SweepPointOutcome &out)
{
    j.field("kind", kKindNames.at(out.kind));
    if (out.kind == SweepPointOutcome::Valid) {
        j.key("point");
        writeDesignPoint(j, out.point);
    } else if (out.kind == SweepPointOutcome::Poisoned) {
        j.field("error", out.error);
    }
}

Status
readSweepOutcomeJson(const JsonValue &record, SweepPointOutcome &out)
{
    const JsonValue *kind = record.find("kind");
    if (kind == nullptr || !kind->isString())
        return errDataLoss("record has no kind");
    const auto named =
        std::find(kKindNames.begin(), kKindNames.end(), kind->string);
    if (named == kKindNames.end())
        return errDataLoss("unknown kind '%s'", kind->string.c_str());
    out.kind = static_cast<SweepPointOutcome::Kind>(named -
                                                    kKindNames.begin());
    if (out.kind == SweepPointOutcome::Valid) {
        const JsonValue *point = record.find("point");
        if (point == nullptr)
            return errDataLoss("valid record missing point");
        return readDesignPoint(*point, out.point);
    }
    if (out.kind == SweepPointOutcome::Poisoned) {
        const JsonValue *error = record.find("error");
        if (error == nullptr || !error->isString())
            return errDataLoss("poisoned record missing error");
        out.error = error->string;
    }
    return Status::okStatus();
}

std::string
designPointKey(const ComputeAllocation &compute,
               const MemoryAllocation &memory)
{
    return strprintf("%d-%d-%d-%d|%lld|%lld|%lld|%lld", compute.chiplets,
                     compute.cores, compute.lanes, compute.vectorSize,
                     static_cast<long long>(memory.ol1Bytes),
                     static_cast<long long>(memory.al1Bytes),
                     static_cast<long long>(memory.wl1Bytes),
                     static_cast<long long>(memory.al2Bytes));
}

namespace {

/** 64-bit FNV-1a of @p text. */
uint64_t
textDigest(const std::string &text)
{
    uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** The options part of a fingerprint.  Its "|exhaustive|0" tail is
 *  the search mode and seed fields of the time when the search had
 *  modes; it stays, as a literal, so that journals written then,
 *  legacy name-keyed zoo checkpoints and the "|bnb|0" rewrite in
 *  loadSweepCheckpoint() still match.  An "|anneal|..." checkpoint
 *  matches nothing and is refused. */
std::string
optionsFingerprint(const DseOptions &options)
{
    return strprintf("%lld|%.17g|%d|%d|%d|exhaustive|0",
                     static_cast<long long>(options.totalMacs),
                     options.areaLimitMm2,
                     options.proportionalMem ? 1 : 0,
                     static_cast<int>(options.effort),
                     static_cast<int>(options.objective));
}

/** The fingerprint checkpoints carried before it digested the model
 *  text: the model keyed by its name alone. */
std::string
legacySweepFingerprint(const Model &model, const DseOptions &options)
{
    return strprintf("%s|%d|%s", model.name().c_str(),
                     model.inputResolution(),
                     optionsFingerprint(options).c_str());
}

/** True when @p model is a zoo model exactly as makeZooModel() returns
 *  it (batch 1, unedited), the only case a name-keyed fingerprint
 *  identified. */
bool
isZooModel(const Model &model)
{
    const std::string text = writeModelText(model);
    for (const ZooModel &zoo : zooModels()) {
        try {
            if (writeModelText(zoo.build(model.inputResolution())) == text)
                return true;
        } catch (const StatusError &) {
            // This zoo model rejects the resolution; not this one.
        }
    }
    return false;
}

} // namespace

std::string
sweepFingerprint(const Model &model, const DseOptions &options)
{
    // The text digest covers what the name cannot: batch, post-ops,
    // depthwise and GEMM shapes, and --model-file models that share a
    // name.
    return strprintf("%s|%d|%016llx|%s", model.name().c_str(),
                     model.inputResolution(),
                     static_cast<unsigned long long>(
                         textDigest(writeModelText(model))),
                     optionsFingerprint(options).c_str());
}

int64_t
restoreSweepCheckpoint(const std::string &path, const Model &model,
                       const DseOptions &options,
                       const std::vector<SweepTask> &tasks,
                       std::vector<SweepPointOutcome> &outcomes,
                       CheckpointSink &sink)
{
    SweepCheckpoint restored = loadSweepCheckpoint(path).value();
    const std::string fingerprint = sweepFingerprint(model, options);
    const bool legacy_zoo =
        restored.fingerprint == legacySweepFingerprint(model, options) &&
        isZooModel(model);
    if (restored.fingerprint != fingerprint && !legacy_zoo) {
        throwStatus(errFailedPrecondition(
            "resume checkpoint %s was written for a different "
            "sweep (its fingerprint \"%s\" != \"%s\")",
            path.c_str(), restored.fingerprint.c_str(),
            fingerprint.c_str()));
    }
    int64_t restored_points = 0;
    for (size_t i = 0; i < tasks.size(); ++i) {
        const std::string key =
            designPointKey(tasks[i].compute, tasks[i].memory);
        auto it = restored.entries.find(key);
        if (it == restored.entries.end())
            continue;
        SweepPointOutcome &out = outcomes[i];
        out = std::move(it->second);
        out.restored = true;
        sink.seed(key, out);
        ++restored_points;
    }
    return restored_points;
}

StatusOr<SweepCheckpoint>
loadSweepCheckpoint(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return errNotFound("cannot open checkpoint %s", path.c_str());

    // A journal's header line, or a whole version-1 document.
    std::string header;
    std::getline(is, header);
    const JsonParseResult parsed = parseJson(header);
    if (!parsed.ok()) {
        return errDataLoss("checkpoint %s: %s (offset %zu)",
                           path.c_str(), parsed.error.c_str(),
                           parsed.errorOffset);
    }
    const JsonValue &root = parsed.value;
    const JsonValue *format = root.find("format");
    if (format == nullptr || !format->isString() ||
        format->string != kFormat) {
        return errDataLoss("checkpoint %s: not a sweep checkpoint",
                           path.c_str());
    }
    JsonReader in(StatusCode::DataLoss);
    SweepCheckpoint out;
    int version = 0;
    in.read(root.find("version"), "version", version, 1, kVersion);
    in.read(root.find("fingerprint"), "fingerprint", out.fingerprint);
    Status s = in.status();
    if (s.ok())
        s = version == 1 ? readVersion1(root, out) : readJournal(is, out);
    if (!s.ok())
        return s.withContext("checkpoint " + path);
    // Sweeps run under the retired "bnb" mode (whose unused seed field
    // is 0) returned exhaustive search's winners bit for bit, and
    // "bnb" now parses to Exhaustive, so they resume as that sweep.
    const std::string bnb = "|bnb|0";
    if (out.fingerprint.ends_with(bnb)) {
        out.fingerprint.replace(out.fingerprint.size() - bnb.size(),
                                bnb.size(), "|exhaustive|0");
    }
    return out;
}

CheckpointSink::CheckpointSink(std::string path, int every,
                               const std::string &fingerprint)
    : path_(std::move(path)), every_(every < 1 ? 1 : every)
{
    if (!enabled())
        return;
    std::ostringstream header;
    JsonWriter j(header);
    j.beginObject();
    j.field("format", kFormat);
    j.field("version", kVersion);
    j.field("fingerprint", fingerprint);
    j.endObject();
    header << '\n';
    pending_ = header.str();
}

CheckpointSink::~CheckpointSink()
{
    if (fd_ < 0)
        return;
    ::close(fd_);
    // A journal never renamed into place never had a whole flush.
    if (!renamed_)
        std::remove((path_ + ".tmp").c_str());
}

void
CheckpointSink::seed(const std::string &key, const SweepPointOutcome &out)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    pending_ += recordLine(key, out);
    if (pending_.size() >= kSeedChunkBytes)
        reportLocked(writeLocked());
}

void
CheckpointSink::record(const SweepTask &task,
                       const SweepPointOutcome &out)
{
    if (!enabled() || out.kind == SweepPointOutcome::Poisoned ||
        out.kind == SweepPointOutcome::Skipped) {
        return;
    }
    // The lane serialises its own outcome; the lock covers the append.
    const std::string line =
        recordLine(designPointKey(task.compute, task.memory), out);
    std::lock_guard<std::mutex> lock(mutex_);
    pending_ += line;
    if (++sinceFlush_ >= every_)
        flushLocked();
}

void
CheckpointSink::finish(bool complete)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (complete)
        pending_ += "{\"complete\":true}\n";
    flushLocked();
}

Status
CheckpointSink::writeLocked()
{
    if (stopped_) {
        return errUnavailable("journal %s stopped after a torn write",
                              path_.c_str());
    }
    if (verif::injectCheckpointWriteFailure())
        return errUnavailable("injected checkpoint write failure");
    const std::string tmp = path_ + ".tmp";
    if (fd_ < 0) {
        fd_ = ::open(tmp.c_str(),
                     O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                     0644);
        if (fd_ < 0) {
            return errUnavailable("cannot open %s for writing: %s",
                                  tmp.c_str(), std::strerror(errno));
        }
    }
    if (!writeAll(fd_, pending_)) {
        const Status s = errUnavailable(
            "short write to %s: %s",
            renamed_ ? path_.c_str() : tmp.c_str(), std::strerror(errno));
        // Cut the partial append back off.  Should that fail too,
        // write no more: the loader drops a torn final line, not one
        // buried under later appends.
        if (::ftruncate(fd_, written_) != 0)
            stopped_ = true;
        return s;
    }
    written_ += static_cast<int64_t>(pending_.size());
    obs::MetricsRegistry::instance()
        .counter("dse.checkpoint.bytes")
        .add(static_cast<int64_t>(pending_.size()));
    pending_.clear();
    return Status::okStatus();
}

void
CheckpointSink::flushLocked()
{
    sinceFlush_ = 0;
    Status s = writeLocked();
    // The journal replaces the path at its first whole flush, with
    // every restored outcome already in it.
    if (s.ok() && !renamed_) {
        const std::string tmp = path_ + ".tmp";
        if (std::rename(tmp.c_str(), path_.c_str()) == 0) {
            renamed_ = true;
        } else {
            s = errUnavailable("cannot rename %s over %s: %s",
                               tmp.c_str(), path_.c_str(),
                               std::strerror(errno));
        }
    }
    reportLocked(s);
}

void
CheckpointSink::reportLocked(const Status &s)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    if (s.ok()) {
        reg.counter("dse.checkpoint.writes").add(1);
        return;
    }
    // Losing a checkpoint must not lose the sweep: count it, warn with
    // the target path and errno detail, and keep the lines pending.
    reg.counter("dse.checkpoint.failures").add(1);
    warn("checkpoint write to %s failed: %s", path_.c_str(),
         s.toString().c_str());
}

} // namespace nnbaton
