#include "dse/checkpoint.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "nn/parser.hpp"
#include "verif/fault.hpp"

namespace nnbaton {

namespace {

constexpr const char *kFormat = "nn-baton-sweep-checkpoint";
constexpr int kVersion = 1;

void
writeEnergyArray(JsonWriter &j, const EnergyBreakdown &e)
{
    j.beginArray();
    j.valueExact(e.dram)
        .valueExact(e.d2d)
        .valueExact(e.noc)
        .valueExact(e.al2)
        .valueExact(e.al1)
        .valueExact(e.wl1)
        .valueExact(e.ol1)
        .valueExact(e.ol2)
        .valueExact(e.mac);
    j.endArray();
}

} // namespace

const char *
checkpointKindName(CheckpointEntry::Kind kind)
{
    switch (kind) {
    case CheckpointEntry::Kind::AreaRejected:
        return "area_rejected";
    case CheckpointEntry::Kind::Infeasible:
        return "infeasible";
    case CheckpointEntry::Kind::Valid:
        return "valid";
    }
    return "unknown";
}

bool
parseCheckpointKind(const std::string &name, CheckpointEntry::Kind &out)
{
    if (name == "area_rejected")
        out = CheckpointEntry::Kind::AreaRejected;
    else if (name == "infeasible")
        out = CheckpointEntry::Kind::Infeasible;
    else if (name == "valid")
        out = CheckpointEntry::Kind::Valid;
    else
        return false;
    return true;
}

void
writeDesignPointJson(JsonWriter &j, const DesignPoint &p)
{
    j.beginObject();
    j.key("compute").beginArray();
    j.value(p.compute.chiplets)
        .value(p.compute.cores)
        .value(p.compute.lanes)
        .value(p.compute.vectorSize);
    j.endArray();
    j.key("memory").beginArray();
    j.value(p.memory.ol1Bytes)
        .value(p.memory.al1Bytes)
        .value(p.memory.wl1Bytes)
        .value(p.memory.al2Bytes);
    j.endArray();
    j.key("area").beginArray();
    j.valueExact(p.area.macs)
        .valueExact(p.area.sram)
        .valueExact(p.area.rf)
        .valueExact(p.area.grsPhy)
        .valueExact(p.area.ddrPhy);
    j.endArray();
    j.fieldExact("clockGhz", p.clockGhz);
    j.key("cost").beginObject();
    j.field("model", p.cost.modelName);
    j.field("cycles", p.cost.cycles);
    j.key("energy");
    writeEnergyArray(j, p.cost.energy);
    j.key("layers").beginArray();
    for (const LayerCost &l : p.cost.layers) {
        j.beginObject();
        j.field("name", l.layerName);
        j.field("cycles", l.cycles);
        j.fieldExact("utilization", l.utilization);
        j.key("energy");
        writeEnergyArray(j, l.energy);
        j.endObject();
    }
    j.endArray();
    j.endObject(); // cost
    j.endObject(); // point
}

namespace {

Status
readEnergyArray(const JsonValue *v, EnergyBreakdown &out,
                const char *where)
{
    if (v == nullptr || !v->isArray() || v->array.size() != 9)
        return errDataLoss("checkpoint: bad energy array in %s", where);
    for (const JsonValue &n : v->array) {
        if (!n.isNumber())
            return errDataLoss("checkpoint: non-numeric energy in %s",
                               where);
    }
    out.dram = v->array[0].number;
    out.d2d = v->array[1].number;
    out.noc = v->array[2].number;
    out.al2 = v->array[3].number;
    out.al1 = v->array[4].number;
    out.wl1 = v->array[5].number;
    out.ol1 = v->array[6].number;
    out.ol2 = v->array[7].number;
    out.mac = v->array[8].number;
    return Status::okStatus();
}

Status
readNumberArray(const JsonValue *v, size_t n, const char *where,
                double *out)
{
    if (v == nullptr || !v->isArray() || v->array.size() != n)
        return errDataLoss("checkpoint: bad %s array", where);
    for (size_t i = 0; i < n; ++i) {
        if (!v->array[i].isNumber())
            return errDataLoss("checkpoint: non-numeric %s entry",
                               where);
        out[i] = v->array[i].number;
    }
    return Status::okStatus();
}

} // namespace

Status
readDesignPointJson(const JsonValue &v, DesignPoint &p)
{
    if (!v.isObject())
        return errDataLoss("checkpoint: point is not an object");

    double compute[4], memory[4], area[5];
    Status s = readNumberArray(v.find("compute"), 4, "compute", compute);
    if (!s.ok())
        return s;
    s = readNumberArray(v.find("memory"), 4, "memory", memory);
    if (!s.ok())
        return s;
    s = readNumberArray(v.find("area"), 5, "area", area);
    if (!s.ok())
        return s;
    p.compute.chiplets = static_cast<int>(compute[0]);
    p.compute.cores = static_cast<int>(compute[1]);
    p.compute.lanes = static_cast<int>(compute[2]);
    p.compute.vectorSize = static_cast<int>(compute[3]);
    p.memory.ol1Bytes = static_cast<int64_t>(memory[0]);
    p.memory.al1Bytes = static_cast<int64_t>(memory[1]);
    p.memory.wl1Bytes = static_cast<int64_t>(memory[2]);
    p.memory.al2Bytes = static_cast<int64_t>(memory[3]);
    p.area.macs = area[0];
    p.area.sram = area[1];
    p.area.rf = area[2];
    p.area.grsPhy = area[3];
    p.area.ddrPhy = area[4];

    const JsonValue *clock = v.find("clockGhz");
    if (clock == nullptr || !clock->isNumber())
        return errDataLoss("checkpoint: point missing clockGhz");
    p.clockGhz = clock->number;

    const JsonValue *cost = v.find("cost");
    if (cost == nullptr || !cost->isObject())
        return errDataLoss("checkpoint: point missing cost");
    const JsonValue *model = cost->find("model");
    const JsonValue *cycles = cost->find("cycles");
    if (model == nullptr || !model->isString() || cycles == nullptr ||
        !cycles->isNumber()) {
        return errDataLoss("checkpoint: malformed cost record");
    }
    p.cost.modelName = model->string;
    p.cost.cycles = static_cast<int64_t>(cycles->number);
    s = readEnergyArray(cost->find("energy"), p.cost.energy, "cost");
    if (!s.ok())
        return s;

    const JsonValue *layers = cost->find("layers");
    if (layers == nullptr || !layers->isArray())
        return errDataLoss("checkpoint: cost missing layers");
    p.cost.layers.clear();
    p.cost.layers.reserve(layers->array.size());
    for (const JsonValue &lv : layers->array) {
        if (!lv.isObject())
            return errDataLoss("checkpoint: layer cost not an object");
        LayerCost lc;
        const JsonValue *name = lv.find("name");
        const JsonValue *lcycles = lv.find("cycles");
        const JsonValue *util = lv.find("utilization");
        if (name == nullptr || !name->isString() || lcycles == nullptr ||
            !lcycles->isNumber() || util == nullptr ||
            !util->isNumber()) {
            return errDataLoss("checkpoint: malformed layer cost");
        }
        lc.layerName = name->string;
        lc.cycles = static_cast<int64_t>(lcycles->number);
        lc.utilization = util->number;
        s = readEnergyArray(lv.find("energy"), lc.energy, "layer");
        if (!s.ok())
            return s;
        p.cost.layers.push_back(std::move(lc));
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

/** The options part of a fingerprint, ending "|mode|seed".  The
 *  anneal seed only matters when that mode is active; keying it
 *  unconditionally would reject resumes between deterministic sweeps
 *  that merely carried different (unused) seeds. */
std::string
optionsFingerprint(const DseOptions &options)
{
    return strprintf(
        "%lld|%.17g|%d|%d|%d|%s|%llu",
        static_cast<long long>(options.totalMacs), options.areaLimitMm2,
        options.proportionalMem ? 1 : 0,
        static_cast<int>(options.effort),
        static_cast<int>(options.objective),
        toString(options.searchMode),
        options.searchMode == SearchMode::Anneal
            ? static_cast<unsigned long long>(options.annealSeed)
            : 0ull);
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

/** True when @p model is a zoo model exactly as its make* function
 *  returns it (batch 1, unedited), the only case a name-keyed
 *  fingerprint identified. */
bool
isZooModel(const Model &model)
{
    const std::string text = writeModelText(model);
    for (Model (*build)(int) :
         {makeAlexNet, makeVgg16, makeResNet50, makeDarkNet19,
          makeMobileNetV2, makeBertBase, makeVitB16}) {
        try {
            if (writeModelText(build(model.inputResolution())) == text)
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
    const SweepCheckpoint restored = loadSweepCheckpoint(path).value();
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
        out.restored = true;
        switch (it->second.kind) {
        case CheckpointEntry::Kind::AreaRejected:
            out.kind = SweepPointOutcome::AreaRejected;
            break;
        case CheckpointEntry::Kind::Infeasible:
            out.kind = SweepPointOutcome::Infeasible;
            break;
        case CheckpointEntry::Kind::Valid:
            out.kind = SweepPointOutcome::Valid;
            out.point = it->second.point;
            break;
        }
        sink.seed(key, it->second);
        ++restored_points;
    }
    return restored_points;
}

Status
saveSweepCheckpoint(const std::string &path,
                    const SweepCheckpoint &checkpoint)
{
    if (verif::injectCheckpointWriteFailure())
        return errUnavailable("injected checkpoint write failure");

    // Keys are emitted in sorted order purely so the file is diffable;
    // load order does not matter.
    std::vector<const std::string *> keys;
    keys.reserve(checkpoint.entries.size());
    for (const auto &kv : checkpoint.entries)
        keys.push_back(&kv.first);
    std::sort(keys.begin(), keys.end(),
              [](const std::string *a, const std::string *b) {
                  return *a < *b;
              });

    std::ostringstream body;
    JsonWriter j(body);
    j.beginObject();
    j.field("format", kFormat);
    j.field("version", kVersion);
    j.field("fingerprint", checkpoint.fingerprint);
    j.field("complete", checkpoint.complete);
    j.key("entries").beginArray();
    for (const std::string *key : keys) {
        const CheckpointEntry &e = checkpoint.entries.at(*key);
        j.beginObject();
        j.field("key", *key);
        j.field("kind", checkpointKindName(e.kind));
        if (e.kind == CheckpointEntry::Kind::Valid) {
            j.key("point");
            writeDesignPointJson(j, e.point);
        }
        j.endObject();
    }
    j.endArray();
    j.endObject();
    body << "\n";

    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os) {
            return errUnavailable("cannot open %s for writing: %s",
                                  tmp.c_str(), std::strerror(errno));
        }
        os << body.str();
        os.flush();
        if (!os) {
            return errUnavailable("short write to %s: %s", tmp.c_str(),
                                  std::strerror(errno));
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::remove(tmp.c_str());
        return errUnavailable("cannot rename %s over %s: %s",
                              tmp.c_str(), path.c_str(),
                              std::strerror(err));
    }
    return Status::okStatus();
}

StatusOr<SweepCheckpoint>
loadSweepCheckpoint(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return errNotFound("cannot open checkpoint %s", path.c_str());
    std::ostringstream buf;
    buf << is.rdbuf();

    JsonParseResult parsed = parseJson(buf.str());
    if (!parsed.ok()) {
        return errDataLoss("checkpoint %s: %s (offset %zu)",
                           path.c_str(), parsed.error.c_str(),
                           parsed.errorOffset);
    }
    const JsonValue &root = parsed.value;
    const JsonValue *format = root.find("format");
    const JsonValue *version = root.find("version");
    if (format == nullptr || !format->isString() ||
        format->string != kFormat) {
        return errDataLoss("checkpoint %s: not a sweep checkpoint",
                           path.c_str());
    }
    if (version == nullptr || !version->isNumber() ||
        static_cast<int>(version->number) != kVersion) {
        return errDataLoss("checkpoint %s: unsupported version",
                           path.c_str());
    }

    SweepCheckpoint out;
    const JsonValue *fingerprint = root.find("fingerprint");
    const JsonValue *complete = root.find("complete");
    const JsonValue *entries = root.find("entries");
    if (fingerprint == nullptr || !fingerprint->isString() ||
        complete == nullptr || !complete->isBool() ||
        entries == nullptr || !entries->isArray()) {
        return errDataLoss("checkpoint %s: malformed document",
                           path.c_str());
    }
    out.fingerprint = fingerprint->string;
    out.complete = complete->boolean;
    // Sweeps run under the retired "bnb" mode (whose unused seed field
    // is 0) returned exhaustive search's winners bit for bit, and
    // "bnb" now parses to Exhaustive, so they resume as that sweep.
    const std::string bnb = "|bnb|0";
    if (out.fingerprint.ends_with(bnb)) {
        out.fingerprint.replace(out.fingerprint.size() - bnb.size(),
                                bnb.size(), "|exhaustive|0");
    }

    for (const JsonValue &ev : entries->array) {
        if (!ev.isObject())
            return errDataLoss("checkpoint %s: entry not an object",
                               path.c_str());
        const JsonValue *key = ev.find("key");
        const JsonValue *kind = ev.find("kind");
        if (key == nullptr || !key->isString() || kind == nullptr ||
            !kind->isString()) {
            return errDataLoss("checkpoint %s: malformed entry",
                               path.c_str());
        }
        CheckpointEntry entry;
        if (!parseCheckpointKind(kind->string, entry.kind)) {
            return errDataLoss("checkpoint %s: unknown kind '%s'",
                               path.c_str(), kind->string.c_str());
        }
        if (entry.kind == CheckpointEntry::Kind::Valid) {
            const JsonValue *point = ev.find("point");
            if (point == nullptr)
                return errDataLoss("checkpoint %s: valid entry "
                                   "missing point",
                                   path.c_str());
            Status s = readDesignPointJson(*point, entry.point);
            if (!s.ok())
                return s.withContext("checkpoint " + path);
        }
        out.entries.emplace(key->string, std::move(entry));
    }
    return out;
}

void
CheckpointSink::seed(const std::string &key,
                     const CheckpointEntry &entry)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    state_.entries.emplace(key, entry);
}

void
CheckpointSink::record(const std::string &key,
                       const SweepPointOutcome &out)
{
    if (!enabled())
        return;
    CheckpointEntry entry;
    switch (out.kind) {
    case SweepPointOutcome::AreaRejected:
        entry.kind = CheckpointEntry::Kind::AreaRejected;
        break;
    case SweepPointOutcome::Infeasible:
        entry.kind = CheckpointEntry::Kind::Infeasible;
        break;
    case SweepPointOutcome::Valid:
        entry.kind = CheckpointEntry::Kind::Valid;
        entry.point = out.point;
        break;
    case SweepPointOutcome::Poisoned:
    case SweepPointOutcome::Skipped:
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    state_.entries.emplace(key, std::move(entry));
    if (++sinceFlush_ >= every_)
        flushLocked();
}

void
CheckpointSink::finish(bool complete)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    state_.complete = complete;
    flushLocked();
}

void
CheckpointSink::flushLocked()
{
    sinceFlush_ = 0;
    Status s = saveSweepCheckpoint(path_, state_);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    if (s.ok()) {
        reg.counter("dse.checkpoint.writes").add(1);
    } else {
        // Losing a checkpoint must not lose the sweep: count it, warn
        // with the target path and errno detail, and keep going.
        reg.counter("dse.checkpoint.failures").add(1);
        warn("checkpoint write to %s failed: %s", path_.c_str(),
             s.toString().c_str());
    }
}

} // namespace nnbaton
