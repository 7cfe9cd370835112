#include "fabric/wire.hpp"

#include <sstream>
#include <type_traits>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "dse/checkpoint.hpp"
#include "mapper/search.hpp"

namespace nnbaton {
namespace fabric {

namespace {

/** Lift an error envelope back into the Status it carried.  The
 *  retryable codes round-trip exactly (the coordinator's backoff
 *  predicate keys on them); everything else collapses to the
 *  non-retryable FAILED_PRECONDITION. */
Status
statusFromEnvelope(const JsonValue &root)
{
    std::string code = "?";
    std::string message = "worker error";
    if (const JsonValue *error = root.find("error");
        error && error->isObject()) {
        if (const JsonValue *c = error->find("code");
            c && c->isString())
            code = c->string;
        if (const JsonValue *m = error->find("message");
            m && m->isString())
            message = m->string;
    }
    if (code == "UNAVAILABLE")
        return errUnavailable("worker: %s", message.c_str());
    if (code == "CANCELLED")
        return errCancelled("worker: %s", message.c_str());
    if (code == "DEADLINE_EXCEEDED")
        return errDeadlineExceeded("worker: %s", message.c_str());
    return errFailedPrecondition("worker: %s: %s", code.c_str(),
                                 message.c_str());
}

StatusOr<int64_t>
statInt(const JsonValue &stats, const char *name)
{
    const JsonValue *v = stats.find(name);
    if (v == nullptr || !v->isNumber())
        return errDataLoss("unit response: bad stats member '%s'",
                           name);
    return static_cast<int64_t>(v->number);
}

} // namespace

std::string
encodeSweepUnitRequest(const std::string &modelText,
                       const DseOptions &options,
                       const TechnologyModel &tech,
                       const WorkUnit &unit,
                       const std::string &sweepFp,
                       const std::string &techFp)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject();
    j.field("op", "sweepUnit");
    j.field("modelText", modelText);
    j.field("macs", options.totalMacs);
    if (options.areaLimitMm2 > 0)
        j.fieldExact("areaMm2", options.areaLimitMm2);
    j.field("proportional", options.proportionalMem);
    j.field("objective", options.objective == Objective::MinEdp
                             ? "edp"
                             : "energy");
    // Every technology parameter travels so the worker scores under
    // the coordinator's exact model and reproduces its fingerprint.
    j.key("tech").beginObject();
    forEachTechParameter(tech, [&j](const char *name, const auto &v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>)
            j.fieldExact(name, v);
        else
            j.field(name, v);
    });
    j.endObject();
    j.field("unitId", unit.id);
    j.field("begin", unit.begin);
    j.field("end", unit.end);
    j.field("fingerprint", sweepFp);
    j.field("techFingerprint", techFp);
    j.endObject();
    return ss.str();
}

StatusOr<SweepUnitResult>
parseSweepUnitResponse(const std::string &line, const WorkUnit &unit,
                       const std::string &sweepFp,
                       const std::string &techFp)
{
    const JsonParseResult parsed = parseJson(line);
    if (!parsed.ok()) {
        return errDataLoss("unit %lld: corrupt response frame: %s",
                           static_cast<long long>(unit.id),
                           parsed.error.c_str());
    }
    const JsonValue &root = parsed.value;
    if (!root.isObject()) {
        return errDataLoss("unit %lld: response is not an object",
                           static_cast<long long>(unit.id));
    }
    const JsonValue *ok = root.find("ok");
    if (ok == nullptr || !ok->isBool()) {
        return errDataLoss("unit %lld: response missing 'ok'",
                           static_cast<long long>(unit.id));
    }
    if (!ok->boolean)
        return statusFromEnvelope(root);

    const JsonValue *unitId = root.find("unitId");
    const JsonValue *fp = root.find("fingerprint");
    const JsonValue *tfp = root.find("techFingerprint");
    const JsonValue *entries = root.find("entries");
    const JsonValue *stats = root.find("stats");
    if (unitId == nullptr || !unitId->isNumber() || fp == nullptr ||
        !fp->isString() || tfp == nullptr || !tfp->isString() ||
        entries == nullptr || !entries->isArray() ||
        stats == nullptr || !stats->isObject()) {
        return errDataLoss("unit %lld: malformed response document",
                           static_cast<long long>(unit.id));
    }
    if (static_cast<int64_t>(unitId->number) != unit.id) {
        return errFailedPrecondition(
            "unit %lld: response is for unit %lld",
            static_cast<long long>(unit.id),
            static_cast<long long>(unitId->number));
    }
    // Fingerprint echo: the worker proved it enumerated the same
    // space before evaluating; a mismatch here means the response
    // was built against a different sweep and must not be merged.
    if (fp->string != sweepFp || tfp->string != techFp) {
        return errFailedPrecondition(
            "unit %lld: response fingerprints do not match the sweep",
            static_cast<long long>(unit.id));
    }
    if (static_cast<int64_t>(entries->array.size()) != unit.points()) {
        return errDataLoss(
            "unit %lld: expected %lld entries, got %zu",
            static_cast<long long>(unit.id),
            static_cast<long long>(unit.points()),
            entries->array.size());
    }

    SweepUnitResult result;
    result.outcomes.resize(entries->array.size());
    for (size_t k = 0; k < entries->array.size(); ++k) {
        const JsonValue &ev = entries->array[k];
        if (!ev.isObject()) {
            return errDataLoss("unit %lld: entry %zu not an object",
                               static_cast<long long>(unit.id), k);
        }
        const JsonValue *index = ev.find("i");
        if (index == nullptr || !index->isNumber()) {
            return errDataLoss("unit %lld: malformed entry %zu",
                               static_cast<long long>(unit.id), k);
        }
        if (static_cast<int64_t>(index->number) !=
            unit.begin + static_cast<int64_t>(k)) {
            return errDataLoss(
                "unit %lld: entry %zu is for index %lld, expected "
                "%lld",
                static_cast<long long>(unit.id), k,
                static_cast<long long>(index->number),
                static_cast<long long>(unit.begin +
                                       static_cast<int64_t>(k)));
        }
        Status s = readSweepOutcomeJson(ev, result.outcomes[k]);
        if (!s.ok()) {
            return s.withContext(strprintf(
                "unit %lld entry %zu", static_cast<long long>(unit.id),
                k));
        }
    }

    struct
    {
        const char *name;
        int64_t SearchStats::*member;
    } kStatMembers[] = {
        {"evaluated", &SearchStats::evaluated},
        {"pruned", &SearchStats::pruned},
        {"cacheHits", &SearchStats::cacheHits},
        {"cacheMisses", &SearchStats::cacheMisses},
    };
    for (const auto &member : kStatMembers) {
        StatusOr<int64_t> v = statInt(*stats, member.name);
        if (!v.ok())
            return v.status();
        result.stats.*(member.member) = v.value();
    }
    return result;
}

} // namespace fabric
} // namespace nnbaton
