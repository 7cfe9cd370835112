#include "fabric/wire.hpp"

#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "dse/checkpoint.hpp"
#include "mapper/search.hpp"
#include "serve/protocol.hpp"

namespace nnbaton {
namespace fabric {

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
    const long long id = unit.id;
    const JsonParseResult parsed = parseJson(line);
    if (!parsed.ok()) {
        return errDataLoss("unit %lld: corrupt response frame: %s", id,
                           parsed.error.c_str());
    }
    // The retryable codes round-trip exactly (the coordinator's
    // backoff predicate keys on them); every other code collapses to
    // the non-retryable FAILED_PRECONDITION.
    if (std::optional<Status> failed =
            serve::statusFromErrorResponse(line)) {
        if (serve::isRetryableCode(failed->code()))
            return failed->withContext("worker");
        return errFailedPrecondition("worker: %s",
                                     failed->toString().c_str());
    }

    const JsonValue &root = parsed.value;
    JsonReader in(StatusCode::DataLoss);
    int64_t unitId = -1;
    std::string fp;
    std::string tfp;
    const JsonValue *ok = in.get(root.find("ok"), "ok",
                                 JsonValue::Type::Bool);
    in.read(root.find("unitId"), "unitId", unitId, 0);
    in.read(root.find("fingerprint"), "fingerprint", fp);
    in.read(root.find("techFingerprint"), "techFingerprint", tfp);
    const JsonValue *entries = in.get(root.find("entries"), "entries",
                                      JsonValue::Type::Array);
    const JsonValue *stats = in.get(root.find("stats"), "stats",
                                    JsonValue::Type::Object);
    if (ok && !ok->boolean)
        in.refuse("'ok' is false outside an error envelope");
    if (!in.ok())
        return in.status().withContext(strprintf("unit %lld", id));
    if (unitId != unit.id) {
        return errFailedPrecondition(
            "unit %lld: response is for unit %lld", id,
            static_cast<long long>(unitId));
    }
    // Fingerprint echo: the worker proved it enumerated the same
    // space before evaluating; a mismatch here means the response
    // was built against a different sweep and must not be merged.
    if (fp != sweepFp || tfp != techFp) {
        return errFailedPrecondition(
            "unit %lld: response fingerprints do not match the sweep",
            id);
    }
    if (static_cast<int64_t>(entries->array.size()) != unit.points()) {
        return errDataLoss("unit %lld: expected %lld entries, got %zu",
                           id, static_cast<long long>(unit.points()),
                           entries->array.size());
    }

    SweepUnitResult result;
    result.outcomes.resize(entries->array.size());
    for (size_t k = 0; k < entries->array.size(); ++k) {
        const JsonValue &ev = entries->array[k];
        const int64_t expected = unit.begin + static_cast<int64_t>(k);
        int64_t index = -1;
        in.read(ev.find("i"), "i", index, 0);
        if (in.ok() && index != expected) {
            in.refuse("entry is for index %lld, expected %lld",
                      static_cast<long long>(index),
                      static_cast<long long>(expected));
        }
        Status s = in.ok() ? readSweepOutcomeJson(ev, result.outcomes[k])
                           : in.status();
        if (!s.ok()) {
            return s.withContext(
                strprintf("unit %lld entry %zu", id, k));
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
        in.read(stats->find(member.name), member.name,
                result.stats.*(member.member), 0);
    }
    if (!in.ok())
        return in.status().withContext(strprintf("unit %lld stats", id));
    return result;
}

} // namespace fabric
} // namespace nnbaton
