#include "serve/protocol.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <type_traits>

#include "common/json.hpp"

namespace nnbaton {
namespace serve {

namespace {

/** Wire op names, indexed by Op. */
constexpr std::array<const char *, 8> kOpNames = {
    "post",    "pre",    "sweepUnit", "stats",
    "metrics", "flight", "ping",      "shutdown"};
static_assert(kOpNames.size() == static_cast<size_t>(Op::Shutdown) + 1);

/** The largest integer a request member may carry: 2^53, above which
 *  a double no longer holds every integer. */
constexpr int64_t kMaxRequestInt = int64_t{1} << 53;

/** Set @p member from @p value: a string, a positive finite double, or
 *  an integer of the member's type in [@p lo, kMaxRequestInt]. */
template <typename T>
Status
assignMember(const std::string &key, const JsonValue &value, T &member,
             int64_t lo = 1)
{
    JsonReader in(StatusCode::InvalidArgument);
    if constexpr (std::is_same_v<T, double>) {
        in.read(&value, key, member);
        if (in.ok() && !(member > 0))
            in.refuse("'%s' must be a positive finite number",
                      key.c_str());
    } else if constexpr (std::is_same_v<T, std::string>) {
        in.read(&value, key, member);
    } else {
        in.read(&value, key, member, lo, kMaxRequestInt);
    }
    return in.status();
}

/**
 * Set the members of an object @p v (named @p what) through
 * @p forEach(fn), which calls fn(name, member) for every member it
 * knows; an unknown member is InvalidArgument.
 */
template <typename ForEach>
Status
assignMembers(const JsonValue &v, const char *what, ForEach &&forEach)
{
    if (!v.isObject())
        return errInvalidArgument("'%s' must be an object", what);
    for (const auto &[key, value] : v.object) {
        std::optional<Status> s;
        forEach([&](const char *name, auto &member) {
            if (key == name)
                s = assignMember(key, value, member);
        });
        if (!s) {
            return errInvalidArgument("unknown %s member '%s'", what,
                                      key.c_str());
        }
        if (!s->ok())
            return *s;
    }
    return Status::okStatus();
}

Status
parseConfig(const JsonValue &v, AcceleratorConfig &cfg)
{
    return assignMembers(v, "config", [&cfg](auto &&field) {
        field("chiplets", cfg.package.chiplets);
        field("cores", cfg.chiplet.cores);
        field("lanes", cfg.core.lanes);
        field("vectorSize", cfg.core.vectorSize);
        field("ol1Bytes", cfg.core.ol1Bytes);
        field("al1Bytes", cfg.core.al1Bytes);
        field("wl1Bytes", cfg.core.wl1Bytes);
        field("al2Bytes", cfg.chiplet.al2Bytes);
    });
}

Status
parseTech(const JsonValue &v, TechnologyModel &tech)
{
    return assignMembers(v, "tech", [&tech](auto &&field) {
        forEachTechParameter(tech, field);
    });
}

} // namespace

StatusOr<ServeRequest>
parseRequest(const std::string &line)
{
    const JsonParseResult parsed = parseJson(line);
    if (!parsed.ok()) {
        return errInvalidArgument("malformed request: %s at offset %zu",
                                  parsed.error.c_str(),
                                  parsed.errorOffset);
    }
    const JsonValue &root = parsed.value;
    if (!root.isObject())
        return errInvalidArgument("request must be a JSON object");

    ServeRequest req;
    req.config = caseStudyConfig();
    req.tech = defaultTech();

    const JsonValue *op = root.find("op");
    if (!op || !op->isString())
        return errInvalidArgument("request needs a string 'op'");
    const auto named =
        std::find(kOpNames.begin(), kOpNames.end(), op->string);
    if (named == kOpNames.end()) {
        std::string known;
        for (const char *name : kOpNames)
            known.append(known.empty() ? "" : ", ").append(name);
        return errInvalidArgument("unknown op '%s' (%s)",
                                  op->string.c_str(), known.c_str());
    }
    req.op = static_cast<Op>(named - kOpNames.begin());

    for (const auto &[key, value] : root.object) {
        // The members that are a plain string or number.
        std::optional<Status> plain;
        const auto member = [&](const char *name, auto &field,
                                int64_t lo = 1) {
            if (key == name)
                plain = assignMember(key, value, field, lo);
        };
        member("model", req.model);
        member("modelText", req.modelText);
        member("resolution", req.resolution);
        member("batch", req.batch);
        member("deadlineSeconds", req.deadlineSeconds);
        member("progressSeconds", req.progressSeconds);
        member("macs", req.macs);
        member("areaMm2", req.areaMm2);
        member("unitId", req.unitId, 0);
        member("begin", req.unitBegin, 0);
        member("end", req.unitEnd);
        member("fingerprint", req.sweepFp);
        member("techFingerprint", req.techFp);
        if (plain) {
            if (!plain->ok())
                return *plain;
            continue;
        }
        if (key == "op") {
            continue;
        } else if (key == "config") {
            Status s = parseConfig(value, req.config);
            if (!s.ok())
                return s;
        } else if (key == "tech") {
            Status s = parseTech(value, req.tech);
            if (!s.ok())
                return s;
        } else if (key == "objective") {
            if (!value.isString() || (value.string != "energy" &&
                                      value.string != "edp")) {
                return errInvalidArgument(
                    "'objective' must be \"energy\" or \"edp\"");
            }
            req.edpObjective = value.string == "edp";
        } else if (key == "search") {
            // Exhaustive is the only search.  "bnb" names the retired
            // branch-and-bound mode, whose winners were exhaustive
            // search's bit for bit; anneal's were not, so it is no
            // alias.
            if (!value.isString()) {
                return errInvalidArgument(
                    "'search' must be a string");
            }
            if (value.string != "exhaustive" && value.string != "bnb") {
                return errInvalidArgument(
                    "'search' must be \"exhaustive\", got '%s'",
                    value.string.c_str());
            }
        } else if (key == "proportional") {
            if (!value.isBool()) {
                return errInvalidArgument(
                    "'proportional' must be a boolean");
            }
            req.proportional = value.boolean;
        } else {
            return errInvalidArgument("unknown request member '%s'",
                                      key.c_str());
        }
    }
    if (root.find("model") && !req.modelText.empty()) {
        return errInvalidArgument(
            "'model' and 'modelText' are mutually exclusive");
    }
    if (req.op == Op::SweepUnit) {
        if (req.unitId < 0 || req.unitEnd <= req.unitBegin) {
            return errInvalidArgument(
                "sweepUnit needs unitId >= 0 and end > begin");
        }
        if (req.sweepFp.empty() || req.techFp.empty()) {
            return errInvalidArgument(
                "sweepUnit needs 'fingerprint' and 'techFingerprint'");
        }
    }
    return req;
}

const char *
toString(Op op)
{
    return kOpNames.at(static_cast<size_t>(op));
}

bool
isRetryableCode(StatusCode code)
{
    // Transient conditions: the operation may succeed on another
    // worker or after backoff.  Everything else (bad request, wrong
    // fingerprint, internal bug) would fail identically on retry.
    return code == StatusCode::Unavailable ||
           code == StatusCode::Cancelled ||
           code == StatusCode::DeadlineExceeded;
}

std::optional<Status>
statusFromErrorResponse(const std::string &response)
{
    if (!response.starts_with("{\"ok\":false"))
        return std::nullopt;
    const JsonValue root = parseJson(response).value;
    JsonReader in(StatusCode::DataLoss);
    std::string code;
    std::string message;
    if (const JsonValue *error = in.get(root.find("error"), "error",
                                        JsonValue::Type::Object)) {
        in.read(error->find("code"), "code", code);
        in.read(error->find("message"), "message", message);
    }
    for (int c = 1; in.ok() && c <= static_cast<int>(StatusCode::Unavailable);
         ++c) {
        if (code == nnbaton::toString(static_cast<StatusCode>(c)))
            return Status(static_cast<StatusCode>(c), message);
    }
    return errDataLoss("malformed error envelope: %s", response.c_str());
}

std::string
errorResponse(const Status &status, uint64_t rid)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject();
    j.field("ok", false);
    if (rid)
        j.field("rid", static_cast<int64_t>(rid));
    j.field("retryable", isRetryableCode(status.code()));
    j.key("error").beginObject();
    j.field("code", nnbaton::toString(status.code()));
    j.field("message", status.message());
    j.endObject();
    j.endObject();
    return ss.str();
}

} // namespace serve
} // namespace nnbaton
