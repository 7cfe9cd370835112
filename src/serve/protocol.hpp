/**
 * @file
 * Wire protocol of the persistent evaluation service (`nn-baton
 * serve`): newline-delimited JSON over a Unix-domain socket.
 *
 * Each request is one JSON object on one line; each response is one
 * line.  Success responses are the *bare result document* — exactly
 * the bytes the equivalent one-shot CLI invocation writes with
 * `--no-obs` — so callers can diff a served answer against the
 * offline tool.  Error responses are enveloped (with the failing
 * request's id so it can be matched against access-log lines and
 * flight-recorder dumps):
 *
 * @code
 *   {"ok":false,"rid":42,
 *    "error":{"code":"INVALID_ARGUMENT","message":"..."}}
 * @endcode
 *
 * Every envelope begins {"ok":false, and no result document does (a
 * sweepUnit reply begins {"ok":true), so statusFromErrorResponse(),
 * the one decoder of envelopes, tells the shapes apart by that prefix
 * without parsing a result.
 *
 * Request schema (see docs/serving.md for the full reference):
 *
 * @code
 *   {"op":"post" | "pre" | "sweepUnit" | "stats" | "metrics"
 *         | "flight" | "ping" | "shutdown",
 *    "model":"resnet50",            // zoo name, or instead:
 *    "modelText":"model m 32\n...", // inline text-format model
 *    "resolution":224,
 *    "batch":1,                     // multiplies every layer's batch
 *    "config":{"chiplets":4,"cores":8,"lanes":8,"vectorSize":8,
 *              "ol1Bytes":1536,"al1Bytes":800,"wl1Bytes":18432,
 *              "al2Bytes":65536},   // post: hardware overrides
 *    "tech":{"macEnergyPerOp":0.024,...}, // forEachTechParameter()
 *    "objective":"energy" | "edp",
 *    "search":"exhaustive",         // the one search (docs/search.md);
 *                                   // "bnb" is read as "exhaustive"
 *    "deadlineSeconds":30,          // per-request budget
 *    "macs":2048,"areaMm2":3.0,"proportional":false,  // pre only
 *    "progressSeconds":5,           // pre: heartbeat to daemon stderr
 *    "unitId":7,"begin":0,"end":32, // sweepUnit: leased task slice
 *    "fingerprint":"...",           // sweepUnit: sweepFingerprint()
 *    "techFingerprint":"1a2b..."}   // sweepUnit: tech identity (hex)
 * @endcode
 *
 * "sweepUnit" (docs/distributed.md) evaluates tasks [begin, end) of
 * the canonical sweep enumeration for the given pre-design options and
 * answers {"ok":true,"unitId":...,"entries":[...],"stats":{...}} —
 * each entry is {"i":<index>} plus the checkpoint records' outcome
 * codec (writeSweepOutcomeJson(), doubles exact), so the
 * coordinator's merge is bit-identical to a local sweep.
 *
 * "metrics" answers with the bare writeMetricsJson document (the
 * whole obs registry: counters, gauges, histograms with quantiles) —
 * what `nn-baton stats` renders; "flight" answers with the flight
 * recorder dump ({"flightRecorder":...}, docs/observability.md).
 *
 * Unknown members are rejected (InvalidArgument) so typos fail loudly
 * instead of silently evaluating something else, and so is a number
 * that is not exact, finite and in range for its member.
 */

#ifndef NNBATON_SERVE_PROTOCOL_HPP
#define NNBATON_SERVE_PROTOCOL_HPP

#include <optional>
#include <string>

#include "arch/config.hpp"
#include "common/status.hpp"
#include "mapper/search.hpp"
#include "tech/technology.hpp"

namespace nnbaton {
namespace serve {

/** Request kinds the service understands. */
enum class Op
{
    Post,      //!< post-design mapping query on fixed hardware
    Pre,       //!< bounded pre-design sweep
    SweepUnit, //!< one leased slice of a distributed sweep
    Stats,     //!< service + cache counters
    Metrics,   //!< full obs metrics registry (the `stats` CLI scrape)
    Flight,    //!< flight-recorder dump (recent spans per thread)
    Ping,      //!< liveness probe
    Shutdown,  //!< answer, then stop the daemon
};

/** The wire name of @p op ("post", "metrics", ...). */
const char *toString(Op op);

/** A parsed request with defaults matching the one-shot CLI. */
struct ServeRequest
{
    Op op = Op::Ping;

    // Workload: a zoo model name or an inline text-format model.
    std::string model = "resnet50";
    std::string modelText;
    int resolution = 224;
    int batch = 1; //!< multiplies every layer's batch (CLI --batch)

    // Hardware (post) — starts from the paper's case-study config.
    AcceleratorConfig config;

    // Technology — defaultTech() plus any per-request overrides.
    TechnologyModel tech;

    // Pre-design sweep bounds.
    int64_t macs = 2048;
    double areaMm2 = 0.0;
    bool proportional = false;

    bool edpObjective = false;

    double deadlineSeconds = 0.0; //!< <= 0: server default applies

    /** Pre-sweep heartbeat period (DseOptions::progressSeconds);
     *  <= 0 disables.  Lines go to the daemon's stderr and the
     *  dse.progress.* gauges, scrapeable via the metrics op. */
    double progressSeconds = 0.0;

    // Distributed sweep unit (op "sweepUnit"; docs/distributed.md).
    // The coordinator names the leased slice [unitBegin, unitEnd) of
    // the canonical task enumeration and pins the sweep identity the
    // worker must reproduce: the sweep fingerprint (model + options)
    // and the technology fingerprint.  A worker whose local
    // enumeration disagrees answers FAILED_PRECONDITION instead of
    // silently evaluating a different space.
    int64_t unitId = -1;        //!< coordinator-assigned unit id
    int64_t unitBegin = 0;      //!< first task index (inclusive)
    int64_t unitEnd = 0;        //!< past-the-end task index
    std::string sweepFp;        //!< expected sweepFingerprint()
    std::string techFp;         //!< expected tech fingerprint (hex)
};

/** Parse one request line; strict about types and member names. */
StatusOr<ServeRequest> parseRequest(const std::string &line);

/**
 * Serialise a Status as the one-line error envelope; a nonzero
 * @p rid identifies the failing request for postmortem correlation.
 * The envelope carries "retryable": true for transient conditions
 * (UNAVAILABLE / CANCELLED / DEADLINE_EXCEEDED) that a client may
 * retry with backoff, false for definitive rejections.
 */
std::string errorResponse(const Status &status, uint64_t rid = 0);

/**
 * Inverse of errorResponse(): the Status an envelope carries, or
 * nullopt when @p response does not begin {"ok":false and so is no
 * envelope (a result is never parsed here).  An envelope without a
 * known code and a message reads as DATA_LOSS.
 */
std::optional<Status> statusFromErrorResponse(const std::string &response);

/** True when a failure with @p code is worth retrying elsewhere or
 *  later (the coordinator's re-lease / backoff predicate). */
bool isRetryableCode(StatusCode code);

} // namespace serve
} // namespace nnbaton

#endif // NNBATON_SERVE_PROTOCOL_HPP
