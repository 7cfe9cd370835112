#include "serve/service.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "baton/baton.hpp"
#include "baton/export.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "dse/checkpoint.hpp"
#include "dse/slice.hpp"
#include "nn/parser.hpp"
#include "verif/fault.hpp"

namespace nnbaton {
namespace serve {

namespace {

/** Request-path instruments, registered once.  The search work done
 *  on behalf of requests is counted where it happens, under
 *  mapper.cache.* and mapper.candidates.*. */
struct ServeMetrics
{
    obs::Counter *requests;
    obs::Counter *errors;
    obs::Counter *sloViolations;
    obs::Counter *overloadRejected;
    obs::Counter *unitPoints;

    ServeMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
        requests = &reg.counter("serve.requests");
        errors = &reg.counter("serve.errors");
        sloViolations = &reg.counter("serve.slo.violations");
        overloadRejected = &reg.counter("serve.overload.rejected");
        unitPoints = &reg.counter("serve.unit.points");
    }
};

ServeMetrics &
serveMetrics()
{
    static ServeMetrics m;
    return m;
}

/** Resolve the request's workload (zoo name or inline text). */
Model
loadRequestModel(const ServeRequest &req)
{
    auto finish = [&](Model m) {
        if (req.batch > 1)
            m.scaleBatch(req.batch);
        return m;
    };
    if (!req.modelText.empty()) {
        ParseResult parsed = parseModelString(req.modelText);
        if (!parsed.ok()) {
            throwStatus(errInvalidArgument("modelText: %s",
                                           parsed.error.c_str()));
        }
        return finish(std::move(*parsed.model));
    }
    return finish(makeZooModel(req.model, req.resolution));
}

/** Strip exportPostDesign/exportPreDesign's trailing newline so the
 *  transport owns line framing. */
std::string
oneLine(std::ostringstream &ss)
{
    std::string s = ss.str();
    while (!s.empty() && s.back() == '\n')
        s.pop_back();
    return s;
}

} // namespace

DseOptions
sweepRequestOptions(const ServeRequest &req)
{
    DseOptions opt;
    opt.totalMacs = req.macs;
    opt.areaLimitMm2 = req.areaMm2;
    opt.proportionalMem = req.proportional;
    opt.effort = sweepEffort(req.proportional);
    opt.objective = req.edpObjective ? Objective::MinEdp
                                     : Objective::MinEnergy;
    opt.threads = 1; // concurrency lives across requests
    opt.progressSeconds = req.progressSeconds;
    return opt;
}

EvalService::EvalService(ServiceOptions options) : options_(options)
{
    cache_.setCapacity(options_.cacheBytes);
    if (options_.sloUs > 0) {
        obs::MetricsRegistry::instance()
            .gauge("serve.slo.threshold_us")
            .set(static_cast<double>(options_.sloUs));
    }
    if (!options_.accessLogPath.empty()) {
        accessLog_ = std::fopen(options_.accessLogPath.c_str(), "a");
        if (!accessLog_) {
            warn("cannot open access log '%s'; access logging off",
                 options_.accessLogPath.c_str());
        }
    }
}

EvalService::~EvalService()
{
    if (accessLog_)
        std::fclose(accessLog_);
}

HandleResult
EvalService::handleLine(const std::string &line)
{
    // The rid scope opens before the trace scope so the request span
    // (recorded at scope exit) carries the id too.
    const uint64_t rid = obs::nextRequestId();
    obs::RequestIdScope ridScope(rid);
    NNBATON_TRACE_SCOPE("serve.request");
    ServeMetrics &m = serveMetrics();
    m.requests->add();
    requests_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t t0 = obs::traceNowNs();

    RequestAudit audit;
    audit.rid = rid;
    audit.bytesIn = line.size();

    HandleResult out;
    try {
        ServeRequest req = parseRequest(line).value();
        audit.op = toString(req.op);

        // Chaos hooks: a FaultPlan can make this worker misbehave at
        // the transport level for a specific sweep unit — exactly the
        // failures the coordinator's lease/retry machinery must
        // absorb.  No-ops unless a test armed a plan.
        if (req.op == Op::SweepUnit && verif::faultPlanArmed()) {
            int64_t stallMs = 0;
            switch (verif::injectTransportFault(req.unitId, &stallMs)) {
              case verif::TransportFault::DropConnection:
                audit.outcome = "DROPPED";
                out.dropConnection = true;
                break;
              case verif::TransportFault::KillWorker:
                audit.outcome = "KILLED";
                out.dropConnection = true;
                out.shutdown = true;
                break;
              case verif::TransportFault::CorruptFrame:
                audit.outcome = "CORRUPTED";
                out.response = "\x7fgarbage frame, not protocol JSON";
                break;
              case verif::TransportFault::Stall:
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(stallMs));
                break;
              case verif::TransportFault::None:
                break;
            }
            if (out.dropConnection || !out.response.empty()) {
                writeAccessLog(audit);
                return out;
            }
        }

        // Admission control: heavy evaluations beyond the configured
        // concurrency answer a retryable UNAVAILABLE immediately —
        // the caller backs off or re-leases elsewhere — instead of
        // queueing without bound behind a busy lane.
        const bool heavy = req.op == Op::Post || req.op == Op::Pre ||
                           req.op == Op::SweepUnit;
        struct InflightSlot
        {
            std::atomic<int> *counter = nullptr;
            ~InflightSlot()
            {
                if (counter)
                    counter->fetch_sub(1, std::memory_order_relaxed);
            }
        } slot;
        if (heavy && options_.maxInflight > 0) {
            const int running =
                inflight_.fetch_add(1, std::memory_order_relaxed);
            slot.counter = &inflight_;
            if (running >= options_.maxInflight) {
                m.overloadRejected->add();
                throwStatus(errUnavailable(
                    "overloaded: %d request(s) already evaluating "
                    "(max %d); retry with backoff",
                    running, options_.maxInflight));
            }
        }

        // Per-request cancellation: the request deadline plus the
        // service-wide stop token.  A positive service maximum caps
        // the deadline and always bounds sweeps; 0 caps nothing.
        CancelToken cancel;
        cancel.linkParent(options_.stop);
        double deadline = req.deadlineSeconds;
        const double cap = options_.maxDeadlineSeconds;
        const bool sweep = req.op == Op::Pre || req.op == Op::SweepUnit;
        if (cap > 0 && (deadline > cap || (sweep && deadline <= 0)))
            deadline = cap;
        if (deadline > 0)
            cancel.setDeadlineAfter(deadline);

        switch (req.op) {
          case Op::Post:
            out.response = runPost(req, cancel, audit);
            break;
          case Op::Pre:
            out.response = runPre(req, cancel, audit);
            break;
          case Op::SweepUnit:
            out.response = runSweepUnit(req, cancel, audit);
            break;
          case Op::Stats:
            out.response = runStats();
            break;
          case Op::Metrics:
            out.response = runMetrics();
            break;
          case Op::Flight:
            out.response = runFlight();
            break;
          case Op::Ping:
            out.response = "{\"pong\":true}";
            break;
          case Op::Shutdown:
            out.response = "{\"shuttingDown\":true}";
            out.shutdown = true;
            break;
        }
    } catch (const StatusError &e) {
        m.errors->add();
        errors_.fetch_add(1, std::memory_order_relaxed);
        audit.outcome = nnbaton::toString(e.status().code());
        out.response = errorResponse(e.status(), rid);
        dumpFlightOnError(rid, e.status());
    } catch (const std::exception &e) {
        m.errors->add();
        errors_.fetch_add(1, std::memory_order_relaxed);
        const Status status = errInternal("unexpected: %s", e.what());
        audit.outcome = nnbaton::toString(status.code());
        out.response = errorResponse(status, rid);
        dumpFlightOnError(rid, status);
    }

    // The serve.request span times the request for the metrics
    // registry; this clock read feeds the SLO and the access log.
    const int64_t us =
        static_cast<int64_t>((obs::traceNowNs() - t0) / 1000);
    if (options_.sloUs > 0 && us > options_.sloUs)
        m.sloViolations->add();

    audit.durationUs = us;
    audit.bytesOut = out.response.size();
    writeAccessLog(audit);
    return out;
}

std::string
EvalService::runPost(const ServeRequest &req, CancelToken &cancel,
                     RequestAudit &audit)
{
    NNBATON_TRACE_SCOPE("serve.post");
    const Model model = loadRequestModel(req);
    req.config.validate();

    SearchOptions search;
    search.cancel = &cancel;
    PostDesignFlow flow(req.config, req.tech, SearchEffort::Exhaustive,
                        req.edpObjective ? Objective::MinEdp
                                         : Objective::MinEnergy,
                        search);
    const PostDesignReport report = flow.run(model, &cache_);
    audit.search = "exhaustive";
    audit.cacheHits = report.stats.cacheHits;
    audit.cacheMisses = report.stats.cacheMisses;

    std::ostringstream ss;
    exportPostDesign(report, ss, ExportOptions::lean());
    return oneLine(ss);
}

std::string
EvalService::runPre(const ServeRequest &req, CancelToken &cancel,
                    RequestAudit &audit)
{
    NNBATON_TRACE_SCOPE("serve.pre");
    const Model model = loadRequestModel(req);

    DseOptions opt = sweepRequestOptions(req);
    opt.cancel = &cancel;
    opt.cache = &cache_;
    PreDesignFlow flow(opt, req.tech);
    const PreDesignReport report = flow.run(model);
    audit.search = "exhaustive";
    audit.cacheHits = report.sweep.search.cacheHits;
    audit.cacheMisses = report.sweep.search.cacheMisses;

    std::ostringstream ss;
    exportPreDesign(report, ss, ExportOptions::lean());
    return oneLine(ss);
}

std::string
EvalService::runSweepUnit(const ServeRequest &req, CancelToken &cancel,
                          RequestAudit &audit)
{
    NNBATON_TRACE_SCOPE("serve.sweep_unit");
    const Model model = loadRequestModel(req);

    // The same DseOptions the `pre` op builds, so the canonical task
    // enumeration and per-point evaluation are byte-for-byte those of
    // a local sweep.
    DseOptions opt = sweepRequestOptions(req);
    opt.cancel = &cancel;

    // Identity gate before any evaluation.  A worker that computes a
    // different sweep fingerprint (other build, other model zoo) or
    // technology digest would return points from a different design
    // space; FAILED_PRECONDITION is deliberately non-retryable so the
    // coordinator quarantines this worker instead of retrying into
    // the same wrong answer.
    const std::string fp = sweepFingerprint(model, opt);
    if (fp != req.sweepFp) {
        throwStatus(errFailedPrecondition(
            "sweepUnit %lld: sweep fingerprint mismatch (worker "
            "\"%s\" != coordinator \"%s\")",
            static_cast<long long>(req.unitId), fp.c_str(),
            req.sweepFp.c_str()));
    }
    const std::string techFp = techFingerprintHex(req.tech);
    if (techFp != req.techFp) {
        throwStatus(errFailedPrecondition(
            "sweepUnit %lld: technology fingerprint mismatch (worker "
            "%s != coordinator %s)",
            static_cast<long long>(req.unitId), techFp.c_str(),
            req.techFp.c_str()));
    }

    // Only the unit's own tasks are materialised; the range is still
    // checked against the whole sweep.
    const SweepTaskSpace space(opt);
    if (req.unitEnd > space.size()) {
        throwStatus(errFailedPrecondition(
            "sweepUnit %lld: range [%lld, %lld) exceeds the %lld-task "
            "enumeration",
            static_cast<long long>(req.unitId),
            static_cast<long long>(req.unitBegin),
            static_cast<long long>(req.unitEnd),
            static_cast<long long>(space.size())));
    }

    std::vector<SweepPointOutcome> outcomes = evaluateSweepSlice(
        model, opt, req.tech, space.range(req.unitBegin, req.unitEnd),
        req.unitBegin, cache_);

    // A unit is atomic: all points or none.  When the deadline or a
    // shutdown interrupted the slice, answer with the (retryable)
    // cancellation status so the coordinator re-leases the whole unit
    // rather than merging a partial one.
    SearchStats stats;
    for (const SweepPointOutcome &out : outcomes) {
        if (out.kind == SweepPointOutcome::Skipped)
            throwStatus(cancel.toStatus());
        stats += out.stats;
    }
    serveMetrics().unitPoints->add(
        static_cast<int64_t>(outcomes.size()));
    audit.search = "exhaustive";
    audit.cacheHits = stats.cacheHits;
    audit.cacheMisses = stats.cacheMisses;

    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject();
    j.field("ok", true);
    j.field("unitId", req.unitId);
    j.field("fingerprint", fp);
    j.field("techFingerprint", techFp);
    j.key("entries").beginArray();
    for (size_t k = 0; k < outcomes.size(); ++k) {
        j.beginObject();
        j.field("i", req.unitBegin + static_cast<int64_t>(k));
        writeSweepOutcomeJson(j, outcomes[k]);
        j.endObject();
    }
    j.endArray();
    j.key("stats").beginObject();
    j.field("evaluated", stats.evaluated);
    j.field("pruned", stats.pruned);
    j.field("cacheHits", stats.cacheHits);
    j.field("cacheMisses", stats.cacheMisses);
    j.endObject();
    j.endObject();
    return ss.str();
}

std::string
EvalService::runStats()
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject();
    j.field("requests", requests_.load(std::memory_order_relaxed));
    j.field("errors", errors_.load(std::memory_order_relaxed));
    j.key("cache").beginObject();
    j.field("entries", static_cast<int64_t>(cache_.size()));
    j.field("bytes", cache_.bytes());
    j.field("capacityBytes", options_.cacheBytes);
    j.field("builds", cache_.tableBuilds());
    j.field("hits", cache_.tableHits());
    j.field("evictions", cache_.evictions());
    j.endObject();
    j.endObject();
    return ss.str();
}

std::string
EvalService::runMetrics()
{
    std::ostringstream ss;
    JsonWriter j(ss);
    writeMetricsJson(j, obs::MetricsRegistry::instance().snapshot());
    return ss.str();
}

std::string
EvalService::runFlight()
{
    return "{\"flightRecorder\":" + obs::flightRecorderJson() + "}";
}

void
EvalService::writeAccessLog(const RequestAudit &audit)
{
    if (!accessLog_)
        return;
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject();
    j.field("ts", wallClockIso8601());
    j.field("rid", static_cast<int64_t>(audit.rid));
    j.field("op", audit.op);
    j.field("outcome", audit.outcome);
    j.field("durationUs", audit.durationUs);
    j.field("bytesIn", static_cast<int64_t>(audit.bytesIn));
    j.field("bytesOut", static_cast<int64_t>(audit.bytesOut));
    j.field("cacheHits", audit.cacheHits);
    j.field("cacheMisses", audit.cacheMisses);
    j.field("search", audit.search);
    j.endObject();
    // One fwrite per line so concurrent lanes never interleave bytes.
    const std::string lineOut = ss.str() + "\n";
    std::fwrite(lineOut.data(), 1, lineOut.size(), accessLog_);
    std::fflush(accessLog_);
}

void
EvalService::dumpFlightOnError(uint64_t rid, const Status &status)
{
    obs::flightMark("serve.request.error");
    if (options_.flightDumpPath.empty())
        return;
    // Lanes fail concurrently: each dump goes to its own file and is
    // renamed over the path whole, so dumps replace, never interleave.
    const std::string &path = options_.flightDumpPath;
    const std::string tmp = path + "." + std::to_string(rid) + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        JsonWriter j(out);
        j.beginObject();
        j.field("failedRequestId", static_cast<int64_t>(rid));
        j.field("error", status.toString());
        j.key("flightRecorder").rawValue(obs::flightRecorderJson());
        j.endObject();
        out << "\n";
        out.close();
        if (out && std::rename(tmp.c_str(), path.c_str()) == 0)
            return;
    }
    warn("cannot write flight dump '%s'", path.c_str());
    std::remove(tmp.c_str());
}

} // namespace serve
} // namespace nnbaton
