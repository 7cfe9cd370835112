/**
 * @file
 * Wire encoding of the coordinator ↔ worker exchange for one sweep
 * unit, layered on the serve daemon's newline-delimited JSON protocol
 * (serve/protocol.hpp, op "sweepUnit").
 *
 * The request ships the workload as inline model text (round-tripped
 * through nn/parser.hpp) plus every DseOptions member that shapes the
 * design space, and pins the sweep + technology fingerprints the
 * worker must reproduce before evaluating anything.  The response is
 * parsed back into SweepPointOutcome slots and validated against the
 * request: wrong unit id, wrong fingerprint, wrong entry count or a
 * malformed frame all become Statuses the worker client can act on —
 * never silently merged points.
 */

#ifndef NNBATON_FABRIC_WIRE_HPP
#define NNBATON_FABRIC_WIRE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "dse/slice.hpp"
#include "tech/technology.hpp"

namespace nnbaton {
namespace fabric {

using nnbaton::WorkUnit;           // dse/slice.hpp
using nnbaton::techFingerprintHex; // tech/technology.hpp

/**
 * Encode the sweepUnit request line for @p unit.  @p modelText is the
 * writeModelText() serialisation of the sweep's model; @p sweepFp the
 * coordinator-computed sweepFingerprint(); @p techFp the hex tech
 * digest.  Technology overrides travel in the "tech" member so the
 * worker evaluates under the coordinator's exact anchors.
 */
std::string encodeSweepUnitRequest(const std::string &modelText,
                                   const DseOptions &options,
                                   const TechnologyModel &tech,
                                   const WorkUnit &unit,
                                   const std::string &sweepFp,
                                   const std::string &techFp);

/** A parsed, validated unit response. */
struct SweepUnitResult
{
    /** One outcome per task in [unit.begin, unit.end), in order. */
    std::vector<SweepPointOutcome> outcomes;

    /** The unit's aggregated mapping-search counters. */
    SearchStats stats;
};

/**
 * Parse and validate a worker's response line for @p unit.
 *
 *  - error envelopes come back as their Status (retryable
 *    UNAVAILABLE / CANCELLED / DEADLINE_EXCEEDED, or a definitive
 *    code like FAILED_PRECONDITION);
 *  - malformed frames (chaos-injected corruption, truncation) come
 *    back as errDataLoss;
 *  - a well-formed response for the wrong unit or fingerprint comes
 *    back as errFailedPrecondition.
 */
StatusOr<SweepUnitResult>
parseSweepUnitResponse(const std::string &line, const WorkUnit &unit,
                       const std::string &sweepFp,
                       const std::string &techFp);

} // namespace fabric
} // namespace nnbaton

#endif // NNBATON_FABRIC_WIRE_HPP
