/**
 * @file
 * Answer checks.  A changed answer is a failed op, never a speed-up:
 *
 *  - every lean export is compared with the digest pinned for its
 *    input in pins.txt (the pins cover every input any seed can
 *    produce, so every seed is checked, not only the default one);
 *  - the sweep recommendation is re-evaluated bit for bit through a
 *    fresh evaluateMapping;
 *  - fabric answers carry the same pin as the local sweep.
 *
 * Work counters are never answer checks: a change that prunes more and
 * gives the same answers passes.
 */

#ifndef PERFBENCH_CHECKS_HPP
#define PERFBENCH_CHECKS_HPP

#include <map>
#include <string>
#include <vector>

#include "baton/baton.hpp"
#include "harness.hpp"

namespace perfbench {

/** Pinned answer digests: "<input key>\t<digest>" lines. */
class Pins
{
  public:
    /** Load @p path; throws std::runtime_error when unreadable. */
    static Pins load(const std::string &path);

    /** True when @p answer's digest equals the pin for @p key (an
     *  input without a pin cannot be verified, so it fails). */
    bool matches(const std::string &key, const std::string &answer) const;

  private:
    std::map<std::string, std::string> pins_;
};

/** The lean export of a pre-design report (no trailing newline). */
std::string leanPreExport(const nnbaton::PreDesignReport &report);

/**
 * Count the design points of one sweep answer in @p tally.  Every
 * point fails when @p answer does not match the pin for @p key or the
 * recommended design does not reproduce: each layer of @p model,
 * searched afresh on the recommended configuration, must win with a
 * mapping whose fresh evaluateMapping matches both the search and the
 * sweep's per-layer cost bit for bit.  Otherwise the poisoned and
 * skipped points fail.  Returns whether the answer was right.
 */
bool tallySweepAnswer(const Pins &pins, const std::string &key,
                      const nnbaton::Model &model,
                      const nnbaton::DseOptions &options,
                      const nnbaton::PreDesignReport &report,
                      const std::string &answer, Tally &tally);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HPP
