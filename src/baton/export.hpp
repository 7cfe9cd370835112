/**
 * @file
 * Machine-readable export of the NN-Baton flows (paper section IV-D:
 * "The reported information can be potentially used for the
 * optimization of the hardware compiler").
 *
 * The post-design JSON carries, per layer, the spatial primitives
 * (partition dimension + pattern), the temporal primitives (loop
 * orders + tile shapes, i.e. the loop counts), and the evaluated
 * energy breakdown and runtime.  The pre-design JSON carries every
 * valid design point of a sweep for external plotting (figure 15
 * style scatter data).
 */

#ifndef NNBATON_BATON_EXPORT_HPP
#define NNBATON_BATON_EXPORT_HPP

#include <ostream>

#include "baton/baton.hpp"

namespace nnbaton {

/**
 * Export shaping.  The default carries the observability block
 * (the metrics snapshot, phases included) and, for sweeps, wall-clock and
 * cache-work counters.  `lean()` drops everything run-dependent so
 * the bytes are a pure function of the inputs — the serving daemon
 * emits lean exports, which is what makes a served response
 * bit-identical to the equivalent one-shot CLI invocation
 * (`--no-obs`) regardless of cache warmth or timing.
 */
struct ExportOptions
{
    /** The run-dependent members: the observability block (the
     *  metrics snapshot) and, for sweeps, elapsedSeconds and the
     *  search block. */
    bool runDependent = true;

    static ExportOptions lean()
    {
        ExportOptions o;
        o.runDependent = false;
        return o;
    }
};

/** Write a post-design report (per-layer mapping strategy) as JSON. */
void exportPostDesign(const PostDesignReport &report, std::ostream &os,
                      const ExportOptions &options = {});

/** Write a pre-design sweep (all valid design points) as JSON. */
void exportPreDesign(const PreDesignReport &report, std::ostream &os,
                     const ExportOptions &options = {});

/** Write one mapping as JSON (the compiler-facing record). */
void exportMapping(const Mapping &mapping, std::ostream &os);

} // namespace nnbaton

#endif // NNBATON_BATON_EXPORT_HPP
