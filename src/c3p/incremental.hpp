/**
 * @file
 * Delta-aware incremental C3P evaluation (ROADMAP item 5).
 *
 * The mapping search spends nearly all its time re-deriving the full
 * footprint/access algebra for candidates that differ from their
 * enumeration neighbour in a single tile factor or loop position.  The
 * closed-form accounting factors cleanly: the expensive inputs are the
 * three buffer reuse analyses (W-L1, A-L1, A-L2), which depend only on
 * a (loop nest, capacity) pair, and the nests themselves depend only
 * on the derived shapes and the two loop orders.  An
 * IncrementalAnalyzer therefore carries the previous candidate's
 * per-level terms and, for a covered structured diff, rebuilds the
 * nests allocation-free and serves each buffer term either from a
 * small hash-guarded exact-match nest memo or with the linear-time
 * scan (analyzeBufferFast); the final composition runs through the
 * same composeAccessAnalysis() as the full path, so results are
 * bit-identical by construction.  Uncovered diffs fall back to
 * re-deriving the shapes and nests from scratch; the nest memo stays
 * valid across any diff because it keys on the exact (nest, capacity)
 * pair, never on the classification.
 *
 * Covered diffs (docs/architecture.md, "Incremental evaluation"):
 *  - one chiplet-tile factor changed (optionally together with loop
 *    orders — the enumeration-wrap neighbour);
 *  - a loop-order swap only (the derived shapes are carried over:
 *    deriveShapes() never reads the orders);
 *  - one spatial-split group changed (package primitive, chiplet
 *    primitive, or the core-tile plane).
 *
 * Cross-check mode (debug/CI) validates every incremental result
 * against the independent full analysis and aborts on any divergence;
 * enable per analyzer with setCrossCheck() or process-wide with the
 * NNBATON_INCREMENTAL_CHECK environment variable.
 */

#ifndef NNBATON_C3P_INCREMENTAL_HPP
#define NNBATON_C3P_INCREMENTAL_HPP

#include <cstdint>
#include <vector>

#include "arch/config.hpp"
#include "c3p/access.hpp"
#include "dataflow/loopnest.hpp"
#include "dataflow/mapping.hpp"
#include "nn/layer.hpp"

namespace nnbaton {

/** The structured diff connecting a candidate to its predecessor. */
enum class MappingDelta
{
    Prime,        //!< no predecessor yet (first evaluation)
    TileFactor,   //!< exactly one chiplet-tile factor changed
    TileAndOrder, //!< one tile factor plus a loop-order change (the
                  //!< enumeration-wrap neighbour)
    LoopOrder,    //!< only pkgOrder / chipOrder changed
    SpatialSplit, //!< one spatial-split group changed
    Uncovered,    //!< anything wider; full fallback
};

const char *toString(MappingDelta d);

/**
 * Classify the diff between two mappings.  The classification only
 * gates which cached terms the analyzer tries to reuse — correctness
 * never depends on it (the memo keys on exact nest equality).
 */
MappingDelta classifyMappingDelta(const Mapping &prev,
                                  const Mapping &next);

/**
 * Evaluator-local work counters.  Deliberately NOT part of
 * SearchStats: hit/fallback splits depend on the candidate visit
 * order, which differs between serial and parallel schedules, and
 * SearchStats must stay bit-identical across thread counts.  These
 * are mirrored into the obs metrics registry instead.
 */
struct IncrementalStats
{
    int64_t evaluations = 0; //!< total analyze() calls
    int64_t deltaHits = 0;   //!< served through the incremental path
    int64_t fallbacks = 0;   //!< uncovered diffs; shapes re-derived
    int64_t shapeReuses = 0; //!< derived shapes carried over
    int64_t nestReuses = 0;  //!< buffer terms served from the memo
    int64_t nestScans = 0;   //!< buffer terms recomputed (fast scan)
    int64_t crossChecks = 0; //!< full-analysis validations performed

    double deltaHitRatio() const
    {
        return evaluations > 0
                   ? static_cast<double>(deltaHits) / evaluations
                   : 0.0;
    }

    double fallbackRatio() const
    {
        return evaluations > 0
                   ? static_cast<double>(fallbacks) / evaluations
                   : 0.0;
    }

    IncrementalStats &operator+=(const IncrementalStats &o)
    {
        evaluations += o.evaluations;
        deltaHits += o.deltaHits;
        fallbacks += o.fallbacks;
        shapeReuses += o.shapeReuses;
        nestReuses += o.nestReuses;
        nestScans += o.nestScans;
        crossChecks += o.crossChecks;
        return *this;
    }
};

/**
 * Stateful per-(layer, config) incremental evaluator.  Feed it a
 * candidate stream via analyze(); consecutive enumeration neighbours
 * take the delta path, anything else falls back to the full analysis.
 * Mappings must be legal (checkMapping-clean); unlike analyzeMapping()
 * the analyzer does not check.  Not thread-safe; use one analyzer per
 * serial evaluation lane.
 */
class IncrementalAnalyzer
{
  public:
    IncrementalAnalyzer(const ConvLayer &layer,
                        const AcceleratorConfig &cfg,
                        const AnalysisOptions &options = {});

    /** Evaluate one candidate, reusing the predecessor's terms when
     *  the diff is covered.  Bit-identical to analyzeMapping().  The
     *  returned reference points at analyzer-owned storage and is
     *  valid until the next analyze() call. */
    const AccessAnalysis &analyze(const Mapping &mapping);

    /** analyze() composing straight into caller-owned storage (the
     *  hot evaluation loops feed the same slot back in, so its vector
     *  capacity is reused and nothing is copied twice). */
    void analyzeInto(const Mapping &mapping, AccessAnalysis &out);

    const IncrementalStats &stats() const { return stats_; }

    /** Validate every result against the full analysis (CI mode);
     *  panics on the first divergence with the offending mapping. */
    void setCrossCheck(bool on) { crossCheck_ = on; }
    bool crossCheckEnabled() const { return crossCheck_; }

    /** True when NNBATON_INCREMENTAL_CHECK is set (and not "0"). */
    static bool crossCheckFromEnv();

  private:
    struct MemoEntry
    {
        uint64_t hash = 0;
        int64_t capacity = -1;
        LoopNest nest;
        ReuseResult result;
    };

    /** One buffer slot's exact-match memo: a small ring keyed on
     *  (nest, capacity), newest first.  Entries carry a 64-bit key
     *  hash so the scan compares one word per entry; a hash match is
     *  verified against the full key before it is trusted. */
    struct NestMemo
    {
        static constexpr size_t kEntries = 8;
        std::vector<MemoEntry> ring;
        size_t next = 0;

        const ReuseResult *find(uint64_t hash, const LoopNest &nest,
                                int64_t capacity) const;

        /** Hand out the next ring slot (evicting the oldest entry when
         *  the ring is full) so the caller can fill it in place; the
         *  slot's vectors keep their capacity across evictions. */
        MemoEntry &claim();
    };

    const ReuseResult &bufferTerm(NestMemo &memo, const LoopNest &nest,
                                  uint64_t nest_hash, Tensor tensor,
                                  int64_t capacity);
    void validate(const Mapping &mapping,
                  const AccessAnalysis &incremental);

    const ConvLayer layer_;
    const AcceleratorConfig cfg_;
    const AnalysisOptions options_;
    bool crossCheck_ = false;

    bool hasPrev_ = false;
    Mapping prevMapping_;
    MappingShapes shapes_;
    NestSet nests_;
    NestMemo wl1Memo_, al1Memo_, al2Memo_;
    AccessAnalysis out_; //!< analyze() result storage (capacity reuse)
    IncrementalStats stats_;
};

/**
 * The free-function facade over IncrementalAnalyzer::analyze(): the
 * delta-aware counterpart of analyzeMapping(), with @p state carrying
 * the previous candidate's cached per-level terms.
 */
AccessAnalysis analyzeMappingIncremental(IncrementalAnalyzer &state,
                                         const Mapping &mapping);

/** Mirror evaluator-local counters into the obs metrics registry
 *  (c3p.incremental.*).  Observation only. */
void mirrorIncrementalMetrics(const IncrementalStats &stats);

} // namespace nnbaton

#endif // NNBATON_C3P_INCREMENTAL_HPP
