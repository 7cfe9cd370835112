/**
 * @file
 * Sweep checkpoints: periodic JSON snapshots of evaluated design
 * points so a long pre-design sweep survives interruption
 * (--checkpoint / --resume in the CLI).
 *
 * A checkpoint stores, per evaluated design point, its classification
 * (valid / area-rejected / infeasible) and — for valid points — the
 * full DesignPoint including the per-layer cost ledger, with doubles
 * serialised at %.17g so a resumed sweep reproduces bit-identical
 * points and winner.  Poisoned and skipped points are deliberately
 * not recorded: a resume retries them.
 *
 * Search work counters (SearchStats) are NOT checkpointed.  Their
 * cache-hit/miss attribution depends on which design point populated
 * a shared cache entry first, which a partial run has already decided
 * differently than a fresh one would; restored points therefore
 * contribute no counters, and the determinism guarantee covers the
 * points, classification counts and recommended winner only.
 *
 * Writes are atomic: the snapshot is written to "<path>.tmp" and
 * renamed over the target, so a kill mid-write leaves the previous
 * checkpoint intact (the kill/resume test exercises exactly this).
 */

#ifndef NNBATON_DSE_CHECKPOINT_HPP
#define NNBATON_DSE_CHECKPOINT_HPP

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "dse/explorer.hpp"
#include "dse/slice.hpp"

namespace nnbaton {

/** One recorded design-point outcome. */
struct CheckpointEntry
{
    enum class Kind
    {
        AreaRejected,
        Infeasible,
        Valid,
    };
    Kind kind = Kind::AreaRejected;
    DesignPoint point; //!< populated only when kind == Valid
};

/** A (possibly partial) sweep snapshot. */
struct SweepCheckpoint
{
    /** Guards against resuming with a different model or options. */
    std::string fingerprint;

    /** True when the snapshot covers the whole sweep. */
    bool complete = false;

    /** Outcomes keyed by designPointKey(). */
    std::unordered_map<std::string, CheckpointEntry> entries;
};

/** Stable identity of a design point within a sweep,
 *  e.g. "4-8-8-8|1536|800|18432|65536". */
std::string designPointKey(const ComputeAllocation &compute,
                           const MemoryAllocation &memory);

/** Stable identity of a sweep: the model's name, resolution and a
 *  digest of its writeModelText() form, plus every option that shapes
 *  the space or the scores (threads excluded — results are
 *  thread-count independent).  Ends "|<search mode>|<anneal seed>",
 *  plus "|<anneal moves>" under Anneal. */
std::string sweepFingerprint(const Model &model,
                             const DseOptions &options);

/**
 * Atomically write @p checkpoint to @p path (tmp file + rename).
 * Returns errUnavailable on I/O failure — the sweep engine counts the
 * failure and keeps going rather than losing completed work.
 */
Status saveSweepCheckpoint(const std::string &path,
                           const SweepCheckpoint &checkpoint);

/**
 * Load a checkpoint: errNotFound when @p path cannot be opened,
 * errDataLoss when the contents are not a valid checkpoint document.
 * Fingerprint matching is restoreSweepCheckpoint()'s job.
 */
StatusOr<SweepCheckpoint> loadSweepCheckpoint(const std::string &path);

class CheckpointSink;

/**
 * Resume the sweep of @p model under @p options from the checkpoint at
 * @p path: mark every recorded task of @p tasks restored in
 * @p outcomes (same indexing) and seed @p sink with its entry.
 * Returns the number of points restored.  Throws the load's
 * StatusError, or FAILED_PRECONDITION when the checkpoint belongs to
 * another sweep.  A fingerprint from before the model-text digest
 * (keyed by the model's name) is accepted only for an unedited zoo
 * model at batch 1, the one case the name identified; an Anneal
 * fingerprint from before the move budget was keyed is refused.
 * explore() and the fabric coordinator share this.
 */
int64_t restoreSweepCheckpoint(const std::string &path,
                               const Model &model,
                               const DseOptions &options,
                               const std::vector<SweepTask> &tasks,
                               std::vector<SweepPointOutcome> &outcomes,
                               CheckpointSink &sink);

/**
 * Serialise a full DesignPoint (doubles at %.17g).  One serialisation
 * shared by the checkpoint file and the fabric's sweepUnit responses —
 * the same bytes travel both paths, so a distributed sweep and a
 * checkpoint resume reconstruct identical points.
 */
void writeDesignPointJson(JsonWriter &j, const DesignPoint &point);

/** Inverse of writeDesignPointJson; errDataLoss on malformed input. */
Status readDesignPointJson(const JsonValue &value, DesignPoint &point);

/** Wire/file name of an entry kind ("valid", "area_rejected", ...). */
const char *checkpointKindName(CheckpointEntry::Kind kind);

/** Parse a kind name; false when @p name is not a known kind. */
bool parseCheckpointKind(const std::string &name,
                         CheckpointEntry::Kind &out);

/**
 * Shared checkpoint state: sweep workers (local pool lanes or fabric
 * unit completions) append their settled outcome under the mutex and
 * every checkpointEvery completions the current snapshot is flushed
 * (atomically) to disk.  Poisoned and skipped points are not recorded
 * — a resume retries them.
 */
class CheckpointSink
{
  public:
    CheckpointSink(std::string path, int every, std::string fingerprint)
        : path_(std::move(path)), every_(every < 1 ? 1 : every)
    {
        state_.fingerprint = std::move(fingerprint);
    }

    bool enabled() const { return !path_.empty(); }

    /** Seed with entries restored from a --resume checkpoint so a
     *  later resume of THIS run still sees them. */
    void seed(const std::string &key, const CheckpointEntry &entry);

    /** Record a completed point; flushes every N completions. */
    void record(const std::string &key, const SweepPointOutcome &out);

    /** Final flush; @p complete marks a full (uninterrupted) sweep. */
    void finish(bool complete);

  private:
    void flushLocked();

    const std::string path_;
    const int every_;
    std::mutex mutex_;
    SweepCheckpoint state_;
    int sinceFlush_ = 0;
};

} // namespace nnbaton

#endif // NNBATON_DSE_CHECKPOINT_HPP
