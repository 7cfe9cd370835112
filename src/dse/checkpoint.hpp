/**
 * @file
 * Sweep checkpoints: an append-only journal of settled design points
 * so a long pre-design sweep survives interruption (--checkpoint /
 * --resume in the CLI).
 *
 * A journal is one JSON document per line.  The first line is the
 * header, {"format":"nn-baton-sweep-checkpoint","version":2,
 * "fingerprint":...}; each later line records one settled point,
 * {"key":<designPointKey()>, <writeSweepOutcomeJson() members>}, and
 * a final {"complete":true} line marks a whole sweep.  Valid points
 * carry the DesignPoint with doubles exact, so a resumed sweep
 * reproduces bit-identical points and winner; its per-layer ledger is
 * there only for its unit's winners (keepWinnerLedgers() in
 * dse/slice.hpp), "layers":[] otherwise.  Journals of earlier builds,
 * with a ledger on every valid point, read the same way.  Poisoned
 * and skipped points are deliberately not recorded: a resume retries
 * them.
 *
 * Search work counters (SearchStats) are not checkpointed: a restored
 * point was not searched in the resuming run, so it contributes no
 * counters, and the determinism guarantee covers the points,
 * classification counts and recommended winner only.
 *
 * A journal starts as "<path>.tmp" and is renamed over the target at
 * its first flush, so until then a previous checkpoint at the path
 * (the one being resumed, say) stays intact; every later flush
 * appends.  A kill in the middle of an append can leave only a torn
 * final line, which the loader drops.  The loader still reads the
 * single-document version-1 files earlier builds wrote.
 */

#ifndef NNBATON_DSE_CHECKPOINT_HPP
#define NNBATON_DSE_CHECKPOINT_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "dse/explorer.hpp"
#include "dse/slice.hpp"

namespace nnbaton {

/** A (possibly partial) sweep, as loaded from a checkpoint. */
struct SweepCheckpoint
{
    /** Guards against resuming with a different model or options. */
    std::string fingerprint;

    /** True when the checkpoint covers the whole sweep. */
    bool complete = false;

    /** Settled outcomes (never Poisoned or Skipped), keyed by
     *  designPointKey(). */
    std::unordered_map<std::string, SweepPointOutcome> entries;
};

/** Stable identity of a design point within a sweep,
 *  e.g. "4-8-8-8|1536|800|18432|65536". */
std::string designPointKey(const ComputeAllocation &compute,
                           const MemoryAllocation &memory);

/** Stable identity of a sweep: the model's name, resolution and a
 *  digest of its writeModelText() form, plus every option that shapes
 *  the space or the scores (threads excluded — results are
 *  thread-count independent).  Ends "|exhaustive|0", the search
 *  mode and seed fields of older checkpoints, which still resume. */
std::string sweepFingerprint(const Model &model,
                             const DseOptions &options);

/**
 * The one JSON codec of a settled design point, shared by checkpoint
 * records and the fabric's sweepUnit reply entries: writes "kind"
 * ("area_rejected", "infeasible", "valid" or "poisoned"), then
 * "point" for a valid point (doubles exact) or "error" for a
 * poisoned one, into the object @p j has open.  @p out must not be
 * Skipped.
 */
void writeSweepOutcomeJson(JsonWriter &j, const SweepPointOutcome &out);

/** Inverse of writeSweepOutcomeJson() over the members of @p record;
 *  errDataLoss on an unknown kind or a malformed point. */
Status readSweepOutcomeJson(const JsonValue &record,
                            SweepPointOutcome &out);

/**
 * Load a checkpoint: errNotFound when @p path cannot be opened,
 * errDataLoss when the header, a version-1 document or any record
 * but a torn final line is malformed, or a record is Poisoned.
 * Fingerprint matching is restoreSweepCheckpoint()'s job.
 */
StatusOr<SweepCheckpoint> loadSweepCheckpoint(const std::string &path);

class CheckpointSink;

/**
 * Resume the sweep of @p model under @p options from the checkpoint at
 * @p path: move every recorded task of @p tasks into @p outcomes (same
 * indexing), marked restored, keep the ledgers of the restored
 * winners only (keepWinnerLedgers()), and seed @p sink with them.
 * Returns the number of points restored.  Throws the load's
 * StatusError, or FAILED_PRECONDITION when the checkpoint belongs to
 * another sweep.  A fingerprint from before the model-text digest
 * (keyed by the model's name) is accepted only for an unedited zoo
 * model at batch 1, the one case the name identified; a checkpoint of
 * the retired anneal search is refused.  The sweep driver
 * (dse/driver.hpp) calls this for local and distributed sweeps alike.
 */
int64_t restoreSweepCheckpoint(const std::string &path,
                               const Model &model,
                               const DseOptions &options,
                               const std::vector<SweepTask> &tasks,
                               std::vector<SweepPointOutcome> &outcomes,
                               CheckpointSink &sink);

/**
 * The checkpoint journal being written.  Sweep lanes, local or
 * remote, serialise each settled outcome themselves and append the
 * line under the mutex; every
 * checkpointEvery completions the lines not yet flushed are written to
 * the journal.  A failed write is counted (dse.checkpoint.failures)
 * and warned about, never fatal, and its lines stay pending for the
 * next flush.  Poisoned and skipped points are not recorded — a resume
 * retries them.
 */
class CheckpointSink
{
  public:
    CheckpointSink(std::string path, int every,
                   const std::string &fingerprint);
    ~CheckpointSink();

    CheckpointSink(const CheckpointSink &) = delete;
    CheckpointSink &operator=(const CheckpointSink &) = delete;

    bool enabled() const { return !path_.empty(); }

    /** Carry an outcome restored from a --resume checkpoint into this
     *  journal, so a later resume of THIS run still sees it. */
    void seed(const std::string &key, const SweepPointOutcome &out);

    /** Record @p task's settled outcome, keyed by designPointKey()
     *  (built only when a journal is open); flushes every N
     *  completions. */
    void record(const SweepTask &task, const SweepPointOutcome &out);

    /** Final flush; @p complete marks a full (uninterrupted) sweep. */
    void finish(bool complete);

  private:
    /** Append pending_ to the journal, opening "<path>.tmp" first. */
    Status writeLocked();
    /** writeLocked(), then rename the journal into place if needed. */
    void flushLocked();
    /** Count a write (or its failure, with a warning). */
    void reportLocked(const Status &s);

    const std::string path_;
    const int every_;
    std::mutex mutex_;
    std::string pending_; //!< lines not yet written, header first
    int sinceFlush_ = 0;
    int fd_ = -1;          //!< the journal, once a write opened it
    bool renamed_ = false; //!< fd_ is at path_, not "<path_>.tmp"
    bool stopped_ = false; //!< a torn write could not be cut off
    int64_t written_ = 0;  //!< bytes of fd_ known to be whole
};

} // namespace nnbaton

#endif // NNBATON_DSE_CHECKPOINT_HPP
