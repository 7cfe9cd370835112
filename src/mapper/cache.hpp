/**
 * @file
 * A thread-safe, cross-design-point cache for per-layer mapping
 * search results.
 *
 * The pre-design sweep runs a full mapping search for every surviving
 * design point, and each model re-visits the same layer shapes many
 * times (ResNet-50's repeated residual blocks dominate the workload).
 * Hoisting the memoization out of mapModel() and keying it on (layer
 * shape, relevant configuration fields, technology fingerprint,
 * effort, objective) lets one cache serve the whole sweep — including
 * the parallel sweep, where many worker threads look up the same key
 * concurrently — and, since the key carries the TechnologyModel
 * digest, a cache that outlives a single fixed-tech run (the
 * `nn-baton serve` daemon) can never return a result computed under
 * different pJ/bit anchors or clock.
 *
 * Entries are compute-once while resident: the first thread to miss a
 * key runs the search while later arrivals block on that entry, so
 * every unique key is searched at most once per residency regardless
 * of thread count.  With the default unbounded capacity nothing is
 * ever evicted and the evaluated/pruned counters stay deterministic
 * and bit-identical between serial and parallel runs (the sweep
 * engine relies on this).
 *
 * The cache also owns the sweep's memory-axis tables
 * (mapper/memory_table.hpp): tableView() counts misses per (layer
 * shape, compute geometry, effort) and builds that shape's table on
 * its second miss, so a search repeated across memory allocations
 * stops re-enumerating candidates while a one-shot search never pays
 * for a table.
 *
 * setCapacity() arms least-recently-used eviction under a byte cap
 * for long-lived caches (the serving daemon): each shard owns one LRU
 * list of its entries and tables and sheds published ones from its
 * tail once its resident bytes exceed its share of the cap.  Entries
 * and tables are counted from what they hold (nodes, values and heap
 * blocks), so bytes() tracks the process's real growth.  Evicted keys
 * are simply recomputed on the next miss — results never change, only
 * the amount of work saved.
 *
 * The map is sharded by key hash to keep lock hold times short; entry
 * values are immutable after publication and handed out by value, so
 * a result stays usable after its entry is evicted.
 */

#ifndef NNBATON_MAPPER_CACHE_HPP
#define NNBATON_MAPPER_CACHE_HPP

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "arch/config.hpp"
#include "mapper/memory_table.hpp"
#include "mapper/search.hpp"
#include "nn/layer.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

class MappingCache
{
  public:
    /**
     * Everything the per-layer search result depends on: the layer
     * shape (including grouping), the configuration knobs visible to
     * candidate enumeration, the C3P accounting and the cost models,
     * the technology model digest, plus the search effort and
     * objective.
     */
    struct Key
    {
        // Layer shape.  `batch` and `postOps` change the accounting;
        // the op tag (conv vs gemm) does not — equivalent lowered
        // shapes deliberately share entries.
        int ho = 0, wo = 0, co = 0, ci = 0;
        int kh = 0, kw = 0, stride = 0, groups = 0;
        int batch = 1, postOps = 0;
        // Hardware configuration.
        int chiplets = 0, cores = 0, lanes = 0, vectorSize = 0;
        int64_t ol1Bytes = 0, al1Bytes = 0, wl1Bytes = 0, al2Bytes = 0;
        // Technology model (energy anchors, fits, clock, widths).
        uint64_t techFingerprint = 0;
        // Search parameters.  `mode` is 0 for Exhaustive; Anneal
        // results depend on the seed and the move budget, so they key
        // as mode 1 plus both.
        int effort = 0, objective = 0;
        int mode = 0;
        int annealIterations = 0;
        uint64_t annealSeed = 0;

        bool operator==(const Key &) const = default;
    };

    /** The search result key.  Of @p search, only the mode and (under
     *  Anneal) the seed and move budget change a result; threads,
     *  pruning, metrics and cancellation leave it alone. */
    static Key makeKey(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech, SearchEffort effort,
                       Objective objective,
                       const SearchOptions &search = SearchOptions());

    /** The memory-axis table key: the layer shape, the compute
     *  geometry and the effort — everything candidate enumeration
     *  reads except the buffer sizes, which the table's legality keys
     *  cover.  makeKey() adds the rest of a search's key to it. */
    static Key tableKey(const ConvLayer &layer,
                        const AcceleratorConfig &cfg, SearchEffort effort);

    /**
     * Return the cached search result for the key, computing it with
     * @p search on a miss.  While an entry is resident @p search runs
     * at most once for its key across all threads; concurrent
     * arrivals block until the value is published.  Sets @p was_hit
     * (when non-null) to false only for the caller that ran the
     * search.  Returned by value so the result survives eviction.
     */
    std::optional<MappingChoice> lookupOrCompute(
        const Key &key,
        const std::function<std::optional<MappingChoice>()> &search,
        bool *was_hit = nullptr);

    /**
     * The memory-axis table view for an Exhaustive-mode search of
     * @p layer on @p cfg at @p effort, or null.  Call it on a cache
     * miss only: it counts the miss against the (layer shape, compute
     * geometry, effort) table key and returns null on that key's
     * first miss, so one-shot searches keep the enumerate-and-analyse
     * path.  From the second miss on, the key's table is built (once
     * while resident) and its candidate order for @p cfg's legality
     * key is returned; the view keeps its table alive.
     */
    std::shared_ptr<const MemoryAxisTable::View>
    tableView(const ConvLayer &layer, const AcceleratorConfig &cfg,
              SearchEffort effort);

    /** Tables built so far (lifetime; rebuilt ones count again). */
    int64_t tableBuilds() const
    {
        return tableBuilds_.load(std::memory_order_relaxed);
    }

    /** Searches handed a table view so far (lifetime). */
    int64_t tableHits() const
    {
        return tableHits_.load(std::memory_order_relaxed);
    }

    /**
     * Arm LRU eviction: keep resident bytes under @p max_bytes (split
     * evenly across shards); 0 restores the default unbounded
     * behaviour.  Shards already over their share shed their tails
     * at once.
     */
    void setCapacity(int64_t max_bytes);

    /** The configured byte cap (0 = unbounded). */
    int64_t capacityBytes() const
    {
        return capacityBytes_.load(std::memory_order_relaxed);
    }

    /** Number of distinct keys currently cached. */
    size_t size() const;

    /** Resident bytes of the published entries and the tables. */
    int64_t bytes() const;

    /** Entries evicted so far (0 while unbounded). */
    int64_t evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }

    /** Lifetime lookup counters (process-wide metrics mirror these). */
    int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    int64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

    /** Shard count (public so metrics can name per-shard counters). */
    static constexpr size_t kShards = 16;

  private:
    /** One LRU position: an entry or a table slot, named by a pointer
     *  to its key inside the owning map's node (stable until erased). */
    struct LruItem
    {
        const Key *key;
        bool table;
    };
    using LruList = std::list<LruItem>;

    struct Entry
    {
        std::once_flag once;
        std::optional<MappingChoice> value;
        bool published = false;  //!< set under the shard lock after
                                 //!< the search finished
        LruList::iterator lruIt; //!< position in the shard LRU
    };

    /** Miss count and (from the second miss) the table of one
     *  (layer shape, compute geometry, effort) key. */
    struct TableSlot
    {
        int64_t misses = 0;
        std::shared_ptr<MemoryAxisTable> table;
        int64_t bytes = 0; //!< charged to the shard
        LruList::iterator lruIt;
    };

    struct KeyHash
    {
        size_t operator()(const Key &key) const;
    };

    struct Shard
    {
        mutable std::mutex m;
        std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash> map;
        std::unordered_map<Key, TableSlot, KeyHash> tables;
        LruList lru;       //!< most-recently-used first
        int64_t bytes = 0; //!< published entries + table slots
    };

    /** The shard owning @p key. */
    static size_t shardOf(const Key &key);

    /** Resident bytes of a published entry (the same for every
     *  entry: a MappingChoice holds no heap state). */
    static int64_t entryBytes();

    /** Resident bytes of a table slot, its table included. */
    static int64_t tableSlotBytes(const TableSlot &slot);

    /** Drop published tail entries and tables until @p shard fits
     *  its share of the cap.  Caller holds the shard lock. */
    void evictLocked(Shard &shard);

    std::array<Shard, kShards> shards_;
    std::atomic<int64_t> capacityBytes_{0};
    std::atomic<int64_t> evictions_{0};
    std::atomic<int64_t> hits_{0};
    std::atomic<int64_t> misses_{0};
    std::atomic<int64_t> tableBuilds_{0};
    std::atomic<int64_t> tableHits_{0};
};

} // namespace nnbaton

#endif // NNBATON_MAPPER_CACHE_HPP
