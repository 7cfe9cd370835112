/**
 * @file
 * A thread-safe, cross-design-point store of memory-axis tables
 * (mapper/memory_table.hpp).
 *
 * The pre-design sweep revisits every compute geometry at each memory
 * allocation of the table II grid, and re-enumerating a layer shape's
 * candidates there is the reuse worth keeping across design points.
 * tableView() counts misses per (layer shape, compute geometry,
 * effort) and builds that key's table on its second miss, so a search
 * repeated across memory allocations stops re-enumerating candidates
 * while a one-shot search never pays for a table.
 *
 * Search results are not kept here: a result depends on the buffer
 * sizes, technology, objective and search options as well, and no
 * other design point asks for the same combination.  mapModel()
 * memoises repeated shapes within one call instead.
 *
 * setCapacity() arms least-recently-used eviction under a byte cap
 * for long-lived caches (the serving daemon): each shard owns one LRU
 * list of its tables and sheds them from its tail once its resident
 * bytes exceed its share of the cap.  Tables are counted from what
 * they hold (nodes and heap blocks), so bytes() tracks the process's
 * real growth.  An evicted key starts its miss count over; searches
 * never change, only the amount of work saved.
 *
 * The tables are sharded by key hash to keep lock hold times short.
 */

#ifndef NNBATON_MAPPER_CACHE_HPP
#define NNBATON_MAPPER_CACHE_HPP

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "arch/config.hpp"
#include "mapper/memory_table.hpp"
#include "nn/layer.hpp"

namespace nnbaton {

class MappingCache
{
  public:
    /** Registers the `mapper.cache.evicted` and `mapper.table.*`
     *  counters, so they read 0 before the first table or eviction. */
    MappingCache();

    /**
     * The memory-axis table key: the layer shape, the compute geometry
     * and the effort — everything candidate enumeration reads except
     * the buffer sizes, which the table's legality keys cover.  Within
     * one mapModel() call the geometry and effort are fixed, so the
     * key also names a layer's shape there.
     */
    struct Key
    {
        // Layer shape.  `batch` and `postOps` change the accounting;
        // the op tag (conv vs gemm) does not — equivalent lowered
        // shapes deliberately share tables.
        int ho = 0, wo = 0, co = 0, ci = 0;
        int kh = 0, kw = 0, stride = 0, groups = 0;
        int batch = 1, postOps = 0;
        // Compute geometry.
        int chiplets = 0, cores = 0, lanes = 0, vectorSize = 0;
        int effort = 0;

        bool operator==(const Key &) const = default;
    };

    /** The table key of @p layer on @p cfg at @p effort. */
    static Key tableKey(const ConvLayer &layer,
                        const AcceleratorConfig &cfg, SearchEffort effort);

    /**
     * The memory-axis table view for an Exhaustive-mode search of
     * @p layer on @p cfg at @p effort, or null.  Call it once per
     * search: it counts the search as a miss against the table key
     * and returns null on that key's first miss, so one-shot searches
     * keep the enumerate-and-analyse path.  From the second miss on,
     * the key's table is built (once while resident) and its candidate
     * order for @p cfg's legality key is returned; the view keeps its
     * table alive.
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

    /** Number of tables currently resident. */
    size_t size() const;

    /** Resident bytes of the tables and the keys' miss counts. */
    int64_t bytes() const;

    /** Keys evicted so far, tables and miss counts (0 while
     *  unbounded). */
    int64_t evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }

    /** Shard count; a byte cap is split evenly across shards. */
    static constexpr size_t kShards = 16;

  private:
    /** Miss count and (from the second miss) the table of one key. */
    struct TableSlot
    {
        int64_t misses = 0;
        std::shared_ptr<MemoryAxisTable> table;
        int64_t bytes = 0; //!< charged to the shard
        std::list<const Key *>::iterator lruIt;
    };

    struct KeyHash
    {
        size_t operator()(const Key &key) const;
    };

    struct Shard
    {
        mutable std::mutex m;
        std::unordered_map<Key, TableSlot, KeyHash> tables;
        /** Most-recently-used first; each item points at its key
         *  inside the map node (stable until erased). */
        std::list<const Key *> lru;
        int64_t bytes = 0; //!< table slots
    };

    /** The shard owning @p key. */
    static size_t shardOf(const Key &key);

    /** Resident bytes of a table slot, its table included. */
    static int64_t tableSlotBytes(const TableSlot &slot);

    /** Drop tail slots until @p shard fits its share of the cap.
     *  Caller holds the shard lock. */
    void evictLocked(Shard &shard);

    std::array<Shard, kShards> shards_;
    std::atomic<int64_t> capacityBytes_{0};
    std::atomic<int64_t> evictions_{0};
    std::atomic<int64_t> tableBuilds_{0};
    std::atomic<int64_t> tableHits_{0};
};

} // namespace nnbaton

#endif // NNBATON_MAPPER_CACHE_HPP
