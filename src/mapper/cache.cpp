#include "mapper/cache.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/util.hpp"

namespace nnbaton {

namespace {

/**
 * Cache observability: aggregate and per-shard hit/miss counters plus
 * the eviction count, registered once and cached so the per-lookup
 * cost is a few relaxed atomic increments.  The per-shard split shows
 * whether the key hash spreads the sweep's load (a hot shard means
 * serialized lookups).
 */
struct CacheMetrics
{
    obs::Counter *hits;
    obs::Counter *misses;
    obs::Counter *evicted;
    // Memory-axis tables: tables built, searches served from a table,
    // candidates and bytes the tables grew by.
    obs::Counter *tableBuilds;
    obs::Counter *tableHits;
    obs::Counter *tableLeaves;
    obs::Counter *tableBytes;
    std::array<obs::Counter *, MappingCache::kShards> shardHits;
    std::array<obs::Counter *, MappingCache::kShards> shardMisses;

    CacheMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
        hits = &reg.counter("mapper.cache.hits");
        misses = &reg.counter("mapper.cache.misses");
        evicted = &reg.counter("mapper.cache.evicted");
        tableBuilds = &reg.counter("mapper.table.builds");
        tableHits = &reg.counter("mapper.table.hits");
        tableLeaves = &reg.counter("mapper.table.leaves");
        tableBytes = &reg.counter("mapper.table.bytes");
        for (size_t s = 0; s < MappingCache::kShards; ++s) {
            shardHits[s] = &reg.counter(
                strprintf("mapper.cache.shard%02zu.hits", s));
            shardMisses[s] = &reg.counter(
                strprintf("mapper.cache.shard%02zu.misses", s));
        }
    }
};

CacheMetrics &
cacheMetrics()
{
    static CacheMetrics m;
    return m;
}

} // namespace

MappingCache::Key
MappingCache::tableKey(const ConvLayer &layer,
                       const AcceleratorConfig &cfg, SearchEffort effort)
{
    Key k;
    k.ho = layer.ho;
    k.wo = layer.wo;
    k.co = layer.co;
    k.ci = layer.ci;
    k.kh = layer.kh;
    k.kw = layer.kw;
    k.stride = layer.stride;
    k.groups = layer.groups;
    k.batch = layer.batch;
    k.postOps = layer.postOps;
    k.chiplets = cfg.package.chiplets;
    k.cores = cfg.chiplet.cores;
    k.lanes = cfg.core.lanes;
    k.vectorSize = cfg.core.vectorSize;
    k.effort = static_cast<int>(effort);
    return k;
}

MappingCache::Key
MappingCache::makeKey(const ConvLayer &layer,
                      const AcceleratorConfig &cfg,
                      const TechnologyModel &tech, SearchEffort effort,
                      Objective objective, SearchMode mode,
                      uint64_t annealSeed)
{
    Key k = tableKey(layer, cfg, effort);
    k.ol1Bytes = cfg.core.ol1Bytes;
    k.al1Bytes = cfg.core.al1Bytes;
    k.wl1Bytes = cfg.core.wl1Bytes;
    k.al2Bytes = cfg.chiplet.al2Bytes;
    k.techFingerprint = tech.fingerprint();
    k.objective = static_cast<int>(objective);
    // Anneal keys separately from Exhaustive, per seed.
    if (mode == SearchMode::Anneal) {
        k.mode = 1;
        k.annealSeed = annealSeed;
    }
    return k;
}

size_t
MappingCache::KeyHash::operator()(const Key &key) const
{
    // FNV-1a over the key fields; collisions only cost a comparison.
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(static_cast<uint64_t>(key.ho) << 32 |
        static_cast<uint32_t>(key.wo));
    mix(static_cast<uint64_t>(key.co) << 32 |
        static_cast<uint32_t>(key.ci));
    mix(static_cast<uint64_t>(key.kh) << 32 |
        static_cast<uint32_t>(key.kw));
    mix(static_cast<uint64_t>(key.stride) << 32 |
        static_cast<uint32_t>(key.groups));
    mix(static_cast<uint64_t>(key.batch) << 32 |
        static_cast<uint32_t>(key.postOps));
    mix(static_cast<uint64_t>(key.chiplets) << 32 |
        static_cast<uint32_t>(key.cores));
    mix(static_cast<uint64_t>(key.lanes) << 32 |
        static_cast<uint32_t>(key.vectorSize));
    mix(static_cast<uint64_t>(key.ol1Bytes));
    mix(static_cast<uint64_t>(key.al1Bytes));
    mix(static_cast<uint64_t>(key.wl1Bytes));
    mix(static_cast<uint64_t>(key.al2Bytes));
    mix(key.techFingerprint);
    mix(static_cast<uint64_t>(key.effort) << 32 |
        static_cast<uint32_t>(key.objective));
    mix(static_cast<uint64_t>(key.mode));
    mix(key.annealSeed);
    return static_cast<size_t>(h);
}

size_t
MappingCache::shardOf(const Key &key)
{
    // The key's buffer sizes are KB multiples, so the FNV hash's low
    // bits barely vary across a sweep's memory axis; a finaliser
    // (MurmurHash3's fmix64) spreads every bit before the shard pick.
    uint64_t h = KeyHash{}(key);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return static_cast<size_t>(h % kShards);
}

std::optional<MappingChoice>
MappingCache::lookupOrCompute(
    const Key &key,
    const std::function<std::optional<MappingChoice>()> &search,
    bool *was_hit)
{
    const size_t shard_idx = shardOf(key);
    Shard &shard = shards_[shard_idx];
    std::shared_ptr<Entry> entry;
    {
        NNBATON_TRACE_SCOPE("mapper.cache_lookup");
        std::lock_guard<std::mutex> lock(shard.m);
        const auto [slot, inserted] = shard.map.try_emplace(key);
        if (inserted) {
            slot->second = std::make_shared<Entry>();
            shard.lru.push_front({&slot->first, false});
            slot->second->lruIt = shard.lru.begin();
        } else {
            // Touch: most-recently-used entries live at the front.
            shard.lru.splice(shard.lru.begin(), shard.lru,
                             slot->second->lruIt);
        }
        entry = slot->second;
    }
    bool computed = false;
    std::call_once(entry->once, [&] {
        entry->value = search();
        computed = true;
    });
    if (computed) {
        // Publish: account the entry's bytes and shed LRU tails if
        // the shard is now over its share of the cap.  The entry may
        // have been evicted while the search ran (another thread
        // pushed the shard over); it is then simply not re-accounted.
        std::lock_guard<std::mutex> lock(shard.m);
        auto it = shard.map.find(key);
        if (it != shard.map.end() && it->second == entry) {
            entry->published = true;
            shard.bytes += entryBytes();
            evictLocked(shard);
        }
    }
    CacheMetrics &cm = cacheMetrics();
    (computed ? cm.misses : cm.hits)->add();
    (computed ? cm.shardMisses : cm.shardHits)[shard_idx]->add();
    (computed ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
    if (was_hit)
        *was_hit = !computed;
    return entry->value;
}

std::shared_ptr<const MemoryAxisTable::View>
MappingCache::tableView(const ConvLayer &layer,
                        const AcceleratorConfig &cfg, SearchEffort effort)
{
    const Key tkey = tableKey(layer, cfg, effort);
    Shard &shard = shards_[shardOf(tkey)];
    std::shared_ptr<MemoryAxisTable> table;
    {
        std::lock_guard<std::mutex> lock(shard.m);
        const auto [it, inserted] = shard.tables.try_emplace(tkey);
        TableSlot &slot = it->second;
        if (inserted) {
            shard.lru.push_front({&it->first, true});
            slot.lruIt = shard.lru.begin();
        } else {
            shard.lru.splice(shard.lru.begin(), shard.lru, slot.lruIt);
        }
        if (++slot.misses < 2) {
            slot.bytes = tableSlotBytes(slot);
            shard.bytes += slot.bytes;
            evictLocked(shard);
            return nullptr;
        }
        if (!slot.table) {
            slot.table = std::make_shared<MemoryAxisTable>(layer, effort);
            tableBuilds_.fetch_add(1, std::memory_order_relaxed);
            cacheMetrics().tableBuilds->add();
        }
        table = slot.table;
    }

    // Enumerate outside the shard lock (the table serialises its own
    // growth), then charge whatever the table grew by.
    int64_t leaves_added = 0;
    const MemoryAxisTable::View &view = table->view(cfg, &leaves_added);
    {
        std::lock_guard<std::mutex> lock(shard.m);
        const auto it = shard.tables.find(tkey);
        if (it != shard.tables.end() && it->second.table == table) {
            const int64_t now = tableSlotBytes(it->second);
            cacheMetrics().tableBytes->add(now - it->second.bytes);
            shard.bytes += now - it->second.bytes;
            it->second.bytes = now;
            evictLocked(shard);
        }
    }
    tableHits_.fetch_add(1, std::memory_order_relaxed);
    cacheMetrics().tableHits->add();
    cacheMetrics().tableLeaves->add(leaves_added);
    return std::shared_ptr<const MemoryAxisTable::View>(std::move(table),
                                                        &view);
}

int64_t
MappingCache::entryBytes()
{
    // The map node (key, value, next pointer, cached hash) and its
    // bucket, the make_shared block holding the Entry, and the LRU
    // node.
    return heapBlockBytes(
               sizeof(std::pair<const Key, std::shared_ptr<Entry>>) +
               2 * sizeof(void *)) +
           static_cast<int64_t>(sizeof(void *)) +
           heapBlockBytes(sizeof(Entry) + 2 * sizeof(void *)) +
           heapBlockBytes(sizeof(LruItem) + 2 * sizeof(void *));
}

int64_t
MappingCache::tableSlotBytes(const TableSlot &slot)
{
    return heapBlockBytes(sizeof(std::pair<const Key, TableSlot>) +
                          2 * sizeof(void *)) +
           static_cast<int64_t>(sizeof(void *)) +
           heapBlockBytes(sizeof(LruItem) + 2 * sizeof(void *)) +
           (slot.table ? slot.table->bytes() : 0);
}

void
MappingCache::evictLocked(Shard &shard)
{
    const int64_t cap = capacityBytes_.load(std::memory_order_relaxed);
    if (cap <= 0)
        return;
    const int64_t share = cap / static_cast<int64_t>(kShards);
    auto it = shard.lru.end();
    while (shard.bytes > share && it != shard.lru.begin()) {
        --it;
        if (it->table) {
            // Searches holding a view keep the table alive; the miss
            // count starts over.
            const auto slot = shard.tables.find(*it->key);
            shard.bytes -= slot->second.bytes;
            it = shard.lru.erase(it);
            shard.tables.erase(slot);
            continue;
        }
        const auto slot = shard.map.find(*it->key);
        if (!slot->second->published)
            continue; // still being computed; skip
        shard.bytes -= entryBytes();
        it = shard.lru.erase(it);
        shard.map.erase(slot);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        cacheMetrics().evicted->add();
    }
}

void
MappingCache::setCapacity(int64_t max_bytes)
{
    capacityBytes_.store(max_bytes < 0 ? 0 : max_bytes,
                         std::memory_order_relaxed);
    if (max_bytes > 0) {
        for (Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.m);
            evictLocked(shard);
        }
    }
}

size_t
MappingCache::size() const
{
    size_t n = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.m);
        n += shard.map.size();
    }
    return n;
}

int64_t
MappingCache::bytes() const
{
    int64_t n = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.m);
        n += shard.bytes;
    }
    return n;
}

} // namespace nnbaton
