#include "mapper/cache.hpp"

#include "common/metrics.hpp"
#include "common/util.hpp"

namespace nnbaton {

namespace {

/**
 * Table observability, registered once and cached so the per-search
 * cost is a few relaxed atomic increments: tables built, searches
 * served from a table, the candidates and bytes the tables grew by,
 * and the keys evicted.
 */
struct CacheMetrics
{
    obs::Counter *evicted;
    obs::Counter *tableBuilds;
    obs::Counter *tableHits;
    obs::Counter *tableLeaves;
    obs::Counter *tableBytes;

    CacheMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
        evicted = &reg.counter("mapper.cache.evicted");
        tableBuilds = &reg.counter("mapper.table.builds");
        tableHits = &reg.counter("mapper.table.hits");
        tableLeaves = &reg.counter("mapper.table.leaves");
        tableBytes = &reg.counter("mapper.table.bytes");
    }
};

CacheMetrics &
cacheMetrics()
{
    static CacheMetrics m;
    return m;
}

} // namespace

MappingCache::MappingCache()
{
    cacheMetrics();
}

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
    mix(static_cast<uint64_t>(key.effort));
    return static_cast<size_t>(h);
}

size_t
MappingCache::shardOf(const Key &key)
{
    // A finaliser (MurmurHash3's fmix64) spreads every bit of the FNV
    // hash before the shard pick.
    uint64_t h = KeyHash{}(key);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return static_cast<size_t>(h % kShards);
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
            shard.lru.push_front(&it->first);
            slot.lruIt = shard.lru.begin();
        } else {
            // Touch: most-recently-used slots live at the front.
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
    // growth), then charge whatever the table grew by.  Its bytes
    // change only with a new legality key.
    MemoryAxisTable::Growth grew;
    const MemoryAxisTable::View &view = table->view(cfg, &grew);
    if (grew.key) {
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
    cacheMetrics().tableLeaves->add(grew.leaves);
    return std::shared_ptr<const MemoryAxisTable::View>(std::move(table),
                                                        &view);
}

int64_t
MappingCache::tableSlotBytes(const TableSlot &slot)
{
    // The map node (key, slot, next pointer, cached hash) and its
    // bucket, the LRU node, and the table.
    return heapBlockBytes(sizeof(std::pair<const Key, TableSlot>) +
                          2 * sizeof(void *)) +
           static_cast<int64_t>(sizeof(void *)) +
           heapBlockBytes(sizeof(const Key *) + 2 * sizeof(void *)) +
           (slot.table ? slot.table->bytes() : 0);
}

void
MappingCache::evictLocked(Shard &shard)
{
    const int64_t cap = capacityBytes_.load(std::memory_order_relaxed);
    if (cap <= 0)
        return;
    const int64_t share = cap / static_cast<int64_t>(kShards);
    while (shard.bytes > share && !shard.lru.empty()) {
        // Searches holding a view keep the table alive; the miss count
        // starts over.
        const auto slot = shard.tables.find(*shard.lru.back());
        shard.bytes -= slot->second.bytes;
        shard.lru.pop_back();
        shard.tables.erase(slot);
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
        for (const auto &[key, slot] : shard.tables)
            n += slot.table ? 1 : 0;
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
