#include "cache.hh"

#include <utility>

#include "core/digest.hh"

namespace bioarch::serve
{

namespace
{

std::size_t
roundUpPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

std::uint64_t
ResultCache::digest(const Key &key)
{
    core::Fnv1a fnv;
    fnv.update64(key.kind);
    fnv.update64(key.topK);
    fnv.update64(key.report);
    fnv.update64(key.epoch);
    fnv.update64(key.query.size());
    if (!key.query.empty())
        fnv.update(key.query.data(), key.query.size());
    return fnv.digest();
}

std::size_t
ResultCache::entryBytes(const Key &key, const Result &result)
{
    std::size_t bytes = sizeof(Entry)
        + key.query.size() * sizeof(bio::Residue) + sizeof(Result)
        + result.hits.size() * sizeof(align::SearchHit)
        + result.alignments.size()
            * sizeof(align::CigarAlignment);
    for (const align::CigarAlignment &aln : result.alignments)
        bytes += aln.cigar.size() * sizeof(align::CigarOp);
    return bytes;
}

ResultCache::ResultCache(const CacheConfig &config,
                         obs::Registry &metrics)
    : _capacityBytes(config.capacityBytes),
      _mHits(&metrics.counter("serve_cache_hits_total")),
      _mMisses(&metrics.counter("serve_cache_misses_total")),
      _mEvictions(&metrics.counter("serve_cache_evictions_total")),
      _mInserts(&metrics.counter("serve_cache_inserts_total")),
      _mBytes(&metrics.gauge("serve_cache_bytes")),
      _mEntries(&metrics.gauge("serve_cache_entries"))
{
    const std::size_t n =
        roundUpPow2(config.shards == 0 ? 1 : config.shards);
    _shards.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        _shards.push_back(std::make_unique<Shard>());
    _shardMask = n - 1;
    // Per-shard budget; ceil so the sum covers capacityBytes.
    _shardCapacity = (_capacityBytes + n - 1) / n;
}

ResultCache::Shard &
ResultCache::shardFor(std::uint64_t key_digest)
{
    return *_shards[static_cast<std::size_t>(key_digest)
                    & _shardMask];
}

std::shared_ptr<const ResultCache::Result>
ResultCache::lookup(const Key &key, std::uint64_t key_digest)
{
    if (!enabled())
        return nullptr;
    Shard &shard = shardFor(key_digest);
    {
        std::lock_guard lock(shard.mutex);
        auto [it, end] = shard.index.equal_range(key_digest);
        for (; it != end; ++it) {
            if (!(it->second->key == key))
                continue; // digest collision: keep scanning
            shard.lru.splice(shard.lru.begin(), shard.lru,
                             it->second);
            _mHits->inc();
            return it->second->result;
        }
    }
    _mMisses->inc();
    return nullptr;
}

void
ResultCache::evictLocked(Shard &shard, std::size_t needed)
{
    while (!shard.lru.empty()
           && shard.bytes + needed > _shardCapacity) {
        const Entry &victim = shard.lru.back();
        auto [it, end] = shard.index.equal_range(victim.digest);
        for (; it != end; ++it) {
            if (it->second == std::prev(shard.lru.end())) {
                shard.index.erase(it);
                break;
            }
        }
        shard.bytes -= victim.bytes;
        _bytes.fetch_sub(victim.bytes, std::memory_order_relaxed);
        _entries.fetch_sub(1, std::memory_order_relaxed);
        shard.lru.pop_back();
        _mEvictions->inc();
    }
}

void
ResultCache::insert(Key key, std::uint64_t key_digest,
                    std::shared_ptr<const Result> result)
{
    if (!enabled() || !result)
        return;
    const std::size_t size = entryBytes(key, *result);
    if (size > _shardCapacity)
        return; // would evict the whole shard and still not fit
    Shard &shard = shardFor(key_digest);
    {
        std::lock_guard lock(shard.mutex);
        // Replace in place if present (last write wins).
        auto [it, end] = shard.index.equal_range(key_digest);
        for (; it != end; ++it) {
            if (!(it->second->key == key))
                continue;
            Entry &entry = *it->second;
            shard.bytes -= entry.bytes;
            _bytes.fetch_sub(entry.bytes,
                             std::memory_order_relaxed);
            entry.result = std::move(result);
            entry.bytes = size;
            shard.bytes += size;
            _bytes.fetch_add(size, std::memory_order_relaxed);
            // Front position first so eviction (from the tail)
            // can never free the entry we are replacing.
            shard.lru.splice(shard.lru.begin(), shard.lru,
                             it->second);
            evictLocked(shard, 0);
            _mInserts->inc();
            publishGauges();
            return;
        }
        evictLocked(shard, size);
        shard.lru.push_front(Entry{std::move(key), key_digest,
                                   std::move(result), size});
        shard.index.emplace(key_digest, shard.lru.begin());
        shard.bytes += size;
        _bytes.fetch_add(size, std::memory_order_relaxed);
        _entries.fetch_add(1, std::memory_order_relaxed);
        _mInserts->inc();
    }
    publishGauges();
}

void
ResultCache::publishGauges()
{
    _mBytes->set(static_cast<double>(
        _bytes.load(std::memory_order_relaxed)));
    _mEntries->set(static_cast<double>(
        _entries.load(std::memory_order_relaxed)));
}

} // namespace bioarch::serve
