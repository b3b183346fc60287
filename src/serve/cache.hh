/**
 * @file
 * The epoch-keyed result cache of the serving tier: a bounded,
 * sharded LRU mapping (kind, query digest, db epoch, top-K) to the
 * ranked hit list that a full scan would produce.
 *
 * The batch-level dedup in Engine::runBatch is the degenerate
 * single-batch case of this cache: identical requests inside one
 * batch share one PreparedQuery and one scan. The cache promotes
 * that across batches and tenants — a repeated query
 * returns its ranked hits in microseconds without touching the
 * scan path at all.
 *
 * Correctness rules:
 *  - The key includes the database epoch, so a hot reload
 *    invalidates naturally: post-swap lookups use the new epoch
 *    number, never match pre-swap entries, and the stale entries
 *    age out of the LRU. A cache can never serve hits from a
 *    database that is no longer published.
 *  - The 64-bit FNV-1a digest (core/digest.hh) is only the hash;
 *    equality compares the full key, query residues included, so a
 *    digest collision is a miss, never a wrong answer. Hits are
 *    therefore bit-for-bit the stored scan results.
 *  - Only complete responses are inserted (Engine refuses
 *    deadline-truncated partials), so a hit is always the full
 *    ranked answer.
 *
 * Concurrency: lookups and inserts hash to one of a power-of-two
 * set of shards and lock only that shard, so concurrent callers
 * contend only when they hash to the same shard (exercised under
 * TSAN by tests/router_test.cc). Results are
 * handed out as shared_ptr<const Result>; eviction never
 * invalidates a handed-out result.
 *
 * Observability: serve_cache_hits/misses/evictions/inserts_total
 * counters and serve_cache_bytes / serve_cache_entries gauges; the
 * engine records hit latency into serve_cache_hit_us.
 */

#ifndef BIOARCH_SERVE_CACHE_HH
#define BIOARCH_SERVE_CACHE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "align/traceback/cigar.hh"
#include "align/types.hh"
#include "bio/alphabet.hh"
#include "obs/metrics.hh"

namespace bioarch::serve
{

/** Result-cache tunables. */
struct CacheConfig
{
    /**
     * Total capacity in bytes across all cache shards (keys +
     * results + bookkeeping, via ResultCache::entryBytes). 0
     * disables the cache entirely.
     */
    std::size_t capacityBytes = 0;
    /** Lock shards; rounded up to a power of two, min 1. */
    std::size_t shards = 8;
};

/**
 * Bounded sharded-LRU cache of ranked scan results. Thread-safe;
 * every method may be called concurrently.
 */
class ResultCache
{
  public:
    /** Full identity of a cacheable answer. */
    struct Key
    {
        std::uint16_t kind = 0;    ///< kernels::Workload
        std::uint64_t topK = 0;    ///< effective (engine-resolved)
        /** 1 when the answer carries phase-2 alignments. A
         * score-only answer never satisfies a reporting request
         * (and vice versa), exactly like a different top-K. */
        std::uint8_t report = 0;
        std::uint64_t epoch = 0;   ///< database epoch number
        std::vector<bio::Residue> query;

        bool
        operator==(const Key &o) const
        {
            return kind == o.kind && topK == o.topK
                && report == o.report && epoch == o.epoch
                && query == o.query;
        }
    };

    /** The cached answer: ranked hits + logical scan accounting. */
    struct Result
    {
        std::vector<align::SearchHit> hits;
        /** Phase-2 alignments, index-aligned with hits (empty for
         * score-only answers). Cached with the hits under the same
         * epoch key, so a hit returns both phases at once. */
        std::vector<align::CigarAlignment> alignments;
        std::uint64_t cells = 0;
        std::uint64_t tracebackCells = 0;
        std::uint64_t sequences = 0;
        std::uint64_t residues = 0;
    };

    /** FNV-1a 64 digest of @p key (the shard/bucket hash). */
    static std::uint64_t digest(const Key &key);

    /** Approximate footprint charged against capacityBytes. */
    static std::size_t entryBytes(const Key &key,
                                  const Result &result);

    /**
     * @param metrics registry the hit/miss/eviction counters and
     *        the bytes/entries gauges are registered in; must
     *        outlive the cache.
     */
    ResultCache(const CacheConfig &config, obs::Registry &metrics);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    bool enabled() const { return _capacityBytes > 0; }
    std::size_t capacityBytes() const { return _capacityBytes; }
    std::size_t numShards() const { return _shards.size(); }

    /**
     * Look @p key up under @p key_digest (from digest()). A hit
     * refreshes the entry's LRU position and returns the stored
     * result; a miss (including a digest collision with a
     * different key) returns nullptr.
     */
    std::shared_ptr<const Result> lookup(const Key &key,
                                         std::uint64_t key_digest);

    /**
     * Insert @p result for @p key, evicting least-recently-used
     * entries from the key's shard until it fits. Re-inserting a
     * present key replaces the stored result (last write wins). An
     * entry larger than a whole shard's capacity is not inserted.
     */
    void insert(Key key, std::uint64_t key_digest,
                std::shared_ptr<const Result> result);

    /** Current totals (also exported as gauges). */
    std::size_t bytes() const
    {
        return _bytes.load(std::memory_order_relaxed);
    }
    std::size_t entries() const
    {
        return _entries.load(std::memory_order_relaxed);
    }

  private:
    struct Entry
    {
        Key key;
        std::uint64_t digest = 0;
        std::shared_ptr<const Result> result;
        std::size_t bytes = 0;
    };
    /** One lock shard: LRU list (front = most recent) + index. */
    struct Shard
    {
        std::mutex mutex;
        std::list<Entry> lru;
        /** digest -> entry; multimap tolerates digest collisions. */
        std::unordered_multimap<std::uint64_t,
                                std::list<Entry>::iterator>
            index;
        std::size_t bytes = 0;
    };

    Shard &shardFor(std::uint64_t key_digest);
    /** Evict the shard's LRU tail until @p needed bytes fit. */
    void evictLocked(Shard &shard, std::size_t needed);
    void publishGauges();

    std::size_t _capacityBytes;
    std::size_t _shardCapacity;
    std::vector<std::unique_ptr<Shard>> _shards;
    std::size_t _shardMask;

    std::atomic<std::size_t> _bytes{0};
    std::atomic<std::size_t> _entries{0};

    obs::Counter *_mHits;
    obs::Counter *_mMisses;
    obs::Counter *_mEvictions;
    obs::Counter *_mInserts;
    obs::Gauge *_mBytes;
    obs::Gauge *_mEntries;
};

} // namespace bioarch::serve

#endif // BIOARCH_SERVE_CACHE_HH
