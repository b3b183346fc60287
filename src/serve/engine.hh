/**
 * @file
 * The batched query-serving engine: serveBatch(), its one entry
 * point, takes a batch of alignment requests, groups them into
 * distinct searches, fans (search x shard) scan tasks across a
 * core::ThreadPool, merges per-shard top-K heaps into one ranked
 * hit list per request, and records engine-level counters.
 * Queueing, batching a stream and per-request latency belong to
 * the ServeLoop in front of it (loop.hh).
 *
 * Determinism contract (asserted by tests/serve_test.cc): the
 * ranked hit list of a request — ids, scores, bit scores, E-values
 * — is bit-for-bit identical regardless of shard count, batch
 * size, or worker count, and equal to a serial scan of the whole
 * database under the (score desc, db index asc) order. The
 * schedule only decides *when* a scan runs, never *what* it
 * computes: every task writes to a preallocated (search, shard)
 * slot and the merge walks those slots in submission order.
 *
 * A search is a (scan family, query residues, effective top-K,
 * reportAlignments) group of the batch; ssearch34, sw_vmx128 and
 * sw_vmx256 are one family, because they build the same profile
 * and rank by the same exact score. Each search is prepared,
 * probed, scanned and traced once, and every member of it gets the
 * same hits and alignments as if it had been served alone.
 *
 * With EngineConfig::cache on, serveBatch answers repeats from the
 * epoch-keyed result cache (cache.hh) and scans only the misses; a
 * hit is bit-for-bit the stored scan result, so the contract above
 * holds with the cache on or off (tests/router_test.cc asserts the
 * cache x jobs matrix).
 */

#ifndef BIOARCH_SERVE_ENGINE_HH
#define BIOARCH_SERVE_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "align/blast.hh"
#include "align/fasta.hh"
#include "align/karlin.hh"
#include "bio/database.hh"
#include "bio/scoring.hh"
#include "cache.hh"
#include "clock.hh"
#include "core/thread_pool.hh"
#include "index/epoch.hh"
#include "index/seed_index.hh"
#include "obs/metrics.hh"
#include "request.hh"
#include "shard.hh"

namespace bioarch::serve
{

/**
 * Per-request cancellation plumbed into a batch: each shard-scan
 * task checks deadlinesUs[r] (absolute, in @p clock's time base;
 * <= 0 means no deadline) of every request r it serves immediately
 * before scanning. A request past its deadline records the shard
 * as skipped (Response::shardsSkipped), and the scan itself is
 * skipped once every request sharing it has expired —
 * cancellation at shard-scan granularity. Tracebacks are checked
 * the same way, once per phase-4 task: a group of a list's hits
 * traced together in the native lanes (PreparedQuery::
 * tracesInLanes), or a single hit. A lapsed deadline skips whole
 * tasks, and Response::tracebacksSkipped counts their hits.
 */
struct BatchControl
{
    /** Per-request absolute deadlines (may be nullptr). */
    const double *deadlinesUs = nullptr;
    /** Clock the deadlines are expressed in. */
    const Clock *clock = nullptr;

    bool
    expired(std::size_t r) const
    {
        return deadlinesUs != nullptr && clock != nullptr
            && deadlinesUs[r] > 0.0
            && clock->nowUs() >= deadlinesUs[r];
    }
};

/** Engine tunables. */
struct EngineConfig
{
    /** Worker threads (BIOARCH_JOBS / hardware default). */
    unsigned jobs = core::ThreadPool::defaultJobs();
    /** Database shards scanned as independent tasks. */
    std::size_t shards = 4;
    /** Requests per engine call a ServeLoop dispatches (>= 1). */
    std::size_t batch = 8;
    /** Default hits per response (requests may override). */
    std::size_t topK = 10;
    /**
     * Native SIMD kernel backend for the Smith-Waterman request
     * kinds (see align::defaultScanBackend). The engine's
     * constructors throw std::invalid_argument for a backend outside
     * align::runnableBackends().
     */
    align::SimdBackend backend = align::defaultScanBackend();
    /**
     * Native-path kernel heuristic: subjects strictly shorter than
     * this go to the inter-sequence kernel (one subject per SIMD
     * lane), the rest to the striped kernel. Hit lists are
     * bit-identical either way; 0 keeps everything striped.
     */
    std::size_t interseqCutover = align::interSequenceCutover();
    bio::GapPenalties gaps;
    align::FastaParams fasta;
    align::BlastParams blast;
    /**
     * Parameters of the served nucleotide kind
     * (Workload::Blastn). Blastn requests rank by the raw gapped
     * score; the Karlin bit scores / E-values attached to their
     * hits use the engine's protein statistics and are nominal
     * (deterministic, but not blastn's own lambda/K).
     */
    align::BlastnParams blastn;
    /**
     * Database-side seed index for the indexed BLAST serving
     * route (nullptr = every scan is a full scan). Must outlive
     * the engine and must have been built over exactly the served
     * database; word size must match blast.wordSize or the index
     * is ignored. See ScanRoute (shard.hh) for the route itself.
     * Ignored by the epoch constructor, which serves each epoch's
     * own index.
     */
    const index::SeedIndex *seedIndex = nullptr;
    /**
     * Selectivity gate of the indexed route: when a request's
     * probe marks more than this fraction of the database's
     * sequences as candidates, the request falls back to the full
     * scan (the index would not pay for itself). The probe runs
     * once per prepared query, before the shard fan-out. See
     * ScanRoute.
     */
    double indexMaxSelectivity = 0.2;
    /**
     * Metrics registry the engine reports into. nullptr (default)
     * makes the engine own a private registry; the serving loop
     * passes the engine's registry around so loop + engine + pool
     * metrics land in one snapshot. Must outlive the engine when
     * non-null.
     */
    obs::Registry *metrics = nullptr;
    /**
     * Result cache in front of serveBatch (capacityBytes 0, the
     * default, serves every request live). Keys carry the epoch
     * number, so a reload invalidates every entry of the old
     * database.
     */
    CacheConfig cache;
};

/**
 * Serves alignment requests against one sharded database. The
 * engine owns its thread pool, matrix, Karlin parameters and
 * metric handles for its whole life; the database, its shard
 * layout and its seed index form the per-epoch state, which
 * reload() swaps while the engine keeps serving. serveBatch() is
 * intended to be called from one thread (the pool parallelizes
 * inside a batch; a ServeLoop dispatches from one thread at a
 * time); reload() may be called from any thread meanwhile.
 */
class Engine
{
  public:
    /**
     * Serve @p db, which must outlive the engine, through
     * config.seedIndex.
     */
    explicit Engine(const bio::SequenceDatabase &db,
                    EngineConfig config = {});

    /**
     * Serve @p epoch, hot-reloadable: the engine keeps the epoch
     * alive and routes through the epoch's own seed index
     * (config.seedIndex is ignored). Registers the db_epoch gauge.
     */
    explicit Engine(std::shared_ptr<const index::DbEpoch> epoch,
                    EngineConfig config = {});

    /**
     * Publish @p epoch. A batch already running finishes on the
     * epoch it pinned; the next batch sees the new one. The pool
     * and every metric stay the same. Throws std::invalid_argument
     * unless @p epoch's number is greater than the published one:
     * the result cache is keyed by that number, so reusing it
     * would serve the old database's cached answers.
     */
    void reload(std::shared_ptr<const index::DbEpoch> epoch);

    /** The published epoch's number (0 for a plain database). */
    std::uint64_t epochNumber() const;

    const EngineConfig &config() const { return _cfg; }
    /** The published epoch's layout; valid until the next reload. */
    const ShardedDatabase &sharded() const;

    /**
     * The engine's one entry point: serve @p requests as a single
     * batch, all (search, shard) scans in flight together.
     * Responses come back in request order with serviceUs = the
     * batch's wall time. Requests of one search each keep their id
     * and kind and report the search's hits, alignments and work
     * counts (cells, sequences, residues, traceback cells); its
     * scan and traceback time is charged once, to the first member
     * a task served, so the others carry zero scanUs and
     * tracebackUs. @p control cancels requests past their deadline
     * at shard-scan granularity.
     *
     * With the cache on, a hit comes back fromCache with its own
     * lookup time as serviceUs, and the misses run as one batch
     * whose wall time is their serviceUs. Lookups use the epoch
     * published at batch start and inserts the one the misses
     * pinned, so a reload landing mid-batch never files
     * old-database hits under the new epoch; deadline-truncated
     * responses are never cached. @p epochOut (may be null)
     * receives the number of the epoch the misses ran against (the
     * published one when every request hit the cache).
     */
    std::vector<Response>
    serveBatch(const std::vector<Request> &requests,
               const BatchControl &control = {},
               std::uint64_t *epochOut = nullptr);

    /**
     * The registry this engine reports into (its own, or the one
     * injected via EngineConfig::metrics). Counters count work
     * once per search, not per request: the distinct searches per
     * batch (serve_batch_unique_total) and the requests that
     * shared one (serve_dedup_saved_total), lazy Karlin statistic
     * fills, shard scans run and skipped (a shard is skipped when
     * every request of its search has expired, or when the index
     * probe left it no candidates), cells, alignments and
     * traceback cells; the native overflow ladder per
     * backend (native_scans_total{backend=...} and friends);
     * mirrored thread-pool tasks/steals. Histograms:
     * serve_scan_us, serve_batch_us, serve_traceback_us (one
     * sample per group of hits traced together, not per hit),
     * serve_cache_hit_us; the
     * result cache's serve_cache_* series (registered with the
     * cache on or off). Per-request latency (serve_latency_us) is
     * the ServeLoop's.
     */
    obs::Registry &metrics() { return *_metrics; }
    const obs::Registry &metrics() const { return *_metrics; }

    /**
     * Mirror the thread pool's counters/gauges into the registry
     * (pool_tasks_total, pool_steals_total, pool_queue_depth,
     * pool_queue_depth_max, pool_workers). Call right before
     * exporting a snapshot; single-threaded with respect to other
     * refresh calls.
     */
    void refreshPoolMetrics();

    /** The engine's worker pool (for loop/bench introspection). */
    const core::ThreadPool &pool() const { return _pool; }

    /** The result cache (disabled when cache.capacityBytes is 0). */
    const ResultCache &cache() const { return _cache; }

  private:
    /** One database epoch; immutable once published. */
    struct EpochState
    {
        /** Keeps the epoch alive; null for a plain database. */
        std::shared_ptr<const index::DbEpoch> owner;
        ShardedDatabase sharded;
        const index::SeedIndex *seedIndex = nullptr;
        /** owner's epoch number, or 0. */
        std::uint64_t number = 0;
    };

    /** Builds everything but the epoch state. */
    explicit Engine(EngineConfig config);

    /** Lay @p db out in shards and publish it as the epoch. */
    void publish(std::shared_ptr<const index::DbEpoch> owner,
                 const bio::SequenceDatabase &db,
                 const index::SeedIndex *seedIndex);
    std::shared_ptr<const EpochState> current() const;

    /** Run one batch on the epoch published at its start. */
    std::vector<Response> runBatch(const Request *requests,
                                   std::size_t count,
                                   const BatchControl &control,
                                   std::uint64_t *epochOut = nullptr);

    EngineConfig _cfg;
    const bio::ScoringMatrix *_matrix;
    align::KarlinParams _karlin;
    core::ThreadPool _pool;

    std::unique_ptr<obs::Registry> _ownedMetrics;
    obs::Registry *_metrics;
    ResultCache _cache;
    // Hot-path metric handles, registered once at construction.
    obs::Counter *_mRequests;
    obs::Counter *_mBatches;
    obs::Counter *_mBatchUnique;
    obs::Counter *_mDedupSaved;
    obs::Counter *_mKarlinFills;
    obs::Counter *_mCells;
    obs::Counter *_mShardsScanned;
    obs::Counter *_mShardsSkipped;
    obs::Counter *_mIndexProbes;
    obs::Counter *_mIndexCandidates;
    obs::Counter *_mIndexFallbacks;
    obs::Counter *_mNativeScans;
    obs::Counter *_mNativeRescans16;
    obs::Counter *_mNativeRescansScalar;
    obs::Counter *_mNativeInterseq;
    obs::Counter *_mNativeStriped;
    obs::Counter *_mTracebackCells;
    obs::Counter *_mAlignments;
    obs::Counter *_mTracebacksSkipped;
    obs::Histogram *_mTracebackUs;
    obs::Histogram *_mScanUs;
    obs::Histogram *_mBatchUs;
    obs::Histogram *_mCacheHitUs;
    // Pool counters already seen by refreshPoolMetrics() (obs
    // counters are monotone, so mirroring applies deltas).
    std::uint64_t _poolTasksSeen = 0;
    std::uint64_t _poolStealsSeen = 0;

    /** Guards the _epoch pointer (not the state it points to). */
    mutable std::mutex _epochMutex;
    std::shared_ptr<const EpochState> _epoch;
};

} // namespace bioarch::serve

#endif // BIOARCH_SERVE_ENGINE_HH
