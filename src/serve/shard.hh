/**
 * @file
 * Database sharding for the serving engine: a SequenceDatabase cut
 * into contiguous, residue-balanced shards, and the per-shard scan
 * that produces a ranked top-K hit list.
 *
 * Sharding follows the SWAPHI/mpiBLAST shape — partition the
 * database, dispatch chunks to workers, merge ranked results — but
 * the cut points are chosen on the residue *prefix sums*, so the
 * layout depends only on (database, shard count), never on worker
 * timing. Hit scores and E-values are computed against the *whole*
 * database's residue total, so a hit's statistics are identical
 * whichever shard it lands in.
 */

#ifndef BIOARCH_SERVE_SHARD_HH
#define BIOARCH_SERVE_SHARD_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "align/karlin.hh"
#include "bio/database.hh"
#include "hit_list.hh"
#include "index/seed_index.hh"
#include "request.hh"

namespace bioarch::serve
{

/** One contiguous slice [begin, end) of the database. */
struct Shard
{
    std::size_t index = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint64_t residues = 0;

    std::size_t size() const { return end - begin; }
    bool empty() const { return end == begin; }
};

/**
 * A SequenceDatabase partitioned into contiguous shards whose
 * boundaries balance residue counts (DP cost is proportional to
 * residues, not sequence count). Shards may be empty when the
 * database has fewer sequences than shards. The database must
 * outlive the partition.
 */
class ShardedDatabase
{
  public:
    /** Partition @p db into @p num_shards slices (clamped >= 1). */
    ShardedDatabase(const bio::SequenceDatabase &db,
                    std::size_t num_shards);

    const bio::SequenceDatabase &db() const { return *_db; }
    std::size_t numShards() const { return _shards.size(); }
    const Shard &shard(std::size_t i) const { return _shards[i]; }
    const std::vector<Shard> &shards() const { return _shards; }

  private:
    const bio::SequenceDatabase *_db;
    std::vector<Shard> _shards;
};

/**
 * How scanShard routes its work: the kernel cutover knob plus the
 * optional indexed BLAST route. Everything here is a throughput
 * decision — every route produces bit-identical ranked hits (the
 * index probe's candidate set provably contains every sequence
 * whose score could exceed 0; see index/seed_index.hh).
 */
struct ScanRoute
{
    /** Inter-sequence/striped kernel cutover (native SW kinds). */
    std::size_t interseqCutover = align::interSequenceCutover();
    /**
     * This request's whole-database seed-index candidate list
     * (ascending db index), or nullptr for a full scan. The engine
     * probes once per distinct request — the probe cost is
     * independent of the shard count — and every shard task
     * rescans only the candidates inside its [begin, end) slice.
     * Only ever set for Blast-kind requests that passed the
     * selectivity gate (EngineConfig::indexMaxSelectivity).
     */
    const std::vector<std::uint32_t> *indexCandidates = nullptr;
};

/** What one (search, shard) scan task produces. */
struct ShardScan
{
    /** The shard's top-K hits, ranked by (score desc, index asc). */
    std::vector<align::SearchHit> hits;
    std::uint64_t cells = 0;
    std::uint64_t sequences = 0;
    /**
     * Residues actually aligned against: the shard's residue total
     * on a full scan, the candidates' total on the indexed route
     * (the measured numerator of the <= 20% acceptance gate).
     */
    std::uint64_t residues = 0;
    /**
     * True when the index probe found no candidates, so the shard
     * contributed nothing without any alignment work. Reported
     * into serve_shards_skipped_total but NOT into
     * Response::shardsSkipped — the response is complete, unlike a
     * deadline skip.
     */
    bool prefilterSkipped = false;
    /**
     * Hits whose Karlin statistics (bit score / E-value) were
     * filled lazily — i.e. heap survivors; everything below the
     * top-K never pays for them.
     */
    std::uint64_t karlinFills = 0;
    /** Native overflow-ladder accounting (zero for the heuristics). */
    align::NativeScanStats native;
    /** Wall time of the scan (filled in by the engine). */
    double elapsedUs = 0.0;
    /**
     * True when the request's deadline had already expired when
     * this task ran, so the shard was never scanned (cancellation
     * at shard-scan granularity; see serve::BatchControl).
     */
    bool skipped = false;
};

/**
 * Scan one shard for one prepared query, keeping the shard's top
 * @p top_k hits. Bit scores and E-values use @p karlin with the
 * query length and @p total_residues (the whole database), matching
 * the library's *Search drivers.
 *
 * On the native (packed-arena) path, subjects shorter than
 * route.interseqCutover are scanned in batch by the inter-sequence
 * kernel and the rest by the striped kernel; batches too small to
 * keep the lanes busy fall back to striped (occupancy floor).
 * When route.indexCandidates is set, only the candidates inside
 * the shard are rescored. All routes produce bit-identical hits,
 * so the route is purely a throughput knob.
 */
ShardScan scanShard(const PreparedQuery &query,
                    const bio::SequenceDatabase &db,
                    const Shard &shard, std::size_t top_k,
                    const align::KarlinParams &karlin,
                    double total_residues,
                    const ScanRoute &route = {});

} // namespace bioarch::serve

#endif // BIOARCH_SERVE_SHARD_HH
