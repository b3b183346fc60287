#include "engine.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace bioarch::serve
{

namespace
{

using WallClock = std::chrono::steady_clock;

double
elapsedUs(WallClock::time_point from, WallClock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from)
        .count();
}

/**
 * The scan family of a request kind. The three Smith-Waterman
 * kinds rank by the same exact score: PreparedQuery builds them
 * one profile and scans and traces them through one native
 * kernel, so they are one search.
 */
kernels::Workload
scanFamily(kernels::Workload kind)
{
    switch (kind) {
    case kernels::Workload::SwVmx128:
    case kernels::Workload::SwVmx256:
        return kernels::Workload::Ssearch34;
    default:
        return kind;
    }
}

/**
 * True when @p a and @p b prepare the same query state and rank
 * the same hits (reporting is part of the key because a reporting
 * FASTA query also builds a profile).
 */
bool
samePreparedQuery(const Request &a, const Request &b)
{
    return scanFamily(a.kind) == scanFamily(b.kind)
        && a.reportAlignments == b.reportAlignments
        && a.query.residues() == b.query.residues();
}

/**
 * @p config, once its backend is known to run on this host and its
 * FASTA ktup and BLAST word sizes to build an index.
 */
EngineConfig
runnableConfig(EngineConfig config)
{
    align::nativeKernels(config.backend); // throws if unrunnable
    align::KtupIndex::checkKtup(config.fasta.ktup);
    align::NeighborhoodIndex::checkWordSize(config.blast.wordSize);
    align::DnaWordIndex::checkWordSize(config.blastn.wordSize);
    return config;
}

} // namespace

Engine::Engine(EngineConfig config)
    : _cfg(runnableConfig(config)),
      _matrix(&bio::blosum62()),
      _karlin(align::blosum62Karlin()),
      _pool(config.jobs),
      _ownedMetrics(config.metrics == nullptr
                        ? std::make_unique<obs::Registry>()
                        : nullptr),
      _metrics(config.metrics != nullptr ? config.metrics
                                         : _ownedMetrics.get()),
      _cache(config.cache, *_metrics)
{
    if (_cfg.shards == 0)
        _cfg.shards = 1;
    if (_cfg.batch == 0)
        _cfg.batch = 1;
    _cfg.jobs = _pool.size();

    obs::Registry &m = *_metrics;
    _mRequests = &m.counter("serve_requests_total");
    _mBatches = &m.counter("serve_batches_total");
    _mBatchUnique = &m.counter("serve_batch_unique_total");
    _mDedupSaved = &m.counter("serve_dedup_saved_total");
    _mKarlinFills = &m.counter("serve_karlin_lazy_fills_total");
    _mCells = &m.counter("serve_cells_total");
    _mShardsScanned = &m.counter("serve_shards_scanned_total");
    _mShardsSkipped = &m.counter("serve_shards_skipped_total");
    _mIndexProbes = &m.counter("index_probe_total");
    _mIndexCandidates = &m.counter("index_candidates_total");
    _mIndexFallbacks = &m.counter("index_fallback_scan_total");
    const std::string backend_label = "backend=\""
        + std::string(align::backendName(_cfg.backend)) + "\"";
    _mNativeScans =
        &m.counter("native_scans_total", backend_label);
    _mNativeRescans16 =
        &m.counter("native_rescans16_total", backend_label);
    _mNativeRescansScalar =
        &m.counter("native_rescans_scalar_total", backend_label);
    _mNativeInterseq =
        &m.counter("native_intersequence_total", backend_label);
    _mNativeStriped =
        &m.counter("native_striped_total", backend_label);
    _mTracebackCells = &m.counter("traceback_cells_total");
    _mAlignments = &m.counter("serve_alignments_total");
    _mTracebacksSkipped =
        &m.counter("serve_tracebacks_skipped_total");
    _mTracebackUs = &m.histogram("serve_traceback_us");
    _mScanUs = &m.histogram("serve_scan_us");
    _mBatchUs = &m.histogram("serve_batch_us");
    _mCacheHitUs = &m.histogram("serve_cache_hit_us");
    refreshPoolMetrics();
}

Engine::Engine(const bio::SequenceDatabase &db, EngineConfig config)
    : Engine(config)
{
    publish(nullptr, db, _cfg.seedIndex);
}

Engine::Engine(std::shared_ptr<const index::DbEpoch> epoch,
               EngineConfig config)
    : Engine(config)
{
    _cfg.seedIndex = nullptr;
    reload(std::move(epoch));
}

void
Engine::publish(std::shared_ptr<const index::DbEpoch> owner,
                const bio::SequenceDatabase &db,
                const index::SeedIndex *seedIndex)
{
    const std::uint64_t number =
        owner != nullptr ? owner->epoch : 0;
    auto state = std::make_shared<const EpochState>(
        EpochState{std::move(owner),
                   ShardedDatabase(db, _cfg.shards), seedIndex,
                   number});
    std::lock_guard lock(_epochMutex);
    if (_epoch != nullptr && state->number <= _epoch->number)
        throw std::invalid_argument(
            "Engine: reload epoch " + std::to_string(state->number)
            + " must be greater than the published "
            + std::to_string(_epoch->number));
    if (state->owner != nullptr)
        _metrics->gauge("db_epoch").set(
            static_cast<double>(state->number));
    // The old state lives on until the last batch that pinned it
    // drops its reference.
    _epoch = std::move(state);
}

std::shared_ptr<const Engine::EpochState>
Engine::current() const
{
    std::lock_guard lock(_epochMutex);
    return _epoch;
}

void
Engine::reload(std::shared_ptr<const index::DbEpoch> epoch)
{
    if (epoch == nullptr)
        throw std::invalid_argument("Engine: null epoch");
    const bio::SequenceDatabase &db = epoch->db;
    const index::SeedIndex *seed_index =
        epoch->index.has_value() ? &*epoch->index : nullptr;
    publish(std::move(epoch), db, seed_index);
}

std::uint64_t
Engine::epochNumber() const
{
    return current()->number;
}

const ShardedDatabase &
Engine::sharded() const
{
    return current()->sharded;
}

void
Engine::refreshPoolMetrics()
{
    const core::ThreadPool::Stats s = _pool.stats();
    obs::Registry &m = *_metrics;
    m.counter("pool_tasks_total").inc(s.tasksRun - _poolTasksSeen);
    _poolTasksSeen = s.tasksRun;
    m.counter("pool_steals_total").inc(s.steals - _poolStealsSeen);
    _poolStealsSeen = s.steals;
    m.gauge("pool_queue_depth")
        .set(static_cast<double>(s.queueDepth));
    m.gauge("pool_queue_depth_max")
        .set(static_cast<double>(s.maxQueueDepth));
    m.gauge("pool_workers").set(static_cast<double>(s.workers));
}

std::vector<Response>
Engine::runBatch(const Request *requests, std::size_t count,
                 const BatchControl &control, std::uint64_t *epochOut)
{
    const obs::ScopedSpan batch_span(*_mBatchUs);
    // Pin the epoch for the whole batch: a reload landing
    // mid-batch swaps the next batch's database, never this one's.
    const std::shared_ptr<const EpochState> state = current();
    if (epochOut != nullptr)
        *epochOut = state->number;
    const ShardedDatabase &sharded = state->sharded;
    const bio::SequenceDatabase &db = sharded.db();
    const index::SeedIndex *seed_index = state->seedIndex;
    const std::size_t shards = sharded.numShards();
    const double total = static_cast<double>(db.totalResidues());

    _mRequests->inc(count);
    _mBatches->inc();

    // Phase 1: group the batch by search identity — scan family,
    // query residues, reporting and effective top-K. Each group is
    // prepared, probed, scanned and traced once for all of its
    // members; groups that differ only in top-K also share the
    // prepared query and the probe (profiles are read-only during
    // scans, so sharing is free). Batches are small, so the
    // quadratic grouping is cheaper than hashing the residues.
    struct Group
    {
        /** Member requests, ascending; the first represents it. */
        std::vector<std::size_t> members;
        /** The group whose PreparedQuery and probe this one uses. */
        std::size_t prep = 0;
        std::size_t topK = 0;
    };
    std::vector<Group> groups;
    std::vector<std::size_t> group_of(count);
    for (std::size_t r = 0; r < count; ++r) {
        const std::size_t top_k =
            requests[r].topK ? requests[r].topK : _cfg.topK;
        std::size_t g = 0;
        std::size_t prep = groups.size();
        for (; g < groups.size(); ++g) {
            if (!samePreparedQuery(
                    requests[groups[g].members.front()],
                    requests[r]))
                continue;
            prep = groups[g].prep;
            if (groups[g].topK == top_k)
                break;
        }
        if (g == groups.size())
            groups.push_back(Group{{}, prep, top_k});
        groups[g].members.push_back(r);
        group_of[r] = g;
    }
    _mBatchUnique->inc(groups.size());
    _mDedupSaved->inc(count - groups.size());

    // A prepared query whose every member is already past its
    // deadline is not worth building: all of its scans would be
    // skipped anyway. (Time is monotone, so "expired now" stays
    // expired at scan time.)
    std::vector<char> needed(groups.size(), 0);
    for (const Group &grp : groups)
        for (const std::size_t r : grp.members)
            if (!control.expired(r)) {
                needed[grp.prep] = 1;
                break;
            }
    std::vector<std::size_t> to_prepare;
    for (std::size_t g = 0; g < groups.size(); ++g)
        if (needed[g])
            to_prepare.push_back(g);

    std::vector<std::unique_ptr<PreparedQuery>> prepared(
        groups.size());
    _pool.parallelFor(to_prepare.size(), [&](std::size_t i) {
        const std::size_t g = to_prepare[i];
        prepared[g] = std::make_unique<PreparedQuery>(
            requests[groups[g].members.front()], *_matrix,
            _cfg.gaps, _cfg.fasta, _cfg.blast, _cfg.backend,
            _cfg.blastn);
    });

    // Phase 1.5: probe the seed index once per prepared BLAST
    // query, in parallel. The probe never touches subject residues
    // and its cost is independent of the shard count, so it runs
    // at query granularity; shard tasks then slice the candidate
    // list. A probe that marks too much of the database falls back
    // to the full scan (the index would not pay for itself at that
    // density).
    struct ProbeOutcome
    {
        std::vector<std::uint32_t> candidates;
        bool fallback = false;
    };
    std::vector<std::unique_ptr<ProbeOutcome>> probes(groups.size());
    std::uint64_t index_probes = 0;
    std::uint64_t index_candidates = 0;
    std::uint64_t index_fallbacks = 0;
    if (seed_index != nullptr) {
        _pool.parallelFor(to_prepare.size(), [&](std::size_t i) {
            const std::size_t g = to_prepare[i];
            const PreparedQuery &q = *prepared[g];
            if (q.kind() != kernels::Workload::Blast
                || q.neighborhoodIndex() == nullptr
                || seed_index->wordSize()
                    != q.blastParams().wordSize)
                return;
            auto probe = std::make_unique<ProbeOutcome>();
            probe->candidates = index::probeCandidates(
                *seed_index, *q.neighborhoodIndex(),
                q.blastParams(), 0, db.size());
            probe->fallback =
                static_cast<double>(probe->candidates.size())
                > _cfg.indexMaxSelectivity
                    * static_cast<double>(db.size());
            probes[g] = std::move(probe);
        });
        for (const std::size_t g : to_prepare)
            if (probes[g] != nullptr) {
                ++index_probes;
                index_candidates += probes[g]->candidates.size();
                if (probes[g]->fallback)
                    ++index_fallbacks;
            }
    }

    // Phase 2: fan (group x shard) scans out; each task writes its
    // preallocated slot, so the schedule cannot reorder results.
    // The deadline checks sit immediately before the scan: a member
    // already expired records the shard as skipped, and the scan
    // runs only while some member is live, so an expired request
    // stops consuming scan time at shard granularity.
    ScanRoute route;
    route.interseqCutover = _cfg.interseqCutover;

    std::vector<ShardScan> scans(groups.size() * shards);
    std::vector<char> member_skipped(count * shards, 0);
    _pool.parallelFor(groups.size() * shards, [&](std::size_t u) {
        const Group &grp = groups[u / shards];
        const std::size_t s = u % shards;
        const PreparedQuery *q = prepared[grp.prep].get();
        bool live = false;
        for (const std::size_t r : grp.members) {
            const bool expired = q == nullptr || control.expired(r);
            member_skipped[r * shards + s] = expired ? 1 : 0;
            live = live || !expired;
        }
        if (!live) {
            scans[u].skipped = true;
            return;
        }
        ScanRoute task_route = route;
        const ProbeOutcome *probe = probes[grp.prep].get();
        if (probe != nullptr && !probe->fallback)
            task_route.indexCandidates = &probe->candidates;
        const WallClock::time_point t0 = WallClock::now();
        scans[u] = scanShard(*q, db, sharded.shard(s), grp.topK,
                             _karlin, total, task_route);
        scans[u].elapsedUs = elapsedUs(t0, WallClock::now());
        _mScanUs->record(scans[u].elapsedUs);
    });

    // Phase 3: fold each group's scans into the batch-level
    // counters once, then merge per-shard top-K lists for each
    // member over the shards it did not skip. A member that skipped
    // the same shards as the one before it carries that member's
    // list (list_owner), which is the usual case: none skipped. A
    // shard's scan time is charged to the first member it served.
    std::uint64_t cells = 0;
    std::uint64_t karlin_fills = 0;
    std::uint64_t shards_scanned = 0;
    std::uint64_t shards_skipped = 0;
    align::NativeScanStats native;
    std::vector<Response> out(count);
    std::vector<std::size_t> list_owner(count);
    std::vector<char> charged(shards);
    std::vector<std::vector<align::SearchHit>> lists;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const Group &grp = groups[g];
        const ShardScan *group_scans = &scans[g * shards];
        for (std::size_t s = 0; s < shards; ++s) {
            const ShardScan &scan = group_scans[s];
            // A prefilter skip (probe found no candidates) is a
            // *complete* answer reached without alignment work, so
            // it counts as a skipped shard in the metrics but never
            // as a deadline skip on the response.
            if (scan.skipped || scan.prefilterSkipped)
                ++shards_skipped;
            else
                ++shards_scanned;
            cells += scan.cells;
            karlin_fills += scan.karlinFills;
            native += scan.native;
        }
        std::fill(charged.begin(), charged.end(), 0);
        for (std::size_t k = 0; k < grp.members.size(); ++k) {
            const std::size_t r = grp.members[k];
            const char *skipped = &member_skipped[r * shards];
            Response &resp = out[r];
            resp.id = requests[r].id;
            resp.kind = requests[r].kind;
            for (std::size_t s = 0; s < shards; ++s) {
                if (skipped[s]) {
                    ++resp.shardsSkipped;
                    continue;
                }
                const ShardScan &scan = group_scans[s];
                resp.cellsComputed += scan.cells;
                resp.sequencesSearched += scan.sequences;
                resp.residuesScanned += scan.residues;
                if (!charged[s]) {
                    resp.scanUs += scan.elapsedUs;
                    charged[s] = 1;
                }
            }
            const std::size_t prev = grp.members[k > 0 ? k - 1 : 0];
            if (k > 0
                && std::equal(skipped, skipped + shards,
                              &member_skipped[prev * shards])) {
                list_owner[r] = list_owner[prev];
                resp.hits = out[prev].hits;
                continue;
            }
            list_owner[r] = r;
            lists.clear();
            for (std::size_t s = 0; s < shards; ++s)
                if (!skipped[s])
                    lists.push_back(group_scans[s].hits);
            resp.hits = mergeRanked(lists, grp.topK);
        }
    }

    // Phase 4: traceback reporting. Strictly after the merge, so
    // the ranked hit list (ids, scores, order) is already final —
    // reporting can only attach alignments, never perturb phase 1.
    // Each task traces a run of an owner's slots and is shared by
    // the members carrying that list; it writes its preallocated
    // slots, so the schedule cannot reorder anything. A list's hits
    // that trace in the native lanes (PreparedQuery::tracesInLanes)
    // come first among its slots and form its groups: one per list,
    // or, when the batch holds fewer such lists than pool workers,
    // up to enough to give each worker one, each at least a lane's
    // worth of hits. Every other hit (BLAST's, those that clip the
    // lanes) is a task of its own, queued after the groups, so the
    // short tasks fill the tail of the phase. The deadline checks
    // sit before each task, mirroring the per-shard checks of
    // phase 2: the task runs while any sharer is live, and a lapsed
    // deadline skips whole groups.
    struct TraceTask
    {
        std::size_t owner;
        std::size_t first; ///< first slot
        std::size_t count;
    };
    // The owner's hit index of each slot; owner r's slots start at
    // slot_base[r]. Per reporting member, one deadline-skip flag per
    // slot of its list, from trace_base[r].
    std::vector<std::size_t> slot_hit;
    std::vector<std::size_t> single;
    std::vector<std::size_t> slot_base(count, 0);
    std::vector<std::size_t> lane_hits(count, 0);
    std::vector<std::size_t> trace_base(count, 0);
    std::size_t trace_flags = 0;
    std::size_t lane_lists = 0;
    for (std::size_t r = 0; r < count; ++r) {
        const PreparedQuery *pq = prepared[groups[group_of[r]].prep].get();
        if (!requests[r].reportAlignments || pq == nullptr)
            continue;
        const std::vector<align::SearchHit> &hits = out[r].hits;
        out[r].alignments.resize(hits.size());
        trace_base[r] = trace_flags;
        trace_flags += hits.size();
        if (list_owner[r] != r)
            continue;
        slot_base[r] = slot_hit.size();
        single.clear();
        for (std::size_t h = 0; h < hits.size(); ++h)
            (pq->tracesInLanes(hits[h]) ? slot_hit : single).push_back(h);
        lane_hits[r] = slot_hit.size() - slot_base[r];
        slot_hit.insert(slot_hit.end(), single.begin(), single.end());
        lane_lists += lane_hits[r] >= 2 ? 1 : 0;
    }
    std::vector<TraceTask> trace_tasks;
    for (std::size_t r = 0; r < count; ++r) {
        const std::size_t n = lane_hits[r];
        if (list_owner[r] != r || n < 2)
            continue;
        const std::size_t lanes =
            prepared[groups[group_of[r]].prep]->tracebackLanes();
        const std::size_t spread =
            (_pool.size() + lane_lists - 1) / lane_lists;
        const std::size_t tasks =
            std::max<std::size_t>(1, std::min(spread, n / lanes));
        for (std::size_t t = 0; t < tasks; ++t) {
            const std::size_t first = n * t / tasks;
            trace_tasks.push_back(TraceTask{
                r, slot_base[r] + first, n * (t + 1) / tasks - first});
        }
    }
    for (std::size_t r = 0; r < count; ++r) {
        if (list_owner[r] != r)
            continue;
        for (std::size_t k = lane_hits[r] >= 2 ? lane_hits[r] : 0;
             k < out[r].alignments.size(); ++k)
            trace_tasks.push_back(TraceTask{r, slot_base[r] + k, 1});
    }
    std::uint64_t traceback_cells = 0;
    std::uint64_t alignments_traced = 0;
    std::uint64_t tracebacks_skipped = 0;
    if (!trace_tasks.empty()) {
        std::vector<align::SearchHit> slot_hits(slot_hit.size());
        for (const TraceTask &task : trace_tasks)
            for (std::size_t k = task.first; k < task.first + task.count;
                 ++k)
                slot_hits[k] = out[task.owner].hits[slot_hit[k]];
        std::vector<align::CigarAlignment> aln(slot_hit.size());
        std::vector<align::TracebackStats> task_stats(
            trace_tasks.size());
        std::vector<double> task_us(trace_tasks.size(), 0.0);
        std::vector<char> task_skipped(trace_tasks.size(), 0);
        std::vector<char> trace_skipped(trace_flags, 0);
        const auto flag = [&](std::size_t r, const TraceTask &task) {
            return trace_base[r] + task.first - slot_base[task.owner];
        };
        _pool.parallelFor(trace_tasks.size(), [&](std::size_t i) {
            const TraceTask &task = trace_tasks[i];
            const Group &grp = groups[group_of[task.owner]];
            bool live = false;
            for (const std::size_t r : grp.members) {
                if (list_owner[r] != task.owner)
                    continue;
                const bool expired = control.expired(r);
                trace_skipped[flag(r, task)] = expired ? 1 : 0;
                live = live || !expired;
            }
            if (!live) {
                task_skipped[i] = 1;
                return;
            }
            const WallClock::time_point t0 = WallClock::now();
            prepared[grp.prep]->traceback(db, &slot_hits[task.first],
                                          task.count, &aln[task.first],
                                          &task_stats[i]);
            task_us[i] = elapsedUs(t0, WallClock::now());
            _mTracebackUs->record(task_us[i]);
        });
        for (std::size_t i = 0; i < trace_tasks.size(); ++i) {
            const TraceTask &task = trace_tasks[i];
            if (task_skipped[i]) {
                tracebacks_skipped += task.count;
            } else {
                alignments_traced += task.count;
                traceback_cells += task_stats[i].totalCells;
            }
            bool timed = false;
            for (const std::size_t r :
                 groups[group_of[task.owner]].members) {
                if (list_owner[r] != task.owner)
                    continue;
                Response &resp = out[r];
                if (trace_skipped[flag(r, task)]) {
                    resp.tracebacksSkipped += task.count;
                    continue;
                }
                for (std::size_t k = task.first;
                     k < task.first + task.count; ++k)
                    resp.alignments[slot_hit[k]] = aln[k];
                resp.tracebackCells += task_stats[i].totalCells;
                if (!timed) {
                    resp.tracebackUs += task_us[i];
                    timed = true;
                }
            }
        }
    }

    _mCells->inc(cells);
    _mKarlinFills->inc(karlin_fills);
    _mShardsScanned->inc(shards_scanned);
    _mShardsSkipped->inc(shards_skipped);
    _mIndexProbes->inc(index_probes);
    _mIndexCandidates->inc(index_candidates);
    _mIndexFallbacks->inc(index_fallbacks);
    _mNativeScans->inc(native.scans);
    _mNativeRescans16->inc(native.rescans16);
    _mNativeRescansScalar->inc(native.rescansScalar);
    _mNativeInterseq->inc(native.interSequence);
    _mNativeStriped->inc(native.striped);
    _mTracebackCells->inc(traceback_cells);
    _mAlignments->inc(alignments_traced);
    _mTracebacksSkipped->inc(tracebacks_skipped);
    return out;
}

std::vector<Response>
Engine::serveBatch(const std::vector<Request> &requests,
                   const BatchControl &control,
                   std::uint64_t *epochOut)
{
    const std::size_t n = requests.size();
    std::vector<Response> out(n);

    // Phase 1: consult the cache under the currently published
    // epoch; hits are complete ranked answers by construction.
    const bool cached = _cache.enabled();
    const std::uint64_t epoch = epochNumber();
    if (epochOut != nullptr)
        *epochOut = epoch;
    std::vector<ResultCache::Key> keys(cached ? n : 0);
    std::vector<std::uint64_t> digests(cached ? n : 0);
    std::vector<std::size_t> misses;
    misses.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (!cached) {
            misses.push_back(i);
            continue;
        }
        const Request &req = requests[i];
        ResultCache::Key &key = keys[i];
        key.kind = static_cast<std::uint16_t>(req.kind);
        key.topK = req.topK != 0 ? req.topK : _cfg.topK;
        key.report = req.reportAlignments ? 1 : 0;
        key.epoch = epoch;
        key.query = req.query.residues();
        digests[i] = ResultCache::digest(key);
        const WallClock::time_point t0 = WallClock::now();
        const std::shared_ptr<const ResultCache::Result> hit =
            _cache.lookup(key, digests[i]);
        if (hit == nullptr) {
            misses.push_back(i);
            continue;
        }
        const double hit_us = elapsedUs(t0, WallClock::now());
        Response &resp = out[i];
        resp.id = req.id;
        resp.kind = req.kind;
        resp.hits = hit->hits;
        resp.alignments = hit->alignments;
        resp.cellsComputed = hit->cells;
        resp.tracebackCells = hit->tracebackCells;
        resp.sequencesSearched = hit->sequences;
        resp.residuesScanned = hit->residues;
        resp.serviceUs = hit_us;
        resp.fromCache = true;
        _mCacheHitUs->record(hit_us);
    }
    if (misses.empty())
        return out;

    // Phase 2: serve the misses as one batch, with their deadlines
    // remapped to the miss order (no copy when nothing hit).
    const bool all_miss = misses.size() == n;
    std::vector<Request> miss_requests;
    std::vector<double> miss_deadlines;
    BatchControl miss_control = control;
    if (!all_miss) {
        miss_requests.reserve(misses.size());
        for (const std::size_t slot : misses) {
            miss_requests.push_back(requests[slot]);
            if (control.deadlinesUs != nullptr)
                miss_deadlines.push_back(control.deadlinesUs[slot]);
        }
        if (control.deadlinesUs != nullptr)
            miss_control.deadlinesUs = miss_deadlines.data();
    }
    const WallClock::time_point t0 = WallClock::now();
    std::uint64_t served_epoch = 0;
    std::vector<Response> served = runBatch(
        all_miss ? requests.data() : miss_requests.data(),
        misses.size(), miss_control, &served_epoch);
    const double service = elapsedUs(t0, WallClock::now());
    if (epochOut != nullptr)
        *epochOut = served_epoch;

    // Phase 3: stitch in request order and populate the cache
    // under the epoch the batch actually ran against.
    // Deadline-truncated answers — including a partial traceback
    // phase — are never cached.
    for (std::size_t j = 0; j < misses.size(); ++j) {
        const std::size_t slot = misses[j];
        Response &resp = served[j];
        resp.serviceUs = service;
        if (cached && !resp.deadlineExpired()) {
            ResultCache::Key key = keys[slot];
            std::uint64_t dig = digests[slot];
            if (key.epoch != served_epoch) {
                key.epoch = served_epoch;
                dig = ResultCache::digest(key);
            }
            auto result = std::make_shared<ResultCache::Result>();
            result->hits = resp.hits;
            result->alignments = resp.alignments;
            result->cells = resp.cellsComputed;
            result->tracebackCells = resp.tracebackCells;
            result->sequences = resp.sequencesSearched;
            result->residues = resp.residuesScanned;
            _cache.insert(std::move(key), dig, std::move(result));
        }
        out[slot] = std::move(resp);
    }
    return out;
}

} // namespace bioarch::serve
