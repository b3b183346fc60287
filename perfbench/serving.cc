/**
 * @file
 * The three serving workloads: search_scan, search_report and
 * cache_reload.
 *
 * All three share one set-up: a Zipf-length database generated in
 * process, written with its seed index to a container, loaded back
 * with index::loadEpoch, and served by an engine (or a one-replica
 * ReplicaRouter with the result cache on) behind a ServeLoop that
 * the load generator drives with submit() + pumpOne() on its own
 * thread. Eight requests are outstanding at a time: the generator
 * submits one engine batch, pumps it, and only then submits the
 * next (a closed loop with one client holding eight requests).
 *
 * Memory is bounded by operation count, not by time: requests run
 * in rounds of a fixed size, each with a fresh registry, server and
 * loop, because ServeLoop keeps every LoopResult and obs histograms
 * keep every sample. A faster build then serves more rounds in the
 * same time without growing the peak resident set.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/traceback/cigar.hh"
#include "bench.hh"
#include "bio/random.hh"
#include "bio/scoring.hh"
#include "bio/synthetic.hh"
#include "index/container.hh"
#include "index/epoch.hh"
#include "index/seed_index.hh"
#include "obs/snapshot.hh"
#include "serve/engine.hh"
#include "serve/loop.hh"
#include "serve/router.hh"

namespace perfbench
{
namespace
{

using namespace bioarch;

/** Seeds of the two reference databases (container A and B). */
constexpr std::uint64_t dbSeeds[2] = {0xDBDBDBDB, 0xDBDBDBDC};
constexpr std::size_t batchSize = 8;
constexpr std::size_t numShards = 4;

/** The five-kind protein mix every serving workload draws from. */
constexpr kernels::Workload kinds[] = {
    kernels::Workload::Ssearch34, kernels::Workload::SwVmx128,
    kernels::Workload::SwVmx256, kernels::Workload::Fasta34,
    kernels::Workload::Blast};
constexpr std::size_t numKinds = std::size(kinds);

enum class Mode
{
    Scan,
    Report,
    CacheReload,
};

struct Params
{
    Mode mode = Mode::Scan;
    int dbSeqs = 1000;
    std::size_t topK = 10;
    /**
     * Requests per cycle: one deal of the key deck. A search deck
     * holds every key copiesPerKey times; the cache deck holds each
     * key as often as its Zipf share of 1024 requests, and a cycle
     * ends with a hot reload.
     */
    std::size_t cycleRequests = 220;
    std::size_t copiesPerKey = 4;
    /** Cycles per round (fresh registry, server and loop). */
    std::size_t cyclesPerRound = 1;
    int setupReps = 9;
};

/**
 * The cache_reload traffic. Neither figure is measured or taken from
 * a published query log; they are chosen so that most requests hit
 * (hit ratio 0.94, about 60 misses per reload on the 55 keys) while
 * every cycle still refills the whole key set after its reload. The
 * cache capacity (16 MiB) holds every key's answer, so nothing is
 * evicted and the capacity does not shape the hit ratio.
 */
constexpr std::size_t cacheCycleRequests = 1024;
constexpr double cacheZipfExponent = 1.2;

Params
paramsFor(const Options &o)
{
    Params p;
    if (o.workload == "search_report") {
        p.mode = Mode::Report;
        p.topK = 100;
        p.copiesPerKey = 2;
        p.cycleRequests = 110;
    } else if (o.workload == "cache_reload") {
        p.mode = Mode::CacheReload;
        p.cycleRequests = cacheCycleRequests;
        p.cyclesPerRound = 4;
    }
    if (o.smoke) {
        p.setupReps = 1;
        p.cycleRequests = 16;
        p.cyclesPerRound = p.mode == Mode::CacheReload ? 2 : 1;
    }
    return p;
}

/** A (kind, query) pair: what the result cache keys on. */
struct Key
{
    std::size_t kind = 0;
    std::size_t query = 0;
    std::size_t index() const { return query * numKinds + kind; }
};

serve::EngineConfig
engineConfig(const Params &p, obs::Registry *metrics)
{
    serve::EngineConfig cfg;
    cfg.jobs = hostJobs();
    cfg.shards = numShards;
    cfg.batch = batchSize;
    cfg.topK = p.topK;
    cfg.blast.neighborThreshold = 16; // the indexed route's T
    cfg.metrics = metrics;
    return cfg;
}

serve::Request
makeRequest(const Params &p, const std::vector<bio::Sequence> &queries,
            Key key, std::uint64_t id)
{
    serve::Request r;
    r.id = id;
    r.kind = kinds[key.kind];
    r.query = queries[key.query];
    r.reportAlignments = p.mode == Mode::Report;
    return r;
}

/**
 * The request batches of every cycle, dealt from a fixed multiset of
 * keys, so every run asks for the same work.
 *
 * A search deck is cut into batches once, by a fixed shuffle: every
 * run serves the same batches, and the seed decides their order and
 * the order within each. A batch's latency depends on its mix of
 * kinds and query lengths, so a partition drawn per seed would add
 * the luck of the draw to the latency quantiles. The cache deck is
 * shuffled afresh every cycle, since which request is the first for
 * its key after a reload is part of what that workload measures.
 */
class KeyDeck
{
  public:
    KeyDeck(const Params &p, std::size_t num_queries, std::uint64_t seed)
        : _rng(seed), _fixedBatches(p.mode != Mode::CacheReload)
    {
        const std::size_t n = num_queries * numKinds;
        std::vector<std::size_t> counts(n, p.copiesPerKey);
        if (p.mode == Mode::CacheReload) {
            // Popularity ranks are a fixed permutation of the keys;
            // each key appears its Zipf share of a cycle, at least
            // once, with the most popular absorbing the rounding.
            std::vector<std::size_t> rank(n);
            std::iota(rank.begin(), rank.end(), std::size_t{0});
            bio::Rng fixed(0xC0FFEE);
            for (std::size_t i = n; i > 1; --i)
                std::swap(rank[i - 1], rank[fixed.below(i)]);
            double norm = 0.0;
            for (std::size_t r = 0; r < n; ++r)
                norm += std::pow(static_cast<double>(r + 1),
                                 -cacheZipfExponent);
            std::size_t dealt = 0;
            for (std::size_t r = 1; r < n; ++r) {
                const double share = std::pow(static_cast<double>(r + 1),
                                              -cacheZipfExponent)
                    / norm;
                counts[rank[r]] = std::max<std::size_t>(
                    1, static_cast<std::size_t>(std::lround(
                           share * cacheCycleRequests)));
                dealt += counts[rank[r]];
            }
            counts[rank[0]] = cacheCycleRequests - dealt;
        }
        for (std::size_t k = 0; k < n; ++k)
            _deck.insert(_deck.end(), counts[k],
                         Key{k % numKinds, k / numKinds});
        if (_fixedBatches) {
            bio::Rng partition(0xBA7C4);
            shuffle(_deck, partition);
        }
    }

    /** One cycle: the deck's first @p n keys, in batches. */
    std::vector<std::vector<Key>>
    deal(std::size_t n)
    {
        if (!_fixedBatches)
            shuffle(_deck, _rng);
        n = std::min(n, _deck.size());
        std::vector<std::vector<Key>> out;
        for (std::size_t i = 0; i < n; i += batchSize)
            out.emplace_back(_deck.begin() + static_cast<std::ptrdiff_t>(i),
                             _deck.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(i + batchSize, n)));
        if (_fixedBatches) {
            shuffle(out, _rng);
            for (std::vector<Key> &batch : out)
                shuffle(batch, _rng);
        }
        return out;
    }

  private:
    template <typename T>
    static void
    shuffle(std::vector<T> &v, bio::Rng &rng)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.below(i)]);
    }

    bio::Rng _rng;
    bool _fixedBatches;
    std::vector<Key> _deck;
};

/** The server one round (or the set-up's warm-up pass) drives. */
struct Server
{
    std::unique_ptr<obs::Registry> metrics;
    std::unique_ptr<serve::Engine> engine;
    std::unique_ptr<serve::ReplicaRouter> router;

    serve::BatchServer &
    batchServer()
    {
        if (router)
            return *router;
        return *engine;
    }
};

Server
makeServer(const Params &p,
           const std::shared_ptr<const index::DbEpoch> &epoch)
{
    Server s;
    s.metrics = std::make_unique<obs::Registry>();
    serve::EngineConfig cfg = engineConfig(p, s.metrics.get());
    if (p.mode == Mode::CacheReload) {
        serve::RouterConfig rcfg;
        rcfg.replicas = 1;
        rcfg.engine = cfg;
        rcfg.cache.capacityBytes = 16u << 20;
        s.router = std::make_unique<serve::ReplicaRouter>(epoch, rcfg);
    } else {
        cfg.seedIndex = &*epoch->index;
        s.engine = std::make_unique<serve::Engine>(epoch->db, cfg);
    }
    return s;
}

/** What set-up leaves for the measured rounds. */
struct Setup
{
    std::vector<bio::Sequence> queries;
    /** The generated databases, for the reference answers. */
    std::vector<bio::SequenceDatabase> dbs;
    std::vector<std::string> paths;
    std::shared_ptr<const index::DbEpoch> epoch;
    std::size_t epochDb = 0;
    std::uint64_t nextEpoch = 1;
};

/** index::loadEpoch in a span; adds its duration to @p total_us. */
std::shared_ptr<const index::DbEpoch>
timedLoad(Tracer &tracer, const std::string &path,
          std::uint64_t epoch, std::int64_t parent, double &total_us)
{
    const double t0 = tracer.nowUs();
    auto out = index::loadEpoch(path, epoch);
    const double t1 = tracer.nowUs();
    tracer.record("index.loadEpoch", t0, t1, parent);
    total_us += t1 - t0;
    return out;
}

/**
 * One user-paid set-up: generate the database(s), write each with
 * its seed index to a container, load the first back, build the
 * server, and serve every key once untimed (twice with the cache,
 * so the hit path is warm too).
 */
Setup
runSetup(const Params &p, const Options &o, Tracer &tracer)
{
    const std::int64_t span = tracer.open("setup");
    Setup s;
    s.queries = bio::makeQuerySet();
    const std::size_t num_dbs = p.mode == Mode::CacheReload ? 2 : 1;
    for (std::size_t d = 0; d < num_dbs; ++d) {
        const std::int64_t gen = tracer.open("bio.makeDatabase", span);
        bio::SequenceDatabase db =
            bio::makeZipfDatabase(p.dbSeqs, dbSeeds[d]);
        const index::SeedIndex idx = index::SeedIndex::build(db);
        tracer.close(gen);
        const std::string path = (std::filesystem::path(o.workDir)
                                  / ("db" + std::to_string(d) + ".bdb"))
                                     .string();
        const std::int64_t write =
            tracer.open("index.writeDatabaseFile", span);
        index::writeDatabaseFile(path, db, &idx);
        tracer.close(write);
        s.dbs.push_back(std::move(db));
        s.paths.push_back(path);
    }
    double load_us = 0.0;
    s.epoch = timedLoad(tracer, s.paths[0], s.nextEpoch++, span, load_us);

    const std::int64_t build = tracer.open("serve.build", span);
    Server server = makeServer(p, s.epoch);
    tracer.close(build);

    const std::int64_t warm = tracer.open("warmup", span);
    serve::ServeLoop loop(server.batchServer(), {}, &tracer.clock());
    const int passes = p.mode == Mode::CacheReload ? 2 : 1;
    std::uint64_t id = 0;
    for (int pass = 0; pass < passes; ++pass) {
        for (std::size_t k = 0; k < s.queries.size() * numKinds; ++k) {
            const Key key{k % numKinds, k / numKinds};
            (void)loop.submit(makeRequest(p, s.queries, key, id++));
            if (id % batchSize == 0)
                loop.pumpOne();
        }
        loop.pumpAll();
    }
    tracer.close(warm);
    tracer.close(span);
    return s;
}

using HitTable = std::vector<std::vector<align::SearchHit>>;

/**
 * Reference answers for every key on every database: one batch
 * through an engine with a single shard and no seed index, so the
 * shard split, batch composition and indexed BLAST route under test
 * are all cross-checked against a plain full scan.
 */
std::vector<HitTable>
referenceAnswers(const Params &p, const Setup &s)
{
    std::vector<HitTable> out;
    for (const bio::SequenceDatabase &db : s.dbs) {
        serve::EngineConfig cfg = engineConfig(p, nullptr);
        cfg.shards = 1;
        serve::Engine engine(db, cfg);
        std::vector<serve::Request> requests;
        for (std::size_t k = 0; k < s.queries.size() * numKinds; ++k) {
            serve::Request r = makeRequest(
                p, s.queries, Key{k % numKinds, k / numKinds}, k);
            r.reportAlignments = false;
            requests.push_back(std::move(r));
        }
        HitTable table;
        for (serve::Response &r : engine.serveBatch(requests))
            table.push_back(std::move(r.hits));
        out.push_back(std::move(table));
    }
    return out;
}

bool
sameHits(const std::vector<align::SearchHit> &a,
         const std::vector<align::SearchHit> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].dbIndex != b[i].dbIndex || a[i].score != b[i].score
            || a[i].bitScore != b[i].bitScore
            || a[i].evalue != b[i].evalue)
            return false;
    return true;
}

/** Every CIGAR replays to its own score through cigarScore(). */
bool
alignmentsReplay(const serve::Response &r, const bio::Sequence &query,
                 const bio::SequenceDatabase &db,
                 const bio::GapPenalties &gaps)
{
    if (r.alignments.size() != r.hits.size())
        return false;
    for (std::size_t h = 0; h < r.hits.size(); ++h) {
        const align::CigarAlignment &aln = r.alignments[h];
        if (aln.empty())
            continue; // sub-threshold gapped stage: nothing to show
        if (align::cigarScore(aln, query, db[r.hits[h].dbIndex],
                              bio::blosum62(), gaps)
            != aln.score)
            return false;
        if (r.kind != kernels::Workload::Fasta34
            && aln.score != r.hits[h].score)
            return false;
    }
    return true;
}

/** Per-request bookkeeping the generator keeps for checking. */
struct Sent
{
    Key key;
    std::size_t db = 0;
    /** First request for its key since the cache went cold. */
    bool firstSinceCold = false;
    /** Sent in a cycle that began with a hot reload. */
    bool afterReload = false;
    /** The round's batch the request went in. */
    std::size_t batch = 0;
    std::int64_t batchSpan = -1;
};

/** Everything the run accumulates across rounds. */
struct Totals
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double measuredUs = 0.0;
    /**
     * The current round's latency samples, one per batch: the mean
     * over its requests. The 8 requests of a batch share one
     * completion, so the batch is the independent sample.
     */
    std::vector<double> batchLatencyMs;
    /** Per round: measured us per request, and whether traced. */
    std::vector<std::pair<double, bool>> roundUsPerRequest;
    /** Per untraced round: served requests per second, the batch
     * latencies, and the host's steal rate (ticks per second). */
    std::vector<double> roundQps;
    std::vector<std::vector<double>> roundBatchMs;
    std::vector<double> roundSteal;

    // Per-request samples, kept in traced rounds only so that an
    // untraced run's memory does not grow with requests served.
    /** Latency minus the server time of the request's batch. */
    std::vector<double> overheadUs;
    std::vector<double> cacheHitUs;
    double engineUs = 0.0;          ///< sum of batch serviceUs
    double submitUs = 0.0;          ///< sum of submit() calls
    double reloadUs = 0.0;          ///< sum of loadEpoch + reload()
    double generatorBatchUs = 0.0;  ///< sum of generator batch walls
    double scanUs = 0.0;
    double tracebackUs = 0.0;
    double liveRequests = 0.0;
    double cells = 0.0;
    double tracebackCells = 0.0;
    double alignments = 0.0;
    double blastResidues = 0.0;
    double dbResidues = 0.0;

    // Registry counters summed over rounds.
    double nativeScans = 0.0;
    double nativeRescans = 0.0;
    double indexProbes = 0.0;
    double indexFallbacks = 0.0;
    double dedupSaved = 0.0;
    double engineRequests = 0.0;
    double engineBatches = 0.0;
    double poolTasks = 0.0;
    double poolSteals = 0.0;
    double cacheHits = 0.0;
    double cacheMisses = 0.0;
    double shedOrExpired = 0.0;
    double snapshotBytes = 0.0;
    double retained = 0.0;

    double reloads = 0.0;
    /** Answers not from the cache in cycles that began with a reload. */
    double reloadMisses = 0.0;
};

double
counterSum(const obs::Registry &m, const std::string &name)
{
    double total = 0.0;
    for (const obs::MetricSnapshot &s : m.snapshot())
        if (s.name == name)
            total += s.value;
    return total;
}

void
harvestRegistry(Server &server, Totals &t, bool traced, Tracer &tracer,
                std::int64_t round_span)
{
    serve::BatchServer &bs = server.batchServer();
    bs.refreshPoolMetrics();
    const obs::Registry &m = *server.metrics;
    t.nativeScans += counterSum(m, "native_scans_total");
    t.nativeRescans += counterSum(m, "native_rescans16_total")
        + counterSum(m, "native_rescans_scalar_total");
    t.indexProbes += counterSum(m, "index_probe_total");
    t.indexFallbacks += counterSum(m, "index_fallback_scan_total");
    t.dedupSaved += counterSum(m, "serve_dedup_saved_total");
    t.engineRequests += counterSum(m, "serve_requests_total");
    t.engineBatches += counterSum(m, "serve_batches_total");
    t.poolTasks += counterSum(m, "pool_tasks_total");
    t.poolSteals += counterSum(m, "pool_steals_total");
    t.cacheHits += counterSum(m, "serve_cache_hits_total");
    t.cacheMisses += counterSum(m, "serve_cache_misses_total");
    for (const char *name :
         {"loop_shed_queue_full_total", "loop_shed_deadline_total",
          "loop_shed_quota_total", "loop_shed_shutdown_total",
          "loop_deadline_expired_total", "loop_dropped_total"})
        t.shedOrExpired += counterSum(m, name);
    if (server.router && traced) {
        const std::vector<double> hit_us =
            server.metrics->histogram("serve_cache_hit_us").samples();
        t.cacheHitUs.insert(t.cacheHitUs.end(), hit_us.begin(),
                            hit_us.end());
    }
    if (traced) {
        const std::int64_t span = tracer.open("obs.toJson", round_span);
        const std::string json = obs::toJson(m);
        tracer.close(span);
        t.snapshotBytes =
            std::max(t.snapshotBytes, static_cast<double>(json.size()));
    }
}

/** Check and account one round's results, in ticket order. */
void
settleRound(const Params &p, const Setup &s,
            const std::vector<HitTable> &reference,
            const std::vector<serve::LoopResult> &results,
            const std::vector<Sent> &sent, Totals &t, Tracer &tracer)
{
    const bio::GapPenalties gaps = engineConfig(p, nullptr).gaps;
    std::vector<double> latency_ms(sent.size(), -1.0);
    t.retained =
        std::max(t.retained, static_cast<double>(results.size()));
    for (std::size_t i = 0; i < sent.size(); ++i) {
        ++t.attempted;
        if (i >= results.size()) {
            ++t.failed;
            continue;
        }
        const serve::LoopResult &lr = results[i];
        const serve::Response &r = lr.response;
        const Sent &meta = sent[i];
        bool ok = lr.status == serve::LoopStatus::Served;
        ok = ok && sameHits(r.hits, reference[meta.db][meta.key.index()]);
        if (ok && meta.firstSinceCold)
            ok = !r.fromCache;
        if (ok && p.mode == Mode::Report) {
            try {
                ok = alignmentsReplay(r, s.queries[meta.key.query],
                                      s.dbs[meta.db], gaps);
            } catch (const std::exception &) {
                ok = false;
            }
        }
        if (!ok) {
            ++t.failed;
            continue;
        }
        latency_ms[i] = lr.latencyUs() / 1000.0;
        tracer.record("serve.request", lr.arrivalUs, lr.doneUs,
                      meta.batchSpan, lr.id);
        t.scanUs += r.scanUs;
        t.tracebackUs += r.tracebackUs;
        if (r.fromCache)
            continue;
        if (meta.afterReload)
            t.reloadMisses += 1.0;
        t.liveRequests += 1.0;
        t.cells += static_cast<double>(r.cellsComputed);
        t.tracebackCells += static_cast<double>(r.tracebackCells);
        t.alignments += static_cast<double>(r.alignments.size());
        if (r.kind == kernels::Workload::Blast) {
            t.blastResidues += static_cast<double>(r.residuesScanned);
            t.dbResidues +=
                static_cast<double>(s.dbs[meta.db].totalResidues());
        }
    }

    // The requests of a batch share one dispatch. The engine's time
    // is its own serveBatch wall; behind the router, that of the miss
    // chunk plus the cache lookups, which run one after another.
    const std::size_t settled = std::min(results.size(), sent.size());
    for (std::size_t first = 0, last = 0; first < settled; first = last) {
        last = first + 1;
        while (last < settled && sent[last].batch == sent[first].batch)
            ++last;
        double engine_us = 0.0;
        double lookup_us = 0.0;
        double latency_sum = 0.0;
        double served = 0.0;
        for (std::size_t i = first; i < last; ++i) {
            if (latency_ms[i] >= 0.0) {
                latency_sum += latency_ms[i];
                served += 1.0;
            }
            const serve::Response &r = results[i].response;
            if (r.fromCache)
                lookup_us += r.serviceUs;
            else
                engine_us = std::max(engine_us, r.serviceUs);
        }
        if (served > 0.0)
            t.batchLatencyMs.push_back(latency_sum / served);
        const serve::LoopResult &lr = results[first];
        t.engineUs += engine_us + lookup_us;
        if (tracer.enabled())
            for (std::size_t i = first; i < last; ++i)
                if (latency_ms[i] >= 0.0)
                    t.overheadUs.push_back(results[i].latencyUs()
                                           - engine_us - lookup_us);
        const std::int64_t dispatch =
            tracer.record("serve.loop.dispatch", lr.dispatchUs,
                          lr.doneUs, sent[first].batchSpan, lr.id);
        // The engine's span starts at dispatch, as close as the loop
        // stamps it.
        tracer.record("serve.engine.batch", lr.dispatchUs,
                      lr.dispatchUs + engine_us + lookup_us, dispatch,
                      lr.id);
    }
}

} // namespace

Outcome
runServing(const Options &o)
{
    const Params p = paramsFor(o);
    Tracer tracer;
    tracer.setEnabled(o.trace);
    Totals t;

    // Set-up, several times; the last one is kept. The previous one
    // is freed first, so set-ups do not stack up in memory.
    std::vector<double> setup_s;
    std::vector<double> setup_steal;
    Setup s;
    for (int rep = 0; rep < p.setupReps; ++rep) {
        s = Setup{};
        const double steal0 = stealTicks();
        const double t0 = tracer.nowUs();
        s = runSetup(p, o, tracer);
        setup_s.push_back((tracer.nowUs() - t0) / 1e6);
        setup_steal.push_back(
            ratio(stealTicks() - steal0, setup_s.back()));
    }
    const std::vector<HitTable> reference = referenceAnswers(p, s);

    KeyDeck deck(p, s.queries.size(), mixSeed(o.seed, 1));
    std::uint64_t next_id = 0;
    // Whole rounds only, so every run has the same request pattern;
    // the traced run needs one untraced and one traced round.
    for (std::size_t round_no = 0;
         t.measuredUs / 1e6 < o.seconds || (o.trace && round_no < 2);
         ++round_no) {
        // The traced run alternates untraced and traced rounds; the
        // difference between them is the tracing overhead.
        const bool traced = o.trace && round_no % 2 == 1;
        tracer.setEnabled(traced);
        const std::int64_t round_span = tracer.open("round");
        // No warm-up batch: the set-up's warm-up pass already paid the
        // process's first-pass cost, and an untimed batch on the round's
        // fresh engine did not clearly speed up the round's first timed
        // one (README, "Warm-up inside set-up").
        Server server = makeServer(p, s.epoch);
        serve::ServeLoop loop(server.batchServer(), {}, &tracer.clock());
        std::vector<Sent> sent;
        sent.reserve(p.cycleRequests * p.cyclesPerRound);
        double round_us = 0.0;
        const double steal0 = stealTicks();
        const double wall0 = tracer.nowUs();
        std::size_t batch_no = 0;
        for (std::size_t c = 0; c < p.cyclesPerRound; ++c) {
            const std::vector<std::vector<Key>> batches =
                deck.deal(p.cycleRequests);
            std::vector<char> seen(s.queries.size() * numKinds, 0);
            for (std::size_t b = 0; b < batches.size(); ++b, ++batch_no) {
                // The generator builds its requests before it starts
                // the batch clock.
                std::vector<serve::Request> batch;
                for (const Key key : batches[b]) {
                    sent.push_back(Sent{key, s.epochDb, !seen[key.index()],
                                        c > 0, batch_no, -1});
                    seen[key.index()] = 1;
                    batch.push_back(
                        makeRequest(p, s.queries, key, next_id++));
                }
                const double t0 = tracer.nowUs();
                const std::int64_t batch_span =
                    tracer.open("serve.batch", round_span);
                for (serve::Request &r : batch) {
                    const std::uint64_t id = r.id;
                    const double s0 = tracer.nowUs();
                    (void)loop.submit(std::move(r));
                    const double s1 = tracer.nowUs();
                    t.submitUs += s1 - s0;
                    tracer.record("serve.loop.submit", s0, s1,
                                  batch_span, id);
                }
                for (std::size_t i = sent.size() - batch.size();
                     i < sent.size(); ++i)
                    sent[i].batchSpan = batch_span;
                // A hot reload lands while this batch is queued, so
                // its requests wait for the container load and the
                // swap, as readers wait for a writer.
                if (c > 0 && b == 0) {
                    const std::size_t d = (s.epochDb + 1) % s.paths.size();
                    auto epoch = timedLoad(tracer, s.paths[d],
                                           s.nextEpoch++, batch_span,
                                           t.reloadUs);
                    const double r0 = tracer.nowUs();
                    server.router->reload(epoch);
                    const double r1 = tracer.nowUs();
                    tracer.record("serve.reload", r0, r1, batch_span);
                    t.reloadUs += r1 - r0;
                    t.reloads += 1.0;
                    s.epoch = std::move(epoch);
                    s.epochDb = d;
                    for (std::size_t i = sent.size() - batch.size();
                         i < sent.size(); ++i)
                        sent[i].db = d;
                }
                const double p0 = tracer.nowUs();
                loop.pumpOne();
                const double p1 = tracer.nowUs();
                tracer.record("serve.loop.pumpOne", p0, p1, batch_span);
                tracer.close(batch_span);
                t.generatorBatchUs += p1 - t0;
                round_us += p1 - t0;
            }
        }
        const double steal_rate =
            ratio(stealTicks() - steal0, (tracer.nowUs() - wall0) / 1e6);
        t.measuredUs += round_us;
        const std::uint64_t failed_before = t.failed;
        t.batchLatencyMs.clear();
        settleRound(p, s, reference, loop.results(), sent, t, tracer);
        harvestRegistry(server, t, traced, tracer, round_span);
        tracer.close(round_span);
        t.roundUsPerRequest.emplace_back(
            round_us / static_cast<double>(sent.size()), traced);
        if (!traced) {
            const double served =
                static_cast<double>(sent.size() - (t.failed - failed_before));
            t.roundQps.push_back(ratio(served, round_us / 1e6));
            t.roundBatchMs.push_back(std::move(t.batchLatencyMs));
            t.roundSteal.push_back(steal_rate);
        }
    }

    if (o.trace && !o.spansPath.empty() && !tracer.write(o.spansPath))
        throw std::runtime_error("cannot write " + o.spansPath);

    Outcome out;
    out.attempted = t.attempted;
    out.failed = t.failed;
    out.correct = t.failed == 0 && t.shedOrExpired == 0.0;
    Metrics &m = out.metrics;
    if (!o.trace) {
        // Only the quieter half of the rounds (and set-ups) counts:
        // time the hypervisor takes from the CPUs measures the host,
        // not the program (README, "How a run stays steady").
        std::vector<double> batch_ms;
        for (const std::size_t r : quietRounds(t.roundSteal))
            batch_ms.insert(batch_ms.end(), t.roundBatchMs[r].begin(),
                            t.roundBatchMs[r].end());
        setEndToEnd(m, quietMedian(setup_s, setup_steal),
                    quietMedian(t.roundQps, t.roundSteal),
                    quantile(batch_ms, 0.5), quantile(batch_ms, 0.9));
        return out;
    }

    const double jobs = static_cast<double>(hostJobs());
    m.set("align.scan_gcups", ratio(t.cells, t.scanUs) / 1000.0);
    m.set("align.scan_cells_per_request",
          ratio(t.cells, t.liveRequests));
    m.set("align.native_rescan_ratio",
          ratio(t.nativeRescans, t.nativeScans));
    m.set("align.traceback_mcells_per_s",
          ratio(t.tracebackCells, t.tracebackUs));
    m.set("align.traceback_cells_per_alignment",
          ratio(t.tracebackCells, t.alignments));
    m.set("index.candidate_fraction",
          ratio(t.blastResidues, t.dbResidues));
    m.set("index.fallback_ratio",
          ratio(t.indexFallbacks, t.indexProbes));
    std::vector<double> load_ms;
    for (const double us : tracer.durationsUs("index.loadEpoch"))
        load_ms.push_back(us / 1000.0);
    m.set("index.load_ms", median(load_ms));

    std::vector<double> service_ms;
    for (const double us : tracer.durationsUs("serve.loop.dispatch"))
        service_ms.push_back(us / 1000.0);
    m.set("serve.engine.service_ms_p50", quantile(service_ms, 0.5));
    m.set("serve.engine.service_ms_p90", quantile(service_ms, 0.9));
    const double capacity = jobs * t.engineUs;
    const double scan_share = ratio(t.scanUs, capacity);
    const double traceback_share = ratio(t.tracebackUs, capacity);
    m.set("serve.engine.scan_busy_share", scan_share);
    m.set("serve.engine.traceback_busy_share", traceback_share);
    // Not timed on its own: the residual is prepare, probe, merge and
    // idle stragglers.
    m.set("serve.engine.other_share",
          capacity > 0.0 ? 1.0 - scan_share - traceback_share : 0.0);
    m.set("serve.engine.dedup_saved",
          ratio(t.dedupSaved, t.engineRequests));
    m.set("core.pool.tasks", ratio(t.poolTasks, t.engineBatches));
    m.set("core.pool.steals_per_task", ratio(t.poolSteals, t.poolTasks));
    m.set("serve.loop.overhead_us_p50", median(t.overheadUs));
    m.set("serve.loop.retained_results", t.retained);
    m.set("serve.loop.shed_or_expired", t.shedOrExpired);
    m.set("serve.cache.hit_ratio",
          ratio(t.cacheHits, t.cacheHits + t.cacheMisses));
    m.set("serve.cache.hit_us_p50", median(t.cacheHitUs));
    m.set("serve.cache.misses_per_reload",
          ratio(t.reloadMisses, t.reloads));
    std::vector<double> swap_ms;
    for (const double us : tracer.durationsUs("serve.reload"))
        swap_ms.push_back(us / 1000.0);
    m.set("serve.reload.swap_ms", median(swap_ms));
    m.set("obs.snapshot_bytes", t.snapshotBytes);
    // Of the generator's batch wall, the share its timed children
    // account for: submit() calls, hot reloads, and the engine's own
    // batch timer. The rest is loop and router bookkeeping.
    m.set("serve.batch_accounted_share",
          ratio(t.submitUs + t.reloadUs + t.engineUs, t.generatorBatchUs));

    m.set("obs.tracing_overhead_pct",
          tracingOverheadPct(t.roundUsPerRequest));
    return out;
}

} // namespace perfbench
