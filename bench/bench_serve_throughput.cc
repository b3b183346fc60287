/**
 * @file
 * Throughput/latency harness for the batched query-serving engine
 * (src/serve): replays a deterministic 64-request stream of all
 * five applications against a synthetic SwissProt stand-in and
 * reports requests/sec plus the p50/p95/p99 latency distribution.
 * Ends with the standard JSON footer (bench_common.hh) so archived
 * BENCH_*.json files track the serving-path perf trajectory
 * alongside the simulation sweeps.
 *
 * The stream is replayed through the engine on the native SIMD
 * backend for a few rounds (best wall time kept), so the footer
 * tracks scan GCUPS alongside absolute throughput.
 *
 * A hot-reload segment swaps a second database epoch into a
 * seed-indexed Engine halfway through a ServeLoop's submissions
 * (hot_reload_ok: the loop's books balance and the new epoch is
 * published). Two fleet segments ride the main stream: a cache
 * cold/hot A/B through the ReplicaRouter cache front (both passes
 * bit-identical to the serial engine, pass 2 answered entirely
 * from the sharded LRU, cache_hit_p99_us in the footer), and a
 * three-tenant overload run on a ManualClock whose per-tenant
 * counters must satisfy served + shed + deadline_expired + dropped
 * == offered.
 *
 * The two-phase reporting segment replays the stream score-only
 * and with CIGAR reporting against the reference Zipf database;
 * the ranked hits must be bit-identical (reporting runs strictly
 * after the merge) and the footer's report_overhead_pct is the
 * end-to-end cost of the traceback phase.
 *
 * Knobs: BIOARCH_JOBS (worker threads), BIOARCH_DB_SEQS (database
 * size, default 200 here), BIOARCH_SIMD_BACKEND (native backend
 * selection).
 */

#include <chrono>
#include <cstdlib>
#include <limits>

#include "bench_common.hh"
#include "bio/synthetic.hh"
#include "index/epoch.hh"
#include "index/seed_index.hh"
#include "obs/metrics.hh"
#include "serve/clock.hh"
#include "serve/engine.hh"
#include "serve/loop.hh"
#include "serve/router.hh"

using namespace bioarch;

namespace
{

int
envInt(const char *name, int fallback)
{
    if (const char *env = std::getenv(name)) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    return fallback;
}

} // namespace

int
main()
{
    const int db_seqs = envInt("BIOARCH_DB_SEQS", 200);

    serve::StreamSpec stream;
    stream.requests = 64;
    constexpr int rounds = 3;

    serve::EngineConfig cfg;
    cfg.jobs = bench::jobs();
    cfg.shards = 4;
    cfg.batch = 8;
    cfg.topK = 10;

    const std::vector<bio::Sequence> pool = bio::makeQuerySet();
    const bio::SequenceDatabase db =
        bio::makeDefaultDatabase(db_seqs);
    const std::vector<serve::Request> requests =
        serve::makeRequestStream(stream, pool);

    std::cout << "# bench_serve_throughput - batched sharded "
                 "query serving\n"
              << "# stream: " << requests.size()
              << " requests (five-application mix) vs "
              << db.size() << " sequences / " << db.totalResidues()
              << " residues (BIOARCH_DB_SEQS to scale)\n"
              << "# backend: "
              << align::backendName(cfg.backend)
              << " (best of " << rounds << " rounds)\n";

    serve::Engine engine(db, cfg);

    serve::StreamReport report;
    for (int r = 0; r < rounds; ++r) {
        serve::StreamReport nr = engine.serveStream(requests);
        if (r == 0 || nr.wallMs < report.wallMs)
            report = std::move(nr);
    }
    const serve::LatencySummary lat = report.latency.summary();

    // Online-serving segment: push the whole stream through the
    // ServeLoop at once against a queue bound of half the stream,
    // so admission control sheds a deterministic 32 of 64 and the
    // pumped half leaves real queue-wait samples in
    // serve_queue_wait_us.
    serve::LoopConfig lcfg;
    lcfg.queueCapacity = requests.size() / 2;
    serve::ServeLoop loop(engine, lcfg);
    for (const serve::Request &r : requests)
        (void)loop.submit(r);
    loop.pumpAll();
    const std::uint64_t shed_count = engine.metrics().counterValue(
        "loop_shed_queue_full_total");
    const double queue_wait_p99_ms =
        engine.metrics()
            .histogram("serve_queue_wait_us")
            .summary()
            .p99
        / 1000.0;

    // Indexed-serving segment: a BLAST-only stream at the indexed
    // tier's reference configuration (Zipf-length database,
    // neighborhood threshold T=16), replayed through a full-scan
    // engine and a seed-indexed engine in interleaved rounds. The
    // ranked hits are bit-identical by construction (asserted by
    // tests/index_test.cc); here we track the end-to-end speedup
    // and the scanned-residue fraction. BIOARCH_INDEX_DB_SEQS
    // scales the segment's database independently of the main
    // stream's.
    const int index_db_seqs = envInt("BIOARCH_INDEX_DB_SEQS", 2000);
    const bio::SequenceDatabase zdb =
        bio::makeZipfDatabase(index_db_seqs);
    serve::StreamSpec blast_stream;
    blast_stream.requests = 32;
    blast_stream.kinds = {kernels::Workload::Blast};
    const std::vector<serve::Request> blast_requests =
        serve::makeRequestStream(blast_stream, pool);
    const index::SeedIndex seed_index =
        index::SeedIndex::build(zdb);
    serve::EngineConfig iful_cfg = cfg;
    iful_cfg.blast.neighborThreshold = 16;
    serve::EngineConfig iidx_cfg = iful_cfg;
    iidx_cfg.seedIndex = &seed_index;
    serve::Engine iful_engine(zdb, iful_cfg);
    serve::Engine iidx_engine(zdb, iidx_cfg);
    double iful_ms = std::numeric_limits<double>::infinity();
    double iidx_ms = std::numeric_limits<double>::infinity();
    std::uint64_t iful_residues = 0;
    std::uint64_t iidx_residues = 0;
    for (int r = 0; r < rounds; ++r) {
        const serve::StreamReport fr =
            iful_engine.serveStream(blast_requests);
        iful_ms = std::min(iful_ms, fr.wallMs);
        const serve::StreamReport ir =
            iidx_engine.serveStream(blast_requests);
        iidx_ms = std::min(iidx_ms, ir.wallMs);
        if (r == 0)
            for (std::size_t i = 0; i < blast_requests.size();
                 ++i) {
                iful_residues += fr.responses[i].residuesScanned;
                iidx_residues += ir.responses[i].residuesScanned;
            }
    }
    const double indexed_speedup = iful_ms / iidx_ms;
    const double indexed_residue_fraction = iful_residues == 0
        ? 0.0
        : static_cast<double>(iidx_residues)
            / static_cast<double>(iful_residues);

    // Hot-reload identity segment: push the BLAST stream through a
    // ServeLoop fronting an epoch Engine and swap in a second
    // database epoch halfway through the submissions. The loop's
    // books must still balance afterwards — every offered request
    // ends in exactly one terminal state — and the published epoch
    // must be the new one.
    serve::Engine rengine(
        index::makeEpoch(zdb, /*build_index=*/true, 1), iidx_cfg);
    serve::LoopConfig rlcfg;
    rlcfg.queueCapacity = blast_requests.size();
    serve::ServeLoop rloop(rengine, rlcfg);
    const bio::SequenceDatabase reload_db =
        bio::makeZipfDatabase(index_db_seqs, 0xDBDBDBDC);
    for (std::size_t i = 0; i < blast_requests.size(); ++i) {
        if (i == blast_requests.size() / 2)
            rengine.reload(index::makeEpoch(
                reload_db, /*build_index=*/true, 2));
        (void)rloop.submit(blast_requests[i]);
    }
    rloop.pumpAll();
    const obs::Registry &rm = rengine.metrics();
    const std::uint64_t r_offered =
        rm.counterValue("loop_offered_total");
    const std::uint64_t r_settled =
        rm.counterValue("loop_served_total")
        + rm.counterValue("loop_shed_queue_full_total")
        + rm.counterValue("loop_shed_deadline_total")
        + rm.counterValue("loop_shed_shutdown_total")
        + rm.counterValue("loop_deadline_expired_total")
        + rm.counterValue("loop_dropped_total");
    const bool hot_reload_ok = r_offered != 0
        && r_settled == r_offered
        && rengine.epochNumber() == 2
        && rm.gaugeValue("db_epoch") == 2.0;
    if (!hot_reload_ok)
        std::cerr << "FAIL: hot-reload identity (offered "
                  << r_offered << ", settled " << r_settled
                  << ", epoch " << rengine.epochNumber() << ")\n";

    // Fleet segments. Both reuse the main stream and database.
    const auto wall_ms_of = [](const auto &fn) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    const auto same_hits = [](const std::vector<serve::Response> &a,
                              const std::vector<serve::Response> &b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i].hits.size() != b[i].hits.size())
                return false;
            for (std::size_t h = 0; h < a[i].hits.size(); ++h) {
                const align::SearchHit &x = a[i].hits[h];
                const align::SearchHit &y = b[i].hits[h];
                if (x.dbIndex != y.dbIndex || x.score != y.score
                    || x.bitScore != y.bitScore
                    || x.evalue != y.evalue)
                    return false;
            }
        }
        return true;
    };

    // (a) Cache cold/hot A/B: one cached router, same stream
    // twice. The cold pass must match the serial engine, and pass
    // 2 is answered entirely from the sharded LRU and must be
    // bit-identical to the cold pass.
    serve::RouterConfig ccfg;
    ccfg.engine = cfg;
    ccfg.cache.capacityBytes = 16u << 20;
    serve::ReplicaRouter crouter(index::makeEpoch(db, false, 1),
                                 ccfg);
    std::vector<serve::Response> cold_out;
    std::vector<serve::Response> hot_out;
    const double cache_cold_ms = wall_ms_of(
        [&] { cold_out = crouter.serveBatch(requests, {}); });
    const double cache_hot_ms = wall_ms_of(
        [&] { hot_out = crouter.serveBatch(requests, {}); });
    obs::Registry &cm = crouter.metrics();
    const std::uint64_t cache_hits =
        cm.counterValue("serve_cache_hits_total");
    const double cache_hit_p99_us =
        cm.histogram("serve_cache_hit_us").summary().p99;
    const double cache_speedup = cache_hot_ms <= 0.0
        ? 0.0
        : cache_cold_ms / cache_hot_ms;
    std::size_t hot_from_cache = 0;
    for (const serve::Response &r : hot_out)
        if (r.fromCache)
            ++hot_from_cache;
    const bool fleet_identity_ok =
        same_hits(cold_out, report.responses)
        && same_hits(hot_out, cold_out)
        && hot_from_cache == hot_out.size()
        && cache_hits >= hot_out.size();
    if (!fleet_identity_ok)
        std::cerr << "FAIL: fleet identity (cache hits diverge "
                     "from the serial engine)\n";

    // (b) Multi-tenant identity under overload: three tenants on a
    // ManualClock, tenant 0 offering 4x its quota. Every offered
    // request must settle in exactly one per-tenant terminal
    // state.
    serve::ManualClock tclock;
    serve::LoopConfig tcfg;
    tcfg.queueCapacity = 24;
    tcfg.batch = 8;
    tcfg.tenants = {{0, 50.0, 4.0, 3.0},
                    {1, 200.0, 8.0, 1.0},
                    {2, 200.0, 8.0, 1.0}};
    // Fresh engine: the open-loop segment above already billed the
    // default tenant 0 in `engine`'s registry.
    serve::Engine tenant_engine(db, cfg);
    serve::ServeLoop tloop(tenant_engine, tcfg, &tclock);
    std::uint64_t offered_per_tenant[3] = {0, 0, 0};
    for (std::uint64_t i = 0; i < 96; ++i) {
        tclock.set(static_cast<double>(i) * 2500.0); // 400 qps
        serve::Request r = requests[i % requests.size()];
        // Tenant 0 offers 2 of every 4 arrivals = 200 qps against
        // a 50 qps quota; tenants 1-2 stay inside theirs.
        const std::uint32_t tenant = i % 4 < 2 ? 0 : i % 4 - 1;
        r.tenant = tenant;
        ++offered_per_tenant[tenant];
        (void)tloop.submit(r);
        if (i % 8 == 7)
            tloop.pumpOne();
    }
    tloop.stop();
    bool tenant_identity_ok = true;
    const obs::Registry &tm = tenant_engine.metrics();
    for (std::uint32_t tenant = 0; tenant < 3; ++tenant) {
        const std::string label =
            "tenant=\"" + std::to_string(tenant) + "\"";
        const std::uint64_t offered = tm.counterValue(
            "serve_tenant_offered_total", label);
        const std::uint64_t settled =
            tm.counterValue("serve_tenant_served_total", label)
            + tm.counterValue("serve_tenant_shed_total", label)
            + tm.counterValue("serve_tenant_deadline_expired_total",
                              label)
            + tm.counterValue("serve_tenant_dropped_total", label);
        if (offered != offered_per_tenant[tenant]
            || settled != offered) {
            tenant_identity_ok = false;
            std::cerr << "FAIL: tenant " << tenant
                      << " identity (offered " << offered
                      << ", settled " << settled << ")\n";
        }
    }

    // Two-phase reporting A/B (the reference Zipf workload): the
    // same stream score-only and with --report-alignments
    // semantics, in interleaved rounds. Reporting must not perturb
    // the ranked hits — phase 2 runs strictly after the merge — and
    // the wall-time delta is the end-to-end cost of the traceback
    // phase at top-K = 10.
    const bio::SequenceDatabase report_db =
        bio::makeZipfDatabase(db_seqs);
    std::vector<serve::Request> report_requests = requests;
    for (serve::Request &r : report_requests)
        r.reportAlignments = true;
    serve::Engine score_engine(report_db, cfg);
    serve::Engine report_engine(report_db, cfg);
    double score_ms = std::numeric_limits<double>::infinity();
    double report_ms = std::numeric_limits<double>::infinity();
    std::vector<serve::Response> score_out;
    std::vector<serve::Response> report_out;
    for (int r = 0; r < rounds; ++r) {
        score_ms = std::min(score_ms, wall_ms_of([&] {
            score_out = score_engine.serveBatch(requests);
        }));
        report_ms = std::min(report_ms, wall_ms_of([&] {
            report_out =
                report_engine.serveBatch(report_requests);
        }));
    }
    const double report_overhead_pct = score_ms <= 0.0
        ? 0.0
        : 100.0 * (report_ms - score_ms) / score_ms;
    std::uint64_t report_alignments = 0;
    std::uint64_t report_tb_cells = 0;
    for (const serve::Response &r : report_out) {
        report_alignments += r.alignments.size();
        report_tb_cells += r.tracebackCells;
    }
    const bool report_identity_ok =
        same_hits(score_out, report_out)
        && report_alignments > 0;
    if (!report_identity_ok)
        std::cerr << "FAIL: reporting identity (ranked hits "
                     "changed with --report-alignments, or no "
                     "alignments came back)\n";

    core::Table t({"metric", "value"});
    t.row().add("requests").add(
        static_cast<std::uint64_t>(report.responses.size()));
    t.row().add("jobs").add(static_cast<int>(report.jobs));
    t.row().add("shards").add(
        static_cast<std::uint64_t>(report.shards));
    t.row().add("batch size").add(
        static_cast<std::uint64_t>(report.batchSize));
    t.row().add("wall ms").add(report.wallMs, 2);
    t.row().add("requests/sec").add(report.requestsPerSec(), 1);
    t.row().add("p50 latency ms").add(lat.p50Us / 1000.0, 3);
    t.row().add("p95 latency ms").add(lat.p95Us / 1000.0, 3);
    t.row().add("p99 latency ms").add(lat.p99Us / 1000.0, 3);
    t.row().add("scan cpu ms").add(report.cpuMs, 2);
    t.row().add("parallel efficiency").add(
        report.parallelEfficiency(), 2);
    t.row().add("total cells").add(report.totalCells);
    t.row().add("loop shed count").add(shed_count);
    t.row().add("queue wait p99 ms").add(queue_wait_p99_ms, 3);
    t.row().add("indexed speedup").add(indexed_speedup, 2);
    t.row().add("indexed residue frac").add(
        indexed_residue_fraction, 3);
    t.row().add("hot reload ok").add(
        std::string(hot_reload_ok ? "yes" : "NO"));
    t.row().add("cache cold ms").add(cache_cold_ms, 2);
    t.row().add("cache hot ms").add(cache_hot_ms, 2);
    t.row().add("cache hit p99 us").add(cache_hit_p99_us, 3);
    t.row().add("fleet identity ok").add(
        std::string(fleet_identity_ok ? "yes" : "NO"));
    t.row().add("tenant identity ok").add(
        std::string(tenant_identity_ok ? "yes" : "NO"));
    t.row().add("score-only wall ms").add(score_ms, 2);
    t.row().add("reporting wall ms").add(report_ms, 2);
    t.row().add("report overhead %").add(report_overhead_pct, 1);
    t.row().add("traceback cells").add(report_tb_cells);
    t.row().add("report identity ok").add(
        std::string(report_identity_ok ? "yes" : "NO"));
    t.print(std::cout);

    std::vector<double> point_ms;
    point_ms.reserve(report.responses.size());
    for (const serve::Response &r : report.responses)
        point_ms.push_back(r.latencyUs() / 1000.0);

    // GCUPS: logical m*n cells over the best stream wall time.
    const double gcups_native = report.wallMs <= 0.0
        ? 0.0
        : static_cast<double>(report.totalCells)
            / (report.wallMs * 1e6);
    bench::printJsonFooter(
        "bench_serve_throughput", report.jobs,
        report.responses.size(), report.wallMs, report.cpuMs,
        {{"shards", std::to_string(report.shards)},
         {"batch", std::to_string(report.batchSize)},
         {"total_cells", std::to_string(report.totalCells)},
         {"backend",
          "\"" + std::string(align::backendName(cfg.backend))
              + "\""},
         {"native_wall_ms", std::to_string(report.wallMs)},
         {"gcups_native", std::to_string(gcups_native)},
         {"queue_wait_p99_ms", std::to_string(queue_wait_p99_ms)},
         {"shed_count", std::to_string(shed_count)},
         {"indexed_speedup", std::to_string(indexed_speedup)},
         {"indexed_residue_fraction",
          std::to_string(indexed_residue_fraction)},
         {"hot_reload_ok", hot_reload_ok ? "true" : "false"},
         {"cache_cold_ms", std::to_string(cache_cold_ms)},
         {"cache_hot_ms", std::to_string(cache_hot_ms)},
         {"cache_hit_p99_us", std::to_string(cache_hit_p99_us)},
         {"cache_speedup", std::to_string(cache_speedup)},
         {"fleet_identity_ok",
          fleet_identity_ok ? "true" : "false"},
         {"tenant_identity_ok",
          tenant_identity_ok ? "true" : "false"},
         {"score_only_ms", std::to_string(score_ms)},
         {"report_ms", std::to_string(report_ms)},
         {"report_overhead_pct",
          std::to_string(report_overhead_pct)},
         {"report_alignments",
          std::to_string(report_alignments)},
         {"traceback_cells", std::to_string(report_tb_cells)},
         {"report_identity_ok",
          report_identity_ok ? "true" : "false"}},
        point_ms);
    return hot_reload_ok && fleet_identity_ok && tenant_identity_ok
            && report_identity_ok
        ? 0
        : 1;
}
