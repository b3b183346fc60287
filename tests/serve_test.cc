/**
 * @file
 * Tests for the batched query-serving engine (src/serve).
 *
 * The load-bearing contract mirrors sweep_test.cc: the ranked
 * top-K hit list of every request — db ids, scores, bit scores,
 * E-values — is bit-for-bit identical across worker counts, shard
 * counts, and batch sizes, and equal to a straightforward serial
 * scan of the whole database under the (score desc, db index asc)
 * order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "align/karlin.hh"
#include "align/ssearch.hh"
#include "bio/synthetic.hh"
#include "core/percentile.hh"
#include "index/seed_index.hh"
#include "obs/metrics.hh"
#include "serve/clock.hh"
#include "serve/engine.hh"
#include "serve/hit_list.hh"
#include "serve/loop.hh"
#include "serve/shard.hh"

namespace
{

using namespace bioarch;

/** Small planted-homolog database shared across tests. */
const bio::SequenceDatabase &
testDb()
{
    static const bio::SequenceDatabase db =
        bio::makeDefaultDatabase(48);
    return db;
}

const std::vector<bio::Sequence> &
queryPool()
{
    static const std::vector<bio::Sequence> pool =
        bio::makeQuerySet();
    return pool;
}

/**
 * The reference the engine must match: scan every database
 * sequence serially with the same prepared query, rank with the
 * total order, truncate to K.
 */
std::vector<align::SearchHit>
serialReference(const serve::Request &request,
                const bio::SequenceDatabase &db,
                const serve::EngineConfig &cfg, std::size_t top_k)
{
    const serve::PreparedQuery prepared(
        request, bio::blosum62(), cfg.gaps, cfg.fasta, cfg.blast);
    const align::KarlinParams &ka = align::blosum62Karlin();
    const double total = static_cast<double>(db.totalResidues());
    const double m =
        static_cast<double>(request.query.length());

    std::vector<align::SearchHit> hits;
    std::uint64_t cells = 0;
    for (std::size_t idx = 0; idx < db.size(); ++idx) {
        const align::LocalScore ls =
            prepared.scan(db[idx], &cells);
        if (ls.score <= 0)
            continue;
        align::SearchHit hit;
        hit.dbIndex = idx;
        hit.score = ls.score;
        hit.queryEnd = ls.queryEnd;
        hit.subjectEnd = ls.subjectEnd;
        hit.bitScore = ka.bitScore(ls.score);
        hit.evalue = ka.evalue(ls.score, m, total);
        hits.push_back(hit);
    }
    std::sort(hits.begin(), hits.end(), align::hitRanksBefore);
    if (hits.size() > top_k)
        hits.resize(top_k);
    return hits;
}

void
expectSameHits(const std::vector<align::SearchHit> &got,
               const std::vector<align::SearchHit> &want,
               const std::string &context)
{
    ASSERT_EQ(got.size(), want.size()) << context;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].dbIndex, want[i].dbIndex)
            << context << " hit " << i;
        EXPECT_EQ(got[i].score, want[i].score)
            << context << " hit " << i;
        // Bit-for-bit: same doubles, not just approximately.
        EXPECT_EQ(got[i].bitScore, want[i].bitScore)
            << context << " hit " << i;
        EXPECT_EQ(got[i].evalue, want[i].evalue)
            << context << " hit " << i;
        EXPECT_EQ(got[i].queryEnd, want[i].queryEnd)
            << context << " hit " << i;
        EXPECT_EQ(got[i].subjectEnd, want[i].subjectEnd)
            << context << " hit " << i;
    }
}

/** A 6-request stream covering several kinds and query lengths. */
std::vector<serve::Request>
mixedStream(kernels::Workload a, kernels::Workload b)
{
    std::vector<serve::Request> stream;
    for (std::size_t i = 0; i < 6; ++i) {
        serve::Request r;
        r.id = i;
        r.kind = i % 2 == 0 ? a : b;
        r.query = queryPool()[i % queryPool().size()];
        stream.push_back(std::move(r));
    }
    return stream;
}

TEST(ServeDeterminism, RankingInvariantAcrossJobsShardsBatches)
{
    // Two heuristic + two DP kinds; each request pair exercises a
    // different application.
    const std::vector<std::pair<kernels::Workload,
                                kernels::Workload>>
        kind_pairs = {
            {kernels::Workload::Ssearch34,
             kernels::Workload::Blast},
            {kernels::Workload::SwVmx128,
             kernels::Workload::Fasta34},
        };

    for (const auto &[a, b] : kind_pairs) {
        const std::vector<serve::Request> stream =
            mixedStream(a, b);

        serve::EngineConfig ref_cfg;
        std::vector<std::vector<align::SearchHit>> reference;
        for (const serve::Request &r : stream)
            reference.push_back(serialReference(
                r, testDb(), ref_cfg, ref_cfg.topK));

        for (const unsigned jobs : {1u, 2u, 8u}) {
            for (const std::size_t shards : {1u, 4u}) {
                for (const std::size_t batch : {1u, 8u}) {
                    serve::EngineConfig cfg;
                    cfg.jobs = jobs;
                    cfg.shards = shards;
                    cfg.batch = batch;
                    serve::Engine engine(testDb(), cfg);
                    serve::LoopConfig lcfg;
                    lcfg.queueCapacity = stream.size();
                    serve::ServeLoop loop(engine, lcfg);
                    for (const serve::Request &r : stream)
                        ASSERT_TRUE(loop.submit(r).admitted);
                    loop.pumpAll();
                    const std::vector<serve::LoopResult> results =
                        loop.results();

                    ASSERT_EQ(results.size(), stream.size());
                    for (std::size_t i = 0; i < stream.size();
                         ++i) {
                        const std::string context =
                            "jobs=" + std::to_string(jobs)
                            + " shards=" + std::to_string(shards)
                            + " batch=" + std::to_string(batch)
                            + " request=" + std::to_string(i);
                        EXPECT_EQ(results[i].response.id,
                                  stream[i].id)
                            << context;
                        expectSameHits(results[i].response.hits,
                                       reference[i], context);
                    }
                }
            }
        }
    }
}

TEST(ServeDeterminism, EveryRequestScansTheWholeDatabase)
{
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.shards = 4;
    serve::Engine engine(testDb(), cfg);

    serve::Request r;
    r.kind = kernels::Workload::Ssearch34;
    r.query = queryPool().front();
    const serve::Response resp = engine.serveBatch({r}).front();
    EXPECT_EQ(resp.sequencesSearched, testDb().size());
    EXPECT_GT(resp.cellsComputed, 0u);
    EXPECT_FALSE(resp.hits.empty()); // homologs are planted
    EXPECT_GE(resp.serviceUs, 0.0);
}

TEST(ServeEngine, PerRequestTopKOverridesDefault)
{
    serve::EngineConfig cfg;
    cfg.topK = 10;
    serve::Engine engine(testDb(), cfg);

    serve::Request r;
    r.kind = kernels::Workload::Ssearch34;
    r.query = queryPool().front();
    r.topK = 3;
    const serve::Response resp = engine.serveBatch({r}).front();
    EXPECT_EQ(resp.hits.size(), 3u);

    r.topK = 0; // engine default
    const serve::Response def = engine.serveBatch({r}).front();
    EXPECT_LE(def.hits.size(), 10u);
    EXPECT_GT(def.hits.size(), 3u);
    // The override is a prefix of the default ranking.
    for (std::size_t i = 0; i < resp.hits.size(); ++i)
        EXPECT_EQ(resp.hits[i].dbIndex, def.hits[i].dbIndex);
}

/**
 * A FASTA ktup no k-tuple index can be built for fails at engine
 * construction, before any request: a batch would reach the index
 * build inside the loop's dispatcher, which catches nothing.
 */
TEST(ServeEngine, RejectsUnbuildableFastaKtup)
{
    for (const int ktup : {-1, 0, 5, 7}) {
        serve::EngineConfig cfg;
        cfg.fasta.ktup = ktup;
        EXPECT_THROW(serve::Engine(testDb(), cfg), std::invalid_argument)
            << "ktup " << ktup;
    }
    serve::EngineConfig cfg;
    cfg.fasta.ktup = align::KtupIndex::maxKtup;
    serve::Engine engine(testDb(), cfg);
    serve::Request r;
    r.kind = kernels::Workload::Fasta34;
    r.query = queryPool().front();
    EXPECT_EQ(engine.serveBatch({r}).front().sequencesSearched,
              testDb().size());
}

/**
 * So does a BLAST or blastn word size no word table can be built
 * for.
 */
TEST(ServeEngine, RejectsUnbuildableBlastWordSizes)
{
    for (const int w : {-1, 0, align::NeighborhoodIndex::maxWordSize + 1}) {
        serve::EngineConfig cfg;
        cfg.blast.wordSize = w;
        EXPECT_THROW(serve::Engine(testDb(), cfg), std::invalid_argument)
            << "blast w " << w;
    }
    for (const int w : {-1, 0, align::DnaWordIndex::maxWordSize + 1}) {
        serve::EngineConfig cfg;
        cfg.blastn.wordSize = w;
        EXPECT_THROW(serve::Engine(testDb(), cfg), std::invalid_argument)
            << "blastn w " << w;
    }
}

TEST(ServeLoop, ClosedLoopReplayAccountsEveryRequest)
{
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.batch = 4;
    serve::Engine engine(testDb(), cfg);
    const std::vector<serve::Request> stream = mixedStream(
        kernels::Workload::Ssearch34, kernels::Workload::Blast);
    serve::LoopConfig lcfg;
    lcfg.queueCapacity = stream.size();
    serve::ServeLoop loop(engine, lcfg);
    for (const serve::Request &r : stream)
        ASSERT_TRUE(loop.submit(r).admitted);
    EXPECT_EQ(loop.pumpAll(), stream.size());

    const std::vector<serve::LoopResult> results = loop.results();
    obs::Registry &m = engine.metrics();
    EXPECT_EQ(results.size(), stream.size());
    EXPECT_EQ(m.counterValue("loop_served_total"), stream.size());
    // 6 requests / batch of 4.
    EXPECT_EQ(m.counterValue("serve_batches_total"), 2u);
    EXPECT_GT(m.counterValue("serve_cells_total"), 0u);

    const obs::HistogramSummary lat =
        m.histogram("serve_latency_us").summary();
    EXPECT_EQ(lat.count, stream.size());
    EXPECT_LE(lat.p50, lat.p95);
    EXPECT_LE(lat.p95, lat.p99);
    EXPECT_LE(lat.p99, lat.max);
    for (const serve::LoopResult &r : results) {
        EXPECT_EQ(r.status, serve::LoopStatus::Served);
        EXPECT_GE(r.latencyUs(), r.response.serviceUs);
    }
}

TEST(ServeEngine, NativeBackendMatchesScalarSsearchRanking)
{
    // Every runnable native backend must rank exactly like the
    // scalar SSEARCH reference for all three Smith-Waterman kinds:
    // same db ids, scores, bit scores and E-values. The reference
    // is built here from align::QueryProfile + align::ssearchScan,
    // not through PreparedQuery, so it shares no scan code with the
    // engine. (End coordinates are not compared: the native kernel
    // leaves queryEnd untracked unless its scalar fallback ran.)
    const std::vector<kernels::Workload> sw_kinds = {
        kernels::Workload::Ssearch34,
        kernels::Workload::SwVmx128,
        kernels::Workload::SwVmx256,
    };
    const bio::SequenceDatabase &db = testDb();
    const serve::EngineConfig defaults;
    // The engine scores hits with the BLOSUM62 Karlin parameters.
    const align::KarlinParams &ka = align::blosum62Karlin();
    const double total = static_cast<double>(db.totalResidues());

    for (const kernels::Workload kind : sw_kinds) {
        std::vector<serve::Request> stream;
        for (std::size_t i = 0; i < 4; ++i) {
            serve::Request r;
            r.id = i;
            r.kind = kind;
            r.query = queryPool()[i % queryPool().size()];
            // Every positive hit is ranked, not just the top 10.
            r.topK = db.size();
            stream.push_back(std::move(r));
        }

        std::vector<std::vector<align::SearchHit>> reference;
        for (const serve::Request &r : stream) {
            const align::QueryProfile profile(r.query,
                                              bio::blosum62());
            const double m = static_cast<double>(r.query.length());
            std::vector<align::SearchHit> hits;
            for (std::size_t idx = 0; idx < db.size(); ++idx) {
                const int score =
                    align::ssearchScan(profile, db[idx],
                                       defaults.gaps)
                        .score;
                if (score <= 0)
                    continue;
                align::SearchHit hit;
                hit.dbIndex = idx;
                hit.score = score;
                hit.bitScore = ka.bitScore(score);
                hit.evalue = ka.evalue(score, m, total);
                hits.push_back(hit);
            }
            std::sort(hits.begin(), hits.end(),
                      [](const align::SearchHit &a,
                         const align::SearchHit &b) {
                          return a.score != b.score
                              ? a.score > b.score
                              : a.dbIndex < b.dbIndex;
                      });
            ASSERT_FALSE(hits.empty());
            reference.push_back(std::move(hits));
        }

        for (const align::SimdBackend backend :
             align::runnableBackends()) {
            serve::EngineConfig cfg;
            cfg.backend = backend;
            serve::Engine engine(db, cfg);
            const std::vector<serve::Response> native =
                engine.serveBatch(stream);

            ASSERT_EQ(native.size(), reference.size());
            for (std::size_t i = 0; i < native.size(); ++i) {
                const std::string context =
                    std::string(align::backendName(backend))
                    + " kind="
                    + std::string(kernels::workloadName(kind))
                    + " request=" + std::to_string(i);
                const std::vector<align::SearchHit> &want =
                    reference[i];
                ASSERT_EQ(native[i].hits.size(), want.size())
                    << context;
                for (std::size_t h = 0; h < want.size(); ++h) {
                    const align::SearchHit &got = native[i].hits[h];
                    EXPECT_EQ(got.dbIndex, want[h].dbIndex)
                        << context << " hit " << h;
                    EXPECT_EQ(got.score, want[h].score)
                        << context << " hit " << h;
                    EXPECT_EQ(got.bitScore, want[h].bitScore)
                        << context << " hit " << h;
                    EXPECT_EQ(got.evalue, want[h].evalue)
                        << context << " hit " << h;
                }
            }
        }
    }
}

TEST(ServeDeterminism, HitsBitIdenticalAcrossKernelChoices)
{
    // The inter-sequence/striped cutover is a pure throughput knob:
    // ranked hits — ids, scores, bit scores, E-values, end
    // coordinates — must be bit-for-bit identical whether every
    // subject goes striped (cutover 0), every subject goes
    // inter-sequence (huge cutover), or the mix splits at the
    // default, across jobs {1, 2, 8}, and on every runnable
    // backend, the Scalar one (which never batches) included.
    std::vector<serve::Request> stream;
    for (std::size_t i = 0; i < 4; ++i) {
        serve::Request r;
        r.id = i;
        r.kind = kernels::Workload::Ssearch34;
        r.query = queryPool()[i % queryPool().size()];
        stream.push_back(std::move(r));
    }

    // Reference: all-striped, serial.
    serve::EngineConfig ref_cfg;
    ref_cfg.jobs = 1;
    ref_cfg.interseqCutover = 0;
    serve::Engine ref_engine(testDb(), ref_cfg);
    const std::vector<serve::Response> reference =
        ref_engine.serveBatch(stream);
    ASSERT_TRUE(ref_engine.config().interseqCutover == 0);

    for (const align::SimdBackend backend : align::runnableBackends()) {
        for (const std::size_t cutover :
             {std::size_t{0}, align::interSequenceCutover(),
              std::size_t{1} << 30}) {
            for (const unsigned jobs : {1u, 2u, 8u}) {
                serve::EngineConfig cfg;
                cfg.jobs = jobs;
                cfg.interseqCutover = cutover;
                cfg.backend = backend;
                serve::Engine engine(testDb(), cfg);
                const std::vector<serve::Response> got =
                    engine.serveBatch(stream);
                ASSERT_EQ(got.size(), reference.size());
                for (std::size_t i = 0; i < got.size(); ++i)
                    expectSameHits(
                        got[i].hits, reference[i].hits,
                        std::string(align::backendName(backend))
                            + " cutover=" + std::to_string(cutover)
                            + " jobs=" + std::to_string(jobs)
                            + " request=" + std::to_string(i));

                // The per-kernel accounting covers every scan exactly
                // once, and the extreme cutovers route exclusively.
                const obs::Registry &m = engine.metrics();
                const std::string label = "backend=\""
                    + std::string(align::backendName(backend)) + "\"";
                const std::uint64_t inter = m.counterValue(
                    "native_intersequence_total", label);
                const std::uint64_t striped =
                    m.counterValue("native_striped_total", label);
                EXPECT_EQ(inter + striped,
                          m.counterValue("native_scans_total", label));
                // Cutover 0 and the Scalar backend never batch; a
                // huge cutover batches everything except shards
                // below the occupancy floor, which fall back to
                // striped.
                if (cutover == 0
                    || backend == align::SimdBackend::Scalar) {
                    EXPECT_EQ(inter, 0u);
                } else if (cutover == (std::size_t{1} << 30)) {
                    EXPECT_GT(inter, 0u);
                }
            }
        }
    }
}

TEST(ServeDeterminism, ShardScanOrderInvariantUnderBatching)
{
    // Regression for the length-sorted batching: however the lane
    // schedule reorders the actual scans, the hit list's total
    // order must stay a pure function of (query, shard) — the heap
    // is fed per-subject slots in ascending db index, never in
    // schedule order. Score ties across subjects (the planted
    // homolog pairs) are what make feed order observable.
    serve::Request r;
    r.kind = kernels::Workload::Ssearch34;
    r.query = queryPool().front();
    serve::EngineConfig cfg;
    const serve::PreparedQuery prepared(
        r, bio::blosum62(), cfg.gaps, cfg.fasta, cfg.blast);
    ASSERT_TRUE(prepared.usesNativeScan());
    const align::KarlinParams &ka = align::blosum62Karlin();
    const double total =
        static_cast<double>(testDb().totalResidues());

    serve::Shard whole;
    whole.begin = 0;
    whole.end = testDb().size();

    serve::ScanRoute ref_route;
    ref_route.interseqCutover = 0;
    const serve::ShardScan ref = serve::scanShard(
        prepared, testDb(), whole, 16, ka, total, ref_route);
    for (const std::size_t cutover : {7u, 40u, 1u << 20}) {
        serve::ScanRoute route;
        route.interseqCutover = cutover;
        const serve::ShardScan got = serve::scanShard(
            prepared, testDb(), whole, 16, ka, total, route);
        ASSERT_EQ(got.hits.size(), ref.hits.size())
            << "cutover=" << cutover;
        for (std::size_t h = 0; h < got.hits.size(); ++h) {
            EXPECT_EQ(got.hits[h].dbIndex, ref.hits[h].dbIndex)
                << "cutover=" << cutover << " hit " << h;
            EXPECT_EQ(got.hits[h].score, ref.hits[h].score)
                << "cutover=" << cutover << " hit " << h;
            EXPECT_EQ(got.hits[h].subjectEnd,
                      ref.hits[h].subjectEnd)
                << "cutover=" << cutover << " hit " << h;
        }
        EXPECT_EQ(got.sequences, ref.sequences);
        EXPECT_EQ(got.cells, ref.cells);
        EXPECT_EQ(got.native.scans, ref.native.scans);
        EXPECT_EQ(got.native.interSequence + got.native.striped,
                  got.native.scans);
    }
}

TEST(ServeEngine, BatchDedupSharesIdenticalRequests)
{
    serve::EngineConfig cfg;
    cfg.batch = 8;
    serve::Engine engine(testDb(), cfg);

    // 8 requests, but only 3 distinct searches: the same query
    // under two kinds, plus one other query.
    std::vector<serve::Request> batch;
    for (std::size_t i = 0; i < 8; ++i) {
        serve::Request r;
        r.id = i;
        r.kind = i == 5 ? kernels::Workload::Blast
                        : kernels::Workload::Ssearch34;
        r.query = queryPool()[i == 7 ? 1 : 0];
        batch.push_back(std::move(r));
    }
    const obs::Registry &m = engine.metrics();
    const std::uint64_t unique0 =
        m.counterValue("serve_batch_unique_total");
    const std::uint64_t saved0 =
        m.counterValue("serve_dedup_saved_total");
    const std::uint64_t fills0 =
        m.counterValue("serve_karlin_lazy_fills_total");
    const std::vector<serve::Response> responses =
        engine.serveBatch(batch);
    EXPECT_EQ(m.counterValue("serve_batch_unique_total") - unique0,
              3u);
    // 8 requests, 3 distinct searches: 5 requests answered by
    // another request's search.
    EXPECT_EQ(m.counterValue("serve_dedup_saved_total") - saved0,
              5u);
    // Karlin statistics are filled lazily, for per-shard heap
    // survivors only — bounded by shards x top-K per search (each
    // search scans its shards once, however many requests share
    // it), never one fill per scanned sequence.
    ASSERT_EQ(responses.size(), 8u);
    std::uint64_t survivors = 0;
    for (const std::size_t rep : {0u, 5u, 7u})
        survivors += responses[rep].hits.size();
    const std::uint64_t fills =
        m.counterValue("serve_karlin_lazy_fills_total") - fills0;
    EXPECT_GE(fills, survivors);
    EXPECT_LE(fills, 3u * engine.config().shards
                         * engine.config().topK);
    EXPECT_LT(fills, 8u * testDb().size()); // lazy, not per scan

    // Dedup must be invisible in the results: duplicates answer
    // exactly like their representative...
    for (const std::size_t dup : {1u, 2u, 3u, 4u, 6u}) {
        ASSERT_EQ(responses[dup].hits.size(),
                  responses[0].hits.size());
        for (std::size_t h = 0; h < responses[dup].hits.size();
             ++h) {
            EXPECT_EQ(responses[dup].hits[h].dbIndex,
                      responses[0].hits[h].dbIndex);
            EXPECT_EQ(responses[dup].hits[h].score,
                      responses[0].hits[h].score);
        }
    }
    // ...and every request still reports its own id and full scan
    // accounting.
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(responses[i].id, i);
        EXPECT_EQ(responses[i].sequencesSearched, testDb().size());
    }

    // An all-distinct batch dedups nothing.
    const std::vector<serve::Request> stream = mixedStream(
        kernels::Workload::Ssearch34, kernels::Workload::Blast);
    const std::uint64_t unique1 =
        m.counterValue("serve_batch_unique_total");
    const std::uint64_t saved1 =
        m.counterValue("serve_dedup_saved_total");
    (void)engine.serveBatch(stream);
    EXPECT_EQ(m.counterValue("serve_batch_unique_total") - unique1,
              stream.size());
    EXPECT_EQ(m.counterValue("serve_dedup_saved_total") - saved1,
              0u);
}

/**
 * One search per group: the three Smith-Waterman kinds of a query,
 * an exact duplicate, reporting copies, a FASTA duplicate and an
 * indexed BLAST pair share scans inside one batch, and every
 * member still answers exactly as if it had been served alone.
 */
TEST(ServeEngine, BatchGroupsSearchesAcrossKinds)
{
    const index::SeedIndex idx = index::SeedIndex::build(testDb());
    serve::EngineConfig cfg;
    cfg.jobs = 3;
    cfg.shards = 4;
    cfg.seedIndex = &idx;
    // Probes filter, and the small database never falls back.
    cfg.blast.neighborThreshold = 16;
    cfg.indexMaxSelectivity = 1.0;
    serve::Engine engine(testDb(), cfg);

    using kernels::Workload;
    struct Spec
    {
        Workload kind;
        std::size_t query;
        std::size_t topK;
        bool report;
    };
    const Spec specs[] = {
        {Workload::Ssearch34, 0, 0, false}, // search A
        {Workload::SwVmx128, 0, 0, false},  // A
        {Workload::SwVmx256, 0, 0, false},  // A
        {Workload::Ssearch34, 0, 0, false}, // A, exact duplicate
        {Workload::SwVmx128, 0, 5, false},  // B: another top-K
        {Workload::SwVmx256, 0, 0, true},   // C: reporting
        {Workload::Ssearch34, 0, 0, true},  // C
        {Workload::Fasta34, 1, 0, false},   // D
        {Workload::Fasta34, 1, 0, false},   // D, duplicate
        {Workload::Blast, 2, 0, false},     // E: indexed
        {Workload::Blast, 2, 0, false},     // E
    };
    const std::size_t firsts[] = {0, 4, 5, 7, 9};
    std::vector<serve::Request> batch;
    for (std::size_t i = 0; i < std::size(specs); ++i) {
        serve::Request r;
        r.id = 100 + i;
        r.kind = specs[i].kind;
        r.query = queryPool()[specs[i].query];
        r.topK = specs[i].topK;
        r.reportAlignments = specs[i].report;
        batch.push_back(std::move(r));
    }

    const obs::Registry &m = engine.metrics();
    const auto delta = [&m](const char *name, std::uint64_t before) {
        return m.counterValue(name) - before;
    };
    const std::uint64_t unique0 =
        m.counterValue("serve_batch_unique_total");
    const std::uint64_t saved0 =
        m.counterValue("serve_dedup_saved_total");
    const std::uint64_t probes0 = m.counterValue("index_probe_total");
    const std::uint64_t scanned0 =
        m.counterValue("serve_shards_scanned_total");
    const std::uint64_t skipped0 =
        m.counterValue("serve_shards_skipped_total");
    const std::vector<serve::Response> got = engine.serveBatch(batch);
    EXPECT_EQ(delta("serve_batch_unique_total", unique0),
              std::size(firsts));
    EXPECT_EQ(delta("serve_dedup_saved_total", saved0),
              batch.size() - std::size(firsts));
    EXPECT_EQ(delta("index_probe_total", probes0), 1u);
    EXPECT_EQ(delta("serve_shards_scanned_total", scanned0)
                  + delta("serve_shards_skipped_total", skipped0),
              std::size(firsts) * cfg.shards);

    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::string ctx = "request " + std::to_string(i);
        const serve::Response alone = engine.serveBatch({batch[i]})[0];
        const serve::Response &r = got[i];
        EXPECT_EQ(r.id, batch[i].id) << ctx;
        EXPECT_EQ(r.kind, batch[i].kind) << ctx;
        expectSameHits(r.hits, alone.hits, ctx);
        EXPECT_EQ(r.alignments, alone.alignments) << ctx;
        EXPECT_EQ(r.cellsComputed, alone.cellsComputed) << ctx;
        EXPECT_EQ(r.sequencesSearched, alone.sequencesSearched)
            << ctx;
        EXPECT_EQ(r.residuesScanned, alone.residuesScanned) << ctx;
        EXPECT_EQ(r.tracebackCells, alone.tracebackCells) << ctx;
        EXPECT_FALSE(r.deadlineExpired()) << ctx;
        EXPECT_FALSE(r.hits.empty()) << ctx;
        EXPECT_EQ(r.alignments.size(),
                  batch[i].reportAlignments ? r.hits.size() : 0u)
            << ctx;
        // Each search's time is charged once, to its first member.
        const bool first = std::find(std::begin(firsts),
                                     std::end(firsts), i)
            != std::end(firsts);
        if (first) {
            EXPECT_GT(r.scanUs, 0.0) << ctx;
        } else {
            EXPECT_EQ(r.scanUs, 0.0) << ctx;
            EXPECT_EQ(r.tracebackUs, 0.0) << ctx;
        }
    }
    EXPECT_GT(got[5].tracebackUs, 0.0);
    // The indexed route really ran: it scanned only candidates.
    EXPECT_LT(got[9].residuesScanned, testDb().totalResidues());
    EXPECT_EQ(got[4].hits.size(), 5u);

    // Deadlines stay per request: an expired member next to a live
    // sibling comes back partial, and the sibling complete.
    serve::ManualClock clock;
    clock.set(1000.0);
    const std::vector<serve::Request> pair = {batch[6], batch[5]};
    const double deadlines[] = {500.0, 0.0}; // expired / none
    serve::BatchControl control;
    control.deadlinesUs = deadlines;
    control.clock = &clock;
    const std::uint64_t scanned1 =
        m.counterValue("serve_shards_scanned_total");
    const std::vector<serve::Response> partial =
        engine.serveBatch(pair, control);
    ASSERT_EQ(partial.size(), 2u);
    EXPECT_TRUE(partial[0].deadlineExpired());
    EXPECT_EQ(partial[0].shardsSkipped, cfg.shards);
    EXPECT_EQ(partial[0].sequencesSearched, 0u);
    EXPECT_TRUE(partial[0].hits.empty());
    EXPECT_EQ(partial[0].scanUs, 0.0);
    EXPECT_FALSE(partial[1].deadlineExpired());
    expectSameHits(partial[1].hits, got[5].hits, "live sibling");
    EXPECT_EQ(partial[1].alignments, got[5].alignments);
    EXPECT_GT(partial[1].scanUs, 0.0);
    // The shared search still ran once, for the live member.
    EXPECT_EQ(delta("serve_shards_scanned_total", scanned1),
              cfg.shards);
}

TEST(ShardedDatabase, PartitionCoversEverySequenceOnce)
{
    for (const std::size_t shards : {1u, 3u, 4u, 7u}) {
        const serve::ShardedDatabase sharded(testDb(), shards);
        ASSERT_EQ(sharded.numShards(), shards);
        std::size_t expected_begin = 0;
        std::uint64_t residues = 0;
        for (std::size_t i = 0; i < shards; ++i) {
            const serve::Shard &s = sharded.shard(i);
            EXPECT_EQ(s.index, i);
            EXPECT_EQ(s.begin, expected_begin);
            EXPECT_LE(s.begin, s.end);
            expected_begin = s.end;
            residues += s.residues;
        }
        EXPECT_EQ(expected_begin, testDb().size());
        EXPECT_EQ(residues, testDb().totalResidues());
    }
}

TEST(ShardedDatabase, MoreShardsThanSequencesIsFine)
{
    bio::SequenceDatabase tiny;
    tiny.add(bio::Sequence("A", "", "ACDEFGH"));
    tiny.add(bio::Sequence("B", "", "KLMNPQR"));
    const serve::ShardedDatabase sharded(tiny, 5);
    EXPECT_EQ(sharded.numShards(), 5u);
    std::size_t covered = 0;
    for (std::size_t i = 0; i < 5; ++i)
        covered += sharded.shard(i).size();
    EXPECT_EQ(covered, tiny.size());
    EXPECT_EQ(sharded.shard(4).end, tiny.size());
}

TEST(TopKHeap, KeepsBestKWithStableTieBreak)
{
    serve::TopKHeap heap(3);
    auto hit = [](std::size_t idx, int score) {
        align::SearchHit h;
        h.dbIndex = idx;
        h.score = score;
        return h;
    };
    // Ties on score must keep the lower db index.
    heap.consider(hit(5, 10));
    heap.consider(hit(2, 10));
    heap.consider(hit(9, 30));
    heap.consider(hit(7, 10));
    heap.consider(hit(1, 5));

    const std::vector<align::SearchHit> ranked = heap.ranked();
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].dbIndex, 9u); // score 30
    EXPECT_EQ(ranked[1].dbIndex, 2u); // score 10, lowest index
    EXPECT_EQ(ranked[2].dbIndex, 5u);
}

TEST(TopKHeap, MergeEqualsGlobalRanking)
{
    auto hit = [](std::size_t idx, int score) {
        align::SearchHit h;
        h.dbIndex = idx;
        h.score = score;
        return h;
    };
    // Simulate two shards each keeping their local top 3.
    std::vector<align::SearchHit> all;
    for (std::size_t i = 0; i < 20; ++i)
        all.push_back(hit(i, static_cast<int>((i * 7) % 12) + 1));

    serve::TopKHeap left(3);
    serve::TopKHeap right(3);
    for (const align::SearchHit &h : all)
        (h.dbIndex < 10 ? left : right).consider(h);

    const std::vector<align::SearchHit> merged =
        serve::mergeRanked({left.ranked(), right.ranked()}, 3);

    std::vector<align::SearchHit> global = all;
    std::sort(global.begin(), global.end(),
              align::hitRanksBefore);
    global.resize(3);
    ASSERT_EQ(merged.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(merged[i].dbIndex, global[i].dbIndex);
        EXPECT_EQ(merged[i].score, global[i].score);
    }
}

TEST(Percentile, QuantileInterpolatesLinearly)
{
    const std::vector<double> samples = {10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(core::quantile(samples, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(core::quantile(samples, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(core::quantile(samples, 0.5), 25.0);
    EXPECT_DOUBLE_EQ(core::percentile(samples, 50.0), 25.0);
    EXPECT_DOUBLE_EQ(core::percentile({}, 99.0), 0.0);
    EXPECT_DOUBLE_EQ(core::percentile({7.0}, 99.0), 7.0);
    // Order must not matter.
    EXPECT_DOUBLE_EQ(core::quantile({40, 10, 30, 20}, 0.5), 25.0);
}

serve::Request
loopRequest(std::uint64_t id)
{
    serve::Request r;
    r.id = id;
    r.kind = kernels::Workload::Ssearch34;
    r.query = queryPool()[id % queryPool().size()];
    return r;
}

TEST(ServeEngine, BatchControlSkipsExpiredAtShardGranularity)
{
    serve::EngineConfig cfg;
    cfg.shards = 4;
    serve::Engine engine(testDb(), cfg);

    serve::ManualClock clock;
    clock.set(1000.0);
    const std::vector<serve::Request> batch = {loopRequest(0),
                                               loopRequest(1)};
    const double deadlines[] = {500.0, 0.0}; // expired / none
    serve::BatchControl control;
    control.deadlinesUs = deadlines;
    control.clock = &clock;
    const std::vector<serve::Response> out =
        engine.serveBatch(batch, control);

    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].deadlineExpired());
    EXPECT_EQ(out[0].shardsSkipped, cfg.shards);
    EXPECT_EQ(out[0].sequencesSearched, 0u);
    EXPECT_TRUE(out[0].hits.empty());
    EXPECT_FALSE(out[1].deadlineExpired());
    EXPECT_EQ(out[1].sequencesSearched, testDb().size());
    EXPECT_EQ(engine.metrics().counterValue(
                  "serve_shards_skipped_total"),
              cfg.shards);
}

TEST(ServeLoop, DeadlineExpiryReturnsDeadlineWithoutScanning)
{
    serve::Engine engine(testDb());
    serve::ManualClock clock;
    serve::ServeLoop loop(engine, {}, &clock);
    const obs::Registry &m = engine.metrics();

    clock.set(100.0);
    const serve::Submission sub =
        loop.submit(loopRequest(0), serve::Priority::Normal,
                    500.0);
    ASSERT_TRUE(sub.admitted);

    clock.set(900.0); // past the deadline before dispatch
    EXPECT_EQ(loop.pumpAll(), 1u);
    const std::vector<serve::LoopResult> results = loop.results();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, serve::LoopStatus::Deadline);
    EXPECT_EQ(results[0].response.sequencesSearched, 0u);
    // The engine was never invoked for the expired request.
    EXPECT_EQ(m.counterValue("serve_requests_total"), 0u);
    EXPECT_EQ(m.counterValue("loop_deadline_expired_total"), 1u);
    EXPECT_EQ(m.counterValue("loop_served_total"), 0u);
}

TEST(ServeLoop, FullQueueShedsWithRetryAfter)
{
    serve::Engine engine(testDb());
    serve::ManualClock clock;
    serve::LoopConfig lcfg;
    lcfg.queueCapacity = 4;
    serve::ServeLoop loop(engine, lcfg, &clock);
    const obs::Registry &m = engine.metrics();

    std::size_t admitted = 0;
    for (std::uint64_t i = 0; i < 6; ++i) {
        const serve::Submission sub =
            loop.submit(loopRequest(i));
        if (i < 4) {
            EXPECT_TRUE(sub.admitted) << i;
            ++admitted;
        } else {
            EXPECT_FALSE(sub.admitted) << i;
            EXPECT_GE(sub.retryAfterUs, lcfg.minRetryAfterUs)
                << i;
        }
        EXPECT_EQ(sub.ticket, i);
    }
    EXPECT_EQ(admitted, 4u);
    EXPECT_EQ(loop.queueDepth(), 4u);
    EXPECT_EQ(m.counterValue("loop_shed_queue_full_total"), 2u);

    EXPECT_EQ(loop.pumpAll(), 4u);
    const std::vector<serve::LoopResult> results = loop.results();
    ASSERT_EQ(results.size(), 6u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(results[i].status, serve::LoopStatus::Served)
            << i;
    for (const std::uint64_t i : {4u, 5u})
        EXPECT_EQ(results[i].status,
                  serve::LoopStatus::RetryAfter)
            << i;
    // Counter identity.
    EXPECT_EQ(m.counterValue("loop_served_total")
                  + m.counterValue("loop_shed_queue_full_total"),
              m.counterValue("loop_offered_total"));
}

TEST(ServeLoop, StopDropsQueuedDeterministically)
{
    serve::Engine engine(testDb());
    serve::ManualClock clock;
    serve::LoopConfig lcfg;
    lcfg.batch = 2;
    serve::ServeLoop loop(engine, lcfg, &clock);
    const obs::Registry &m = engine.metrics();

    for (std::uint64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(loop.submit(loopRequest(i)).admitted) << i;

    // One batch is "in flight": it completes; the rest is dropped
    // in ticket order.
    EXPECT_EQ(loop.pumpOne(), 2u);
    loop.stop();
    EXPECT_EQ(loop.queueDepth(), 0u);

    const std::vector<serve::LoopResult> results = loop.results();
    ASSERT_EQ(results.size(), 5u);
    EXPECT_EQ(results[0].status, serve::LoopStatus::Served);
    EXPECT_EQ(results[1].status, serve::LoopStatus::Served);
    for (const std::uint64_t i : {2u, 3u, 4u})
        EXPECT_EQ(results[i].status, serve::LoopStatus::Dropped)
            << i;
    EXPECT_EQ(m.counterValue("loop_dropped_total"), 3u);

    // Submissions after shutdown are shed, not queued.
    const serve::Submission late = loop.submit(loopRequest(9));
    EXPECT_FALSE(late.admitted);
    EXPECT_EQ(m.counterValue("loop_shed_shutdown_total"), 1u);
    EXPECT_EQ(m.counterValue("loop_served_total")
                  + m.counterValue("loop_dropped_total")
                  + m.counterValue("loop_shed_shutdown_total"),
              m.counterValue("loop_offered_total"));
}

TEST(ServeLoop, ReproducibleAcrossJobs)
{
    // The loop's decisions depend only on (submission order, clock
    // values): the full per-ticket outcome — status, dispatch
    // order, ranked hits — is bit-for-bit identical whether the
    // engine runs 1, 2, or 8 workers.
    struct Outcome
    {
        serve::LoopStatus status;
        std::uint64_t dispatchOrder;
        std::vector<std::pair<std::size_t, int>> hits;
    };
    std::vector<std::vector<Outcome>> runs;

    for (const unsigned jobs : {1u, 2u, 8u}) {
        serve::EngineConfig cfg;
        cfg.jobs = jobs;
        serve::Engine engine(testDb(), cfg);
        serve::ManualClock clock;
        serve::LoopConfig lcfg;
        lcfg.queueCapacity = 8;
        lcfg.batch = 4;
        serve::ServeLoop loop(engine, lcfg, &clock);

        for (std::uint64_t i = 0; i < 12; ++i) {
            const double arrival =
                static_cast<double>(i) * 100.0;
            clock.set(arrival);
            double deadline = 0.0; // none
            if (i % 4 == 1)
                deadline = arrival + 50.0; // expires pre-pump
            else if (i % 4 == 3)
                deadline = arrival - 10.0; // shed at admission
            const serve::Priority prio =
                static_cast<serve::Priority>(i % 3);
            (void)loop.submit(loopRequest(i), prio, deadline);
        }
        clock.set(5000.0);
        loop.pumpAll();

        std::vector<Outcome> outcomes;
        for (const serve::LoopResult &r : loop.results()) {
            Outcome o;
            o.status = r.status;
            o.dispatchOrder = r.dispatchOrder;
            for (const align::SearchHit &h : r.response.hits)
                o.hits.emplace_back(h.dbIndex, h.score);
            outcomes.push_back(std::move(o));
        }
        runs.push_back(std::move(outcomes));

        // Identity on every run.
        const obs::Registry &m = engine.metrics();
        EXPECT_EQ(m.counterValue("loop_served_total")
                      + m.counterValue("loop_shed_queue_full_total")
                      + m.counterValue("loop_shed_deadline_total")
                      + m.counterValue("loop_deadline_expired_total")
                      + m.counterValue("loop_dropped_total"),
                  m.counterValue("loop_offered_total"))
            << "jobs=" << jobs;
    }

    ASSERT_EQ(runs.size(), 3u);
    for (std::size_t run = 1; run < runs.size(); ++run) {
        ASSERT_EQ(runs[run].size(), runs[0].size());
        for (std::size_t t = 0; t < runs[0].size(); ++t) {
            EXPECT_EQ(runs[run][t].status, runs[0][t].status)
                << "run=" << run << " ticket=" << t;
            EXPECT_EQ(runs[run][t].dispatchOrder,
                      runs[0][t].dispatchOrder)
                << "run=" << run << " ticket=" << t;
            EXPECT_EQ(runs[run][t].hits, runs[0][t].hits)
                << "run=" << run << " ticket=" << t;
        }
    }
}

TEST(ServeLoop, ThreadedDrainServesEverythingAdmitted)
{
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.batch = 4;
    serve::Engine engine(testDb(), cfg);
    serve::LoopConfig lcfg;
    lcfg.queueCapacity = 16;
    serve::ServeLoop loop(engine, lcfg); // wall clock
    const obs::Registry &m = engine.metrics();

    loop.start();
    EXPECT_TRUE(loop.running());
    std::size_t admitted = 0;
    for (std::uint64_t i = 0; i < 24; ++i)
        if (loop.submit(loopRequest(i)).admitted)
            ++admitted;
    loop.drain();
    EXPECT_FALSE(loop.running());
    EXPECT_EQ(loop.queueDepth(), 0u);

    // Drain is graceful: every admitted request was served; the
    // only other outcome is a queue-full shed.
    EXPECT_EQ(m.counterValue("loop_served_total"), admitted);
    EXPECT_EQ(m.counterValue("loop_served_total")
                  + m.counterValue("loop_shed_queue_full_total"),
              24u);
    std::size_t served = 0;
    for (const serve::LoopResult &r : loop.results()) {
        if (r.status != serve::LoopStatus::Served)
            continue;
        ++served;
        EXPECT_EQ(r.response.sequencesSearched, testDb().size());
        EXPECT_GE(r.latencyUs(), 0.0);
    }
    EXPECT_EQ(served, admitted);
}

serve::Request
tenantRequest(std::uint64_t id, std::uint32_t tenant)
{
    serve::Request r = loopRequest(id);
    r.tenant = tenant;
    return r;
}

std::string
tenantLabel(std::uint32_t tenant)
{
    return "tenant=\"" + std::to_string(tenant) + "\"";
}

TEST(ServeLoopTenants, QuotaShedAndRefillHint)
{
    serve::Engine engine(testDb());
    serve::ManualClock clock;
    serve::LoopConfig lcfg;
    serve::TenantQuota quota;
    quota.tenant = 7;
    quota.rateQps = 10.0; // one token per 100 ms
    quota.burst = 2.0;
    lcfg.tenants.push_back(quota);
    serve::ServeLoop loop(engine, lcfg, &clock);
    const obs::Registry &m = engine.metrics();

    // The fresh bucket holds `burst` tokens: two admissions.
    EXPECT_TRUE(loop.submit(tenantRequest(0, 7)).admitted);
    EXPECT_TRUE(loop.submit(tenantRequest(1, 7)).admitted);

    // Empty bucket: shed, and the hint is the bucket's actual
    // refill time (1 token at 10 qps = 100 ms), not the generic
    // minRetryAfterUs floor.
    const serve::Submission shed = loop.submit(tenantRequest(2, 7));
    EXPECT_FALSE(shed.admitted);
    EXPECT_DOUBLE_EQ(shed.retryAfterUs, 100000.0);
    EXPECT_EQ(m.counterValue("loop_shed_quota_total"), 1u);

    // Retrying exactly when the hint says is admitted.
    clock.advance(shed.retryAfterUs);
    EXPECT_TRUE(loop.submit(tenantRequest(3, 7)).admitted);

    // An unconfigured tenant is never quota-shed.
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(loop.submit(tenantRequest(10 + i, 9)).admitted)
            << i;

    EXPECT_EQ(loop.pumpAll(), 11u);
    EXPECT_EQ(m.counterValue("serve_tenant_offered_total",
                             tenantLabel(7)),
              4u);
    EXPECT_EQ(m.counterValue("serve_tenant_served_total",
                             tenantLabel(7)),
              3u);
    EXPECT_EQ(m.counterValue("serve_tenant_shed_total",
                             tenantLabel(7)),
              1u);
    EXPECT_EQ(m.counterValue("serve_tenant_shed_total",
                             tenantLabel(9)),
              0u);
}

TEST(ServeLoopTenants, WeightedFairDispatch)
{
    // Two backlogged tenants with weights 3:1 split a batch of 4
    // as [A, A, A, B] — weighted deficit round-robin, FIFO within
    // each tenant, regardless of arrival interleaving.
    serve::Engine engine(testDb());
    serve::ManualClock clock;
    serve::LoopConfig lcfg;
    lcfg.batch = 4;
    lcfg.queueCapacity = 16;
    serve::TenantQuota a;
    a.tenant = 1;
    a.weight = 3.0;
    serve::TenantQuota b;
    b.tenant = 2;
    b.weight = 1.0;
    lcfg.tenants = {a, b};
    serve::ServeLoop loop(engine, lcfg, &clock);

    // 8 requests, alternating tenants; tenant 1 activates first.
    for (std::uint64_t i = 0; i < 8; ++i)
        ASSERT_TRUE(loop.submit(tenantRequest(
                                    i, i % 2 == 0 ? 1u : 2u))
                        .admitted)
            << i;

    EXPECT_EQ(loop.pumpOne(), 4u);
    EXPECT_EQ(loop.pumpAll(), 4u);

    std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
    for (const serve::LoopResult &r : loop.results())
        order.emplace_back(r.dispatchOrder, r.tenant);
    std::sort(order.begin(), order.end());
    const std::vector<std::uint32_t> want = {
        1, 1, 1, 2,  // batch 1: weight-3 tenant gets 3 slots
        1, 2, 2, 2}; // batch 2: tenant 1 drains, 2 gets the rest
    ASSERT_EQ(order.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(order[i].second, want[i]) << "slot " << i;
}

TEST(ServeLoopTenants, PerTenantIdentityWithDrops)
{
    // Per-tenant counters satisfy the same identity as the global
    // family even through a mid-run stop():
    //   served + shed + deadline_expired + dropped == offered.
    serve::Engine engine(testDb());
    serve::ManualClock clock;
    serve::LoopConfig lcfg;
    lcfg.batch = 2;
    lcfg.queueCapacity = 6;
    serve::TenantQuota quota;
    quota.tenant = 2;
    quota.rateQps = 5.0;
    quota.burst = 2.0;
    lcfg.tenants.push_back(quota);
    serve::ServeLoop loop(engine, lcfg, &clock);
    const obs::Registry &m = engine.metrics();

    // Tenant 1 unlimited, tenant 2 quota-limited: 4 + 4 offered,
    // tenant 2 sheds half. Tenant 1's first request carries a
    // deadline that goes stale before the pump, so it expires at
    // dispatch (WDRR puts one request per tenant in the first
    // batch, so it must be the tenant's queue head to dispatch).
    clock.set(1000.0);
    for (std::uint64_t i = 0; i < 4; ++i)
        loop.submit(tenantRequest(i, 1), serve::Priority::Normal,
                    i == 0 ? 1500.0 : 0.0);
    for (std::uint64_t i = 4; i < 8; ++i)
        loop.submit(tenantRequest(i, 2));

    clock.set(2000.0);       // past ticket 0's deadline
    EXPECT_EQ(loop.pumpOne(), 2u); // one in-flight batch
    loop.stop();             // rest dropped in ticket order

    for (const std::uint32_t t : {1u, 2u}) {
        const std::string label = tenantLabel(t);
        const std::uint64_t offered =
            m.counterValue("serve_tenant_offered_total", label);
        EXPECT_EQ(offered, 4u) << label;
        EXPECT_EQ(
            m.counterValue("serve_tenant_served_total", label)
                + m.counterValue("serve_tenant_shed_total", label)
                + m.counterValue(
                    "serve_tenant_deadline_expired_total", label)
                + m.counterValue("serve_tenant_dropped_total",
                                 label),
            offered)
            << label;
    }
    EXPECT_EQ(m.counterValue("serve_tenant_shed_total",
                             tenantLabel(2)),
              2u);
    EXPECT_EQ(m.counterValue("serve_tenant_deadline_expired_total",
                             tenantLabel(1)),
              1u);
    EXPECT_GT(m.counterValue("serve_tenant_dropped_total",
                             tenantLabel(1))
                  + m.counterValue("serve_tenant_dropped_total",
                                   tenantLabel(2)),
              0u);
    // The global identity still holds too.
    EXPECT_EQ(m.counterValue("loop_served_total")
                  + m.counterValue("loop_shed_quota_total")
                  + m.counterValue("loop_deadline_expired_total")
                  + m.counterValue("loop_dropped_total"),
              m.counterValue("loop_offered_total"));
}

TEST(RequestStream, DeterministicAndWellFormed)
{
    serve::StreamSpec spec;
    spec.requests = 32;
    const std::vector<serve::Request> a =
        serve::makeRequestStream(spec, queryPool());
    const std::vector<serve::Request> b =
        serve::makeRequestStream(spec, queryPool());
    ASSERT_EQ(a.size(), 32u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, i);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].query.id(), b[i].query.id());
    }
    // A different seed changes the stream.
    spec.seed ^= 0xFF;
    const std::vector<serve::Request> c =
        serve::makeRequestStream(spec, queryPool());
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs = differs || a[i].kind != c[i].kind
            || a[i].query.id() != c[i].query.id();
    EXPECT_TRUE(differs);

    EXPECT_THROW(serve::makeRequestStream(spec, {}),
                 std::invalid_argument);
}

} // namespace
