/**
 * @file
 * Tests for the engine's result cache (EngineConfig::cache,
 * serve/cache.hh).
 *
 * The load-bearing contract extends serve_test.cc's: the ranked
 * top-K hit list of every request is bit-for-bit identical to a
 * serial single-engine scan across the full cache {on,off} x jobs
 * {1,2,8} matrix — the result cache decides whether a scan runs at
 * all, never *what* it computes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bio/synthetic.hh"
#include "index/epoch.hh"
#include "obs/metrics.hh"
#include "serve/cache.hh"
#include "serve/clock.hh"
#include "serve/engine.hh"
#include "serve/hit_list.hh"
#include "serve/loop.hh"
#include "serve/router.hh" // the RouterConfig shim check

namespace
{

using namespace bioarch;

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

/** Serial whole-database scan: the hit list everything must match. */
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

/**
 * A 12-request stream over three kinds with repeated queries, so
 * a second pass (and even the tail of the first) can hit the
 * cache.
 */
std::vector<serve::Request>
fleetStream()
{
    const std::array<kernels::Workload, 3> kinds = {
        kernels::Workload::Ssearch34, kernels::Workload::Fasta34,
        kernels::Workload::Blast};
    std::vector<serve::Request> stream;
    for (std::size_t i = 0; i < 12; ++i) {
        serve::Request r;
        r.id = i;
        r.kind = kinds[i % kinds.size()];
        r.query = queryPool()[i % 4 % queryPool().size()];
        stream.push_back(std::move(r));
    }
    return stream;
}

serve::Request
cacheRequest(std::uint64_t id, std::size_t query)
{
    serve::Request r;
    r.id = id;
    r.kind = kernels::Workload::Ssearch34;
    r.query = queryPool()[query % queryPool().size()];
    return r;
}

TEST(RouterDeterminism, MatrixMatchesSerialReference)
{
    const std::vector<serve::Request> stream = fleetStream();
    serve::EngineConfig ref_cfg;
    std::vector<std::vector<align::SearchHit>> reference;
    for (const serve::Request &r : stream)
        reference.push_back(serialReference(
            r, testDb(), ref_cfg, ref_cfg.topK));

    for (const bool cache_on : {false, true}) {
        for (const unsigned jobs : {1u, 2u, 8u}) {
            serve::EngineConfig cfg;
            cfg.jobs = jobs;
            cfg.shards = 4;
            cfg.cache.capacityBytes = cache_on ? 1u << 20 : 0u;
            serve::Engine engine(index::makeEpoch(testDb(), false, 1),
                                 cfg);
            const std::string ctx = "cache="
                + std::to_string(cache_on)
                + " jobs=" + std::to_string(jobs);

            // Two passes: pass 2 is served from the cache when it
            // is on, and must be bit-identical.
            for (const int pass : {1, 2}) {
                const std::vector<serve::Response> out =
                    engine.serveBatch(stream, {});
                ASSERT_EQ(out.size(), stream.size()) << ctx;
                for (std::size_t i = 0; i < out.size(); ++i)
                    expectSameHits(out[i].hits, reference[i],
                                   ctx + " pass "
                                       + std::to_string(pass)
                                       + " request "
                                       + std::to_string(i));
            }
            if (cache_on) {
                EXPECT_GT(engine.metrics().counterValue(
                              "serve_cache_hits_total"),
                          0u)
                    << ctx;
            }
        }
    }

    // The transitional RouterConfig converts only for one replica.
    serve::RouterConfig two;
    two.replicas = 2;
    EXPECT_THROW(serve::ReplicaRouter(
                     index::makeEpoch(testDb(), false, 1), two),
                 std::invalid_argument);
}

TEST(RouterCache, HitMissAccountingIsDeterministic)
{
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.cache.capacityBytes = 1u << 20;
    serve::Engine engine(index::makeEpoch(testDb(), false, 1), cfg);
    const obs::Registry &m = engine.metrics();

    // 4 distinct queries, each repeated twice within one batch.
    std::vector<serve::Request> batch;
    for (std::uint64_t i = 0; i < 8; ++i)
        batch.push_back(cacheRequest(i, i % 4));

    const std::vector<serve::Response> first =
        engine.serveBatch(batch, {});
    // Pass 1: the first occurrence of each query misses; whether
    // its duplicate hits depends only on batch order (inserts
    // happen after the whole batch), so all 8 miss here.
    EXPECT_EQ(m.counterValue("serve_cache_misses_total"), 8u);
    EXPECT_EQ(m.counterValue("serve_cache_hits_total"), 0u);
    EXPECT_EQ(m.counterValue("serve_cache_inserts_total"), 8u);
    EXPECT_EQ(engine.cache().entries(), 4u); // dup insert replaces
    for (const serve::Response &r : first)
        EXPECT_FALSE(r.fromCache);

    // A hit does no live work: the fully cached pass must not
    // reach the scan path at all.
    const std::uint64_t requests_live =
        m.counterValue("serve_requests_total");
    const std::uint64_t cells_live =
        m.counterValue("serve_cells_total");
    EXPECT_EQ(requests_live, 8u);
    EXPECT_GT(cells_live, 0u);
    const std::vector<serve::Response> second =
        engine.serveBatch(batch, {});
    EXPECT_EQ(m.counterValue("serve_requests_total"), requests_live);
    EXPECT_EQ(m.counterValue("serve_cells_total"), cells_live);
    EXPECT_EQ(m.counterValue("serve_cache_hits_total"), 8u);
    EXPECT_EQ(m.counterValue("serve_cache_misses_total"), 8u);
    for (std::size_t i = 0; i < second.size(); ++i) {
        EXPECT_TRUE(second[i].fromCache) << i;
        expectSameHits(second[i].hits, first[i].hits,
                       "cached pass request "
                           + std::to_string(i));
    }
}

TEST(RouterCache, EpochBumpInvalidatesStaleHits)
{
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.cache.capacityBytes = 1u << 20;
    serve::Engine engine(index::makeEpoch(testDb(), false, 1), cfg);
    const obs::Registry &m = engine.metrics();

    std::vector<serve::Request> batch;
    for (std::uint64_t i = 0; i < 4; ++i)
        batch.push_back(cacheRequest(i, i));
    (void)engine.serveBatch(batch, {});
    const std::vector<serve::Response> warm =
        engine.serveBatch(batch, {});
    for (const serve::Response &r : warm)
        EXPECT_TRUE(r.fromCache);

    // Hot-swap a different database. The cache still holds the
    // epoch-1 entries, but lookups now key on epoch 2 — nothing
    // may be served from the old database's results.
    const bio::SequenceDatabase db2 =
        bio::makeDefaultDatabase(48, 0xDBDBDBDC);
    engine.reload(index::makeEpoch(db2, false, 2));
    EXPECT_EQ(engine.epochNumber(), 2u);

    const std::uint64_t hits_before =
        m.counterValue("serve_cache_hits_total");
    const std::vector<serve::Response> fresh =
        engine.serveBatch(batch, {});
    EXPECT_EQ(m.counterValue("serve_cache_hits_total"),
              hits_before);
    serve::EngineConfig ref_cfg;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_FALSE(fresh[i].fromCache) << i;
        expectSameHits(fresh[i].hits,
                       serialReference(batch[i], db2, ref_cfg,
                                       ref_cfg.topK),
                       "post-reload request "
                           + std::to_string(i));
    }

    // And the new epoch's results cache normally.
    const std::vector<serve::Response> rewarm =
        engine.serveBatch(batch, {});
    for (std::size_t i = 0; i < rewarm.size(); ++i) {
        EXPECT_TRUE(rewarm[i].fromCache) << i;
        expectSameHits(rewarm[i].hits, fresh[i].hits,
                       "rewarmed request " + std::to_string(i));
    }
}

TEST(RouterCache, TopKWiderThan32BitsIsItsOwnKey)
{
    // The key carries the full top-K: 2^32 + 10 must not alias a
    // cached top-10 answer.
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.cache.capacityBytes = 1u << 20;
    serve::Engine engine(index::makeEpoch(testDb(), false, 1), cfg);

    serve::Request narrow = cacheRequest(0, 0);
    narrow.topK = 10;
    (void)engine.serveBatch({narrow}, {});
    serve::Request wide = cacheRequest(1, 0);
    wide.topK = (std::size_t{1} << 32) + 10;
    const std::vector<serve::Response> got =
        engine.serveBatch({wide}, {});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_FALSE(got[0].fromCache);
    const std::vector<align::SearchHit> want = serialReference(
        wide, testDb(), serve::EngineConfig{}, wide.topK);
    EXPECT_GT(want.size(), narrow.topK);
    expectSameHits(got[0].hits, want, "top-K 2^32 + 10");
}

TEST(RouterCache, ReloadMustAdvanceTheEpochNumber)
{
    // The cache is keyed by epoch number, so a reload that reused
    // the published number would serve the old database's cached
    // answers for the new one.
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.cache.capacityBytes = 1u << 20;
    serve::Engine engine(index::makeEpoch(testDb(), false, 1), cfg);
    const std::vector<serve::Request> batch = {cacheRequest(0, 0)};
    const std::vector<serve::Response> warm =
        engine.serveBatch(batch, {});

    const bio::SequenceDatabase db2 =
        bio::makeDefaultDatabase(48, 0xDBDBDBDC);
    for (const std::uint64_t stale : {0u, 1u})
        EXPECT_THROW(
            engine.reload(index::makeEpoch(db2, false, stale)),
            std::invalid_argument)
            << "epoch " << stale;
    EXPECT_EQ(engine.epochNumber(), 1u);
    EXPECT_EQ(engine.metrics().gaugeValue("db_epoch"), 1.0);

    // The refused reloads left epoch 1 published, cache included.
    const std::vector<serve::Response> still =
        engine.serveBatch(batch, {});
    EXPECT_TRUE(still[0].fromCache);
    expectSameHits(still[0].hits, warm[0].hits, "refused reload");

    engine.reload(index::makeEpoch(db2, false, 2));
    const std::vector<serve::Response> fresh =
        engine.serveBatch(batch, {});
    EXPECT_FALSE(fresh[0].fromCache);
    expectSameHits(fresh[0].hits,
                   serialReference(batch[0], db2,
                                   serve::EngineConfig{},
                                   serve::EngineConfig{}.topK),
                   "epoch 2");
}

TEST(RouterCache, CapacityBoundIsNeverExceeded)
{
    obs::Registry metrics;
    serve::CacheConfig ccfg;
    ccfg.capacityBytes = 4096;
    ccfg.shards = 2;
    serve::ResultCache cache(ccfg, metrics);

    // Insert far more than fits; the byte bound must hold after
    // every insert and evictions must account for the overflow.
    for (std::uint64_t i = 0; i < 256; ++i) {
        serve::ResultCache::Key key;
        key.kind = 0;
        key.topK = 10;
        key.epoch = 1;
        key.query.assign(32 + i % 7, bio::Residue(i % 20));
        key.query.push_back(bio::Residue(i % 23));
        auto result =
            std::make_shared<serve::ResultCache::Result>();
        result->hits.resize(10);
        const std::uint64_t digest =
            serve::ResultCache::digest(key);
        cache.insert(std::move(key), digest, std::move(result));
        EXPECT_LE(cache.bytes(), ccfg.capacityBytes) << i;
    }
    EXPECT_GT(metrics.counterValue("serve_cache_evictions_total"),
              0u);
    EXPECT_EQ(metrics.counterValue("serve_cache_inserts_total"),
              256u);
    // Gauges mirror the totals.
    EXPECT_EQ(metrics.gaugeValue("serve_cache_bytes"),
              static_cast<double>(cache.bytes()));
    EXPECT_EQ(metrics.gaugeValue("serve_cache_entries"),
              static_cast<double>(cache.entries()));

    // An entry bigger than a whole shard is refused outright.
    serve::ResultCache::Key big;
    big.query.assign(8192, bio::Residue(1));
    auto huge = std::make_shared<serve::ResultCache::Result>();
    const std::uint64_t big_digest =
        serve::ResultCache::digest(big);
    const std::size_t entries_before = cache.entries();
    cache.insert(std::move(big), big_digest, std::move(huge));
    EXPECT_EQ(cache.entries(), entries_before);
    EXPECT_LE(cache.bytes(), ccfg.capacityBytes);
}

TEST(RouterCache, PartialResponsesAreNeverCached)
{
    serve::EngineConfig cfg;
    cfg.jobs = 1;
    cfg.shards = 4;
    cfg.cache.capacityBytes = 1u << 20;
    serve::Engine engine(index::makeEpoch(testDb(), false, 1), cfg);
    const obs::Registry &m = engine.metrics();

    // Serve with an already-expired deadline: every shard scan is
    // cancelled, the response is partial (shardsSkipped > 0), and
    // nothing may enter the cache.
    serve::ManualClock clock;
    clock.set(1000.0);
    const std::vector<serve::Request> batch = {
        cacheRequest(0, 0)};
    const double deadlines[] = {500.0};
    serve::BatchControl control;
    control.deadlinesUs = deadlines;
    control.clock = &clock;
    const std::vector<serve::Response> out =
        engine.serveBatch(batch, control);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].deadlineExpired());
    EXPECT_EQ(m.counterValue("serve_cache_inserts_total"), 0u);
    EXPECT_EQ(engine.cache().entries(), 0u);

    // The same request without a deadline is a miss (not a stale
    // partial hit) and serves the full ranked list.
    const std::vector<serve::Response> full =
        engine.serveBatch(batch, {});
    EXPECT_FALSE(full[0].fromCache);
    serve::EngineConfig ref_cfg;
    expectSameHits(full[0].hits,
                   serialReference(batch[0], testDb(), ref_cfg,
                                   ref_cfg.topK),
                   "after partial");
}

/**
 * TSAN coverage: hammer one sharded-LRU cache from concurrent
 * threads (callers of a shared cache may do exactly this). Run
 * under {2, 8} thread counts.
 */
void
hammerCache(unsigned threads)
{
    obs::Registry metrics;
    serve::CacheConfig ccfg;
    ccfg.capacityBytes = 1u << 14; // small: constant eviction
    ccfg.shards = 4;
    serve::ResultCache cache(ccfg, metrics);

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&cache, t] {
            for (std::uint64_t i = 0; i < 400; ++i) {
                serve::ResultCache::Key key;
                key.kind = static_cast<std::uint16_t>(i % 3);
                key.topK = 10;
                key.epoch = 1;
                // Overlapping key space across threads: the same
                // keys are looked up, inserted, replaced, and
                // evicted concurrently.
                key.query.assign(16 + (i + t) % 9,
                                 bio::Residue((i + t) % 20));
                const std::uint64_t digest =
                    serve::ResultCache::digest(key);
                if (cache.lookup(key, digest) != nullptr)
                    continue;
                auto result = std::make_shared<
                    serve::ResultCache::Result>();
                result->hits.resize(1 + i % 10);
                cache.insert(std::move(key), digest,
                             std::move(result));
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    EXPECT_LE(cache.bytes(), ccfg.capacityBytes);
    EXPECT_EQ(metrics.gaugeValue("serve_cache_bytes"),
              static_cast<double>(cache.bytes()));
}

TEST(RouterConcurrency, ShardedLruUnderTwoThreads)
{
    hammerCache(2);
}

TEST(RouterConcurrency, ShardedLruUnderEightThreads)
{
    hammerCache(8);
}

} // namespace
