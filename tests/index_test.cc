/**
 * @file
 * Tests for the indexed serving tier (src/index + the serve-side
 * route): seed-index build/probe exactness, the on-disk container
 * round trip and its corruption/truncation rejection, epoch
 * handles, and the engine-level guarantee that indexed serving is
 * invisible in the results — ranked hit lists bit-identical to a
 * full scan across worker counts and shard counts, and hot
 * reloads that never lose a request.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "align/blast.hh"
#include "bio/scoring.hh"
#include "bio/synthetic.hh"
#include "index/container.hh"
#include "index/epoch.hh"
#include "index/seed_index.hh"
#include "obs/metrics.hh"
#include "serve/engine.hh"
#include "serve/loop.hh"

namespace
{

using namespace bioarch;

/** Zipf-length planted-homolog database shared across tests. */
const bio::SequenceDatabase &
testDb()
{
    static const bio::SequenceDatabase db =
        bio::makeZipfDatabase(96);
    return db;
}

const std::vector<bio::Sequence> &
queryPool()
{
    static const std::vector<bio::Sequence> pool =
        bio::makeQuerySet();
    return pool;
}

/** A scratch file path that cleans itself up. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : _path((std::filesystem::temp_directory_path()
                 / ("bioarch_index_test_" + name
                    + std::to_string(::getpid()) + ".db"))
                    .string())
    {
    }
    ~TempFile() { std::remove(_path.c_str()); }
    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

/** BLAST request stream over the Table II queries. */
std::vector<serve::Request>
blastStream(std::size_t n)
{
    serve::StreamSpec spec;
    spec.requests = n;
    spec.kinds = {kernels::Workload::Blast};
    return serve::makeRequestStream(spec, queryPool());
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
    }
}

// ---------------------------------------------------------------
// Seed index: build + probe exactness
// ---------------------------------------------------------------

TEST(SeedIndex, BuildCountsEveryWord)
{
    const bio::SequenceDatabase &db = testDb();
    const index::SeedIndex idx = index::SeedIndex::build(db);

    // Every sequence of length >= w contributes len - w + 1
    // postings; shorter ones contribute none.
    std::uint64_t expected = 0;
    for (std::size_t s = 0; s < db.size(); ++s) {
        const std::size_t len = db[s].length();
        if (len + 1 > static_cast<std::size_t>(idx.wordSize()))
            expected += len - idx.wordSize() + 1;
    }
    EXPECT_EQ(idx.numPostings(), expected);

    // Posting lists are sorted by (seq, pos) and every posting
    // really is an occurrence of its word.
    for (std::uint32_t w = 0;
         w < static_cast<std::uint32_t>(idx.tableSize()); ++w) {
        const auto [pb, pe] = idx.postings(w);
        for (const index::Posting *p = pb; p != pe; ++p) {
            if (p != pb) {
                EXPECT_TRUE(p[-1].seq < p->seq
                            || (p[-1].seq == p->seq
                                && p[-1].pos < p->pos));
            }
            const bio::Sequence &seq = db[p->seq];
            ASSERT_LE(static_cast<std::size_t>(p->pos)
                          + static_cast<std::size_t>(idx.wordSize()),
                      seq.length());
            EXPECT_EQ(index::SeedIndex::encodeWord(
                          seq.residues().data() + p->pos,
                          idx.wordSize()),
                      w);
        }
    }
}

TEST(SeedIndex, PostingsInRangeMatchesFilter)
{
    const index::SeedIndex idx = index::SeedIndex::build(testDb());
    for (const std::uint32_t w : {0u, 137u, 4242u, 12166u}) {
        const auto [pb, pe] = idx.postings(w);
        const auto [rb, re] = idx.postingsInRange(w, 10, 40);
        for (const index::Posting *p = pb; p != pe; ++p) {
            const bool in = p->seq >= 10 && p->seq < 40;
            EXPECT_EQ(in, p >= rb && p < re);
        }
    }
}

/**
 * The load-bearing exactness property: the probe's candidate set
 * is exactly the set of sequences on which blastScan would try at
 * least one ungapped extension. (Rescoring only those provably
 * reproduces the full scan's results: non-candidates score 0.)
 */
TEST(SeedIndex, ProbeMatchesBlastScanTriggerOracle)
{
    const bio::SequenceDatabase &db = testDb();
    const index::SeedIndex idx = index::SeedIndex::build(db);
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;

    for (const int t : {11, 14, 16}) {
        for (const bool two_hit : {true, false}) {
            align::BlastParams params;
            params.neighborThreshold = t;
            params.twoHit = two_hit;
            for (const std::size_t qi : {0ul, 2ul, 7ul}) {
                const bio::Sequence &q = queryPool()[qi];
                const align::NeighborhoodIndex nbhd(q, matrix,
                                                    params);
                std::vector<std::uint32_t> oracle;
                for (std::size_t s = 0; s < db.size(); ++s)
                    if (align::blastScan(nbhd, q, db[s], matrix,
                                         gaps, params)
                            .extensionsTried
                        > 0)
                        oracle.push_back(
                            static_cast<std::uint32_t>(s));
                const std::vector<std::uint32_t> probed =
                    index::probeCandidates(idx, nbhd, params, 0,
                                           db.size());
                EXPECT_EQ(probed, oracle)
                    << "T=" << t << " twoHit=" << two_hit
                    << " query=" << q.id();
            }
        }
    }
}

TEST(SeedIndex, ProbeShardsPartitionTheWholeRange)
{
    const bio::SequenceDatabase &db = testDb();
    const index::SeedIndex idx = index::SeedIndex::build(db);
    align::BlastParams params;
    params.neighborThreshold = 14;
    const align::NeighborhoodIndex nbhd(queryPool()[2],
                                        bio::blosum62(), params);

    const std::vector<std::uint32_t> whole =
        index::probeCandidates(idx, nbhd, params, 0, db.size());
    std::vector<std::uint32_t> stitched;
    const std::size_t cut1 = db.size() / 3;
    const std::size_t cut2 = 2 * db.size() / 3;
    for (const auto &[b, e] :
         {std::pair<std::size_t, std::size_t>{0, cut1},
          {cut1, cut2},
          {cut2, db.size()}}) {
        const std::vector<std::uint32_t> part =
            index::probeCandidates(idx, nbhd, params, b, e);
        stitched.insert(stitched.end(), part.begin(), part.end());
    }
    EXPECT_EQ(stitched, whole);
}

TEST(SeedIndex, ProbeRejectsWordSizeMismatch)
{
    const index::SeedIndex idx = index::SeedIndex::build(testDb());
    align::BlastParams params;
    params.wordSize = 2;
    const align::NeighborhoodIndex nbhd(queryPool()[0],
                                        bio::blosum62(), params);
    EXPECT_THROW(index::probeCandidates(idx, nbhd, params, 0, 1),
                 std::invalid_argument);
}

// ---------------------------------------------------------------
// Container: round trip + rejection
// ---------------------------------------------------------------

TEST(Container, RoundTripPreservesEverything)
{
    const bio::SequenceDatabase &db = testDb();
    const index::SeedIndex idx = index::SeedIndex::build(db);
    TempFile file("roundtrip");
    index::writeDatabaseFile(file.path(), db, &idx);

    const auto mapped = index::DatabaseFile::load(file.path());
    EXPECT_EQ(mapped->numSequences(), db.size());
    EXPECT_EQ(mapped->totalResidues(), db.totalResidues());
    ASSERT_TRUE(mapped->hasIndex());

    // The mapped index view is structurally identical to the
    // in-memory build (heads and posting lists, zero-copy).
    const index::SeedIndex view = mapped->indexView();
    EXPECT_FALSE(view.ownsStorage());
    EXPECT_TRUE(idx.equals(view));

    // The packed arena is byte-identical, and ids/descriptions
    // survive.
    ASSERT_EQ(db.totalResidues(), mapped->totalResidues());
    EXPECT_EQ(std::memcmp(db.packedResidues(), mapped->arena(),
                          static_cast<std::size_t>(
                              db.totalResidues())),
              0);
    for (const std::size_t s : {0ul, 17ul, 95ul}) {
        EXPECT_EQ(mapped->id(s), db[s].id());
        EXPECT_EQ(mapped->description(s), db[s].description());
    }

    // Materialize rebuilds a database that indexes identically.
    const bio::SequenceDatabase copy = mapped->materialize();
    ASSERT_EQ(copy.size(), db.size());
    EXPECT_TRUE(
        index::SeedIndex::build(copy).equals(idx));
}

TEST(Container, NoIndexRoundTrip)
{
    const bio::SequenceDatabase &db = testDb();
    TempFile file("noindex");
    index::writeDatabaseFile(file.path(), db, nullptr);
    const auto mapped = index::DatabaseFile::load(file.path());
    EXPECT_FALSE(mapped->hasIndex());
    EXPECT_EQ(mapped->numSequences(), db.size());
}

TEST(Container, CorruptedPayloadIsRejectedWithReason)
{
    const bio::SequenceDatabase &db = testDb();
    const index::SeedIndex idx = index::SeedIndex::build(db);
    TempFile file("corrupt");
    index::writeDatabaseFile(file.path(), db, &idx);

    // Flip one byte in the middle of the payload.
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out
                       | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(size / 2);
    f.write(&byte, 1);
    f.close();

    try {
        (void)index::DatabaseFile::load(file.path());
        FAIL() << "corrupted file loaded clean";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(file.path()), std::string::npos)
            << what;
        // Depending on which section the byte lands in, either
        // the checksum or a structural invariant trips — both
        // must say so.
        const bool descriptive =
            what.find("checksum") != std::string::npos
            || what.find("monotone") != std::string::npos
            || what.find("corrupt") != std::string::npos
            || what.find("range") != std::string::npos;
        EXPECT_TRUE(descriptive) << what;
    }
}

TEST(Container, TruncatedFileIsRejectedWithReason)
{
    const bio::SequenceDatabase &db = testDb();
    TempFile file("trunc");
    index::writeDatabaseFile(file.path(), db, nullptr);

    std::ifstream in(file.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes.resize(bytes.size() - 64);
    std::ofstream out(file.path(),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.close();

    try {
        (void)index::DatabaseFile::load(file.path());
        FAIL() << "truncated file loaded clean";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("truncat"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Container, JunkFileIsRejected)
{
    TempFile file("junk");
    std::ofstream out(file.path(), std::ios::binary);
    // Big enough to clear the header-size check, so the rejection
    // is really the magic test.
    for (int i = 0; i < 64; ++i)
        out << "this is not a bioarch database\n";
    out.close();
    try {
        (void)index::DatabaseFile::load(file.path());
        FAIL() << "junk file loaded clean";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("magic"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Container, MissingFileIsRejected)
{
    EXPECT_THROW((void)index::DatabaseFile::load(
                     "/nonexistent/bioarch.db"),
                 std::runtime_error);
}

// ---------------------------------------------------------------
// Epoch handles
// ---------------------------------------------------------------

TEST(Epoch, MakeEpochBuildsIndexOnRequest)
{
    const auto with = index::makeEpoch(testDb(), true, 7);
    EXPECT_EQ(with->epoch, 7u);
    ASSERT_TRUE(with->index.has_value());
    EXPECT_TRUE(with->index->equals(
        index::SeedIndex::build(testDb())));

    const auto without = index::makeEpoch(testDb(), false);
    EXPECT_FALSE(without->index.has_value());
}

TEST(Epoch, LoadEpochServesFromMappedFile)
{
    const bio::SequenceDatabase &db = testDb();
    const index::SeedIndex idx = index::SeedIndex::build(db);
    TempFile file("epoch");
    index::writeDatabaseFile(file.path(), db, &idx);

    const auto epoch = index::loadEpoch(file.path(), 3);
    EXPECT_EQ(epoch->epoch, 3u);
    EXPECT_EQ(epoch->db.size(), db.size());
    ASSERT_TRUE(epoch->index.has_value());
    EXPECT_FALSE(epoch->index->ownsStorage());
    EXPECT_TRUE(epoch->index->equals(idx));
}

// ---------------------------------------------------------------
// Engine-level: indexed route invisible in the results
// ---------------------------------------------------------------

/**
 * The tentpole determinism matrix: indexed vs full-scan ranked
 * hit lists must be bit-identical across jobs x shards, both at
 * the indexed tier's reference threshold (T=16: probes genuinely
 * filter) and at blastp's default (T=11: the selectivity gate
 * forces fallback on this workload).
 */
TEST(IndexedEngine, RankedHitsMatchFullScanAcrossSchedules)
{
    const bio::SequenceDatabase &db = testDb();
    const index::SeedIndex idx = index::SeedIndex::build(db);
    const std::vector<serve::Request> requests = blastStream(8);

    for (const int t : {16, 11}) {
        serve::EngineConfig base;
        base.blast.neighborThreshold = t;
        base.jobs = 1;
        base.shards = 1;
        serve::Engine reference(db, base);
        const std::vector<serve::Response> want =
            reference.serveBatch(requests);

        for (const unsigned jobs : {1u, 2u, 8u}) {
            for (const std::size_t shards : {1ul, 4ul}) {
                serve::EngineConfig cfg = base;
                cfg.jobs = jobs;
                cfg.shards = shards;
                cfg.seedIndex = &idx;
                serve::Engine engine(db, cfg);
                const std::vector<serve::Response> got =
                    engine.serveBatch(requests);
                ASSERT_EQ(got.size(), want.size());
                std::uint64_t indexed_residues = 0;
                std::uint64_t full_residues = 0;
                for (std::size_t i = 0; i < got.size(); ++i) {
                    const std::string ctx = "T=" + std::to_string(t)
                        + " jobs=" + std::to_string(jobs)
                        + " shards=" + std::to_string(shards);
                    expectSameHits(got[i].hits, want[i].hits,
                                   ctx + " req=" + std::to_string(i));
                    indexed_residues += got[i].residuesScanned;
                    full_residues += want[i].residuesScanned;
                }
                if (t != 16)
                    continue;
                // At T=16 the probes filter: no request falls back,
                // and the indexed route scans a small fraction of
                // what the full scan does.
                EXPECT_EQ(engine.metrics().counterValue(
                              "index_fallback_scan_total"),
                          0u);
                const double residue_fraction =
                    static_cast<double>(indexed_residues)
                    / static_cast<double>(full_residues);
                EXPECT_GT(residue_fraction, 0.0);
                EXPECT_LT(residue_fraction, 0.2);
            }
        }
    }
}

TEST(IndexedEngine, SelectivityGateFallsBackAtDefaultT)
{
    const bio::SequenceDatabase &db = testDb();
    const index::SeedIndex idx = index::SeedIndex::build(db);
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.shards = 2;
    cfg.seedIndex = &idx; // default T=11: probes mark nearly all
    serve::Engine engine(db, cfg);
    (void)engine.serveBatch(blastStream(4));
    const obs::Registry &m = engine.metrics();
    EXPECT_GT(m.counterValue("index_probe_total"), 0u);
    EXPECT_EQ(m.counterValue("index_fallback_scan_total"),
              m.counterValue("index_probe_total"));
}

TEST(IndexedEngine, PrefilterSkipsCountedButNotDeadline)
{
    const bio::SequenceDatabase &db = testDb();
    const index::SeedIndex idx = index::SeedIndex::build(db);

    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.shards = 4;
    cfg.blast.neighborThreshold = 16;
    cfg.seedIndex = &idx;

    serve::Request request;
    request.kind = kernels::Workload::Blast;
    request.query = queryPool()[2];

    // Expected per-shard candidate presence, from the probe run
    // the engine itself will do.
    const serve::PreparedQuery prepared(
        request, bio::blosum62(), cfg.gaps, cfg.fasta, cfg.blast);
    const std::vector<std::uint32_t> candidates =
        index::probeCandidates(idx, *prepared.neighborhoodIndex(),
                               prepared.blastParams(), 0,
                               db.size());
    ASSERT_LE(static_cast<double>(candidates.size()),
              cfg.indexMaxSelectivity
                  * static_cast<double>(db.size()))
        << "workload drifted: gate would fall back";

    serve::Engine engine(db, cfg);
    std::uint64_t expect_skipped = 0;
    std::uint64_t expect_scanned = 0;
    for (std::size_t s = 0; s < engine.sharded().numShards();
         ++s) {
        const serve::Shard &shard = engine.sharded().shard(s);
        const bool any = std::any_of(
            candidates.begin(), candidates.end(),
            [&shard](std::uint32_t c) {
                return c >= shard.begin && c < shard.end;
            });
        (any ? expect_scanned : expect_skipped) += 1;
    }
    ASSERT_GT(expect_skipped, 0u)
        << "workload drifted: every shard has candidates";

    const serve::Response resp = engine.serveBatch({request}).front();
    const obs::Registry &m = engine.metrics();
    // A prefilter skip is a complete answer: it lands in
    // serve_shards_skipped_total but never marks the response
    // deadline-expired.
    EXPECT_EQ(m.counterValue("serve_shards_skipped_total"),
              expect_skipped);
    EXPECT_EQ(m.counterValue("serve_shards_scanned_total"),
              expect_scanned);
    EXPECT_EQ(resp.shardsSkipped, 0u);
    EXPECT_FALSE(resp.deadlineExpired());

    // And the scanned-residue accounting is exactly the candidate
    // total.
    std::uint64_t cand_residues = 0;
    for (const std::uint32_t c : candidates)
        cand_residues += db[c].length();
    EXPECT_EQ(resp.residuesScanned, cand_residues);
    EXPECT_EQ(m.counterValue("index_candidates_total"),
              candidates.size());
}

// ---------------------------------------------------------------
// Hot reload
// ---------------------------------------------------------------

TEST(HotReload, SwapsEpochsMidRunWithoutLosingRequests)
{
    const bio::SequenceDatabase db2 =
        bio::makeZipfDatabase(96, 0xDBDBDBDC);

    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.shards = 2;
    cfg.blast.neighborThreshold = 16;
    serve::Engine engine(index::makeEpoch(testDb(), true, 1), cfg);
    EXPECT_EQ(engine.epochNumber(), 1u);
    EXPECT_EQ(engine.metrics().gaugeValue("db_epoch"), 1.0);

    serve::LoopConfig lcfg;
    lcfg.queueCapacity = 64;
    serve::ServeLoop loop(engine, lcfg);

    const std::vector<serve::Request> requests = blastStream(12);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (i == requests.size() / 2)
            engine.reload(index::makeEpoch(db2, true, 2));
        (void)loop.submit(requests[i]);
    }
    loop.pumpAll();

    EXPECT_EQ(engine.epochNumber(), 2u);
    EXPECT_EQ(engine.metrics().gaugeValue("db_epoch"), 2.0);

    // Books balance across the swap: every offered request ended
    // in exactly one terminal state.
    const obs::Registry &m = engine.metrics();
    const std::uint64_t offered =
        m.counterValue("loop_offered_total");
    EXPECT_EQ(offered, requests.size());
    EXPECT_EQ(m.counterValue("loop_served_total")
                  + m.counterValue("loop_shed_queue_full_total")
                  + m.counterValue("loop_shed_deadline_total")
                  + m.counterValue("loop_shed_shutdown_total")
                  + m.counterValue("loop_deadline_expired_total")
                  + m.counterValue("loop_dropped_total"),
              offered);

    // Requests served after the swap see the *new* database:
    // their hits equal a full scan of db2.
    serve::EngineConfig ref_cfg = cfg;
    ref_cfg.jobs = 1;
    ref_cfg.shards = 1;
    serve::Engine reference(db2, ref_cfg);
    const serve::Response want =
        reference.serveBatch({requests.back()}).front();
    const std::vector<serve::LoopResult> &results =
        loop.results();
    ASSERT_FALSE(results.empty());
    const serve::LoopResult &last = results.back();
    ASSERT_EQ(last.status, serve::LoopStatus::Served);
    ASSERT_EQ(last.response.id, requests.back().id);
    expectSameHits(last.response.hits, want.hits,
                   "post-reload request");
}

TEST(HotReload, ReloadableEngineServesLikePlainEngine)
{
    const bio::SequenceDatabase &db = testDb();
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.shards = 4;
    cfg.blast.neighborThreshold = 16;

    // The epoch engine routes through the epoch's own index, before
    // and after a reload.
    serve::Engine reloadable(index::makeEpoch(db, true, 1), cfg);
    const index::SeedIndex idx = index::SeedIndex::build(db);
    serve::EngineConfig plain_cfg = cfg;
    plain_cfg.seedIndex = &idx;
    serve::Engine plain(db, plain_cfg);

    const std::vector<serve::Request> requests = blastStream(6);
    const std::vector<serve::Response> want =
        plain.serveBatch(requests);
    for (const std::uint64_t epoch : {1u, 2u}) {
        if (epoch == 2)
            reloadable.reload(index::makeEpoch(db, true, 2));
        std::uint64_t pinned = 0;
        const std::vector<serve::Response> got =
            reloadable.serveBatch(requests, {}, &pinned);
        EXPECT_EQ(pinned, epoch);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            expectSameHits(got[i].hits, want[i].hits,
                           "epoch " + std::to_string(epoch)
                               + " request " + std::to_string(i));
    }
    EXPECT_GT(reloadable.metrics().counterValue("index_probe_total"),
              0u);
}

TEST(HotReload, PoolCountersSurviveReload)
{
    // One pool for the engine's whole life: a reload swaps the
    // database, never the pool, so the retired epoch's tasks stay
    // counted.
    const bio::SequenceDatabase &db = testDb();
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.shards = 4;
    cfg.blast.neighborThreshold = 16;
    const std::vector<serve::Request> requests = blastStream(8);

    serve::Engine engine(index::makeEpoch(db, true, 1), cfg);
    const core::ThreadPool *pool = &engine.pool();
    (void)engine.serveBatch(requests);
    engine.reload(index::makeEpoch(db, true, 2));
    (void)engine.serveBatch(requests);
    engine.refreshPoolMetrics();
    EXPECT_EQ(&engine.pool(), pool);

    const index::SeedIndex idx = index::SeedIndex::build(db);
    serve::EngineConfig plain_cfg = cfg;
    plain_cfg.seedIndex = &idx;
    serve::Engine plain(db, plain_cfg);
    (void)plain.serveBatch(requests);
    (void)plain.serveBatch(requests);
    plain.refreshPoolMetrics();

    const std::uint64_t tasks =
        plain.metrics().counterValue("pool_tasks_total");
    EXPECT_GT(tasks, 0u);
    EXPECT_EQ(engine.metrics().counterValue("pool_tasks_total"),
              tasks);
}

TEST(HotReload, ReloadsFromAnotherThreadWhileServing)
{
    // TSAN coverage for the epoch swap: one thread reloads while
    // the caller serves. Every batch runs whole on one epoch, and
    // every epoch holds the same sequences (with or without an
    // index), so every answer is the plain engine's.
    const bio::SequenceDatabase &db = testDb();
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.shards = 2;
    cfg.blast.neighborThreshold = 16;
    serve::Engine engine(index::makeEpoch(db, true, 1), cfg);
    serve::Engine plain(db, cfg);

    const std::vector<serve::Request> requests = blastStream(4);
    const std::vector<serve::Response> want =
        plain.serveBatch(requests);
    constexpr std::uint64_t reloads = 8;
    std::vector<std::vector<serve::Response>> rounds(6);
    std::vector<std::uint64_t> pinned(rounds.size(), 0);
    std::thread reloader([&engine, &db] {
        for (std::uint64_t e = 2; e <= reloads + 1; ++e)
            engine.reload(index::makeEpoch(db, e % 2 == 0, e));
    });
    for (std::size_t r = 0; r < rounds.size(); ++r)
        rounds[r] = engine.serveBatch(requests, {}, &pinned[r]);
    reloader.join();

    for (std::size_t r = 0; r < rounds.size(); ++r) {
        EXPECT_GE(pinned[r], 1u);
        ASSERT_EQ(rounds[r].size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            expectSameHits(rounds[r][i].hits, want[i].hits,
                           "round " + std::to_string(r)
                               + " request " + std::to_string(i));
    }
    EXPECT_EQ(engine.epochNumber(), reloads + 1);
    EXPECT_EQ(engine.metrics().gaugeValue("db_epoch"),
              static_cast<double>(reloads + 1));
}

} // namespace
