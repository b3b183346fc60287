/**
 * @file
 * Tests for the two-phase serving tier (score -> align -> report):
 * ranked hits must be bit-identical with reporting on or off across
 * jobs and shards and behind the result cache, served CIGARs must
 * be identical across jobs, shards and native backends, every
 * served CIGAR must replay to exactly
 * its reported score, alignments must round-trip through the
 * result cache, and the served blastn kind must find its planted
 * long-read homologs end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "align/traceback/cigar.hh"
#include "align/traceback/native_align.hh"
#include "bio/dna_workload.hh"
#include "bio/synthetic.hh"
#include "index/epoch.hh"
#include "serve/engine.hh"

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

/** Requests covering every served protein kind, reporting on. */
std::vector<serve::Request>
reportingStream(std::size_t count)
{
    const kernels::Workload kinds[] = {
        kernels::Workload::Ssearch34, kernels::Workload::SwVmx128,
        kernels::Workload::SwVmx256, kernels::Workload::Fasta34,
        kernels::Workload::Blast};
    std::vector<serve::Request> stream;
    for (std::size_t i = 0; i < count; ++i) {
        serve::Request r;
        r.id = i;
        r.kind = kinds[i % 5];
        r.query = queryPool()[i % queryPool().size()];
        r.reportAlignments = true;
        stream.push_back(std::move(r));
    }
    return stream;
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
    }
}

/**
 * The CIGAR-replay gate on a served response: one alignment slot
 * per ranked hit, spans inside both sequences, and cigarScore ==
 * the alignment's own reported score. For the Smith-Waterman kinds
 * and BLAST the alignment score must also equal the ranked hit
 * score (FASTA ranks by max(opt, initn), so its reported optimal
 * local alignment may legitimately out-score the ranking key).
 */
void
expectAlignmentsReplay(const serve::Response &resp,
                       const bio::Sequence &query,
                       const bio::SequenceDatabase &db,
                       const bio::GapPenalties &gaps)
{
    ASSERT_EQ(resp.alignments.size(), resp.hits.size());
    for (std::size_t h = 0; h < resp.hits.size(); ++h) {
        const align::CigarAlignment &aln = resp.alignments[h];
        const bio::Sequence &subject = db[resp.hits[h].dbIndex];
        if (aln.empty())
            continue; // a sub-threshold gapped stage reports empty
        ASSERT_GE(aln.qBegin, 0);
        ASSERT_LT(static_cast<std::size_t>(aln.qEnd),
                  query.length());
        ASSERT_GE(aln.sBegin, 0);
        ASSERT_LT(static_cast<std::size_t>(aln.sEnd),
                  subject.length());
        EXPECT_EQ(align::cigarScore(aln, query, subject,
                                    bio::blosum62(), gaps),
                  aln.score)
            << "hit " << h << " vs db seq "
            << resp.hits[h].dbIndex;
        if (resp.kind != kernels::Workload::Fasta34) {
            EXPECT_EQ(aln.score, resp.hits[h].score)
                << "hit " << h;
        }
    }
}

TEST(TwoPhase, RankedHitsBitIdenticalWithReportingOn)
{
    std::vector<serve::Request> score_only = reportingStream(10);
    for (serve::Request &r : score_only)
        r.reportAlignments = false;

    serve::EngineConfig ref_cfg;
    ref_cfg.jobs = 1;
    ref_cfg.shards = 1;
    serve::Engine ref(testDb(), ref_cfg);
    const std::vector<serve::Response> want =
        ref.serveBatch(score_only);

    const std::vector<serve::Request> reporting =
        reportingStream(10);
    // The CIGAR reference: one worker, one shard. Every alignment
    // (tie-breaks included) must come out the same whatever the
    // schedule, the sharding or the native backend.
    const std::vector<serve::Response> want_report =
        serve::Engine(testDb(), ref_cfg).serveBatch(reporting);
    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        for (const unsigned jobs : {1u, 2u, 8u}) {
            for (const std::size_t shards : {1u, 4u}) {
                serve::EngineConfig cfg;
                cfg.jobs = jobs;
                cfg.shards = shards;
                cfg.backend = backend;
                serve::Engine engine(testDb(), cfg);
                const std::vector<serve::Response> got =
                    engine.serveBatch(reporting);
                ASSERT_EQ(got.size(), want.size());
                std::size_t alignments = 0;
                for (std::size_t i = 0; i < got.size(); ++i) {
                    const std::string ctx = "backend="
                        + std::string(align::backendName(backend))
                        + " jobs=" + std::to_string(jobs)
                        + " shards=" + std::to_string(shards)
                        + " req=" + std::to_string(i);
                    expectSameHits(got[i].hits, want[i].hits, ctx);
                    expectAlignmentsReplay(got[i],
                                           reporting[i].query,
                                           testDb(), cfg.gaps);
                    EXPECT_EQ(got[i].alignments,
                              want_report[i].alignments)
                        << ctx;
                    alignments += got[i].alignments.size();
                }
                // Reporting actually reported something.
                EXPECT_GT(alignments, 0u);
                // Score-only responses carry no phase-2 payload.
                const std::vector<serve::Response> plain =
                    engine.serveBatch(score_only);
                for (const serve::Response &r : plain) {
                    EXPECT_TRUE(r.alignments.empty());
                    EXPECT_EQ(r.tracebackCells, 0u);
                }
            }
        }
    }
}

TEST(TwoPhase, TracebackAccountingFlowsToMetrics)
{
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    serve::Engine engine(testDb(), cfg);
    const std::vector<serve::Response> got =
        engine.serveBatch(reportingStream(5));

    std::uint64_t cells = 0;
    std::uint64_t alignments = 0;
    for (const serve::Response &r : got) {
        EXPECT_FALSE(r.deadlineExpired());
        cells += r.tracebackCells;
        alignments += r.alignments.size();
    }
    EXPECT_GT(cells, 0u);
    EXPECT_EQ(engine.metrics().counterValue(
                  "traceback_cells_total"),
              cells);
    EXPECT_EQ(engine.metrics().counterValue(
                  "serve_alignments_total"),
              alignments);
    EXPECT_EQ(engine.metrics().counterValue(
                  "serve_tracebacks_skipped_total"),
              0u);
    EXPECT_GT(engine.metrics()
                  .histogram("serve_traceback_us")
                  .summary()
                  .count,
              0u);
}

TEST(TwoPhase, RouterReplicasMatchAndCacheRoundTripsAlignments)
{
    const std::vector<serve::Request> reporting =
        reportingStream(8);

    serve::EngineConfig ecfg;
    ecfg.jobs = 2;
    serve::Engine ref(testDb(), ecfg);
    const std::vector<serve::Response> want =
        ref.serveBatch(reporting);

    serve::EngineConfig ccfg = ecfg;
    ccfg.cache.capacityBytes = 4u << 20;
    serve::Engine cached(index::makeEpoch(testDb(), false, 1), ccfg);

    const std::vector<serve::Response> first =
        cached.serveBatch(reporting, {});
    ASSERT_EQ(first.size(), want.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        const std::string ctx = "req=" + std::to_string(i);
        expectSameHits(first[i].hits, want[i].hits, ctx);
        EXPECT_EQ(first[i].alignments, want[i].alignments)
            << ctx;
    }

    // Same batch again: every answer must come from the cache
    // with the full phase-2 payload intact.
    const std::vector<serve::Response> second =
        cached.serveBatch(reporting, {});
    for (std::size_t i = 0; i < second.size(); ++i) {
        EXPECT_TRUE(second[i].fromCache) << i;
        expectSameHits(second[i].hits, first[i].hits,
                       "cached " + std::to_string(i));
        EXPECT_EQ(second[i].alignments,
                  first[i].alignments)
            << i;
        EXPECT_EQ(second[i].tracebackCells,
                  first[i].tracebackCells)
            << i;
    }

    // A score-only request is a different cache identity: it
    // must miss the reporting entries and carry no alignments.
    std::vector<serve::Request> plain = reporting;
    for (serve::Request &r : plain)
        r.reportAlignments = false;
    const std::vector<serve::Response> third =
        cached.serveBatch(plain, {});
    for (std::size_t i = 0; i < third.size(); ++i) {
        EXPECT_FALSE(third[i].fromCache) << i;
        EXPECT_TRUE(third[i].alignments.empty()) << i;
        expectSameHits(third[i].hits, first[i].hits,
                       "plain " + std::to_string(i));
    }
}

TEST(TwoPhase, ReloadInvalidatesCachedAlignments)
{
    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.cache.capacityBytes = 4u << 20;
    serve::Engine engine(index::makeEpoch(testDb(), false, 1), cfg);

    const std::vector<serve::Request> reporting =
        reportingStream(4);
    const std::vector<serve::Response> first =
        engine.serveBatch(reporting, {});
    const std::vector<serve::Response> cached =
        engine.serveBatch(reporting, {});
    for (const serve::Response &r : cached)
        EXPECT_TRUE(r.fromCache);

    engine.reload(index::makeEpoch(
        bio::makeDefaultDatabase(48, 0xDBDBDBDC), false, 2));
    const std::vector<serve::Response> fresh =
        engine.serveBatch(reporting, {});
    for (const serve::Response &r : fresh)
        EXPECT_FALSE(r.fromCache);
}

/**
 * A clock that advances one microsecond per reading, so on one
 * worker the deadline checks of a batch lapse at a reproducible
 * point.
 */
class TickingClock final : public serve::Clock
{
  public:
    double
    nowUs() const override
    {
        return static_cast<double>(
            _reads.fetch_add(1, std::memory_order_relaxed));
    }
    std::uint64_t reads() const { return _reads.load(); }

  private:
    mutable std::atomic<std::uint64_t> _reads{0};
};

TEST(TwoPhase, DeadlineCoversTracebackPhase)
{
    serve::EngineConfig cfg;
    cfg.jobs = 1;
    serve::Engine engine(testDb(), cfg);
    std::vector<serve::Request> reporting = reportingStream(2);

    // An already-expired deadline: phase 1 skips every shard and
    // phase 2 skips every traceback, and both skips surface
    // through deadlineExpired().
    serve::ManualClock clock;
    clock.set(1e9);
    std::vector<double> deadlines(reporting.size(), 1.0);
    serve::BatchControl control;
    control.clock = &clock;
    control.deadlinesUs = deadlines.data();
    const std::vector<serve::Response> got =
        engine.serveBatch(reporting, control);
    for (const serve::Response &r : got) {
        EXPECT_TRUE(r.deadlineExpired());
        for (const align::CigarAlignment &aln : r.alignments)
            EXPECT_TRUE(aln.empty());
    }

    // A deadline that lapses in the middle of phase 2 skips whole
    // groups of hits: each list's hits that trace in the native
    // lanes are one group (one worker, more lists than workers) and
    // every other hit is a group of its own; every group is traced
    // exactly as without a deadline, or skipped, and each member
    // counts its skipped hits one by one. One worker and a clock
    // that ticks once per reading put the lapse at a reproducible
    // check: half-way through the checks phase 2 adds to those of
    // phase 1.
    const bio::SequenceDatabase db = bio::makeDefaultDatabase(300);
    std::vector<serve::Request> requests;
    const kernels::Workload kinds[] = {kernels::Workload::Ssearch34,
                                       kernels::Workload::Fasta34,
                                       kernels::Workload::SwVmx128};
    for (std::size_t i = 0; i < 3; ++i) {
        serve::Request r;
        r.id = i;
        r.kind = kinds[i];
        r.query = queryPool()[i];
        r.topK = db.size();
        r.reportAlignments = true;
        requests.push_back(std::move(r));
    }
    struct Run
    {
        std::vector<serve::Response> responses;
        std::uint64_t reads = 0;
        std::uint64_t traced = 0;
        std::uint64_t skipped = 0;
        std::size_t timedGroups = 0;
    };
    const auto run = [&](const std::vector<serve::Request> &batch,
                         double deadline) {
        serve::Engine eng(db, cfg);
        TickingClock ticks;
        std::vector<double> at(batch.size(), deadline);
        serve::BatchControl ctl;
        ctl.clock = &ticks;
        ctl.deadlinesUs = at.data();
        Run out;
        out.responses = eng.serveBatch(batch, ctl);
        out.reads = ticks.reads();
        out.traced = eng.metrics().counterValue("serve_alignments_total");
        out.skipped =
            eng.metrics().counterValue("serve_tracebacks_skipped_total");
        out.timedGroups =
            eng.metrics().histogram("serve_traceback_us").summary().count;
        return out;
    };
    std::vector<serve::Request> score_only = requests;
    for (serve::Request &r : score_only)
        r.reportAlignments = false;
    const std::uint64_t scan_reads = run(score_only, 1e18).reads;
    const Run ref = run(requests, 1e18);
    ASSERT_GT(ref.reads, scan_reads);
    const Run cut = run(
        requests,
        static_cast<double>(scan_reads + (ref.reads - scan_reads) / 2));

    std::size_t groups_traced = 0;
    std::size_t groups_skipped = 0;
    bool split_list = false;
    std::uint64_t traced_total = 0;
    std::uint64_t skipped_total = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const serve::Response &want = ref.responses[i];
        const serve::Response &got = cut.responses[i];
        EXPECT_EQ(want.tracebacksSkipped, 0u);
        expectSameHits(got.hits, want.hits, "req " + std::to_string(i));
        const std::size_t n = got.hits.size();
        ASSERT_EQ(got.alignments.size(), n);
        const align::NativeQueryProfile profile(
            requests[i].query, bio::blosum62(), cfg.backend);
        std::vector<std::vector<std::size_t>> task_hits(1);
        for (std::size_t h = 0; h < n; ++h) {
            if (align::nativeAlignFitsLanes(profile, cfg.gaps,
                                            got.hits[h].score))
                task_hits[0].push_back(h);
            else
                task_hits.push_back({h});
        }
        ASSERT_GE(task_hits[0].size(), 2u) << "req " << i;
        ASSERT_GT(task_hits.size(), 1u) << "req " << i;
        std::uint64_t traced = 0;
        std::uint64_t skipped = 0;
        for (std::size_t g = 0; g < task_hits.size(); ++g) {
            bool same = true;
            bool empty = true;
            for (const std::size_t h : task_hits[g]) {
                same = same && got.alignments[h] == want.alignments[h];
                empty = empty && got.alignments[h].empty();
            }
            EXPECT_TRUE(same || empty) << "req " << i << " group " << g;
            (same ? traced : skipped) += task_hits[g].size();
            ++(same ? groups_traced : groups_skipped);
        }
        EXPECT_EQ(got.tracebacksSkipped, skipped) << "req " << i;
        EXPECT_EQ(traced + skipped, n) << "req " << i;
        split_list = split_list || (traced > 0 && skipped > 0);
        traced_total += traced;
        skipped_total += skipped;
    }
    EXPECT_GT(groups_traced, 0u);
    EXPECT_GT(groups_skipped, 0u);
    EXPECT_TRUE(split_list);
    EXPECT_EQ(cut.traced, traced_total);
    EXPECT_EQ(cut.skipped, skipped_total);
    // serve_traceback_us holds one sample per group traced.
    EXPECT_EQ(cut.timedGroups, groups_traced);
}

TEST(BlastnServe, EndToEndFindsPlantedLongReadHomologs)
{
    bio::DnaWorkloadSpec spec;
    spec.numReads = 60;
    spec.minLength = 400;
    spec.maxLength = 1200;
    const std::vector<bio::Sequence> queries =
        bio::makeDnaQueryPool(4, 800, 0xD7AD8A5EULL);
    const bio::SequenceDatabase db =
        bio::makeDnaReadDatabase(spec, queries);

    serve::EngineConfig cfg;
    cfg.jobs = 2;
    cfg.shards = 4;
    serve::Engine engine(db, cfg);

    std::vector<serve::Request> requests;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        serve::Request r;
        r.id = i;
        r.kind = kernels::Workload::Blastn;
        r.query = queries[i];
        r.reportAlignments = true;
        requests.push_back(std::move(r));
    }
    const std::vector<serve::Response> got =
        engine.serveBatch(requests);

    const bio::ScoringMatrix mm = bio::makeMatchMismatch(
        cfg.blastn.matchScore, cfg.blastn.mismatchScore);
    const bio::GapPenalties gaps{cfg.blastn.gapOpen,
                                 cfg.blastn.gapExtend};
    for (std::size_t i = 0; i < got.size(); ++i) {
        const serve::Response &r = got[i];
        // Every query has planted homologs: the scan must hit.
        ASSERT_FALSE(r.hits.empty()) << "query " << i;
        EXPECT_GE(r.hits.front().score, cfg.blastn.gapTrigger)
            << "query " << i;
        ASSERT_EQ(r.alignments.size(), r.hits.size());
        for (std::size_t h = 0; h < r.hits.size(); ++h) {
            const align::CigarAlignment &aln = r.alignments[h];
            if (aln.empty())
                continue;
            const bio::Sequence &subject = db[r.hits[h].dbIndex];
            EXPECT_EQ(aln.score, r.hits[h].score)
                << "query " << i << " hit " << h;
            EXPECT_EQ(align::cigarScore(aln, requests[i].query,
                                        subject, mm, gaps),
                      aln.score)
                << "query " << i << " hit " << h;
        }
    }

    // Determinism across jobs/shards holds for the blastn kind too.
    serve::EngineConfig ref_cfg = cfg;
    ref_cfg.jobs = 1;
    ref_cfg.shards = 1;
    serve::Engine ref(db, ref_cfg);
    const std::vector<serve::Response> want =
        ref.serveBatch(requests);
    for (std::size_t i = 0; i < got.size(); ++i) {
        expectSameHits(got[i].hits, want[i].hits,
                       "blastn req " + std::to_string(i));
        EXPECT_EQ(got[i].alignments, want[i].alignments) << i;
    }
}

TEST(BlastnServe, StreamSpecEmitsBlastnRequests)
{
    serve::StreamSpec spec;
    spec.requests = 6;
    spec.kinds = {kernels::Workload::Blastn};
    spec.reportAlignments = true;
    const std::vector<bio::Sequence> pool =
        bio::makeDnaQueryPool(3, 400, 7);
    const std::vector<serve::Request> reqs =
        serve::makeRequestStream(spec, pool);
    ASSERT_EQ(reqs.size(), 6u);
    for (const serve::Request &r : reqs) {
        EXPECT_EQ(r.kind, kernels::Workload::Blastn);
        EXPECT_TRUE(r.reportAlignments);
    }
}

} // namespace
