/**
 * @file
 * Tests for the FASTA heuristic pipeline: k-tuple index, diagonal
 * scan, region rescoring, initn chaining, opt stage, and whole-search
 * sensitivity/selectivity versus Smith-Waterman.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/banded_impl.hh"
#include "align/fasta.hh"
#include "align/smith_waterman.hh"
#include "bio/random.hh"
#include "bio/scoring.hh"
#include "bio/synthetic.hh"
#include "core/thread_pool.hh"
#include "fasta_reference.hh"

namespace
{

using namespace bioarch;
using bio::Sequence;

const bio::ScoringMatrix &kMat = bio::blosum62();
const bio::GapPenalties kGaps{};

TEST(KtupIndex, FindsAllWordOccurrences)
{
    const Sequence q("Q", "", "ACACA"); // words: AC CA AC CA
    const align::KtupIndex index(q, 2);
    EXPECT_EQ(index.ktup(), 2);

    const std::uint32_t ac = index.encode(q.residues().data());
    const auto [ac_begin, ac_end] = index.positions(ac);
    ASSERT_EQ(ac_end - ac_begin, 2);
    EXPECT_EQ(ac_begin[0], 0);
    EXPECT_EQ(ac_begin[1], 2);

    const std::uint32_t ca = index.encode(q.residues().data() + 1);
    const auto [ca_begin, ca_end] = index.positions(ca);
    ASSERT_EQ(ca_end - ca_begin, 2);
    EXPECT_EQ(ca_begin[0], 1);
    EXPECT_EQ(ca_begin[1], 3);
}

TEST(KtupIndex, AbsentWordsHaveEmptyRange)
{
    const Sequence q("Q", "", "AAAA");
    const align::KtupIndex index(q, 2);
    const bio::Residue w[2] = {bio::Alphabet::encode('W'),
                               bio::Alphabet::encode('W')};
    const auto [begin, end] = index.positions(index.encode(w));
    EXPECT_EQ(begin, end);
}

TEST(KtupIndex, ShortQueryYieldsNoWords)
{
    const Sequence q("Q", "", "A");
    const align::KtupIndex index(q, 2);
    EXPECT_EQ(index.queryLength(), 1);
    // No crash, and nothing indexed anywhere: spot-check one word.
    const bio::Residue w[2] = {0, 0};
    const auto [begin, end] = index.positions(index.encode(w));
    EXPECT_EQ(begin, end);
}

/**
 * The direct-address table holds 23^ktup + 1 entries, so a word
 * size outside [1, 4] is refused before anything is allocated
 * (ktup 7 would ask for over 13 GB).
 */
TEST(KtupIndex, RejectsKtupOutsideOneToFour)
{
    const Sequence q("Q", "", "ACDEFGHIK");
    for (const int ktup : {-1, 0, 5, 7, 64})
        EXPECT_THROW(align::KtupIndex(q, ktup), std::invalid_argument)
            << "ktup " << ktup;
    for (int ktup = 1; ktup <= align::KtupIndex::maxKtup; ++ktup) {
        const align::KtupIndex index(q, ktup);
        const auto [begin, end] =
            index.positions(index.encode(q.residues().data()));
        ASSERT_EQ(end - begin, 1) << "ktup " << ktup;
        EXPECT_EQ(*begin, 0);
    }
}

TEST(FastaScan, PerfectMatchScoresNearSelf)
{
    const Sequence q = bio::makeDefaultQuery();
    const align::KtupIndex index(q, 2);
    const align::BandedProfile profile(q, kMat);
    const align::FastaScores fs =
        align::fastaScan(index, profile, q, q, kMat, kGaps, {});
    const int self = align::smithWatermanScore(q, q, kMat, kGaps).score;
    EXPECT_EQ(fs.opt, self); // band includes the main diagonal
    EXPECT_GT(fs.init1, 0);
    EXPECT_GE(fs.initn, fs.init1);
}

TEST(FastaScan, NoHitsOnDissimilarSequences)
{
    // Sequences over disjoint residue sets share no 2-mers.
    const Sequence q("Q", "", "ACACACACAC");
    const Sequence s("S", "", "WYWYWYWYWY");
    const align::KtupIndex index(q, 2);
    const align::BandedProfile profile(q, kMat);
    const align::FastaScores fs =
        align::fastaScan(index, profile, q, s, kMat, kGaps, {});
    EXPECT_EQ(fs.init1, 0);
    EXPECT_EQ(fs.initn, 0);
    EXPECT_EQ(fs.opt, 0);
    EXPECT_TRUE(fs.regions.empty());
}

TEST(FastaScan, OptNeverExceedsSmithWaterman)
{
    bio::Rng rng(31337);
    const align::FastaParams params;
    for (int t = 0; t < 20; ++t) {
        const Sequence q = bio::makeRandomSequence(
            rng, static_cast<int>(30 + rng.below(100)));
        const Sequence s =
            bio::mutate(rng, q, 0.4 + rng.uniform() * 0.5, "S", "");
        const align::KtupIndex index(q, params.ktup);
        const align::BandedProfile profile(q, kMat);
        const align::FastaScores fs = align::fastaScan(
            index, profile, q, s, kMat, kGaps, params);
        const int sw =
            align::smithWatermanScore(q, s, kMat, kGaps).score;
        EXPECT_LE(fs.opt, sw);
        EXPECT_LE(fs.init1, fs.initn);
    }
}

/**
 * The opt stage on the native banded kernel, over a corpus: for the
 * seeded query set against a Zipf database, every FastaScores field
 * on every runnable backend equals a scalar reference. The reference
 * runs stages 2-4 with the opt stage switched off and takes opt from
 * the scalar band oracle around regions.front().diag.
 */
TEST(FastaScan, CorpusMatchesScalarReferenceOnEveryBackend)
{
    const std::vector<Sequence> queries = bio::makeQuerySet();
    const bio::SequenceDatabase db = bio::makeZipfDatabase(120, 0xFA57A);
    const align::FastaParams params;
    align::FastaParams no_opt = params;
    no_opt.optThreshold = std::numeric_limits<int>::max();
    int opt_runs = 0;
    for (const Sequence &q : queries) {
        const align::KtupIndex index(q, params.ktup);
        std::vector<align::BandedProfile> profiles;
        for (const align::SimdBackend b : align::runnableBackends())
            profiles.emplace_back(q, kMat, b);
        for (std::size_t k = 0; k < db.size(); ++k) {
            const Sequence &s = db[k];
            align::FastaScores ref = align::fastaScan(
                index, profiles.front(), q, s, kMat, kGaps, no_opt);
            if (ref.initn >= params.optThreshold) {
                ref.opt = align::bandedSmithWatermanScan(
                              q, s, kMat, kGaps, ref.regions.front().diag,
                              params.bandHalfWidth,
                              [](int, int, int, int, int) {})
                              .score;
                ++opt_runs;
            }
            for (const align::BandedProfile &profile : profiles) {
                const align::FastaScores got = align::fastaScan(
                    index, profile, q, s, kMat, kGaps, params);
                const auto where = [&] {
                    return std::string(
                               align::backendName(profile.backend()))
                        + " query " + q.id() + " subject "
                        + std::to_string(k);
                };
                ASSERT_EQ(got.init1, ref.init1) << where();
                ASSERT_EQ(got.initn, ref.initn) << where();
                ASSERT_EQ(got.opt, ref.opt) << where();
                ASSERT_EQ(got.regions, ref.regions) << where();
            }
        }
    }
    EXPECT_GT(opt_runs, 100);
}

/**
 * Every FastaScores field of fastaScan for query @p q against
 * subject @p s, on each of @p profiles' backends, against the
 * reference stages 2-4 (tests/fasta_reference.hh) plus the same
 * backend's band around the reference's best region for opt.
 */
::testing::AssertionResult
matchesReference(const align::KtupIndex &index,
                 std::span<const align::BandedProfile> profiles,
                 const Sequence &q, const Sequence &s,
                 const align::FastaParams &params)
{
    align::FastaScores ref =
        reference::fastaStages2to4(index, q, s, kMat, params);
    for (const align::BandedProfile &profile : profiles) {
        if (ref.initn >= params.optThreshold)
            ref.opt = align::bandedSmithWaterman(
                          profile, s, kGaps, ref.regions.front().diag,
                          params.bandHalfWidth)
                          .score;
        const align::FastaScores got = align::fastaScan(
            index, profile, q, s, kMat, kGaps, params);
        if (got.init1 != ref.init1 || got.initn != ref.initn
            || got.opt != ref.opt || got.regions != ref.regions) {
            return ::testing::AssertionFailure()
                << align::backendName(profile.backend()) << " ktup "
                << params.ktup << " query " << q.id() << " ("
                << q.length() << ") subject " << s.id() << " ("
                << s.length() << "): init1 " << got.init1 << "/"
                << ref.init1 << " initn " << got.initn << "/"
                << ref.initn << " opt " << got.opt << "/" << ref.opt
                << " regions " << got.regions.size() << "/"
                << ref.regions.size();
        }
    }
    return ::testing::AssertionSuccess();
}

/** A profile of @p q on every runnable backend. */
std::vector<align::BandedProfile>
profilesOf(const Sequence &q)
{
    std::vector<align::BandedProfile> profiles;
    for (const align::SimdBackend b : align::runnableBackends())
        profiles.emplace_back(q, kMat, b);
    return profiles;
}

/**
 * A low-complexity sequence: @p motif repeated to @p length, each
 * residue replaced by a random one with probability @p noise. Two of
 * them from one motif put hundreds of hits on single diagonals, with
 * gaps of every size between them.
 */
Sequence
repeatSequence(bio::Rng &rng, const std::string &motif, int length,
               double noise, const std::string &id)
{
    std::string text;
    for (int i = 0; i < length; ++i)
        text += rng.chance(noise)
            ? "ACDEFGHIKLMNPQRSTVWY"[rng.below(20)]
            : motif[static_cast<std::size_t>(i) % motif.size()];
    return Sequence(id, "", text);
}

/**
 * fastaScan's branch-free stage 2 (rolling word codes, SoA diagonal
 * state, selects for the gap cases and the best region, candidates
 * keyed in diagonal order) against the branchy reference it
 * replaced, field for field, at ktup 1, 2 and 3: over perfbench's
 * 11 queries x 1000 Zipf subjects, and over a seeded corpus of
 * lengths 0 to ktup + 1, low-complexity repeats and 3000-residue
 * self-alignments. The corpus and the default ktup 2 run on every
 * runnable backend; ktup 1 and 3 over the perfbench pairs run on
 * the default backend (the backend only chooses the opt band's
 * kernel, which ktup 2 already covers there).
 */
TEST(FastaScan, MatchesParentReference)
{
    const std::vector<Sequence> queries = bio::makeQuerySet();
    const bio::SequenceDatabase db =
        bio::makeZipfDatabase(1000, 0xDBDBDBDB);
    for (const int ktup : {1, 2, 3}) {
        align::FastaParams params;
        params.ktup = ktup;
        for (const Sequence &q : queries) {
            const align::KtupIndex index(q, ktup);
            const std::vector<align::BandedProfile> all = profilesOf(q);
            const auto profiles = std::span(all).first(
                ktup == align::FastaParams{}.ktup ? all.size() : 1);
            for (const Sequence &s : db)
                ASSERT_TRUE(matchesReference(index, profiles, q, s, params));
        }
    }

    bio::Rng rng(0xFA57C);
    std::vector<std::pair<Sequence, Sequence>> corpus;
    for (int qlen = 0; qlen <= 4; ++qlen)
        for (int slen = 0; slen <= 4; ++slen) {
            const Sequence q = bio::makeRandomSequence(rng, qlen, "short");
            corpus.emplace_back(q, bio::makeRandomSequence(rng, slen, "r"));
            corpus.emplace_back(
                q, Sequence("prefix", "",
                            std::vector<bio::Residue>(
                                q.residues().begin(),
                                q.residues().begin()
                                    + std::min(qlen, slen))));
        }
    for (const std::string motif : {"A", "AC", "WKW", "GGSP", "LLLLV"})
        for (int t = 0; t < 6; ++t)
            corpus.emplace_back(
                repeatSequence(rng, motif,
                               static_cast<int>(100 + rng.below(400)),
                               0.05 * t, "rep"),
                repeatSequence(rng, motif,
                               static_cast<int>(100 + rng.below(400)),
                               0.03 * t, "rep"));
    for (int t = 0; t < 40; ++t) {
        const Sequence q = bio::makeRandomSequence(
            rng, static_cast<int>(1 + rng.below(400)), "rnd");
        corpus.emplace_back(q, bio::mutate(rng, q, 0.3 + 0.7 * rng.uniform(),
                                           "mut", ""));
    }
    const Sequence big = bio::makeRandomSequence(rng, 3000, "big");
    corpus.emplace_back(big, big);
    corpus.emplace_back(big, bio::mutate(rng, big, 0.8, "bigmut", ""));
    const Sequence big_rep = repeatSequence(rng, "AKQ", 3000, 0.02, "bigrep");
    corpus.emplace_back(big_rep, big_rep);

    for (const int ktup : {1, 2, 3}) {
        align::FastaParams params;
        params.ktup = ktup;
        for (const auto &[q, s] : corpus) {
            const align::KtupIndex index(q, ktup);
            ASSERT_TRUE(matchesReference(index, profilesOf(q), q, s, params));
        }
    }
}

/**
 * fastaScan keeps its stage-2 diagonal state in per-thread scratch
 * that every call resets for its own diagonals. Scanning the corpus
 * from a thread pool, with each worker switching between queries
 * and subjects of different lengths, must give exactly the serial
 * results (and, under ThreadSanitizer, no race). One long
 * low-complexity query makes workers switch between very different
 * diagonal counts and hit densities.
 */
TEST(FastaScan, ThreadPoolScanEqualsSerial)
{
    std::vector<Sequence> queries = bio::makeQuerySet();
    bio::Rng rng(0xFA57D);
    queries.push_back(repeatSequence(rng, "SSGK", 2500, 0.1, "lowcx"));
    const bio::SequenceDatabase db = bio::makeZipfDatabase(60, 0xFA57B);
    const align::FastaParams params;
    std::vector<align::KtupIndex> indexes;
    std::vector<align::BandedProfile> profiles;
    for (const Sequence &q : queries) {
        indexes.emplace_back(q, params.ktup);
        profiles.emplace_back(q, kMat);
    }
    const std::size_t nq = queries.size();
    const auto scan = [&](std::size_t t) {
        const std::size_t q = t % nq;
        return align::fastaScan(indexes[q], profiles[q], queries[q],
                                db[t / nq], kMat, kGaps, params);
    };

    const std::size_t tasks = nq * db.size();
    std::vector<align::FastaScores> serial;
    for (std::size_t t = 0; t < tasks; ++t)
        serial.push_back(scan(t));
    std::vector<align::FastaScores> pooled(tasks);
    core::ThreadPool pool(4);
    pool.parallelFor(tasks,
                     [&](std::size_t t) { pooled[t] = scan(t); });

    std::size_t with_regions = 0;
    for (std::size_t t = 0; t < tasks; ++t) {
        const std::string where = "query " + queries[t % nq].id()
            + " subject " + std::to_string(t / nq);
        ASSERT_EQ(pooled[t].init1, serial[t].init1) << where;
        ASSERT_EQ(pooled[t].initn, serial[t].initn) << where;
        ASSERT_EQ(pooled[t].opt, serial[t].opt) << where;
        ASSERT_EQ(pooled[t].regions, serial[t].regions) << where;
        with_regions += serial[t].regions.empty() ? 0 : 1;
    }
    EXPECT_GT(with_regions, tasks / 2);
}

TEST(FastaScan, RegionsLieWithinSequences)
{
    bio::Rng rng(777);
    const Sequence q = bio::makeRandomSequence(rng, 120);
    const Sequence s = bio::mutate(rng, q, 0.8, "S", "");
    const align::KtupIndex index(q, 2);
    const align::BandedProfile profile(q, kMat);
    const align::FastaScores fs =
        align::fastaScan(index, profile, q, s, kMat, kGaps, {});
    for (const align::FastaRegion &r : fs.regions) {
        EXPECT_GE(r.queryStart, 0);
        EXPECT_LE(r.queryEnd,
                  static_cast<int>(q.length()) - 1);
        EXPECT_LE(r.queryStart, r.queryEnd);
        EXPECT_GE(r.queryStart + r.diag, 0);
        EXPECT_LE(r.queryEnd + r.diag,
                  static_cast<int>(s.length()) - 1);
        EXPECT_GT(r.score, 0);
    }
}

TEST(FastaSearch, FindsPlantedHomologs)
{
    const Sequence query = bio::makeDefaultQuery();
    bio::DatabaseSpec spec;
    spec.numSequences = 80;
    const bio::SequenceDatabase db = bio::makeDatabase(spec, {query});
    const align::SearchResults res =
        align::fastaSearch(query, db, kMat, kGaps);

    ASSERT_FALSE(res.hits.empty());
    // The highest-identity homolog must rank first.
    const Sequence &top = db[res.hits.front().dbIndex];
    EXPECT_NE(top.description().find("homolog of P14942"),
              std::string::npos);
    // All 0.9-identity homologs must appear somewhere in the hits
    // (FASTA trades sensitivity for speed, but not at 90% identity).
    int planted_found = 0;
    for (const align::SearchHit &h : res.hits) {
        if (db[h.dbIndex].description().find("id=0.9")
            != std::string::npos)
            ++planted_found;
    }
    EXPECT_GE(planted_found, 1);
}

TEST(FastaSearch, DoesLessWorkThanSmithWaterman)
{
    const Sequence query = bio::makeDefaultQuery();
    const bio::SequenceDatabase db = bio::makeDefaultDatabase(40);
    const align::SearchResults fasta =
        align::fastaSearch(query, db, kMat, kGaps);
    // Full SW work = m * n cells.
    const std::uint64_t sw_cells =
        query.length() * db.totalResidues();
    EXPECT_LT(fasta.cellsComputed, sw_cells / 2)
        << "FASTA must prescreen away most DP work";
}

TEST(FastaSearch, HitsAreSortedAndBounded)
{
    const Sequence query = bio::makeDefaultQuery();
    const bio::SequenceDatabase db = bio::makeDefaultDatabase(60);
    const align::SearchResults res =
        align::fastaSearch(query, db, kMat, kGaps, {}, 10);
    EXPECT_LE(res.hits.size(), 10u);
    for (std::size_t i = 1; i < res.hits.size(); ++i)
        EXPECT_GE(res.hits[i - 1].score, res.hits[i].score);
}

} // namespace
