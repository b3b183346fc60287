/**
 * @file
 * Tests of the reference aligners: Smith-Waterman (score and
 * traceback) and banded SW, including property tests
 * against each other on random sequences.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "align/banded.hh"
#include "align/banded_impl.hh"
#include "align/blast.hh"
#include "align/blastn.hh"
#include "align/fasta.hh"
#include "align/smith_waterman.hh"
#include "align/ssearch.hh"
#include "bio/nucleotide.hh"
#include "bio/random.hh"
#include "bio/scoring.hh"
#include "bio/synthetic.hh"

namespace
{

using namespace bioarch;
using bio::Sequence;

const bio::ScoringMatrix &kMat = bio::blosum62();
const bio::GapPenalties kGaps{};

Sequence
seq(const std::string &letters)
{
    return Sequence("S", "", letters);
}

TEST(SmithWaterman, IdenticalSequencesScoreSelfSimilarity)
{
    const Sequence s = seq("ACDEFGHIKLMNPQRSTVWY");
    const align::LocalScore ls =
        align::smithWatermanScore(s, s, kMat, kGaps);
    int self = 0;
    for (std::size_t i = 0; i < s.length(); ++i)
        self += kMat.score(s[i], s[i]);
    EXPECT_EQ(ls.score, self);
    EXPECT_EQ(ls.queryEnd, 19);
    EXPECT_EQ(ls.subjectEnd, 19);
}

TEST(SmithWaterman, EmptySequencesScoreZero)
{
    const Sequence e("E", "", "");
    const Sequence s = seq("ACDEF");
    EXPECT_EQ(align::smithWatermanScore(e, s, kMat, kGaps).score, 0);
    EXPECT_EQ(align::smithWatermanScore(s, e, kMat, kGaps).score, 0);
    EXPECT_EQ(align::smithWatermanScore(e, e, kMat, kGaps).score, 0);
}

TEST(SmithWaterman, UnrelatedShortSequencesCanScoreZero)
{
    // With match/mismatch scoring and no matching residues, the best
    // local score is 0 (the empty alignment).
    const bio::ScoringMatrix mm = bio::makeMatchMismatch(1, -1);
    const align::LocalScore ls = align::smithWatermanScore(
        seq("AAAA"), seq("WWWW"), mm, kGaps);
    EXPECT_EQ(ls.score, 0);
    EXPECT_EQ(ls.queryEnd, -1);
}

TEST(SmithWaterman, FindsEmbeddedMotif)
{
    // Motif embedded in unrelated context must be found exactly.
    const std::string motif = "WWCHHWWC";
    const Sequence q = seq(motif);
    const Sequence s = seq("AAAAAAA" + motif + "GGGGGGG");
    const align::LocalScore ls =
        align::smithWatermanScore(q, s, kMat, kGaps);
    int self = 0;
    for (std::size_t i = 0; i < q.length(); ++i)
        self += kMat.score(q[i], q[i]);
    EXPECT_EQ(ls.score, self);
    EXPECT_EQ(ls.subjectEnd, 7 + 7);
}

TEST(SmithWaterman, GapCostReducesScoreAsExpected)
{
    // Query = two identical halves of subject with a 3-residue
    // insertion in the subject: best alignment bridges with one gap.
    const std::string half1 = "WWCHHWWCYY";
    const std::string half2 = "MMFFWWYYCC";
    const Sequence q = seq(half1 + half2);
    const Sequence s = seq(half1 + "AAA" + half2);
    const align::LocalScore ls =
        align::smithWatermanScore(q, s, kMat, kGaps);
    int self = 0;
    for (std::size_t i = 0; i < q.length(); ++i)
        self += kMat.score(q[i], q[i]);
    EXPECT_EQ(ls.score, self - kGaps.cost(3));
}

TEST(SmithWatermanAlign, TracebackMatchesScore)
{
    const Sequence q = seq("WWCHHWWCYYMMFFWWYYCC");
    const Sequence s = seq("WWCHHWWCYYAAAMMFFWWYYCC");
    const align::Alignment a =
        align::smithWatermanAlign(q, s, kMat, kGaps);
    const align::LocalScore ls =
        align::smithWatermanScore(q, s, kMat, kGaps);
    EXPECT_EQ(a.score, ls.score);

    // Recompute the score from the aligned strings.
    int recomputed = 0;
    int gap_run = 0;
    for (std::size_t c = 0; c < a.alignedQuery.size(); ++c) {
        const char qc = a.alignedQuery[c];
        const char sc = a.alignedSubject[c];
        ASSERT_FALSE(qc == '-' && sc == '-');
        if (qc == '-' || sc == '-') {
            ++gap_run;
        } else {
            if (gap_run > 0) {
                recomputed -= kGaps.cost(gap_run);
                gap_run = 0;
            }
            recomputed += kMat.score(bio::Alphabet::encode(qc),
                                     bio::Alphabet::encode(sc));
        }
    }
    if (gap_run > 0)
        recomputed -= kGaps.cost(gap_run);
    EXPECT_EQ(recomputed, a.score);
    EXPECT_EQ(a.alignedQuery.size(), a.alignedSubject.size());
}

TEST(SmithWatermanAlign, IdentityAlignmentHasNoGaps)
{
    const Sequence s = seq("ACDEFGHIKLMNPQRSTVWY");
    const align::Alignment a =
        align::smithWatermanAlign(s, s, kMat, kGaps);
    EXPECT_EQ(a.alignedQuery, a.alignedSubject);
    EXPECT_EQ(a.identities, 20);
    EXPECT_DOUBLE_EQ(a.identityFraction(), 1.0);
    EXPECT_EQ(a.queryStart, 0);
    EXPECT_EQ(a.queryEnd, 19);
}

TEST(Banded, FullWidthBandEqualsFullSmithWaterman)
{
    bio::Rng rng(123);
    for (int t = 0; t < 30; ++t) {
        const int la = static_cast<int>(5 + rng.below(80));
        const int lb = static_cast<int>(5 + rng.below(80));
        const Sequence a = bio::makeRandomSequence(rng, la);
        const Sequence b = bio::makeRandomSequence(rng, lb);
        const align::LocalScore full =
            align::smithWatermanScore(a, b, kMat, kGaps);
        const align::LocalScore banded = align::bandedSmithWaterman(
            a, b, kMat, kGaps, 0, la + lb);
        EXPECT_EQ(banded.score, full.score)
            << "trial " << t << " len " << la << "x" << lb;
    }
}

TEST(Banded, NarrowBandNeverExceedsFull)
{
    bio::Rng rng(321);
    for (int t = 0; t < 30; ++t) {
        const Sequence a = bio::makeRandomSequence(
            rng, static_cast<int>(20 + rng.below(60)));
        const Sequence b = bio::makeRandomSequence(
            rng, static_cast<int>(20 + rng.below(60)));
        const int full =
            align::smithWatermanScore(a, b, kMat, kGaps).score;
        for (int hw : {0, 2, 8}) {
            const int banded = align::bandedSmithWaterman(
                a, b, kMat, kGaps, 0, hw).score;
            EXPECT_LE(banded, full);
        }
    }
}

TEST(Banded, CapturesOnDiagonalMotif)
{
    const std::string motif = "WWCHHWWCYY";
    const Sequence q = seq(motif);
    const Sequence s = seq(motif);
    const align::LocalScore banded = align::bandedSmithWaterman(
        q, s, kMat, kGaps, 0, 0); // main diagonal only
    int self = 0;
    for (std::size_t i = 0; i < q.length(); ++i)
        self += kMat.score(q[i], q[i]);
    EXPECT_EQ(banded.score, self);
}

TEST(Banded, EmptyBandOffMatrixScoresZero)
{
    const Sequence q = seq("ACDEF");
    const Sequence s = seq("ACDEF");
    // Band centered far off the matrix: no cells at all.
    const align::LocalScore ls = align::bandedSmithWaterman(
        q, s, kMat, kGaps, 1000, 2);
    EXPECT_EQ(ls.score, 0);
}

/** The scalar band: the hook template with a no-op hook. */
align::LocalScore
bandedOracle(const Sequence &q, const Sequence &s,
             const bio::GapPenalties &gaps, int center, int half_width)
{
    return align::bandedSmithWatermanScan(
        q, s, kMat, gaps, center, half_width,
        [](int, int, int, int, int) {});
}

/**
 * Exactness of the native banded kernel: on every runnable backend,
 * score, queryEnd and subjectEnd equal the scalar oracle's. The
 * fuzz covers half-widths around each lane count, bands wider than
 * the matrix, centers off the matrix on both sides, lengths 1-600,
 * traceback_test's extremeGaps() plus open = 0 and free gaps, and
 * self-alignments just below and past the 16-bit lane limit (the
 * latter only through the scalar fallback).
 */
TEST(Banded, NativeMatchesScalarOracle)
{
    const std::vector<bio::GapPenalties> gap_sets = {
        {10, 1}, {1, 1}, {40, 2}, {0, 5}, // extremeGaps()
        {0, 1},  {5, 2}, {12, 3}, {0, 0}};
    const int widths[] = {0, 1, 7, 8, 15, 16, 17, 31, 32, 33, 64};
    const auto &backends = align::runnableBackends();
    const auto check = [&](const Sequence &q, const Sequence &s,
                           const bio::GapPenalties &gaps, int center,
                           int half_width) -> int {
        const align::LocalScore ref =
            bandedOracle(q, s, gaps, center, half_width);
        for (const align::SimdBackend backend : backends) {
            const align::BandedProfile profile(q, kMat, backend);
            const align::LocalScore got = align::bandedSmithWaterman(
                profile, s, gaps, center, half_width);
            EXPECT_EQ(got, ref)
                << align::backendName(backend) << " m=" << q.length()
                << " n=" << s.length() << " center=" << center
                << " half_width=" << half_width << " gaps={"
                << gaps.open << "," << gaps.extend << "} got {"
                << got.score << "," << got.queryEnd << ","
                << got.subjectEnd << "} want {" << ref.score << ","
                << ref.queryEnd << "," << ref.subjectEnd << "}";
        }
        return ref.score;
    };

    bio::Rng rng(0xBA7DED);
    int positive = 0;
    for (int iter = 0; iter < 1500; ++iter) {
        const int cap = iter % 16 == 0 ? 600 : 150;
        const int la = static_cast<int>(1 + rng.below(cap));
        const Sequence q = bio::makeRandomSequence(rng, la);
        const Sequence s = iter % 3 == 0
            ? bio::makeRandomSequence(
                  rng, static_cast<int>(1 + rng.below(cap)))
            : bio::mutate(rng, q, 0.4 + 0.5 * rng.uniform(), "S", "");
        const int m = static_cast<int>(q.length());
        const int n = static_cast<int>(s.length());
        const bio::GapPenalties &gaps =
            gap_sets[static_cast<std::size_t>(iter) % gap_sets.size()];
        const int half_width = iter % 13 == 0
            ? m + n + static_cast<int>(rng.below(50))
            : widths[rng.below(std::size(widths))];
        int center;
        switch (iter % 10) {
        case 0: // wholly above/right of the matrix
            center = n + half_width + static_cast<int>(rng.below(20));
            break;
        case 1: // wholly below/left of it
            center = -m - half_width - static_cast<int>(rng.below(20));
            break;
        default: // anywhere the band still touches the matrix
            center = -(m - 1) - half_width
                + static_cast<int>(
                         rng.below(static_cast<std::uint64_t>(
                             m + n + 2 * half_width - 1)));
        }
        positive += check(q, s, gaps, center, half_width) > 0;
        if (HasFailure())
            return;
    }
    EXPECT_GT(positive, 1000);

    // Self-alignments of "WC" repeats: every second diagonal ties
    // closely with the main one. 2900 residues score 29000, inside
    // the 16-bit lanes; 3400 score 34000 and must come back through
    // the scalar fallback.
    for (const int len : {2900, 3400}) {
        std::string letters;
        for (int k = 0; k < len / 2; ++k)
            letters += "WC";
        const Sequence q = seq(letters);
        for (const int half_width : {0, 16}) {
            const int score = check(q, q, kGaps, 0, half_width);
            EXPECT_EQ(score > 32767, len == 3400) << score;
        }
    }
}

/**
 * Property: SW local score is symmetric in its arguments
 * (the matrix is symmetric).
 */
TEST(SmithWatermanProperty, ScoreIsSymmetric)
{
    bio::Rng rng(55);
    for (int t = 0; t < 40; ++t) {
        const Sequence a = bio::makeRandomSequence(
            rng, static_cast<int>(5 + rng.below(70)));
        const Sequence b = bio::makeRandomSequence(
            rng, static_cast<int>(5 + rng.below(70)));
        EXPECT_EQ(align::smithWatermanScore(a, b, kMat, kGaps).score,
                  align::smithWatermanScore(b, a, kMat, kGaps).score);
    }
}

/**
 * Property: appending residues to the subject never lowers the local
 * score (monotonicity of local alignment under extension).
 */
TEST(SmithWatermanProperty, ExtensionIsMonotonic)
{
    bio::Rng rng(66);
    for (int t = 0; t < 30; ++t) {
        const Sequence q = bio::makeRandomSequence(
            rng, static_cast<int>(10 + rng.below(40)));
        Sequence s = bio::makeRandomSequence(
            rng, static_cast<int>(10 + rng.below(40)));
        const int base =
            align::smithWatermanScore(q, s, kMat, kGaps).score;
        // Extend the subject and rescore.
        std::vector<bio::Residue> ext = s.residues();
        for (int k = 0; k < 10; ++k)
            ext.push_back(static_cast<bio::Residue>(rng.below(20)));
        const Sequence s2("S2", "", std::move(ext));
        const int extended =
            align::smithWatermanScore(q, s2, kMat, kGaps).score;
        EXPECT_GE(extended, base);
    }
}

/**
 * Property: alignment traceback score always equals score-only scan
 * on random homologous pairs (exercises gap paths heavily).
 */
TEST(SmithWatermanProperty, TracebackEqualsScanOnHomologs)
{
    bio::Rng rng(88);
    for (int t = 0; t < 20; ++t) {
        const Sequence a = bio::makeRandomSequence(
            rng, static_cast<int>(40 + rng.below(80)));
        const Sequence b =
            bio::mutate(rng, a, 0.7, "B", "mutated copy");
        const align::Alignment full =
            align::smithWatermanAlign(a, b, kMat, kGaps);
        const align::LocalScore scan =
            align::smithWatermanScore(a, b, kMat, kGaps);
        EXPECT_EQ(full.score, scan.score);
        EXPECT_EQ(full.queryEnd, scan.queryEnd);
        EXPECT_EQ(full.subjectEnd, scan.subjectEnd);
    }
}

/** True when @p res holds @p count hits of one score, in ascending
 * database order. */
::testing::AssertionResult
tiedHitsInDbOrder(const align::SearchResults &res, std::size_t count)
{
    if (res.hits.size() != count)
        return ::testing::AssertionFailure()
            << res.hits.size() << " hits, expected " << count;
    for (std::size_t k = 0; k < res.hits.size(); ++k) {
        if (res.hits[k].score != res.hits[0].score)
            return ::testing::AssertionFailure()
                << "hit " << k << " is not tied";
        if (res.hits[k].dbIndex != k)
            return ::testing::AssertionFailure()
                << "rank " << k << " holds dbIndex "
                << res.hits[k].dbIndex;
    }
    return ::testing::AssertionSuccess();
}

TEST(SearchRanking, TiedHitsComeBackInDatabaseOrder)
{
    // Every driver ranks by (score desc, dbIndex asc): a database of
    // identical subjects returns them in database order, not in the
    // order an unstable sort leaves equal scores.
    constexpr std::size_t copies = 48;
    bio::Rng rng(0x7135);
    const Sequence query = bio::makeRandomSequence(rng, 120);
    const Sequence subject = bio::mutate(rng, query, 0.8, "H", "");
    bio::SequenceDatabase db;
    for (std::size_t k = 0; k < copies; ++k)
        db.add(subject);
    EXPECT_TRUE(tiedHitsInDbOrder(
        align::ssearchSearch(query, db, kMat, kGaps), copies));
    EXPECT_TRUE(tiedHitsInDbOrder(
        align::fastaSearch(query, db, kMat, kGaps), copies));
    EXPECT_TRUE(tiedHitsInDbOrder(
        align::blastSearch(query, db, kMat, kGaps), copies));

    const bio::PackedDna dna_query = bio::makeRandomDna(rng, 300);
    const bio::PackedDna dna_subject =
        bio::mutateDna(rng, dna_query, 0.9, "H");
    bio::DnaDatabase dna_db;
    for (std::size_t k = 0; k < copies; ++k)
        dna_db.add(dna_subject);
    EXPECT_TRUE(tiedHitsInDbOrder(
        align::blastnSearch(dna_query, dna_db), copies));
}

} // namespace
