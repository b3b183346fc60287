/**
 * @file
 * Correctness gates of the traceback reporting tier.
 *
 * The central contracts:
 *  - nativeLocalAlign's score is bit-identical to the full-matrix
 *    smithWatermanAlign on fuzzed protein, DNA and low-complexity
 *    pairs, on every runnable backend, every overflow-ladder rung
 *    and every end hint, its CIGAR replays to exactly that score
 *    through the cigarScore oracle, and the alignment itself is
 *    the same whichever backend or hint produced it;
 *  - memory stays bounded: direction codes within
 *    tracebackCodeBudget, and an over-budget window falls back to
 *    Myers-Miller with peak live DP cells O(min(m, n));
 *  - bandedExtendAlign, BLAST's traced gapped stage, scores
 *    bit-identically to the score-only banded scan;
 *  - blastAlign / blastnAlign reproduce exactly the score their
 *    score-only twins ranked by;
 *  - NativeAlignParity pins a digest of every native alignment of a
 *    seeded corpus, so a kernel change cannot move one cell or CIGAR.
 */

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "align/banded.hh"
#include "align/blast.hh"
#include "align/blastn.hh"
#include "align/smith_waterman.hh"
#include "align/sw_intersequence_native.hh"
#include "align/sw_striped_native.hh"
#include "align/traceback/banded_extend.hh"
#include "align/traceback/cigar.hh"
#include "align/traceback/native_align.hh"
#include "bio/nucleotide.hh"
#include "bio/random.hh"
#include "bio/scoring.hh"
#include "bio/synthetic.hh"
#include "core/digest.hh"

namespace
{

using namespace bioarch;
using namespace bioarch::align;

bio::Sequence
randomDnaSeq(bio::Rng &rng, int length)
{
    std::vector<bio::Residue> res(static_cast<std::size_t>(length));
    for (auto &r : res)
        r = static_cast<bio::Residue>(rng.below(4));
    return bio::Sequence("DNA", "", std::move(res));
}

bio::Sequence
mutateDnaSeq(bio::Rng &rng, const bio::Sequence &src, double identity)
{
    std::vector<bio::Residue> res;
    res.reserve(src.length());
    for (std::size_t i = 0; i < src.length(); ++i) {
        const double p =
            static_cast<double>(rng.below(1000)) / 1000.0;
        if (p < identity) {
            res.push_back(src[i]);
        } else if (rng.below(8) == 0) {
            // Short indel: skip a base or insert a random one.
            if (rng.below(2) == 0)
                continue;
            res.push_back(static_cast<bio::Residue>(rng.below(4)));
            res.push_back(src[i]);
        } else {
            res.push_back(static_cast<bio::Residue>(rng.below(4)));
        }
    }
    if (res.empty())
        res.push_back(0);
    return bio::Sequence("MUT", "", std::move(res));
}

/** Assert every reporting-tier invariant of one alignment. */
void
checkAlignment(const CigarAlignment &aln, const bio::Sequence &q,
               const bio::Sequence &s,
               const bio::ScoringMatrix &matrix,
               const bio::GapPenalties &gaps)
{
    if (aln.empty()) {
        EXPECT_EQ(aln.score, 0);
        EXPECT_GT(aln.qBegin, aln.qEnd);
        return;
    }
    EXPECT_GT(aln.score, 0);
    EXPECT_GE(aln.qBegin, 0);
    EXPECT_GE(aln.sBegin, 0);
    EXPECT_LT(aln.qEnd, static_cast<int>(q.length()));
    EXPECT_LT(aln.sEnd, static_cast<int>(s.length()));
    EXPECT_LE(aln.qBegin, aln.qEnd);
    EXPECT_LE(aln.sBegin, aln.sEnd);
    EXPECT_EQ(cigarQuerySpan(aln.cigar), aln.qEnd - aln.qBegin + 1);
    EXPECT_EQ(cigarSubjectSpan(aln.cigar),
              aln.sEnd - aln.sBegin + 1);
    EXPECT_GE(aln.identities, 0);
    EXPECT_LE(aln.identities, aln.columns);
    // The oracle: the CIGAR must replay to exactly the reported
    // score (throws on any out-of-bounds or span inconsistency).
    EXPECT_EQ(cigarScore(aln, q, s, matrix, gaps), aln.score);
}

const std::vector<bio::GapPenalties> &
extremeGaps()
{
    // Default, near-free open, brutal open, linear-ish heavy extend.
    static const std::vector<bio::GapPenalties> gaps = {
        {10, 1}, {1, 1}, {40, 2}, {0, 5}};
    return gaps;
}

TEST(Cigar, AppendMergesAdjacentRunsAndFormats)
{
    Cigar c;
    cigarAppend(c, 'M', 3);
    cigarAppend(c, 'M', 2);
    cigarAppend(c, 'I', 1);
    cigarAppend(c, 'I', 4);
    cigarAppend(c, 'D', 2);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(cigarToString(c), "5M5I2D");
    EXPECT_EQ(cigarQuerySpan(c), 10);
    EXPECT_EQ(cigarSubjectSpan(c), 7);
}

TEST(Cigar, ScoreOracleRejectsMalformedAlignments)
{
    bio::Rng rng(1);
    const bio::Sequence q = bio::makeRandomSequence(rng, 20);
    const bio::Sequence s = bio::makeRandomSequence(rng, 20);
    const bio::GapPenalties gaps;
    const bio::ScoringMatrix &m = bio::blosum62();

    CigarAlignment walk_out;
    walk_out.qBegin = 15;
    walk_out.qEnd = 24;
    walk_out.sBegin = 0;
    walk_out.sEnd = 9;
    walk_out.cigar = {{'M', 10}};
    EXPECT_THROW(cigarScore(walk_out, q, s, m, gaps),
                 std::invalid_argument);

    CigarAlignment span_lie;
    span_lie.qBegin = 0;
    span_lie.qEnd = 9;
    span_lie.sBegin = 0;
    span_lie.sEnd = 8; // CIGAR consumes 10 subject residues
    span_lie.cigar = {{'M', 10}};
    EXPECT_THROW(cigarScore(span_lie, q, s, m, gaps),
                 std::invalid_argument);

    CigarAlignment bad_op;
    bad_op.qBegin = 0;
    bad_op.qEnd = 1;
    bad_op.sBegin = 0;
    bad_op.sEnd = 1;
    bad_op.cigar = {{'X', 2}};
    EXPECT_THROW(cigarScore(bad_op, q, s, m, gaps),
                 std::invalid_argument);
}

TEST(Cigar, ScoreChargesSplitGapRunsAsOneGap)
{
    // Two adjacent I runs must cost one open + 3 extends, exactly
    // like the merged 3I — the oracle must not double-charge the
    // open that Myers-Miller boundary splits would expose.
    bio::Rng rng(2);
    const bio::Sequence q = bio::makeRandomSequence(rng, 5);
    const bio::Sequence s = bio::makeRandomSequence(rng, 2);
    const bio::GapPenalties gaps{10, 1};
    const bio::ScoringMatrix &m = bio::blosum62();

    CigarAlignment split;
    split.qBegin = 0;
    split.qEnd = 4;
    split.sBegin = 0;
    split.sEnd = 1;
    split.cigar = {{'M', 1}, {'I', 1}, {'I', 2}, {'M', 1}};
    CigarAlignment merged = split;
    merged.cigar = {{'M', 1}, {'I', 3}, {'M', 1}};
    EXPECT_EQ(cigarScore(split, q, s, m, gaps),
              cigarScore(merged, q, s, m, gaps));
}

/**
 * The gap settings the native traceback is fuzzed over: default,
 * free open, brutal open, extend dearer than open, plus the
 * near-linear and heavy-extend corners.
 */
const std::vector<bio::GapPenalties> &
nativeGaps()
{
    static const std::vector<bio::GapPenalties> gaps = {
        {10, 1}, {0, 1}, {40, 1}, {3, 6}, {1, 1}, {0, 5}};
    return gaps;
}

/** The end hints a caller can hand nativeLocalAlign. */
std::vector<LocalScore>
endHints(const Alignment &full)
{
    return {
        {full.score, full.queryEnd, full.subjectEnd}, // known
        {full.score, -1, full.subjectEnd},            // half-known
        {},                                           // unknown
    };
}

/** nativeLocalAlign on one backend, with a fresh profile. */
CigarAlignment
nativeAlign(const bio::Sequence &q, const bio::Sequence &s,
            const bio::ScoringMatrix &matrix,
            const bio::GapPenalties &gaps, SimdBackend backend,
            const LocalScore &end = {},
            TracebackStats *stats = nullptr)
{
    const NativeQueryProfile profile(q, matrix, backend);
    return nativeLocalAlign(profile, s, gaps, end, stats);
}

/**
 * Every backend and every end hint must give the full-matrix
 * score, a replaying CIGAR, bounded memory, and one and the same
 * alignment.
 */
void
checkAgainstFullMatrix(const bio::Sequence &q, const bio::Sequence &s,
                       const bio::ScoringMatrix &matrix,
                       const bio::GapPenalties &gaps,
                       const std::string &context)
{
    const Alignment full = smithWatermanAlign(q, s, matrix, gaps);
    std::optional<CigarAlignment> first;
    for (const SimdBackend backend : runnableBackends()) {
        for (const LocalScore &end : endHints(full)) {
            TracebackStats stats;
            const CigarAlignment aln =
                nativeAlign(q, s, matrix, gaps, backend, end, &stats);
            const std::string ctx = context + " backend="
                + std::string(backendName(backend)) + " hint="
                + std::to_string(end.queryEnd) + ","
                + std::to_string(end.subjectEnd);
            ASSERT_EQ(aln.score, full.score) << ctx;
            checkAlignment(aln, q, s, matrix, gaps);
            // Live state: the striped columns of the query, or the
            // window's codes plus a few rows along its short side.
            const std::uint64_t window = aln.empty()
                ? 0
                : static_cast<std::uint64_t>(aln.qEnd - aln.qBegin + 1)
                    * static_cast<std::uint64_t>(aln.sEnd - aln.sBegin
                                                 + 1);
            EXPECT_LE(stats.peakCells,
                      std::max<std::uint64_t>(
                          window
                              + 64 * (std::min(q.length(), s.length())
                                      + 1),
                          4 * (q.length() + 31)))
                << ctx;
            if (!first)
                first = aln;
            EXPECT_EQ(aln, *first) << ctx;
        }
    }
}

TEST(Hirschberg, MatchesFullMatrixOnFuzzedProteinPairs)
{
    bio::Rng rng(0xA11C0DE);
    const bio::ScoringMatrix &matrix = bio::blosum62();
    for (int iter = 0; iter < 500; ++iter) {
        const int m = 5 + static_cast<int>(rng.below(116));
        const bio::Sequence q = bio::makeRandomSequence(rng, m);
        // Alternate unrelated and homologous subjects so both the
        // score-0 path and long gapped alignments are exercised.
        const bio::Sequence s = (iter % 2 == 0)
            ? bio::makeRandomSequence(
                  rng, 5 + static_cast<int>(rng.below(116)))
            : bio::mutate(rng, q, 0.4 + 0.05 * (iter % 10), "HOM",
                          "");
        const bio::GapPenalties gaps =
            nativeGaps()[static_cast<std::size_t>(iter)
                         % nativeGaps().size()];
        checkAgainstFullMatrix(q, s, matrix, gaps,
                               "pair " + std::to_string(iter));
    }
}

TEST(Hirschberg, MatchesFullMatrixOnFuzzedNucleotidePairs)
{
    bio::Rng rng(0xD7A);
    const bio::ScoringMatrix m13 = bio::makeMatchMismatch(1, -3);
    const bio::ScoringMatrix m24 = bio::makeMatchMismatch(2, -4);
    for (int iter = 0; iter < 500; ++iter) {
        const int m = 8 + static_cast<int>(rng.below(150));
        const bio::Sequence q = randomDnaSeq(rng, m);
        const bio::Sequence s = (iter % 2 == 0)
            ? randomDnaSeq(rng,
                           8 + static_cast<int>(rng.below(150)))
            : mutateDnaSeq(rng, q, 0.6 + 0.04 * (iter % 10));
        const bio::ScoringMatrix &matrix =
            (iter % 4 < 2) ? m13 : m24;
        const bio::GapPenalties gaps =
            nativeGaps()[static_cast<std::size_t>(iter)
                         % nativeGaps().size()];
        checkAgainstFullMatrix(q, s, matrix, gaps,
                               "pair " + std::to_string(iter));
    }
}

TEST(Hirschberg, MatchesFullMatrixOnLowComplexityRepeats)
{
    // Periodic and near-periodic sequences: many cells tie for the
    // maximum and many begin cells tie for each end, so the
    // tie-breaks of all three passes are exercised.
    bio::Rng rng(0x7E5);
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const char *units[] = {"A", "AC", "WWC", "GGPGG", "KE"};
    for (int iter = 0; iter < 120; ++iter) {
        const std::string unit = units[iter % 5];
        std::string qs;
        std::string ss;
        const int qn = 4 + static_cast<int>(rng.below(60));
        const int sn = 4 + static_cast<int>(rng.below(60));
        for (int i = 0; i < qn; ++i)
            qs += unit[static_cast<std::size_t>(i) % unit.size()];
        for (int i = 0; i < sn; ++i)
            ss += rng.below(8) == 0
                ? 'L'
                : unit[static_cast<std::size_t>(i) % unit.size()];
        const bio::Sequence q("Q", "", qs);
        const bio::Sequence s("S", "", ss);
        checkAgainstFullMatrix(q, s, matrix,
                               nativeGaps()[static_cast<std::size_t>(
                                   iter)
                                            % nativeGaps().size()],
                               "repeat " + std::to_string(iter));
    }
}

TEST(Hirschberg, AnchoredMatchesUnanchoredOnFuzzedPairs)
{
    bio::Rng rng(0xBEEF);
    const bio::ScoringMatrix &matrix = bio::blosum62();
    for (int iter = 0; iter < 200; ++iter) {
        const int m = 5 + static_cast<int>(rng.below(116));
        const bio::Sequence q = bio::makeRandomSequence(rng, m);
        const bio::Sequence s = (iter % 2 == 0)
            ? bio::makeRandomSequence(
                  rng, 5 + static_cast<int>(rng.below(116)))
            : bio::mutate(rng, q, 0.4 + 0.05 * (iter % 10), "HOM",
                          "");
        const bio::GapPenalties gaps =
            nativeGaps()[static_cast<std::size_t>(iter)
                         % nativeGaps().size()];
        const Alignment full =
            smithWatermanAlign(q, s, matrix, gaps);
        if (full.score <= 0)
            continue;
        // The full anchor, the half anchor the striped kernels
        // produce, the other half (unused), out-of-range query ends
        // (ignored), a wrong score hint (costs a second locate
        // pass) and no hint: the same alignment every time.
        const int beyond = static_cast<int>(q.length()) + 7;
        const LocalScore hints[] = {
            {full.score, full.queryEnd, full.subjectEnd},
            {full.score, -1, full.subjectEnd},
            {full.score, full.queryEnd, -1},
            {full.score, beyond, full.subjectEnd},
            {full.score, beyond, -1},
            {full.score + 1, -1, full.subjectEnd},
            {},
        };
        const CigarAlignment want = nativeAlign(
            q, s, matrix, gaps, defaultScanBackend());
        for (const LocalScore &hint : hints) {
            const CigarAlignment aln = nativeAlign(
                q, s, matrix, gaps, defaultScanBackend(), hint);
            ASSERT_EQ(aln.score, full.score)
                << "pair " << iter << " hint " << hint.queryEnd
                << "," << hint.subjectEnd;
            checkAlignment(aln, q, s, matrix, gaps);
            EXPECT_EQ(aln, want) << "pair " << iter;
        }
    }
}

TEST(Hirschberg, LinearSpaceHoldsOnLongPairs)
{
    bio::Rng rng(0x10E6);
    const bio::Sequence q = bio::makeRandomSequence(rng, 3000);
    const bio::Sequence s = bio::mutate(rng, q, 0.7, "HOM", "");
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;

    for (const SimdBackend backend : runnableBackends()) {
        TracebackStats stats;
        const CigarAlignment aln =
            nativeAlign(q, s, matrix, gaps, backend, {}, &stats);
        ASSERT_FALSE(aln.empty());
        checkAlignment(aln, q, s, matrix, gaps);
        EXPECT_EQ(aln.score, smithWatermanScore(q, s, matrix, gaps)
                                 .score);

        const std::uint64_t window =
            static_cast<std::uint64_t>(aln.qEnd - aln.qBegin + 1)
            * static_cast<std::uint64_t>(aln.sEnd - aln.sBegin + 1);
        ASSERT_GT(window, tracebackCodeBudget)
            << "the pair must be over the code budget";
        const std::uint64_t short_side = std::min(q.length(),
                                                  s.length());
        const std::uint64_t full_matrix =
            static_cast<std::uint64_t>(q.length()) * s.length();
        // Over budget, the window takes the Myers-Miller fallback:
        // peak live DP state is a few linear arrays, never the
        // window's codes.
        EXPECT_LT(stats.peakCells, window);
        EXPECT_LE(stats.peakCells, 16 * (short_side + 1));
        // Locate + reverse pass + the divide-and-conquer's ~2x of
        // the window.
        EXPECT_GE(stats.totalCells, full_matrix);
        EXPECT_LE(stats.totalCells, 5 * full_matrix);
    }
}

TEST(Hirschberg, DegenerateInputs)
{
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;
    const bio::Sequence empty("E", "", std::vector<bio::Residue>{});
    const bio::Sequence one("O", "", std::vector<bio::Residue>{5});
    const bio::Sequence other("P", "", std::vector<bio::Residue>{6});

    for (const SimdBackend backend : runnableBackends()) {
        EXPECT_TRUE(
            nativeAlign(empty, one, matrix, gaps, backend).empty());
        EXPECT_TRUE(
            nativeAlign(one, empty, matrix, gaps, backend).empty());
        EXPECT_TRUE(nativeAlign(empty, empty, matrix, gaps, backend)
                        .empty());

        const CigarAlignment self =
            nativeAlign(one, one, matrix, gaps, backend);
        ASSERT_FALSE(self.empty());
        EXPECT_EQ(self.cigar, (Cigar{{'M', 1}}));
        EXPECT_EQ(self.score, matrix.score(5, 5));
        EXPECT_EQ(self.identities, 1);

        const CigarAlignment cross =
            nativeAlign(one, other, matrix, gaps, backend);
        EXPECT_EQ(cross.score,
                  std::max(0, static_cast<int>(matrix.score(5, 6))));
        checkAlignment(cross, one, other, matrix, gaps);
    }
}

TEST(NativeAlign, EveryLadderRungTraces)
{
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;
    bio::Rng rng(0x1ADD);
    // u8: a weak homolog; i16: a 300-residue near-copy scores far
    // above the 8-bit range; scalar: a 3000-residue W run against
    // itself scores 3000 * 11 = 33000, above the 16-bit lanes.
    const bio::Sequence weak_q = bio::makeRandomSequence(rng, 60);
    const bio::Sequence weak_s = bio::mutate(rng, weak_q, 0.35, "W",
                                             "");
    const bio::Sequence long_q = bio::makeRandomSequence(rng, 300);
    const bio::Sequence long_s = bio::mutate(rng, long_q, 0.9, "L",
                                             "");
    const bio::Sequence w_run("W", "", std::string(3000, 'W'));

    struct Case
    {
        const bio::Sequence *q;
        const bio::Sequence *s;
        int minScore;
        int maxScore;
    };
    const Case cases[] = {
        {&weak_q, &weak_s, 1, 200},
        {&long_q, &long_s, 300, 32000},
        {&w_run, &w_run, 33000, 33000},
    };
    for (const Case &c : cases) {
        const LocalScore ref =
            smithWatermanScore(*c.q, *c.s, matrix, gaps);
        ASSERT_GE(ref.score, c.minScore);
        ASSERT_LE(ref.score, c.maxScore);
        for (const SimdBackend backend : runnableBackends()) {
            // The scan's hint: the end column, plus the row when
            // the scalar rung ran (score above the 16-bit lanes).
            const NativeQueryProfile profile(*c.q, matrix, backend);
            const LocalScore scan =
                swStripedNativeScan(profile, *c.s, gaps);
            ASSERT_EQ(scan.score, ref.score);
            for (const LocalScore &end : {scan, LocalScore{}}) {
                TracebackStats stats;
                const CigarAlignment aln = nativeLocalAlign(
                    profile, *c.s, gaps, end, &stats);
                EXPECT_EQ(aln.score, ref.score)
                    << backendName(backend);
                EXPECT_EQ(aln.qEnd, ref.queryEnd);
                EXPECT_EQ(aln.sEnd, ref.subjectEnd);
                checkAlignment(aln, *c.q, *c.s, matrix, gaps);
                EXPECT_GT(stats.totalCells, 0u);
            }
        }
    }
}

TEST(NativeAlign, AnchoredBeginIgnoresEqualScoringDecoy)
{
    // q = CAAA, s = CCCW (BLOSUM62: C:C 9, A:C 0). The anchor
    // (1, 1) closes "CA"/"CC", worth 9 + 0 = 9, the optimum. The
    // lone C:C pair at (0, 1) inside the anchor's prefix rectangle
    // also scores 9 but ends at (0, 1), not at the anchor. An
    // unseeded reverse local pass over the reversed prefixes meets
    // that decoy first and pins the begin at (0, 1), whose
    // rectangle to the anchor cannot score 9; the seeded pass
    // must pin (0, 0).
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;
    const bio::Sequence q("Q", "", std::string("CAAA"));
    const bio::Sequence s("S", "", std::string("CCCW"));
    const LocalScore anchor{9, 1, 1};

    const std::vector<bio::Residue> rq = {q[1], q[0]};
    const std::vector<bio::Residue> rs = {s[1], s[0]};
    const LocalScore unseeded = smithWatermanScoreRaw(
        rq.data(), rq.size(), rs.data(), rs.size(), matrix, gaps);
    ASSERT_EQ(unseeded.score, 9);
    ASSERT_EQ(1 - unseeded.queryEnd, 0); // decoy begin row
    ASSERT_EQ(1 - unseeded.subjectEnd, 1); // decoy begin column

    for (const SimdBackend backend : runnableBackends()) {
        const CigarAlignment aln =
            nativeAlign(q, s, matrix, gaps, backend, anchor);
        EXPECT_EQ(aln.score, 9);
        EXPECT_EQ(aln.qBegin, 0);
        EXPECT_EQ(aln.sBegin, 0);
        EXPECT_EQ(aln.qEnd, 1);
        EXPECT_EQ(aln.sEnd, 1);
        EXPECT_EQ(aln.cigar, (Cigar{{'M', 2}}));
        checkAlignment(aln, q, s, matrix, gaps);
    }
}

/**
 * @p len residues of one fuzz kind: 0 random, 1 a 60%-identity copy
 * of @p ref padded with random residues, 2 a two-letter repeat
 * whose many equal-scoring paths exercise every tie rule.
 */
std::vector<bio::Residue>
fillFuzzResidues(bio::Rng &rng, int len, int kind,
                 const std::vector<bio::Residue> &ref)
{
    std::vector<bio::Residue> out =
        bio::makeRandomSequence(rng, len).residues();
    if (kind == 1) {
        const std::vector<bio::Residue> copy =
            bio::mutate(rng, bio::Sequence("R", "", ref), 0.6, "M", "")
                .residues();
        std::copy_n(copy.begin(), std::min(copy.size(), out.size()),
                    out.begin());
    } else if (kind == 2) {
        const bio::Sequence al("AL", "", std::string_view("AL"));
        for (bio::Residue &r : out)
            r = al[rng.below(3) == 0 ? 1 : 0];
    }
    return out;
}

/**
 * The 16-bit SIMD rectangle fill of every backend writes the scalar
 * fill's direction codes and global score, and so walks back to the
 * same CIGAR, which replays to that score. Widths bracket one and
 * two vectors of 8 and 16 lanes, both orientations run, and a
 * rectangle past the 16-bit bound takes the scalar fill.
 */
TEST(NativeAlign, SimdFillMatchesScalarFill)
{
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const std::vector<bio::GapPenalties> gap_sets = {
        {0, 0}, {0, 1}, {5, 2}, {10, 1}, {12, 3}};
    std::vector<std::pair<int, int>> shapes = {{1, 1}};
    for (const int n : {2, 16, 17, 40}) {
        shapes.emplace_back(1, n);
        shapes.emplace_back(n, 1);
    }
    for (const int c : {7, 8, 9, 15, 16, 17, 33}) {
        for (const int r : {c, c + 1, 2 * c + 3, 4 * c}) {
            shapes.emplace_back(r, c); // rows along the query
            shapes.emplace_back(c, r); // rows along the subject
        }
    }
    bio::Rng rng(0xF111);
    const auto check = [&](const std::vector<bio::Residue> &q,
                            const std::vector<bio::Residue> &s,
                            const bio::GapPenalties &gaps,
                            const std::string &ctx) {
        const int m = static_cast<int>(q.size());
        const int n = static_cast<int>(s.size());
        detail::RectangleFill want;
        detail::fillRectangle(q.data(), m, s.data(), n, matrix, gaps,
                              nullptr, want);
        Cigar want_cigar;
        detail::walkRectangle(want, want_cigar);
        CigarAlignment global;
        global.qEnd = m - 1;
        global.sEnd = n - 1;
        global.cigar = want_cigar;
        ASSERT_EQ(cigarScore(global, q.data(), q.size(), s.data(),
                             s.size(), matrix, gaps),
                  want.score)
            << ctx;
        const std::size_t cells = static_cast<std::size_t>(m) * n;
        for (const SimdBackend backend : runnableBackends()) {
            detail::RectangleFill got;
            detail::fillRectangle(q.data(), m, s.data(), n, matrix,
                                  gaps, nativeKernels(backend), got);
            const std::string where =
                ctx + " backend=" + std::string(backendName(backend));
            ASSERT_EQ(got.score, want.score) << where;
            ASSERT_EQ(got.swapped, want.swapped) << where;
            ASSERT_TRUE(std::equal(want.codes.begin(),
                                   want.codes.begin() + cells,
                                   got.codes.begin()))
                << where;
            Cigar got_cigar;
            detail::walkRectangle(got, got_cigar);
            ASSERT_EQ(got_cigar, want_cigar) << where;
        }
    };
    for (const bio::GapPenalties &gaps : gap_sets) {
        for (const auto &[m, n] : shapes) {
            for (int kind = 0; kind < 3; ++kind) {
                const std::vector<bio::Residue> q =
                    fillFuzzResidues(rng, m, kind == 2 ? 2 : 0, {});
                const std::vector<bio::Residue> s =
                    fillFuzzResidues(rng, n, kind, q);
                check(q, s, gaps,
                      "gaps=" + std::to_string(gaps.open) + ","
                          + std::to_string(gaps.extend) + " shape="
                          + std::to_string(m) + "x"
                          + std::to_string(n) + " kind="
                          + std::to_string(kind));
            }
        }
    }

    // 1 x 30000 stays inside the 16-bit bound; 1 x 40000 at {10, 1}
    // reaches H(40000, 0) = -40010 and must take the scalar fill.
    const bio::GapPenalties gaps{10, 1};
    EXPECT_TRUE(detail::rectangleFitsI16(30000, 1, matrix, gaps));
    EXPECT_FALSE(detail::rectangleFitsI16(40000, 1, matrix, gaps));
    EXPECT_FALSE(detail::rectangleFitsI16(40, 40, matrix, {-1, 1}));
    for (const int n : {30000, 40000}) {
        const std::vector<bio::Residue> q =
            fillFuzzResidues(rng, 1, 0, {});
        const std::vector<bio::Residue> s =
            fillFuzzResidues(rng, n, 0, {});
        check(q, s, gaps, "long n=" + std::to_string(n));
        check(s, q, gaps, "long swapped n=" + std::to_string(n));
    }
}

/** Mix a traced alignment: score, begin and end cells, CIGAR ops. */
void
hashAlignment(core::Fnv1a &h, const CigarAlignment &aln)
{
    for (const int v : {aln.score, aln.qBegin, aln.qEnd, aln.sBegin,
                        aln.sEnd, aln.identities, aln.columns})
        h.update64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    for (const CigarOp &op : aln.cigar) {
        h.update64(static_cast<std::uint64_t>(op.op));
        h.update64(static_cast<std::uint64_t>(op.len));
    }
    h.update64(aln.cigar.size());
}

/**
 * One query's hit list for the parity corpus: mixed-length subjects
 * of every shape phase 2 meets — unrelated (often score 0), length
 * 1, weak and strong homologs (the strong ones clip 8-bit lanes),
 * and a low-complexity run.
 */
std::vector<bio::Sequence>
parityHits(bio::Rng &rng, const bio::Sequence &q, int count)
{
    std::vector<bio::Sequence> out;
    for (int i = 0; i < count; ++i) {
        const int shape = static_cast<int>(rng.below(6));
        if (shape == 0 || q.length() < 2) {
            out.push_back(bio::makeRandomSequence(
                rng, 1 + static_cast<int>(rng.below(400))));
        } else if (shape == 1) {
            out.push_back(bio::makeRandomSequence(rng, 1));
        } else if (shape == 5) {
            out.emplace_back("LC", "",
                             fillFuzzResidues(
                                 rng, 5 + static_cast<int>(rng.below(90)),
                                 2, {}));
        } else {
            // Identity 0.3 .. 0.95, flanked by random residues.
            const bio::Sequence core = bio::mutate(
                rng, q, 0.3 + 0.65 * static_cast<double>(rng.below(100))
                                / 100.0,
                "H", "");
            std::vector<bio::Residue> res =
                bio::makeRandomSequence(
                    rng, static_cast<int>(rng.below(60)))
                    .residues();
            res.insert(res.end(), core.residues().begin(),
                       core.residues().end());
            const std::vector<bio::Residue> tail =
                bio::makeRandomSequence(
                    rng, 1 + static_cast<int>(rng.below(60)))
                    .residues();
            res.insert(res.end(), tail.begin(), tail.end());
            out.emplace_back("H", "", std::move(res));
        }
    }
    return out;
}

/**
 * Every native alignment of a seeded corpus, digested per backend:
 * Smith-Waterman hits traced with the scan's end hint and FASTA
 * hits traced with none, over queries of 1 to 300 residues, three
 * gap settings, hit lists longer than any backend's lane count, and
 * hits whose scores clip the 8-bit lanes. Each runnable backend
 * must produce the pinned digest (the alignments do not depend on
 * the backend), one hit at a time through nativeLocalAlign and in
 * batches through nativeLocalAlignBatch.
 */
TEST(NativeAlignParity, FamilyDigestIsPinned)
{
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const std::vector<bio::GapPenalties> gap_sets = {
        {10, 1}, {0, 1}, {3, 6}};
    for (const SimdBackend backend : runnableBackends()) {
        core::Fnv1a h;
        core::Fnv1a h_list;
        core::Fnv1a h_group;
        int traced = 0;
        int clipped = 0;
        bio::Rng rng(0x9A217E);
        for (const bio::GapPenalties &gaps : gap_sets) {
            for (const int m : {1, 40, 137, 300}) {
                const bio::Sequence q = bio::makeRandomSequence(rng, m);
                const NativeQueryProfile profile(q, matrix, backend);
                const std::vector<bio::Sequence> hits =
                    parityHits(rng, q, 40);
                std::vector<NativeAlignHit> sw_hits;
                std::vector<NativeAlignHit> fasta_hits;
                for (const bio::Sequence &s : hits) {
                    const LocalScore scan =
                        swStripedNativeScan(profile, s, gaps);
                    clipped +=
                        scan.score + 1 >= 255 + matrix.minScore() ? 1 : 0;
                    for (const LocalScore &end : {scan, LocalScore{}}) {
                        const CigarAlignment aln =
                            nativeLocalAlign(profile, s, gaps, end);
                        traced += aln.empty() ? 0 : 1;
                        hashAlignment(h, aln);
                    }
                    sw_hits.push_back(
                        {s.residues().data(), s.length(), scan});
                    fasta_hits.push_back(
                        {s.residues().data(), s.length(), {}});
                }
                // The batch entry, over the whole list (more hits
                // than lanes) and over the groups the engine hands
                // it, digested in the same order.
                const std::size_t group =
                    profile.kernels() != nullptr
                    ? static_cast<std::size_t>(profile.kernels()->lanesU8)
                    : 1;
                for (const std::size_t size : {hits.size(), group}) {
                    std::vector<CigarAlignment> sw_out(hits.size());
                    std::vector<CigarAlignment> fasta_out(hits.size());
                    for (std::size_t at = 0; at < hits.size(); at += size) {
                        const std::size_t k =
                            std::min(size, hits.size() - at);
                        nativeLocalAlignBatch(profile, &sw_hits[at], k,
                                              gaps, &sw_out[at]);
                        nativeLocalAlignBatch(profile, &fasta_hits[at], k,
                                              gaps, &fasta_out[at]);
                    }
                    core::Fnv1a &hb = size == group ? h_group : h_list;
                    for (std::size_t i = 0; i < hits.size(); ++i) {
                        hashAlignment(hb, sw_out[i]);
                        hashAlignment(hb, fasta_out[i]);
                    }
                }
            }
        }
        // The corpus must trace often and clip the 8-bit lanes.
        EXPECT_GT(traced, 400) << backendName(backend);
        EXPECT_GT(clipped, 40) << backendName(backend);
        EXPECT_EQ(h.digest(), 0x4e5ff631e619d365ULL)
            << backendName(backend) << " traced " << traced
            << ", clipped " << clipped;
        EXPECT_EQ(h_list.digest(), 0x4e5ff631e619d365ULL)
            << backendName(backend) << " batch of the whole list";
        EXPECT_EQ(h_group.digest(), 0x4e5ff631e619d365ULL)
            << backendName(backend) << " batches of lanesU8 hits";
    }
}

/**
 * The anchored lane kernel of every hardware backend finds the same
 * end and begin cells as the striped passes (swStripedLocate,
 * swStripedBeginCell), lane by lane, or flags the lane as clipped: mixed-length groups of 1,
 * lanes - 1 (an idle lane) and lanes + 1 (a refill) hits, in no
 * particular order, with zero-score, length-1 and 8-bit-clipping
 * subjects, hinted and unhinted end cells, and the equal-scoring
 * decoy of AnchoredBeginIgnoresEqualScoringDecoy in a lane.
 */
TEST(NativeAlign, AnchoredLanesMatchStripedPasses)
{
    const bio::ScoringMatrix &matrix = bio::blosum62();
    bio::Rng rng(0x1A7E5);
    // 'X' scores at most 0 against every residue.
    const bio::Sequence zero("Z", "", std::string(30, 'X'));
    int clipped = 0;
    int checked_begin = 0;

    const auto run_group = [&](const NativeQueryProfile &profile,
                               const std::vector<bio::Sequence> &subjects,
                               const bio::GapPenalties &gaps,
                               const std::string &ctx) {
        const auto kernel = profile.kernels()->interAnchoredU8;
        const int m = profile.queryLength();
        const int cap = 255 - profile.bias();
        const bio::Residue *query = profile.query().residues().data();

        // End cells: even subjects hinted by their scan, odd ones not.
        std::vector<detail::InterAnchoredLane> jobs;
        std::vector<LocalScore> want;
        for (std::size_t i = 0; i < subjects.size(); ++i) {
            const bio::Sequence &s = subjects[i];
            const LocalScore scan = swStripedNativeScan(profile, s, gaps);
            const bool hint = i % 2 == 0 && scan.score > 0;
            const int cols = hint ? scan.subjectEnd + 1
                                  : static_cast<int>(s.length());
            jobs.push_back({s.residues().data(), cols, cap, -1, !hint});
            want.push_back(swStripedLocate(profile, s.residues().data(),
                                           static_cast<std::size_t>(cols),
                                           gaps));
        }
        std::vector<detail::InterAnchoredResult> got(jobs.size());
        kernel(profile.interMatrix(), query, m, jobs.data(), jobs.size(),
               gaps.openCost(), gaps.extendCost(), profile.bias(),
               got.data());
        std::vector<detail::InterAnchoredLane> rev_jobs;
        std::vector<std::vector<bio::Residue>> rev_subjects;
        std::vector<std::size_t> rev_hit;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const std::string at = ctx + " lane " + std::to_string(i);
            if (want[i].score >= cap) {
                EXPECT_GE(got[i].best, cap) << at;
                ++clipped;
                continue;
            }
            ASSERT_EQ(got[i].best, want[i].score) << at;
            if (want[i].score == 0)
                continue;
            EXPECT_EQ(got[i].column, want[i].subjectEnd) << at;
            EXPECT_EQ(got[i].row, want[i].queryEnd) << at;
            if (want[i].score + 1 >= cap)
                continue;
            const int cols = want[i].subjectEnd + 1;
            rev_subjects.emplace_back(subjects[i].residues().begin(),
                                      subjects[i].residues().begin()
                                          + cols);
            std::reverse(rev_subjects.back().begin(),
                         rev_subjects.back().end());
            rev_hit.push_back(i);
        }

        // Begin cells over the reversed whole query.
        std::vector<bio::Residue> rev_query(query, query + m);
        std::reverse(rev_query.begin(), rev_query.end());
        for (std::size_t k2 = 0; k2 < rev_hit.size(); ++k2) {
            const LocalScore &end = want[rev_hit[k2]];
            rev_jobs.push_back({rev_subjects[k2].data(),
                                end.subjectEnd + 1, end.score + 1,
                                m - 1 - end.queryEnd, false});
        }
        std::vector<detail::InterAnchoredResult> rev(rev_jobs.size());
        kernel(profile.interMatrix(), rev_query.data(), m, rev_jobs.data(),
               rev_jobs.size(), gaps.openCost(), gaps.extendCost(),
               profile.bias(), rev.data());
        for (std::size_t k2 = 0; k2 < rev_hit.size(); ++k2) {
            const std::size_t i = rev_hit[k2];
            const LocalScore &end = want[i];
            int q_begin = -1;
            int s_begin = -1;
            ASSERT_TRUE(swStripedBeginCell(
                profile, subjects[i].residues().data(), end.queryEnd,
                end.subjectEnd, gaps, end.score, &q_begin, &s_begin));
            const std::string at = ctx + " reverse lane " + std::to_string(i);
            ASSERT_EQ(rev[k2].best, end.score + 1) << at;
            EXPECT_EQ(m - 1 - rev[k2].row, q_begin) << at;
            EXPECT_EQ(end.subjectEnd - rev[k2].column, s_begin) << at;
            ++checked_begin;
        }
    };

    for (const SimdBackend backend : runnableBackends()) {
        const NativeKernels *k = nativeKernels(backend);
        if (k == nullptr)
            continue;
        const std::size_t lanes = static_cast<std::size_t>(k->lanesU8);
        for (const bio::GapPenalties &gaps :
             {bio::GapPenalties{10, 1}, bio::GapPenalties{0, 1},
              bio::GapPenalties{3, 6}}) {
            for (const int m : {1, 37, 160}) {
                const bio::Sequence q = bio::makeRandomSequence(rng, m);
                const NativeQueryProfile profile(q, matrix, backend);
                for (const std::size_t size :
                     {std::size_t{1}, lanes - 1, lanes + 1}) {
                    std::vector<bio::Sequence> subjects;
                    for (std::size_t i = 0; i < size; ++i) {
                        const int shape = static_cast<int>(i % 5);
                        if (shape == 0)
                            subjects.push_back(zero);
                        else if (shape == 1)
                            subjects.push_back(
                                bio::makeRandomSequence(rng, 1));
                        else if (shape == 2)
                            subjects.push_back(bio::makeRandomSequence(
                                rng, 1 + static_cast<int>(rng.below(300))));
                        else
                            // Near-copies clip the 8-bit lanes on the
                            // long query.
                            subjects.push_back(bio::mutate(
                                rng, q, shape == 3 ? 0.45 : 0.9, "H", ""));
                    }
                    run_group(profile, subjects, gaps,
                              std::string(backendName(backend)) + " m="
                                  + std::to_string(m) + " size="
                                  + std::to_string(size));
                }
            }
        }

        // The decoy: the anchor (1, 1) must pin the begin at (0, 0)
        // with other lanes running beside it.
        const bio::Sequence q("Q", "", std::string("CAAA"));
        const NativeQueryProfile profile(q, matrix, backend);
        std::vector<bio::Sequence> subjects = {
            bio::Sequence("S", "", std::string("CCCW"))};
        for (int i = 0; i < 5; ++i)
            subjects.push_back(bio::makeRandomSequence(rng, 3 + i));
        run_group(profile, subjects, bio::GapPenalties{},
                  std::string(backendName(backend)) + " decoy");
        // Reversed: q = AAAC. The anchor (1, 1) beside the decoy's
        // own end (0, 1) and the cell (0, 0), all seeded at once.
        const std::vector<bio::Residue> rq = {q[3], q[2], q[1], q[0]};
        const std::vector<bio::Residue> rs = {subjects[0][1],
                                              subjects[0][0]};
        const std::vector<bio::Residue> rs_one = {subjects[0][0]};
        const std::vector<detail::InterAnchoredLane> jobs = {
            {rs_one.data(), 1, 10, 3, false}, // anchor (0, 0)
            {rs.data(), 2, 10, 2, false},     // the decoy's anchor (1, 1)
            {rs.data(), 2, 10, 3, false},     // the decoy's end (0, 1)
        };
        std::vector<detail::InterAnchoredResult> got(jobs.size());
        k->interAnchoredU8(profile.interMatrix(), rq.data(), 4,
                           jobs.data(), jobs.size(),
                           bio::GapPenalties{}.openCost(),
                           bio::GapPenalties{}.extendCost(),
                           profile.bias(), got.data());
        EXPECT_EQ(got[0].best, 10);
        EXPECT_EQ(3 - got[0].row, 0);
        EXPECT_EQ(0 - got[0].column, 0);
        ASSERT_EQ(got[1].best, 10);
        EXPECT_EQ(3 - got[1].row, 0); // qBegin 0, not the decoy's 0 ..
        EXPECT_EQ(1 - got[1].column, 0); // .. and sBegin 0, not 1
        EXPECT_EQ(got[2].best, 10);
        EXPECT_EQ(3 - got[2].row, 0);
        EXPECT_EQ(1 - got[2].column, 1);
    }
    EXPECT_GT(clipped, 10);
    EXPECT_GT(checked_begin, 100);
}

TEST(BandedExtend, ScoreMatchesScoreOnlyBandedScan)
{
    bio::Rng rng(0xBA2D);
    const bio::ScoringMatrix &matrix = bio::blosum62();
    for (int iter = 0; iter < 200; ++iter) {
        const int m = 10 + static_cast<int>(rng.below(100));
        const bio::Sequence q = bio::makeRandomSequence(rng, m);
        const bio::Sequence s = (iter % 2 == 0)
            ? bio::makeRandomSequence(
                  rng, 10 + static_cast<int>(rng.below(100)))
            : bio::mutate(rng, q, 0.5, "HOM", "");
        const int n = static_cast<int>(s.length());
        const int center =
            static_cast<int>(rng.below(
                static_cast<std::uint64_t>(m + n - 1)))
            - (m - 1);
        const int half_width = static_cast<int>(rng.below(24));
        const bio::GapPenalties gaps =
            extremeGaps()[static_cast<std::size_t>(iter)
                          % extremeGaps().size()];

        const LocalScore ref = bandedSmithWaterman(
            q, s, matrix, gaps, center, half_width);
        TracebackStats stats;
        const CigarAlignment aln = bandedExtendAlign(
            q, s, matrix, gaps, center, half_width, &stats);
        ASSERT_EQ(aln.score, std::max(ref.score, 0))
            << "pair " << iter << " center=" << center
            << " half_width=" << half_width;
        if (!aln.empty()) {
            checkAlignment(aln, q, s, matrix, gaps);
            EXPECT_EQ(aln.qEnd, ref.queryEnd);
            EXPECT_EQ(aln.sEnd, ref.subjectEnd);
            // Every aligned cell sits inside the band.
            EXPECT_LE(std::abs((aln.sBegin - aln.qBegin) - center),
                      half_width);
            EXPECT_LE(std::abs((aln.sEnd - aln.qEnd) - center),
                      half_width);
        }
    }
}

TEST(BlastAlign, ScoreMatchesBlastScanExactly)
{
    bio::Rng rng(0xB1A57);
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;
    const BlastParams params;
    int traced = 0;
    for (int iter = 0; iter < 60; ++iter) {
        const bio::Sequence q = bio::makeRandomSequence(rng, 120);
        const NeighborhoodIndex index(q, matrix, params);
        const bio::Sequence s = (iter % 3 == 0)
            ? bio::makeRandomSequence(rng, 150)
            : bio::mutate(rng, q, 0.45 + 0.05 * (iter % 8), "H",
                          "");
        const BlastScores scan =
            blastScan(index, q, s, matrix, gaps, params);
        TracebackStats stats;
        const CigarAlignment aln = blastAlign(
            index, q, s, matrix, gaps, params, &stats);
        if (aln.empty()) {
            EXPECT_EQ(scan.score, 0) << "pair " << iter;
            continue;
        }
        ++traced;
        EXPECT_EQ(aln.score, scan.score) << "pair " << iter;
        checkAlignment(aln, q, s, matrix, gaps);
    }
    EXPECT_GT(traced, 10); // the fuzz must actually hit the gapped path
}

TEST(BlastnScan, ResidueSubjectMatchesPackedSubject)
{
    bio::Rng rng(0xDAA);
    const BlastnParams params;
    for (int iter = 0; iter < 40; ++iter) {
        const bio::PackedDna q = bio::makeRandomDna(rng, 300);
        const bio::PackedDna sp = (iter % 2 == 0)
            ? bio::makeRandomDna(rng, 400)
            : bio::mutateDna(rng, q, 0.85, "H");
        const DnaWordIndex index(q, params.wordSize);

        std::vector<bio::Residue> sr(sp.length());
        for (std::size_t i = 0; i < sp.length(); ++i)
            sr[i] = static_cast<bio::Residue>(sp[i]);

        std::uint64_t cells_packed = 0;
        std::uint64_t cells_res = 0;
        const BlastnScores a =
            blastnScan(index, q, sp, params, &cells_packed);
        const BlastnScores b = blastnScan(
            index, q, sr.data(), sr.size(), params, &cells_res);
        EXPECT_EQ(a.score, b.score);
        EXPECT_EQ(a.bestUngapped, b.bestUngapped);
        EXPECT_EQ(a.wordHits, b.wordHits);
        EXPECT_EQ(a.extensionsTried, b.extensionsTried);
        EXPECT_EQ(a.gappedExtensions, b.gappedExtensions);
        EXPECT_EQ(cells_packed, cells_res);
    }
}

TEST(BlastnAlign, ScoreMatchesBlastnScanExactly)
{
    bio::Rng rng(0xDA2);
    const BlastnParams params;
    const bio::ScoringMatrix mm =
        bio::makeMatchMismatch(params.matchScore,
                               params.mismatchScore);
    const bio::GapPenalties gaps{params.gapOpen, params.gapExtend};
    int traced = 0;
    for (int iter = 0; iter < 40; ++iter) {
        const bio::PackedDna q = bio::makeRandomDna(rng, 400);
        const bio::PackedDna sp = (iter % 3 == 0)
            ? bio::makeRandomDna(rng, 500)
            : bio::mutateDna(rng, q, 0.8 + 0.02 * (iter % 8), "H");
        const DnaWordIndex index(q, params.wordSize);
        std::vector<bio::Residue> sr(sp.length());
        for (std::size_t i = 0; i < sp.length(); ++i)
            sr[i] = static_cast<bio::Residue>(sp[i]);

        const BlastnScores scan =
            blastnScan(index, q, sp, params);
        TracebackStats stats;
        const CigarAlignment aln =
            blastnAlign(index, q, sr.data(), sr.size(), params,
                        &stats);
        if (aln.empty()) {
            EXPECT_EQ(scan.score, 0) << "pair " << iter;
            continue;
        }
        ++traced;
        EXPECT_EQ(aln.score, scan.score) << "pair " << iter;
        // Replay the CIGAR against the *decoded* query and the
        // residue subject — spans are absolute.
        std::vector<bio::Residue> qr(q.length());
        for (std::size_t i = 0; i < q.length(); ++i)
            qr[i] = static_cast<bio::Residue>(q[i]);
        const bio::Sequence qs("Q", "", std::move(qr));
        const bio::Sequence ss("S", "", std::move(sr));
        checkAlignment(aln, qs, ss, mm, gaps);
    }
    EXPECT_GT(traced, 10);
}

} // namespace
