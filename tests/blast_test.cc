/**
 * @file
 * Tests for the BLASTP pipeline: neighborhood index construction,
 * ungapped X-drop extension, two-hit triggering, and whole-search
 * sensitivity against planted homologs; plus the parity pin of the
 * whole BLAST family (blastp and blastn scans and traced
 * alignments) over a seeded corpus.
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include "align/blast.hh"
#include "align/blastn.hh"
#include "align/smith_waterman.hh"
#include "bio/nucleotide.hh"
#include "bio/random.hh"
#include "bio/scoring.hh"
#include "bio/synthetic.hh"
#include "core/digest.hh"

namespace
{

using namespace bioarch;
using bio::Sequence;

const bio::ScoringMatrix &kMat = bio::blosum62();
const bio::GapPenalties kGaps{};

TEST(NeighborhoodIndex, ContainsExactWordsScoringAboveThreshold)
{
    // WWW scores 33 against itself — way above T=11, so the exact
    // word must be in its own neighborhood.
    const Sequence q("Q", "", "WWWWW");
    const align::BlastParams params;
    const align::NeighborhoodIndex index(q, kMat, params);
    EXPECT_EQ(index.wordSize(), 3);

    const auto [begin, end] =
        index.positions(index.encode(q.residues().data()));
    EXPECT_GT(end - begin, 0);
    bool found_pos0 = false;
    for (const std::int32_t *p = begin; p != end; ++p)
        found_pos0 |= (*p == 0);
    EXPECT_TRUE(found_pos0);
}

/**
 * The direct-address table holds 23^w + 1 heads, so a word size
 * outside [1, 5] is refused before anything is allocated (w = 0
 * would index an empty search stack, w = 7 ask for ~13.6 GB).
 */
TEST(NeighborhoodIndex, RejectsWordSizeOutsideOneToFive)
{
    const Sequence q("Q", "", "WWWWWWW");
    align::BlastParams params;
    for (const int w : {-1, 0, align::NeighborhoodIndex::maxWordSize + 1}) {
        params.wordSize = w;
        EXPECT_THROW(align::NeighborhoodIndex(q, kMat, params),
                     std::invalid_argument)
            << "w " << w;
    }
    for (int w = 1; w <= align::NeighborhoodIndex::maxWordSize; ++w) {
        params.wordSize = w;
        const align::NeighborhoodIndex index(q, kMat, params);
        const auto [begin, end] =
            index.positions(index.encode(q.residues().data()));
        ASSERT_GT(end - begin, 0) << "w " << w;
        EXPECT_EQ(*begin, 0);
    }
}

TEST(NeighborhoodIndex, ExcludesLowScoringExactWords)
{
    // AAA scores 12 >= 11 against itself, but SSS scores 12 too;
    // pick a word whose self-score is below T: use GGG? G/G=6 ->
    // 18. A better case: query word with X (score <= 0 rows) never
    // reaches T=33 threshold. Use a high threshold to force
    // emptiness.
    const Sequence q("Q", "", "AAA");
    align::BlastParams params;
    params.neighborThreshold = 13; // AAA self-score is 12
    const align::NeighborhoodIndex index(q, kMat, params);
    const auto [begin, end] =
        index.positions(index.encode(q.residues().data()));
    EXPECT_EQ(begin, end);
}

TEST(NeighborhoodIndex, NeighborhoodGrowsAsThresholdDrops)
{
    const Sequence q = bio::makeDefaultQuery();
    align::BlastParams strict;
    strict.neighborThreshold = 13;
    align::BlastParams loose;
    loose.neighborThreshold = 10;
    const align::NeighborhoodIndex a(q, kMat, strict);
    const align::NeighborhoodIndex b(q, kMat, loose);
    EXPECT_GT(b.numEntries(), a.numEntries());
    EXPECT_EQ(a.tableSize(), b.tableSize());
}

TEST(NeighborhoodIndex, EntriesActuallyScoreAboveThreshold)
{
    // Every (word, qpos) pair in the table must genuinely score >= T
    // against the query word — exhaustive validation of the pruned
    // DFS enumeration.
    bio::Rng rng(2024);
    const Sequence q = bio::makeRandomSequence(rng, 40);
    const align::BlastParams params;
    const align::NeighborhoodIndex index(q, kMat, params);

    std::size_t checked = 0;
    const std::size_t space = index.tableSize();
    for (std::uint32_t w = 0; w < space; ++w) {
        const auto [begin, end] = index.positions(w);
        for (const std::int32_t *p = begin; p != end; ++p) {
            // Decode word w into residues.
            bio::Residue r[3];
            std::uint32_t x = w;
            for (int k = 2; k >= 0; --k) {
                r[k] = static_cast<bio::Residue>(
                    x % bio::Alphabet::numSymbols);
                x /= bio::Alphabet::numSymbols;
            }
            int score = 0;
            for (int k = 0; k < 3; ++k)
                score += kMat.score(
                    q[static_cast<std::size_t>(*p + k)], r[k]);
            ASSERT_GE(score, params.neighborThreshold);
            ++checked;
        }
    }
    EXPECT_EQ(checked, index.numEntries());
    EXPECT_GT(checked, 0u);
}

TEST(UngappedExtend, ExtendsAcrossPerfectMatch)
{
    const Sequence q("Q", "", "WCHWCHWCHW");
    const Sequence s = q;
    const align::UngappedExtension ext =
        align::ungappedExtend(q, s, kMat, 4, 4, 3, 16);
    int self = 0;
    for (std::size_t i = 0; i < q.length(); ++i)
        self += kMat.score(q[i], s[i]);
    EXPECT_EQ(ext.score, self);
    EXPECT_EQ(ext.queryStart, 0);
    EXPECT_EQ(ext.queryEnd, 9);
}

TEST(UngappedExtend, StopsAtXDrop)
{
    // Strong seed, then a long run of mismatches, then another
    // strong region far away: the X-drop must cut before reaching it.
    const std::string junk(20, 'A');
    const Sequence q("Q", "", "WWW" + junk + "WWW");
    const Sequence s("S", "", "WWW" + std::string(20, 'D') + "WWW");
    const align::UngappedExtension ext =
        align::ungappedExtend(q, s, kMat, 0, 0, 3, 10);
    // Seed only: A-vs-D runs at -2 per residue; after 5 residues the
    // drop exceeds 10, long before the distal WWW.
    EXPECT_EQ(ext.score, 3 * kMat.score(bio::Alphabet::encode('W'),
                                        bio::Alphabet::encode('W')));
    EXPECT_EQ(ext.queryStart, 0);
    EXPECT_EQ(ext.queryEnd, 2);
}

TEST(UngappedExtend, ExtendsLeftToo)
{
    const Sequence q("Q", "", "WCHWCH");
    const Sequence s = q;
    // Seed at the last word; left extension must pick up the rest.
    const align::UngappedExtension ext =
        align::ungappedExtend(q, s, kMat, 3, 3, 3, 16);
    int self = 0;
    for (std::size_t i = 0; i < q.length(); ++i)
        self += kMat.score(q[i], s[i]);
    EXPECT_EQ(ext.score, self);
    EXPECT_EQ(ext.queryStart, 0);
}

TEST(BlastScan, SelfSearchProducesStrongScore)
{
    const Sequence q = bio::makeDefaultQuery();
    const align::BlastParams params;
    const align::NeighborhoodIndex index(q, kMat, params);
    const align::BlastScores bs =
        align::blastScan(index, q, q, kMat, kGaps, params);
    EXPECT_GT(bs.wordHits, 0);
    EXPECT_GT(bs.extensionsTried, 0);
    EXPECT_GT(bs.gappedExtensions, 0);
    const int sw = align::smithWatermanScore(q, q, kMat, kGaps).score;
    // Banded gapped extension around the main diagonal recovers the
    // full self-alignment.
    EXPECT_EQ(bs.score, sw);
}

TEST(BlastScan, GappedScoreNeverExceedsSmithWaterman)
{
    bio::Rng rng(424242);
    const align::BlastParams params;
    for (int t = 0; t < 15; ++t) {
        const Sequence q = bio::makeRandomSequence(
            rng, static_cast<int>(40 + rng.below(100)));
        const Sequence s =
            bio::mutate(rng, q, 0.4 + rng.uniform() * 0.5, "S", "");
        const align::NeighborhoodIndex index(q, kMat, params);
        const align::BlastScores bs =
            align::blastScan(index, q, s, kMat, kGaps, params);
        const int sw =
            align::smithWatermanScore(q, s, kMat, kGaps).score;
        EXPECT_LE(bs.score, sw);
        EXPECT_LE(bs.bestUngapped, sw);
    }
}

TEST(BlastScan, TwoHitTriggersLessThanOneHit)
{
    bio::Rng rng(11);
    const Sequence q = bio::makeRandomSequence(rng, 200);
    const Sequence s = bio::mutate(rng, q, 0.5, "S", "");
    align::BlastParams two_hit;
    align::BlastParams one_hit;
    one_hit.twoHit = false;
    const align::NeighborhoodIndex index(q, kMat, two_hit);
    const align::BlastScores a =
        align::blastScan(index, q, s, kMat, kGaps, two_hit);
    const align::BlastScores b =
        align::blastScan(index, q, s, kMat, kGaps, one_hit);
    EXPECT_LT(a.extensionsTried, b.extensionsTried)
        << "two-hit heuristic must suppress extensions";
    EXPECT_EQ(a.wordHits, b.wordHits);
}

TEST(BlastSearch, FindsHighIdentityHomologs)
{
    const Sequence query = bio::makeDefaultQuery();
    bio::DatabaseSpec spec;
    spec.numSequences = 80;
    const bio::SequenceDatabase db = bio::makeDatabase(spec, {query});
    const align::SearchResults res =
        align::blastSearch(query, db, kMat, kGaps);

    ASSERT_FALSE(res.hits.empty());
    const Sequence &top = db[res.hits.front().dbIndex];
    EXPECT_NE(top.description().find("homolog of P14942"),
              std::string::npos);
    EXPECT_LT(res.hits.front().evalue, 1e-6);
}

TEST(BlastSearch, DoesFarLessWorkThanSmithWaterman)
{
    const Sequence query = bio::makeDefaultQuery();
    const bio::SequenceDatabase db = bio::makeDefaultDatabase(40);
    const align::SearchResults res =
        align::blastSearch(query, db, kMat, kGaps);
    const std::uint64_t sw_cells =
        query.length() * db.totalResidues();
    EXPECT_LT(res.cellsComputed, sw_cells / 4)
        << "BLAST must be an order of magnitude cheaper than SW";
}

/** Mix every score field of one BLAST scan into @p h. */
template <typename Scores>
void
hashScores(core::Fnv1a &h, const Scores &s)
{
    for (const int v : {s.wordHits, s.extensionsTried, s.bestUngapped,
                        s.gappedExtensions, s.score})
        h.update64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}

/** Mix a traced alignment: score, begin and end cells, CIGAR ops. */
void
hashAlignment(core::Fnv1a &h, const align::CigarAlignment &aln)
{
    for (const int v : {aln.score, aln.qBegin, aln.qEnd, aln.sBegin,
                        aln.sEnd, aln.identities, aln.columns})
        h.update64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    for (const align::CigarOp &op : aln.cigar) {
        h.update64(static_cast<std::uint64_t>(op.op));
        h.update64(static_cast<std::uint64_t>(op.len));
    }
    h.update64(aln.cigar.size());
}

/** A low-complexity run: a short random motif tiled to @p len. */
std::vector<bio::Residue>
repeatRun(bio::Rng &rng, int len, int alphabet)
{
    const int period = 1 + static_cast<int>(rng.below(4));
    std::vector<bio::Residue> motif(static_cast<std::size_t>(period));
    for (bio::Residue &r : motif)
        r = static_cast<bio::Residue>(
            rng.below(static_cast<std::uint64_t>(alphabet)));
    std::vector<bio::Residue> out(static_cast<std::size_t>(len));
    for (int i = 0; i < len; ++i)
        out[static_cast<std::size_t>(i)] =
            motif[static_cast<std::size_t>(i % period)];
    return out;
}

/** Protein subjects of every corpus shape for query @p q. */
Sequence
proteinSubject(bio::Rng &rng, const Sequence &q, int shape)
{
    switch (shape % 5) {
    case 0:
        return bio::makeRandomSequence(
            rng, 20 + static_cast<int>(rng.below(180)));
    case 1: // mutated homolog with indels
        return bio::mutate(rng, q, 0.4 + 0.1 * (shape % 6), "H", "");
    case 2: // low-complexity repeat
        return Sequence("LC", "",
                        repeatRun(rng, 30 + static_cast<int>(
                                               rng.below(120)),
                                  bio::Alphabet::numRealResidues));
    case 3: // shorter than the word
        return bio::makeRandomSequence(
            rng, static_cast<int>(rng.below(3)));
    default: // homolog embedded in random flanks
    {
        const Sequence core = bio::mutate(rng, q, 0.7, "H", "");
        std::vector<bio::Residue> r =
            bio::makeRandomSequence(rng, 40).residues();
        r.insert(r.end(), core.residues().begin(),
                 core.residues().end());
        const Sequence tail = bio::makeRandomSequence(rng, 30);
        r.insert(r.end(), tail.residues().begin(),
                 tail.residues().end());
        return Sequence("EMB", "", std::move(r));
    }
    }
}

/** DNA subjects of every corpus shape for query @p q. */
bio::PackedDna
dnaSubject(bio::Rng &rng, const bio::PackedDna &q, int shape)
{
    switch (shape % 5) {
    case 0:
        return bio::makeRandomDna(
            rng, 30 + static_cast<std::size_t>(rng.below(400)));
    case 1: // mutated homolog with indels
        return bio::mutateDna(rng, q, 0.75 + 0.04 * (shape % 6), "H");
    case 2: { // low-complexity repeat
        const std::vector<bio::Residue> r =
            repeatRun(rng, 40 + static_cast<int>(rng.below(200)), 4);
        return bio::PackedDna(
            "LC", std::vector<bio::Base>(r.begin(), r.end()));
    }
    case 3: // shorter than the word
        return bio::makeRandomDna(rng,
                                  static_cast<std::size_t>(
                                      rng.below(8)));
    default: { // window of the query with a mutated tail
        std::vector<bio::Base> b;
        const std::size_t lo = q.length() / 4;
        for (std::size_t i = lo; i < q.length(); ++i)
            b.push_back(q[i]);
        const bio::PackedDna tail = bio::mutateDna(rng, q, 0.85, "T");
        for (std::size_t i = 0; i < tail.length(); ++i)
            b.push_back(tail[i]);
        return bio::PackedDna("WIN", b);
    }
    }
}

/**
 * The BLAST family's parity pin: an FNV digest of every score
 * field of blastScan / blastnScan (blastnScan on both the packed
 * and the residue subject form), protein BLAST's cell count, and
 * every blastAlign / blastnAlign CIGAR over a seeded corpus of
 * random subjects, mutated homologs with indels, low-complexity
 * repeats and sequences shorter than the word, with two-hit
 * seeding on and off. Any change of seeding, extension, window,
 * band or traceback moves the digest.
 */
TEST(BlastParity, FamilyDigestIsPinned)
{
    core::Fnv1a h;
    int protein_traced = 0;
    int dna_traced = 0;

    bio::Rng rng(0xB1A5C0DE);
    align::BlastParams two_hit;
    align::BlastParams one_hit;
    one_hit.twoHit = false;
    align::BlastParams small_word;
    small_word.wordSize = 2;
    small_word.neighborThreshold = 8;
    small_word.bandHalfWidth = 7;
    small_word.gappedWindowMargin = 5;
    for (const align::BlastParams &params :
         {two_hit, one_hit, small_word}) {
        for (int qi = 0; qi < 12; ++qi) {
            const Sequence q = qi % 6 == 5
                ? Sequence("QLC", "",
                           repeatRun(rng, 60,
                                     bio::Alphabet::numRealResidues))
                : bio::makeRandomSequence(
                      rng, qi == 0 ? 2
                                   : 40 + static_cast<int>(
                                              rng.below(160)));
            const align::NeighborhoodIndex index(q, kMat, params);
            for (int shape = 0; shape < 10; ++shape) {
                const Sequence s = proteinSubject(rng, q, shape);
                std::uint64_t cells = 0;
                hashScores(h, align::blastScan(index, q, s, kMat, kGaps,
                                               params, &cells));
                h.update64(cells);
                const align::CigarAlignment aln =
                    align::blastAlign(index, q, s, kMat, kGaps, params);
                protein_traced += aln.empty() ? 0 : 1;
                hashAlignment(h, aln);
            }
        }
    }

    align::BlastnParams dflt;
    align::BlastnParams short_word;
    short_word.wordSize = 4;
    short_word.xDropUngapped = 6;
    short_word.gapTrigger = 10;
    short_word.bandHalfWidth = 5;
    short_word.gappedWindowMargin = 9;
    align::BlastnParams long_word;
    long_word.wordSize = 11;
    long_word.matchScore = 2;
    long_word.mismatchScore = -3;
    for (const align::BlastnParams &params :
         {dflt, short_word, long_word}) {
        for (int qi = 0; qi < 10; ++qi) {
            bio::PackedDna q;
            if (qi % 5 == 4) {
                const std::vector<bio::Residue> r = repeatRun(rng, 90, 4);
                q = bio::PackedDna(
                    "QLC", std::vector<bio::Base>(r.begin(), r.end()));
            } else {
                q = bio::makeRandomDna(
                    rng, qi == 0 ? 5
                                 : 60 + static_cast<std::size_t>(
                                            rng.below(300)));
            }
            const align::DnaWordIndex index(q, params.wordSize);
            for (int shape = 0; shape < 10; ++shape) {
                const bio::PackedDna sp = dnaSubject(rng, q, shape);
                std::vector<bio::Residue> sr(sp.length());
                for (std::size_t i = 0; i < sp.length(); ++i)
                    sr[i] = static_cast<bio::Residue>(sp[i]);
                hashScores(h, align::blastnScan(index, q, sp, params));
                hashScores(h, align::blastnScan(index, q, sr.data(),
                                                sr.size(), params));
                const align::CigarAlignment aln = align::blastnAlign(
                    index, q, sr.data(), sr.size(), params);
                dna_traced += aln.empty() ? 0 : 1;
                hashAlignment(h, aln);
            }
        }
    }

    // The corpus must reach the gapped and traced stages often.
    EXPECT_GT(protein_traced, 100);
    EXPECT_GT(dna_traced, 80);
    EXPECT_EQ(h.digest(), 0x3d61e460d0c91997ULL)
        << "protein traced " << protein_traced << ", dna traced "
        << dna_traced;
}

} // namespace
