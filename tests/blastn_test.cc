/**
 * @file
 * Tests for the nucleotide substrate (packed DNA) and the blastn
 * pipeline of the paper's Listing 1.
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include "align/blastn.hh"
#include "align/smith_waterman.hh"
#include "bio/nucleotide.hh"
#include "bio/random.hh"
#include "bio/scoring.hh"

namespace
{

using namespace bioarch;
using bio::PackedDna;

TEST(NucAlphabet, RoundTrips)
{
    for (char c : std::string("ACGT")) {
        EXPECT_EQ(bio::NucAlphabet::decode(
                      bio::NucAlphabet::encode(c)),
                  c);
    }
    EXPECT_EQ(bio::NucAlphabet::encode('a'),
              bio::NucAlphabet::encode('A'));
    EXPECT_EQ(bio::NucAlphabet::encode('N'), 0); // collapses to A
}

TEST(PackedDna, PacksAndUnpacksExactly)
{
    const std::string seq = "ACGTACGTTTGGCCAATACG";
    const PackedDna dna("D", seq);
    EXPECT_EQ(dna.length(), seq.size());
    EXPECT_EQ(dna.toString(), seq);
    // 20 bases -> 5 bytes.
    EXPECT_EQ(dna.bytes().size(), 5u);
    // Per-base accessor (READDB_UNPACK_BASE) agrees.
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(bio::NucAlphabet::decode(dna[i]), seq[i]);
}

TEST(PackedDna, NonMultipleOfFourLengths)
{
    for (const std::string seq :
         {std::string("A"), std::string("ACG"),
          std::string("ACGTA")}) {
        const PackedDna dna("D", seq);
        EXPECT_EQ(dna.toString(), seq);
    }
    EXPECT_TRUE(PackedDna("E", "").empty());
}

TEST(PackedDna, PackingIsFourBasesPerByte)
{
    // "AAAA" -> 0x00; "TTTT" -> 0xFF; "ACGT" -> 0b00011011.
    EXPECT_EQ(PackedDna("D", "AAAA").bytes()[0], 0x00);
    EXPECT_EQ(PackedDna("D", "TTTT").bytes()[0], 0xFF);
    EXPECT_EQ(PackedDna("D", "ACGT").bytes()[0], 0b00011011);
}

TEST(DnaWordIndex, FindsExactWords)
{
    const PackedDna q("Q", "ACGTACGTAC"); // ACGTACGT at 0, ...
    const align::DnaWordIndex index(q, 8);
    EXPECT_EQ(index.wordSize(), 8);
    // Word "ACGTACGT" = interleaved 2-bit values.
    std::uint32_t w = 0;
    for (char c : std::string("ACGTACGT"))
        w = (w << 2) | bio::NucAlphabet::encode(c);
    const auto [begin, end] = index.positions(w);
    ASSERT_EQ(end - begin, 1);
    EXPECT_EQ(*begin, 0);
    EXPECT_EQ(index.numWords(), 3u); // positions 0, 1, 2
}

/**
 * The direct-address table holds 4^w + 1 heads, so a word size
 * outside [1, 12] is refused before anything is allocated (w = -1
 * would shift by a negative count, w = 16 ask for 16 GB).
 */
TEST(DnaWordIndex, RejectsWordSizeOutsideOneToTwelve)
{
    const PackedDna q("Q", "ACGTTGCAACGTTG");
    for (const int w : {-1, 0, align::DnaWordIndex::maxWordSize + 1})
        EXPECT_THROW(align::DnaWordIndex(q, w), std::invalid_argument)
            << "w " << w;
    for (int w = 1; w <= align::DnaWordIndex::maxWordSize; ++w) {
        const align::DnaWordIndex index(q, w);
        std::uint32_t word = 0;
        for (int k = 0; k < w; ++k)
            word = (word << 2) | q[static_cast<std::size_t>(k)];
        const auto [begin, end] = index.positions(word);
        ASSERT_GT(end - begin, 0) << "w " << w;
        EXPECT_EQ(*begin, 0);
        EXPECT_EQ(index.numWords(), q.length() + 1 - w);
    }
}

TEST(Blastn, SelfSearchScoresFullLength)
{
    bio::Rng rng(7);
    const PackedDna q = bio::makeRandomDna(rng, 300, "Q");
    const align::BlastnParams params;
    const align::DnaWordIndex index(q, params.wordSize);
    const align::BlastnScores bs =
        align::blastnScan(index, q, q, params);
    EXPECT_GT(bs.wordHits, 0);
    EXPECT_GT(bs.extensionsTried, 0);
    // Ungapped self-extension covers the whole sequence.
    EXPECT_EQ(bs.bestUngapped,
              params.matchScore * static_cast<int>(q.length()));
    EXPECT_GE(bs.score, bs.bestUngapped);
}

TEST(Blastn, RandomPairsRarelyHit)
{
    // Two random 500-base sequences share an exact 8-mer only by
    // chance (expected ~ 500*500/4^8 ~ 3.8 hits) and never produce
    // a high score.
    bio::Rng rng(21);
    const PackedDna a = bio::makeRandomDna(rng, 500, "A");
    const PackedDna b = bio::makeRandomDna(rng, 500, "B");
    const align::BlastnParams params;
    const align::DnaWordIndex index(a, params.wordSize);
    const align::BlastnScores bs =
        align::blastnScan(index, a, b, params);
    EXPECT_LT(bs.wordHits, 30);
    EXPECT_LT(bs.bestUngapped, 30);
}

TEST(Blastn, UngappedScoreMatchesDecodedAlignmentOnIdentity)
{
    // For a subject equal to a window of the query, the ungapped
    // score must equal match * window length.
    bio::Rng rng(33);
    const PackedDna q = bio::makeRandomDna(rng, 400, "Q");
    std::vector<bio::Base> window;
    for (std::size_t i = 100; i < 250; ++i)
        window.push_back(q[i]);
    const PackedDna s("S", window);
    const align::BlastnParams params;
    const align::DnaWordIndex index(q, params.wordSize);
    const align::BlastnScores bs =
        align::blastnScan(index, q, s, params);
    EXPECT_EQ(bs.bestUngapped, 150 * params.matchScore);
}

TEST(Blastn, SearchRanksPlantedHomologsFirst)
{
    bio::Rng rng(55);
    const PackedDna query = bio::makeRandomDna(rng, 600, "Q");
    const bio::DnaDatabase db =
        bio::makeDnaDatabase(60, 300, 900, query, 4, 1234);
    const align::SearchResults res =
        align::blastnSearch(query, db);

    ASSERT_FALSE(res.hits.empty());
    // Top hit must be a planted homolog (id prefix "HDNA").
    const std::string &top_id = db[res.hits.front().dbIndex].id();
    EXPECT_EQ(top_id.substr(0, 4), "HDNA") << top_id;
    EXPECT_LT(res.hits.front().evalue, 1e-10);
    for (std::size_t i = 1; i < res.hits.size(); ++i)
        EXPECT_GE(res.hits[i - 1].score, res.hits[i].score);
}

TEST(Blastn, GappedExtensionRecoversIndelHomolog)
{
    // A homolog with indels scores higher gapped than ungapped.
    bio::Rng rng(77);
    const PackedDna q = bio::makeRandomDna(rng, 500, "Q");
    const PackedDna s = bio::mutateDna(rng, q, 0.9, "S");
    const align::BlastnParams params;
    const align::DnaWordIndex index(q, params.wordSize);
    const align::BlastnScores bs =
        align::blastnScan(index, q, s, params);
    EXPECT_GT(bs.gappedExtensions, 0);
    EXPECT_GT(bs.score, bs.bestUngapped);
}

TEST(Blastn, DatabaseStatistics)
{
    bio::Rng rng(3);
    const PackedDna q = bio::makeRandomDna(rng, 100, "Q");
    const bio::DnaDatabase db =
        bio::makeDnaDatabase(10, 50, 100, q, 2, 9);
    EXPECT_EQ(db.size(), 10u);
    std::uint64_t total = 0;
    for (const PackedDna &s : db)
        total += s.length();
    EXPECT_EQ(db.totalBases(), total);
}

} // namespace
