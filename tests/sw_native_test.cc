/**
 * @file
 * Native striped Smith-Waterman backend tests: backend resolution,
 * bit-identity to the scalar reference across a seeded fuzz corpus,
 * the striped-layout edge lengths, gap penalties, each lane width
 * and a database search, and the overflow ladder
 * (8-bit saturation -> 16-bit rescan -> scalar fallback) on
 * adversarial high-identity inputs. Every test loops over every
 * backend compiled into this binary: the hardware ones the host
 * runs and the Scalar backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "align/smith_waterman.hh"
#include "align/ssearch.hh"
#include "align/sw_intersequence_native.hh"
#include "align/sw_striped_native.hh"
#include "bio/random.hh"
#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "bio/synthetic.hh"
#include "serve/engine.hh"

namespace
{

using namespace bioarch;

bio::Sequence
randomSeq(bio::Rng &rng, int length, const std::string &id)
{
    std::vector<bio::Residue> rs;
    rs.reserve(static_cast<std::size_t>(length));
    for (int i = 0; i < length; ++i)
        rs.push_back(static_cast<bio::Residue>(
            rng.below(bio::Alphabet::numSymbols)));
    return bio::Sequence(id, "", std::move(rs));
}

/** Whether @p backend has lanes: Scalar climbs no overflow ladder. */
bool
hasLanes(align::SimdBackend backend)
{
    return backend != align::SimdBackend::Scalar;
}

TEST(SwNativeBackend, ResolutionAndNames)
{
    const auto &backends = align::runnableBackends();
    ASSERT_FALSE(backends.empty());
    // Scalar always runs and is always last (the fallback).
    EXPECT_EQ(backends.back(), align::SimdBackend::Scalar);
    EXPECT_EQ(align::nativeKernels(align::SimdBackend::Scalar),
              nullptr);
    EXPECT_EQ(align::defaultScanBackend(), backends.front());
    // Every build compiles the target ISA's intrinsic backend, and
    // the default serves with it (or a wider one).
#if defined(__x86_64__) || defined(__aarch64__)
#if defined(__x86_64__)
    constexpr align::SimdBackend hardware = align::SimdBackend::SSE2;
#else
    constexpr align::SimdBackend hardware = align::SimdBackend::NEON;
#endif
    EXPECT_NE(std::find(backends.begin(), backends.end(), hardware),
              backends.end());
    EXPECT_NE(align::defaultScanBackend(), align::SimdBackend::Scalar);

    // The other architecture's backend is never runnable: its name
    // does not parse, it has no table, and no engine serves on it.
#if defined(__x86_64__)
    constexpr align::SimdBackend foreign = align::SimdBackend::NEON;
#else
    constexpr align::SimdBackend foreign = align::SimdBackend::SSE2;
#endif
    EXPECT_EQ(align::parseBackend(align::backendName(foreign)),
              std::nullopt);
    EXPECT_THROW(align::nativeKernels(foreign), std::invalid_argument);
    serve::EngineConfig cfg;
    cfg.backend = foreign;
    const bio::SequenceDatabase db;
    EXPECT_THROW(serve::Engine(db, cfg), std::invalid_argument);
#endif

    for (const align::SimdBackend b : backends) {
        const auto parsed = align::parseBackend(align::backendName(b));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, b);
    }
    EXPECT_EQ(align::backendName(align::SimdBackend::Scalar), "scalar");
    // Only backend names and "auto" parse.
    EXPECT_EQ(align::parseBackend("model"), std::nullopt);
    EXPECT_EQ(align::parseBackend("portable"), std::nullopt);
    EXPECT_EQ(align::parseBackend("auto"),
              align::defaultScanBackend());
    EXPECT_FALSE(align::parseBackend("vliw").has_value());
}

TEST(SwNativeScan, FuzzMatchesScalarOnAllBackends)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    bio::Rng rng(0xF0229);

    for (int pair = 0; pair < 500; ++pair) {
        const int m = 1 + static_cast<int>(rng.below(160));
        const int n = 1 + static_cast<int>(rng.below(240));
        const bio::Sequence q = randomSeq(rng, m, "q");
        const bio::Sequence s = randomSeq(rng, n, "s");
        const align::LocalScore ref =
            align::smithWatermanScore(q, s, mat, gaps);

        for (const align::SimdBackend backend :
             align::runnableBackends()) {
            const align::NativeQueryProfile profile(q, mat,
                                                    backend);
            const align::LocalScore got =
                align::swStripedNativeScan(profile, s, gaps);
            ASSERT_EQ(got.score, ref.score)
                << "pair " << pair << " backend "
                << align::backendName(backend) << " m=" << m
                << " n=" << n;
        }
    }
}

// The striped layout's pad rows kick in at the lane-count
// boundaries; sweep query lengths around every runnable backend's
// 8-bit and 16-bit lane counts (1..2N+1 for N up to 32).
TEST(SwNativeScan, PadBoundaryQueryLengths)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    bio::Rng rng(0xBADF00D);
    const bio::Sequence subject = randomSeq(rng, 53, "s");

    for (int m :
         {1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 37, 64, 65}) {
        const bio::Sequence q = randomSeq(rng, m, "q");
        const align::LocalScore ref =
            align::smithWatermanScore(q, subject, mat, gaps);
        for (const align::SimdBackend backend :
             align::runnableBackends()) {
            const align::NativeQueryProfile profile(q, mat,
                                                    backend);
            EXPECT_EQ(
                align::swStripedNativeScan(profile, subject, gaps)
                    .score,
                ref.score)
                << "m=" << m << " backend "
                << align::backendName(backend);
        }
    }
}

/** Gap-penalty sweep on every backend, including the degenerate
 * extend-0 case the lazy-F correction must survive and a subject
 * that deletes a large block of the query (long vertical gaps). */
class StripedGapSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(StripedGapSweep, MatchesScalarAcrossPenalties)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps{GetParam().first,
                                 GetParam().second};
    bio::Rng rng(3131);
    for (int t = 0; t < 16; ++t) {
        const bio::Sequence q = bio::makeRandomSequence(
            rng, static_cast<int>(5 + rng.below(120)));
        std::vector<bio::Residue> res = q.residues();
        if (t % 2 == 0)
            res.erase(res.begin() + res.size() / 3,
                      res.begin() + 2 * res.size() / 3);
        const bio::Sequence s = bio::mutate(
            rng, bio::Sequence("s", "", std::move(res)), 0.7, "s",
            "");
        const int ref = align::smithWatermanScore(q, s, mat, gaps)
                            .score;
        for (const align::SimdBackend backend :
             align::runnableBackends()) {
            const align::NativeQueryProfile profile(q, mat,
                                                    backend);
            ASSERT_EQ(
                align::swStripedNativeScan(profile, s, gaps).score,
                ref)
                << "open=" << gaps.open << " ext=" << gaps.extend
                << " backend " << align::backendName(backend);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Penalties, StripedGapSweep,
    ::testing::Values(std::pair{10, 1}, std::pair{4, 2},
                      std::pair{12, 3}, std::pair{20, 1},
                      std::pair{10, 0}));

TEST(Striped, MatchesScalarOnIdenticalSequences)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    const bio::Sequence s("S", "", "ACDEFGHIKLMNPQRSTVWY");
    const align::LocalScore ref =
        align::smithWatermanScore(s, s, mat, gaps);
    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        const align::NativeQueryProfile profile(s, mat, backend);
        const align::LocalScore got =
            align::swStripedNativeScan(profile, s, gaps);
        EXPECT_EQ(got.score, ref.score)
            << align::backendName(backend);
        EXPECT_EQ(got.subjectEnd, ref.subjectEnd)
            << align::backendName(backend);
    }
}

TEST(Striped, EmptyInputsScoreZero)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    const bio::Sequence q("Q", "", "ACD");
    const bio::Sequence e("E", "", "");
    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        const align::NativeQueryProfile profile(q, mat, backend);
        EXPECT_EQ(align::swStripedNativeScan(profile, e, gaps).score,
                  0)
            << align::backendName(backend);
    }
}

/** Random and mutated pairs (40-90% identity, lengths 1..150):
 * the property corpus both lane widths are held to. */
template <typename Check>
void
forStripedCorpus(std::uint64_t seed, Check check)
{
    bio::Rng rng(seed);
    for (int t = 0; t < 30; ++t) {
        const bio::Sequence q = bio::makeRandomSequence(
            rng, static_cast<int>(1 + rng.below(150)));
        const bio::Sequence s = (t % 2 == 0)
            ? bio::makeRandomSequence(
                  rng, static_cast<int>(1 + rng.below(150)))
            : bio::mutate(rng, q, 0.4 + rng.uniform() * 0.5, "S",
                          "");
        check(q, s);
    }
}

// The 8-bit lanes, entered through the full ladder: the corpus
// must match the scalar reference and most of it must finish at
// 8 bits, so that level is what is being checked.
TEST(StripedProperty, Lanes8MatchesScalar)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        align::NativeScanStats stats;
        forStripedCorpus(11, [&](const bio::Sequence &q,
                                 const bio::Sequence &s) {
            const align::NativeQueryProfile profile(q, mat, backend);
            ASSERT_EQ(align::swStripedNativeScan(profile, s, gaps,
                                                 nullptr, &stats)
                          .score,
                      align::smithWatermanScore(q, s, mat, gaps)
                          .score)
                << align::backendName(backend)
                << " q=" << q.toString() << " s=" << s.toString();
        });
        EXPECT_EQ(stats.scans, 30u);
        EXPECT_LT(stats.rescans16 * 2, stats.scans)
            << align::backendName(backend);
    }
}

// The 16-bit lanes on their own (the level the ladder climbs to),
// which no corpus pair can saturate.
TEST(StripedProperty, Lanes16MatchesScalar)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        align::NativeScanStats stats;
        forStripedCorpus(22, [&](const bio::Sequence &q,
                                 const bio::Sequence &s) {
            const align::NativeQueryProfile profile(q, mat, backend);
            ASSERT_EQ(align::swStripedScan16Tail(
                          profile, s.residues().data(), s.length(),
                          gaps, &stats)
                          .score,
                      align::smithWatermanScore(q, s, mat, gaps)
                          .score)
                << align::backendName(backend)
                << " q=" << q.toString() << " s=" << s.toString();
        });
        EXPECT_EQ(stats.rescansScalar, 0u)
            << align::backendName(backend);
    }
}

// Every positive hit of the scalar database search must be scored
// identically, for the same subject, by every native backend, and
// the native scan must find no other positive subject.
TEST(StripedSearch, AgreesWithSsearchScores)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    const bio::Sequence query = bio::makeDefaultQuery();
    const bio::SequenceDatabase db = bio::makeDefaultDatabase(40);
    const align::SearchResults scalar =
        align::ssearchSearch(query, db, mat, gaps);
    ASSERT_FALSE(scalar.hits.empty());

    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        const align::NativeQueryProfile profile(query, mat, backend);
        std::vector<int> scores;
        std::size_t positive = 0;
        for (std::size_t i = 0; i < db.size(); ++i) {
            scores.push_back(
                align::swStripedNativeScan(profile, db[i], gaps)
                    .score);
            positive += scores.back() > 0 ? 1 : 0;
        }
        EXPECT_EQ(positive, scalar.hits.size())
            << align::backendName(backend);
        for (const align::SearchHit &hit : scalar.hits)
            EXPECT_EQ(scores[hit.dbIndex], hit.score)
                << "dbIndex " << hit.dbIndex << " backend "
                << align::backendName(backend);
    }
}

// A high-identity long pair drives the best score far above what
// 8-bit lanes can hold; the ladder must rescan at 16 bits and
// still match the scalar reference exactly.
TEST(SwNativeScan, U8SaturationRescansAt16Bits)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    bio::Rng rng(0x5A7);
    const bio::Sequence q = randomSeq(rng, 600, "q");
    const bio::Sequence s = q; // identical: score ~ sum of self-scores

    const align::LocalScore ref =
        align::smithWatermanScore(q, s, mat, gaps);
    ASSERT_GT(ref.score, 255); // adversarial premise

    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        const align::NativeQueryProfile profile(q, mat, backend);
        ASSERT_EQ(profile.hasU8(), hasLanes(backend));
        align::NativeScanStats stats;
        std::uint64_t cells = 0;
        const align::LocalScore got = align::swStripedNativeScan(
            profile, s, gaps, &cells, &stats);
        EXPECT_EQ(got.score, ref.score)
            << align::backendName(backend);
        EXPECT_EQ(stats.scans, 1u);
        EXPECT_EQ(stats.rescans16, hasLanes(backend) ? 1u : 0u);
        EXPECT_EQ(stats.rescansScalar, 0u);
        EXPECT_EQ(cells, 600u * 600u);
    }
}

// A tryptophan homopolymer of 3200 residues aligned to itself
// scores 3200 * 11 = 35200 > INT16_MAX: both SIMD levels saturate
// and the ladder must land on the scalar reference.
TEST(SwNativeScan, I16SaturationFallsBackToScalar)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    const bio::Sequence q("w", "", std::string(3200, 'W'));
    const align::LocalScore ref =
        align::smithWatermanScore(q, q, mat, gaps);
    ASSERT_GT(ref.score, 32767);

    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        const align::NativeQueryProfile profile(q, mat, backend);
        align::NativeScanStats stats;
        const align::LocalScore got = align::swStripedNativeScan(
            profile, q, gaps, nullptr, &stats);
        EXPECT_EQ(got.score, ref.score)
            << align::backendName(backend);
        EXPECT_EQ(stats.rescansScalar, hasLanes(backend) ? 1u : 0u);
        // The scalar level tracks coordinates too.
        EXPECT_EQ(got.queryEnd, ref.queryEnd);
        EXPECT_EQ(got.subjectEnd, ref.subjectEnd);
    }
}

// The most extreme matrix an int8 score table allows (bias 128,
// max 127) saturates the 8-bit level on the very first match, so
// every boundary-length scan is forced through the 16-bit level —
// driving its -1000 pad sentinel at each striped edge case.
TEST(SwNativeScan, ExtremeMatrixForces16BitPads)
{
    const bio::ScoringMatrix mat =
        bio::makeMatchMismatch(127, -128);
    const bio::GapPenalties gaps;
    const bio::Sequence subject("s", "", std::string(40, 'A'));

    for (int m : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33}) {
        const bio::Sequence q("q", "", std::string(m, 'A'));
        const align::LocalScore ref =
            align::smithWatermanScore(q, subject, mat, gaps);
        for (const align::SimdBackend backend :
             align::runnableBackends()) {
            const align::NativeQueryProfile profile(q, mat,
                                                    backend);
            // int8 scores always fit the biased byte level...
            EXPECT_EQ(profile.hasU8(), hasLanes(backend));
            align::NativeScanStats stats;
            EXPECT_EQ(align::swStripedNativeScan(profile, subject,
                                                 gaps, nullptr,
                                                 &stats)
                          .score,
                      ref.score)
                << "m=" << m << " backend "
                << align::backendName(backend);
            // ...but one 127-point match reaches the saturation
            // band (255 - bias = 127), so every scan rescans.
            EXPECT_EQ(stats.rescans16, hasLanes(backend) ? 1u : 0u);
            EXPECT_EQ(stats.rescansScalar, 0u);
        }
    }
}

TEST(SwNativeScan, EmptyInputsScoreZero)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    bio::Rng rng(0xE);
    const bio::Sequence q = randomSeq(rng, 12, "q");
    const bio::Sequence empty("e", "", std::string());

    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        const align::NativeQueryProfile profile(q, mat, backend);
        std::uint64_t cells = 0;
        EXPECT_EQ(
            align::swStripedNativeScan(profile, empty, gaps, &cells)
                .score,
            0);
        EXPECT_EQ(cells, 0u);

        const align::NativeQueryProfile eprofile(empty, mat,
                                                 backend);
        EXPECT_EQ(align::swStripedNativeScan(eprofile, q, gaps)
                      .score,
                  0);
    }
}

// ---- inter-sequence (multi-subject) kernel ---------------------

std::vector<align::SubjectSpan>
spansOf(const std::vector<bio::Sequence> &subjects)
{
    std::vector<align::SubjectSpan> spans;
    spans.reserve(subjects.size());
    for (const bio::Sequence &s : subjects)
        spans.push_back(
            align::SubjectSpan{s.residues().data(), s.length()});
    return spans;
}

// Mixed-length batches, larger and smaller than the lane count, in
// shuffled length order: every subject's score AND subjectEnd must
// be bit-identical to both the scalar oracle and the striped
// kernel, on every runnable backend. Exercises lane refill (batch
// > lanes), partial fills (batch < lanes), and the in-kernel
// (length, index) sort.
TEST(SwInterSequence, FuzzBatchesMatchScalarOnAllBackends)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    bio::Rng rng(0x1A7E5);

    for (int round = 0; round < 12; ++round) {
        const int m = 1 + static_cast<int>(rng.below(120));
        const bio::Sequence q = randomSeq(rng, m, "q");
        // 1..96 subjects of wildly mixed lengths (1..200).
        const int count = 1 + static_cast<int>(rng.below(96));
        std::vector<bio::Sequence> subjects;
        for (int i = 0; i < count; ++i)
            subjects.push_back(randomSeq(
                rng, 1 + static_cast<int>(rng.below(200)),
                "s" + std::to_string(i)));
        const std::vector<align::SubjectSpan> spans =
            spansOf(subjects);

        for (const align::SimdBackend backend :
             align::runnableBackends()) {
            const align::NativeQueryProfile profile(q, mat,
                                                    backend);
            std::vector<align::LocalScore> got(spans.size());
            align::NativeScanStats stats;
            std::uint64_t cells = 0;
            align::swInterSequenceScan(profile, spans.data(),
                                       spans.size(), gaps,
                                       got.data(), &cells, &stats);
            EXPECT_EQ(stats.scans,
                      static_cast<std::uint64_t>(count));
            EXPECT_EQ(stats.interSequence,
                      hasLanes(backend)
                          ? static_cast<std::uint64_t>(count)
                          : 0u);
            std::uint64_t expect_cells = 0;
            for (int i = 0; i < count; ++i) {
                const align::LocalScore ref =
                    align::smithWatermanScore(q, subjects[i], mat,
                                              gaps);
                const align::LocalScore striped =
                    align::swStripedNativeScan(profile,
                                               subjects[i], gaps);
                ASSERT_EQ(got[i].score, ref.score)
                    << "round " << round << " subject " << i
                    << " backend "
                    << align::backendName(backend);
                ASSERT_EQ(got[i].subjectEnd, striped.subjectEnd)
                    << "round " << round << " subject " << i
                    << " backend "
                    << align::backendName(backend);
                expect_cells += static_cast<std::uint64_t>(m)
                    * subjects[i].length();
            }
            EXPECT_EQ(cells, expect_cells);
        }
    }
}

// A batch whose lanes retire at every boundary the refill logic
// has: length-1 subjects, runs of equal lengths (mass simultaneous
// retirement under the sorted schedule), and one subject much
// longer than the rest that outlives several refill generations.
TEST(SwInterSequence, LaneRefillBoundaries)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    bio::Rng rng(0x2EF111);

    const bio::Sequence q = randomSeq(rng, 48, "q");
    std::vector<bio::Sequence> subjects;
    int id = 0;
    for (int rep = 0; rep < 40; ++rep) // forty length-1 subjects
        subjects.push_back(
            randomSeq(rng, 1, "a" + std::to_string(id++)));
    for (int rep = 0; rep < 40; ++rep) // forty equal mid-length
        subjects.push_back(
            randomSeq(rng, 17, "b" + std::to_string(id++)));
    subjects.push_back(randomSeq(rng, 900, "long"));
    const std::vector<align::SubjectSpan> spans =
        spansOf(subjects);

    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        const align::NativeQueryProfile profile(q, mat, backend);
        std::vector<align::LocalScore> got(spans.size());
        align::swInterSequenceScan(profile, spans.data(),
                                   spans.size(), gaps, got.data());
        for (std::size_t i = 0; i < subjects.size(); ++i) {
            const align::LocalScore ref = align::smithWatermanScore(
                q, subjects[i], mat, gaps);
            ASSERT_EQ(got[i].score, ref.score)
                << "subject " << i << " backend "
                << align::backendName(backend);
        }
    }
}

// One lane saturating must not disturb its neighbors: a batch of
// ordinary subjects with a near-identical copy of a 600-residue
// query (u8 saturation -> 16-bit rescan of that one subject) and a
// 3200-residue tryptophan homopolymer against a matching query
// elsewhere would be i16 saturation; here, drive u8 saturation in
// individual lanes and check the whole batch still lands on the
// scalar reference with the expected ladder counts.
TEST(SwInterSequence, SaturationInIndividualLanes)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    bio::Rng rng(0x5A77);

    const bio::Sequence q = randomSeq(rng, 600, "q");
    std::vector<bio::Sequence> subjects;
    for (int i = 0; i < 20; ++i)
        subjects.push_back(randomSeq(
            rng, 30 + static_cast<int>(rng.below(60)),
            "s" + std::to_string(i)));
    subjects.push_back(q); // self-alignment: score >> 255
    for (int i = 0; i < 20; ++i)
        subjects.push_back(randomSeq(
            rng, 30 + static_cast<int>(rng.below(60)),
            "t" + std::to_string(i)));
    const std::vector<align::SubjectSpan> spans =
        spansOf(subjects);

    const align::LocalScore hot_ref =
        align::smithWatermanScore(q, q, mat, gaps);
    ASSERT_GT(hot_ref.score, 255);

    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        const align::NativeQueryProfile profile(q, mat, backend);
        ASSERT_EQ(profile.hasU8(), hasLanes(backend));
        std::vector<align::LocalScore> got(spans.size());
        align::NativeScanStats stats;
        align::swInterSequenceScan(profile, spans.data(),
                                   spans.size(), gaps, got.data(),
                                   nullptr, &stats);
        // Exactly the hot lane climbed the ladder.
        EXPECT_EQ(stats.rescans16, hasLanes(backend) ? 1u : 0u)
            << align::backendName(backend);
        EXPECT_EQ(stats.rescansScalar, 0u);
        for (std::size_t i = 0; i < subjects.size(); ++i) {
            const align::LocalScore ref = align::smithWatermanScore(
                q, subjects[i], mat, gaps);
            ASSERT_EQ(got[i].score, ref.score)
                << "subject " << i << " backend "
                << align::backendName(backend);
        }
    }
}

// Forced i16 saturation inside one lane: the homopolymer subject
// must fall through to the scalar level (rescansScalar == 1) while
// the rest of the batch stays on the 8-bit inter-sequence pass.
TEST(SwInterSequence, I16SaturationInOneLaneFallsBackToScalar)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    bio::Rng rng(0x16B);

    const bio::Sequence q("w", "", std::string(3200, 'W'));
    std::vector<bio::Sequence> subjects;
    for (int i = 0; i < 10; ++i)
        subjects.push_back(randomSeq(
            rng, 20 + static_cast<int>(rng.below(40)),
            "s" + std::to_string(i)));
    subjects.push_back(q); // 3200*11 = 35200 > INT16_MAX
    const std::vector<align::SubjectSpan> spans =
        spansOf(subjects);

    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        const align::NativeQueryProfile profile(q, mat, backend);
        std::vector<align::LocalScore> got(spans.size());
        align::NativeScanStats stats;
        align::swInterSequenceScan(profile, spans.data(),
                                   spans.size(), gaps, got.data(),
                                   nullptr, &stats);
        EXPECT_EQ(stats.rescans16, hasLanes(backend) ? 1u : 0u);
        EXPECT_EQ(stats.rescansScalar, hasLanes(backend) ? 1u : 0u);
        for (std::size_t i = 0; i < subjects.size(); ++i) {
            const align::LocalScore ref = align::smithWatermanScore(
                q, subjects[i], mat, gaps);
            ASSERT_EQ(got[i].score, ref.score)
                << "subject " << i << " backend "
                << align::backendName(backend);
        }
        // The scalar level tracks end coordinates.
        EXPECT_EQ(got.back().queryEnd,
                  align::smithWatermanScore(q, q, mat, gaps)
                      .queryEnd);
    }
}

// Degenerate inputs: empty batch, empty query, zero-length
// subjects mixed into a batch.
TEST(SwInterSequence, EmptyAndZeroLengthInputs)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    bio::Rng rng(0xE2);
    const bio::Sequence q = randomSeq(rng, 12, "q");
    const bio::Sequence empty("e", "", std::string());

    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        const align::NativeQueryProfile profile(q, mat, backend);
        // Empty batch is a no-op.
        align::swInterSequenceScan(profile, nullptr, 0, gaps,
                                   nullptr);
        // Zero-length subjects score 0 and cost no cells.
        std::vector<bio::Sequence> subjects = {
            empty, randomSeq(rng, 9, "s"), empty};
        const std::vector<align::SubjectSpan> spans =
            spansOf(subjects);
        std::vector<align::LocalScore> got(spans.size());
        std::uint64_t cells = 0;
        align::NativeScanStats stats;
        align::swInterSequenceScan(profile, spans.data(),
                                   spans.size(), gaps, got.data(),
                                   &cells, &stats);
        EXPECT_EQ(got[0].score, 0);
        EXPECT_EQ(got[2].score, 0);
        EXPECT_EQ(got[1].score,
                  align::smithWatermanScore(q, subjects[1], mat,
                                            gaps)
                      .score);
        EXPECT_EQ(cells, 12u * 9u);
        EXPECT_EQ(stats.scans, 1u);

        // Empty query scores every subject 0.
        const align::NativeQueryProfile eprofile(empty, mat,
                                                 backend);
        std::vector<align::LocalScore> egot(spans.size());
        align::swInterSequenceScan(eprofile, spans.data(),
                                   spans.size(), gaps,
                                   egot.data());
        for (const align::LocalScore &ls : egot)
            EXPECT_EQ(ls.score, 0);
    }
}

// The most extreme int8 matrix saturates the 8-bit level on the
// first match; every subject in the batch must climb to 16 bits
// and still match the scalar reference.
TEST(SwInterSequence, ExtremeMatrixSaturatesEveryLane)
{
    const bio::ScoringMatrix mat =
        bio::makeMatchMismatch(127, -128);
    const bio::GapPenalties gaps;
    const bio::Sequence q("q", "", std::string(21, 'A'));
    std::vector<bio::Sequence> subjects;
    for (int n : {1, 3, 8, 21, 40})
        subjects.push_back(bio::Sequence(
            "s" + std::to_string(n), "", std::string(n, 'A')));
    const std::vector<align::SubjectSpan> spans =
        spansOf(subjects);

    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        const align::NativeQueryProfile profile(q, mat, backend);
        std::vector<align::LocalScore> got(spans.size());
        align::NativeScanStats stats;
        align::swInterSequenceScan(profile, spans.data(),
                                   spans.size(), gaps, got.data(),
                                   nullptr, &stats);
        EXPECT_EQ(stats.rescans16, hasLanes(backend) ? spans.size() : 0u);
        for (std::size_t i = 0; i < subjects.size(); ++i)
            EXPECT_EQ(got[i].score,
                      align::smithWatermanScore(q, subjects[i],
                                                mat, gaps)
                          .score)
                << "subject " << i << " backend "
                << align::backendName(backend);
    }
}

TEST(SwNativeScan, CellAccountingIsLogicalDpSize)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    bio::Rng rng(0xCE115);
    const bio::Sequence q = randomSeq(rng, 37, "q");
    const bio::Sequence s = randomSeq(rng, 91, "s");

    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        const align::NativeQueryProfile profile(q, mat, backend);
        std::uint64_t cells = 0;
        align::NativeScanStats stats;
        (void)align::swStripedNativeScan(profile, s, gaps, &cells,
                                         &stats);
        EXPECT_EQ(cells, 37u * 91u);
        EXPECT_EQ(stats.scans, 1u);
    }
}

} // namespace
