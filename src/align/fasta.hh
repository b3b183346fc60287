/**
 * @file
 * FASTA-style heuristic database search (the paper's FASTA34
 * workload).
 *
 * The pipeline follows Pearson & Lipman's algorithm:
 *
 *   1. hash the query's k-tuples (ktup = 2 for proteins);
 *   2. scan each database sequence, accumulating identical-word hits
 *      per diagonal and chaining nearby hits into initial regions;
 *   3. rescore the best regions with the substitution matrix
 *      (best sub-segment) -> init1;
 *   4. join compatible regions across diagonals with gap penalties
 *      -> initn;
 *   5. run a banded Smith-Waterman around the best region for
 *      sequences that pass the initn threshold -> opt (the reported
 *      score). This stage runs the native SIMD banded kernel
 *      (banded.hh) on a BandedProfile built once per query, like
 *      the k-tuple index; its scores are exactly the scalar band's.
 *
 * The stage structure — table lookups, per-diagonal counters, and
 * data-dependent thresholds at every step — is what gives FASTA its
 * branchy, moderately memory-light character in the paper.
 */

#ifndef BIOARCH_ALIGN_FASTA_HH
#define BIOARCH_ALIGN_FASTA_HH

#include <cstdint>
#include <vector>

#include "banded.hh"
#include "bio/database.hh"
#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "types.hh"

namespace bioarch::align
{

/** Tunables of the FASTA pipeline (defaults match fasta34 protein). */
struct FastaParams
{
    int ktup = 2;            ///< word size (2 for proteins)
    int maxRegions = 10;     ///< initial regions kept per sequence
    int joinGapPenalty = 20; ///< penalty for chaining two regions
    int optThreshold = 22;   ///< initn needed to run the opt stage
    int bandHalfWidth = 32;  ///< band half-width of the opt stage
};

/**
 * Query k-tuple index: direct-address table over all ktup-length
 * words, each entry listing the query positions where that word
 * occurs.
 */
class KtupIndex
{
  public:
    /** Largest word size: the table holds 23^ktup + 1 int32s. */
    static constexpr int maxKtup = 4;

    /** Readable entries past the end of every positions() range, so
     *  a scan may copy this many from any range's begin. */
    static constexpr int positionSlack = 4;

    /** @p ktup itself; throws std::invalid_argument outside
     *  [1, maxKtup]. */
    static int checkKtup(int ktup);

    /** Throws std::invalid_argument unless ktup is in
     *  [1, maxKtup]. */
    KtupIndex(const bio::Sequence &query, int ktup);

    int ktup() const { return _ktup; }
    int queryLength() const { return _queryLength; }
    std::size_t tableSize() const { return _heads.size(); }

    /** Encode the word starting at residues[pos]. */
    std::uint32_t
    encode(const bio::Residue *residues) const
    {
        std::uint32_t w = 0;
        for (int k = 0; k < _ktup; ++k)
            w = w * bio::Alphabet::numSymbols + residues[k];
        return w;
    }

    /** Query positions holding word @p w, as a [begin,end) range. */
    std::pair<const std::int32_t *, const std::int32_t *>
    positions(std::uint32_t w) const
    {
        const std::int32_t head = _heads[w];
        const std::int32_t tail = _heads[w + 1];
        return {_positions.data() + head, _positions.data() + tail};
    }

  private:
    int _ktup;
    int _queryLength;
    /** CSR layout: _heads[w].._heads[w+1] indexes _positions,
     *  which ends in positionSlack zero entries. */
    std::vector<std::int32_t> _heads;
    std::vector<std::int32_t> _positions;
};

/** One initial region found by the diagonal scan. */
struct FastaRegion
{
    int diag = 0;       ///< diagonal d = j - i
    int queryStart = 0; ///< 0-based, inclusive
    int queryEnd = 0;   ///< 0-based, inclusive
    int score = 0;      ///< matrix-rescored best sub-segment

    bool operator==(const FastaRegion &other) const = default;
};

/** Scores of the three FASTA stages for one subject. */
struct FastaScores
{
    int init1 = 0; ///< best single rescored region
    int initn = 0; ///< best chained region score
    int opt = 0;   ///< banded-SW score (0 if below threshold)
    std::vector<FastaRegion> regions; ///< surviving initial regions
};

/**
 * Run the FASTA stages for one subject sequence.
 *
 * Stage 2 is branch-free over per-thread scratch that each call
 * resets for its own m + n - 1 diagonals: the per-diagonal state
 * lives in six int32 arrays (the run's last hit, score and start;
 * the best region's score, start and end), each k-tuple's code
 * rolls from the previous one, hits are gathered in blocks and
 * applied with masked selects, and candidates are keyed and sorted
 * in diagonal order, so ties land as in fasta's branchy savemax
 * loop (tests/fasta_reference.hh keeps that loop as the oracle).
 *
 * @param index prebuilt query k-tuple index
 * @param profile prebuilt banded profile of @p query (opt stage)
 * @param query query sequence (needed for matrix rescoring)
 * @param subject subject sequence
 * @param matrix substitution matrix
 * @param gaps gap penalties (used by the opt stage)
 * @param params pipeline tunables
 * @param[out] cells optional work counter (diagonal cells + band)
 */
FastaScores fastaScan(const KtupIndex &index,
                      const BandedProfile &profile,
                      const bio::Sequence &query,
                      const bio::Sequence &subject,
                      const bio::ScoringMatrix &matrix,
                      const bio::GapPenalties &gaps,
                      const FastaParams &params,
                      std::uint64_t *cells = nullptr);

/** Full database search ranked by opt score / E-value. */
SearchResults fastaSearch(const bio::Sequence &query,
                          const bio::SequenceDatabase &db,
                          const bio::ScoringMatrix &matrix,
                          const bio::GapPenalties &gaps,
                          const FastaParams &params = {},
                          std::size_t max_hits = 500);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_FASTA_HH
