/**
 * @file
 * CIGAR alignment encoding and the replay oracle.
 *
 * The traceback tier reports alignments as run-length-encoded edit
 * scripts (SAM conventions, query-centric):
 *
 *   M — one query residue aligned to one subject residue
 *   I — query residue against a gap (gap in the subject)
 *   D — subject residue against a gap (gap in the query)
 *
 * cigarScore() replays a CIGAR against the scoring matrix and gap
 * penalties and returns the exact score the alignment is worth —
 * the correctness oracle every served alignment is gated on
 * (tests/traceback_test.cc): replayed score == reported score,
 * spans in bounds, run lengths consistent with the spans.
 */

#ifndef BIOARCH_ALIGN_TRACEBACK_CIGAR_HH
#define BIOARCH_ALIGN_TRACEBACK_CIGAR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bio/scoring.hh"
#include "bio/sequence.hh"

namespace bioarch::align
{

/** One run of a CIGAR edit script. */
struct CigarOp
{
    char op = 'M';          ///< 'M', 'I' or 'D'
    std::int32_t len = 0;   ///< run length, > 0

    bool operator==(const CigarOp &other) const = default;
};

/** A full edit script, e.g. {M12, D1, M30}. */
using Cigar = std::vector<CigarOp>;

/** Append a run, merging with an adjacent run of the same op. */
void cigarAppend(Cigar &cigar, char op, std::int32_t len);

/** SAM-style text form, e.g. "12M1D30M" ("" when empty). */
std::string cigarToString(const Cigar &cigar);

/** Query residues consumed (M + I run lengths). */
std::int64_t cigarQuerySpan(const Cigar &cigar);

/** Subject residues consumed (M + D run lengths). */
std::int64_t cigarSubjectSpan(const Cigar &cigar);

/**
 * A local alignment as the reporting tier serves it: spans are
 * 0-based with inclusive ends (empty alignment: qEnd < qBegin and
 * an empty CIGAR).
 */
struct CigarAlignment
{
    int score = 0;
    int qBegin = 0;   ///< first aligned query residue
    int qEnd = -1;    ///< last aligned query residue, inclusive
    int sBegin = 0;   ///< first aligned subject residue
    int sEnd = -1;    ///< last aligned subject residue, inclusive
    Cigar cigar;
    /** Identical residue pairs among the M columns. */
    int identities = 0;
    /** Alignment columns (M + I + D run lengths). */
    int columns = 0;

    bool empty() const { return cigar.empty(); }
    /** Fraction of identical columns (0 when empty). */
    double
    identity() const
    {
        return columns == 0
            ? 0.0
            : static_cast<double>(identities) / columns;
    }

    bool operator==(const CigarAlignment &other) const = default;
};

/**
 * Replay @p alignment's CIGAR against the sequences and return the
 * exact score it is worth: M columns score via @p matrix, every
 * I/D run of length L costs gaps.cost(L). Adjacent runs of the
 * same op are treated as one gap (cigarAppend never produces
 * them, but the oracle must not reward a split).
 *
 * Throws std::invalid_argument when the CIGAR walks out of either
 * sequence or its spans disagree with qBegin/sBegin..qEnd/sEnd —
 * a malformed alignment must fail loudly, not score plausibly.
 */
int cigarScore(const CigarAlignment &alignment,
               const bio::Residue *query, std::size_t query_len,
               const bio::Residue *subject, std::size_t subject_len,
               const bio::ScoringMatrix &matrix,
               const bio::GapPenalties &gaps);

/** Sequence-object convenience overload. */
int cigarScore(const CigarAlignment &alignment,
               const bio::Sequence &query,
               const bio::Sequence &subject,
               const bio::ScoringMatrix &matrix,
               const bio::GapPenalties &gaps);

/**
 * Traceback work accounting, shared by every reporting kernel.
 * totalCells counts every DP cell a traceback evaluates (locating
 * passes included); peakCells is the high-water mark of
 * concurrently live DP elements (direction codes included), so
 * memory bounds are asserted on it.
 */
struct TracebackStats
{
    std::uint64_t totalCells = 0; ///< DP cells evaluated
    std::uint64_t peakCells = 0;  ///< max live DP elements

    TracebackStats &
    operator+=(const TracebackStats &other)
    {
        totalCells += other.totalCells;
        peakCells = peakCells > other.peakCells ? peakCells
                                                : other.peakCells;
        return *this;
    }
};

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_TRACEBACK_CIGAR_HH
