/**
 * @file
 * The serving tier's phase-2 local traceback: locate the alignment
 * rectangle with the native kernels, then trace only that
 * rectangle.
 *
 * Three steps (the SSW locate-then-trace design), run for a group
 * of hits at once by nativeLocalAlignBatch, one hit per u8 lane of
 * the anchored inter-sequence kernel (interAnchoredU8):
 *
 *   1. End cell. Each lane runs its subject down the whole query:
 *      subject[0..sEnd] when the score scan reported the end column
 *      (Smith-Waterman hits), the row then read from that last
 *      column; the whole subject otherwise (FASTA hits), with a
 *      lane-masked snapshot of the H column on every column where
 *      the lane's best improves, the row read from the last
 *      snapshot. The row is the smallest one holding the optimum in
 *      the first column attaining it. A hit whose whole end cell is
 *      known (the scan's scalar rung reports it) skips this step.
 *   2. Begin cell. The anchored reverse pass: each lane runs its
 *      reversed subject prefix subject[sEnd..0] down the reversed
 *      whole query, with the diagonal input of row m-1-qEnd in its
 *      first column seeded with B = 1. Alignments through the
 *      anchor then score up to score + 1 and every other one at
 *      most score, so the lane retires in the first column whose
 *      best reaches score + 1, and the smallest row there is the
 *      begin cell. (Without the seed the pass could stop on an
 *      equal-scoring alignment that does not end at the anchor.)
 *   3. Fill and walk back. A global affine DP over the rectangle
 *      [qBegin..qEnd] x [sBegin..sEnd] stores one direction byte
 *      per cell in a per-thread buffer and walks them back to a
 *      CIGAR. The global optimum of that rectangle is the local
 *      optimum, and every alignment achieving it starts and ends
 *      with a match. On a hardware backend the fill runs row-wise
 *      in 16-bit lanes (fill_native_impl.hh), with the scalar fill
 *      as its oracle; the Scalar backend, and a rectangle whose
 *      values could leave 16 bits, run the scalar fill. A
 *      rectangle over tracebackCodeBudget cells is emitted by the
 *      linear-space Myers-Miller fallback (hirschberg.hh) instead.
 *
 * Steps 1 and 2 of a hit leave the lanes for the single-subject
 * striped kernel (swStripedLocate, swStripedBeginCell, with their
 * 16-bit -> scalar overflow ladder) when its lane would clip
 * (score + 1 >= 255 - bias), when a pass has one hit, on the Scalar
 * backend, and for nativeLocalAlign's one hit. Both kernels find
 * the same cells.
 *
 * The reported score equals smithWatermanScore's, the CIGAR
 * replays to it through cigarScore(), and the result depends on
 * nothing but the inputs — not on the backend, ladder level,
 * lane, group, thread or schedule (tests/traceback_test.cc,
 * tests/serve_traceback_test.cc).
 */

#ifndef BIOARCH_ALIGN_TRACEBACK_NATIVE_ALIGN_HH
#define BIOARCH_ALIGN_TRACEBACK_NATIVE_ALIGN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "align/sw_striped_native.hh"
#include "align/types.hh"
#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "cigar.hh"

namespace bioarch::align
{

/**
 * Direction codes (one byte per cell) one worker may hold for a
 * rectangle fill; larger rectangles take the Myers-Miller path.
 */
inline constexpr std::size_t tracebackCodeBudget = std::size_t{1}
    << 20;

/**
 * Optimal local alignment of the profile's query against
 * @p subject as a CIGAR (empty, score 0, when no residue pair
 * scores positive).
 *
 * @param end what the score scan already knows. subjectEnd >= 0
 *        alone must be the first column attaining the optimum,
 *        with score > 0 its value if known. With queryEnd >= 0 as
 *        well (the scalar rung's report) and score > 0, the
 *        locate pass is skipped and (queryEnd, subjectEnd) may be
 *        any cell where an optimal alignment ends; the scan's
 *        first maximum gives the same alignment as no hint.
 *        Defaults to nothing known.
 * @param stats optional work accounting: every cell of the
 *        locate, reverse and fill (or fallback) passes
 */
CigarAlignment nativeLocalAlign(const NativeQueryProfile &profile,
                                const bio::Residue *subject,
                                std::size_t subject_len,
                                const bio::GapPenalties &gaps,
                                const LocalScore &end = {},
                                TracebackStats *stats = nullptr);

/** Sequence-object convenience overload. */
CigarAlignment nativeLocalAlign(const NativeQueryProfile &profile,
                                const bio::Sequence &subject,
                                const bio::GapPenalties &gaps,
                                const LocalScore &end = {},
                                TracebackStats *stats = nullptr);

/** One hit of nativeLocalAlignBatch: a subject and its end hint. */
struct NativeAlignHit
{
    const bio::Residue *subject = nullptr;
    std::size_t length = 0;
    /** What the score scan knows, as nativeLocalAlign's @p end. */
    LocalScore end;
};

/**
 * nativeLocalAlign for each of @p count hits of one query, writing
 * out[i] for hits[i]: the same alignments, with steps 1 and 2 run
 * one hit per lane of the anchored inter-sequence kernel. @p stats
 * accumulates the same work nativeLocalAlign would report for the
 * hits (cells are each pass's cells of the single-hit path, so
 * they do not depend on the lanes).
 */
void nativeLocalAlignBatch(const NativeQueryProfile &profile,
                           const NativeAlignHit *hits,
                           std::size_t count,
                           const bio::GapPenalties &gaps,
                           CigarAlignment *out,
                           TracebackStats *stats = nullptr);

/**
 * Whether nativeLocalAlignBatch runs steps 1 and 2 of a hit scoring
 * @p score in its lanes (when the hit shares the call with another
 * one): the profile has 8-bit lanes, the gap costs fit a byte, and
 * score + 1 stays below the lanes' clip band. A hit that does not
 * fit takes the striped passes whatever its group, so a caller
 * sharing hits out over workers can trace it on its own. For a hit
 * without an end hint (FASTA), @p score is a guess; a wrong one
 * costs time, never a different alignment.
 */
bool nativeAlignFitsLanes(const NativeQueryProfile &profile,
                          const bio::GapPenalties &gaps, int score);

namespace detail
{

/**
 * One rectangle's global affine fill: the direction codes the walk
 * back reads, and the global score. Rows run along the longer side.
 */
struct RectangleFill
{
    /** Row-major rows x cols codes, plus slack past the end. */
    std::vector<std::uint8_t> codes;
    int rows = 0;
    int cols = 0;
    /** The rows run along the subject (it is the longer side). */
    bool swapped = false;
    int score = 0;
};

/**
 * True when every value of the 16-bit fill of a rows x cols
 * rectangle fits 16 bits: H(i, 0) = -cost(i) alone reaches
 * -cost(rows), every H is at least -(cost(rows) + cost(cols)) and
 * at most the matrix maximum per diagonal step, and the row-wise
 * prefix max adds ge per column. Requires gaps.open >= 0 and
 * gaps.extend >= 0.
 */
bool rectangleFitsI16(int rows, int cols,
                      const bio::ScoringMatrix &matrix,
                      const bio::GapPenalties &gaps);

/**
 * Global affine fill (terminal gaps charged, gaps.open >= 0) of
 * query[0 .. q_len) against subject[0 .. s_len) into @p out, which
 * is reused across calls. Runs the 16-bit SIMD fill of @p kernels
 * (nativeKernels) when rectangleFitsI16 holds, the scalar fill (its
 * oracle) otherwise or when @p kernels is nullptr (Scalar); both
 * write the same codes and score.
 */
void fillRectangle(const bio::Residue *query, int q_len,
                   const bio::Residue *subject, int s_len,
                   const bio::ScoringMatrix &matrix,
                   const bio::GapPenalties &gaps,
                   const NativeKernels *kernels, RectangleFill &out);

/** Walk @p fill back from its bottom-right corner onto @p cigar. */
void walkRectangle(const RectangleFill &fill, Cigar &cigar);

} // namespace detail

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_TRACEBACK_NATIVE_ALIGN_HH
