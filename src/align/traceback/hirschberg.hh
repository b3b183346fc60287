/**
 * @file
 * Linear-space affine-gap global alignment between two known
 * corners (Myers-Miller, the affine form of Hirschberg's
 * divide-and-conquer).
 *
 * The traceback tier's over-budget fallback: native_align.hh
 * locates an alignment's begin and end cells with the striped
 * kernel and fills the rectangle between them with direction
 * codes, unless that rectangle holds more than
 * tracebackCodeBudget cells. Such a window is emitted here instead,
 * in O(min(rows, cols)) space and about twice the window's cells:
 * split on the middle row, join a forward and a backward score row,
 * recurse on the two halves with boundary-gap credits (tb/te) so a
 * gap crossing the split is charged one open.
 *
 * The window's optimal global alignment is the optimal local
 * alignment between those corners, so its CIGAR replays through
 * cigarScore() to the local score (tests/traceback_test.cc).
 */

#ifndef BIOARCH_ALIGN_TRACEBACK_HIRSCHBERG_HH
#define BIOARCH_ALIGN_TRACEBACK_HIRSCHBERG_HH

#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "cigar.hh"

namespace bioarch::align
{

/**
 * Append to @p cigar an optimal global alignment (terminal gaps
 * charged) of query[q_begin .. q_begin + q_len) against
 * subject[s_begin .. s_begin + s_len), keeping the DP rows along
 * the shorter of the two.
 */
void myersMillerAlign(const bio::Residue *query, int q_begin,
                      int q_len, const bio::Residue *subject,
                      int s_begin, int s_len,
                      const bio::ScoringMatrix &matrix,
                      const bio::GapPenalties &gaps, Cigar &cigar,
                      TracebackStats *stats = nullptr);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_TRACEBACK_HIRSCHBERG_HH
