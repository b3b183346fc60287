/**
 * @file
 * Banded gapped extension with CIGAR traceback: the traced form of
 * BLAST's gapped stage.
 *
 * A banded affine DP around a seed diagonal that, unlike
 * align/banded.hh (score-only), records per-cell traceback
 * directions — but only for the O(n * band) in-band cells, never a
 * full matrix — and walks them back into a CIGAR.
 *
 * The per-cell arithmetic and the strict '>' best-cell update
 * replicate bandedSmithWatermanScan (banded_impl.hh) exactly, so the
 * reported score is bit-identical to the score-only band the
 * serving tier ranked by; that identity is what lets
 * blastAlign()/blastnAlign() re-derive the CIGAR of a ranked hit
 * without perturbing its score.
 */

#ifndef BIOARCH_ALIGN_TRACEBACK_BANDED_EXTEND_HH
#define BIOARCH_ALIGN_TRACEBACK_BANDED_EXTEND_HH

#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "cigar.hh"

namespace bioarch::align
{

/**
 * Banded local alignment with traceback around @p center_diagonal
 * (band semantics of banded.hh: cells with
 * |(subject - query) - center| <= half_width). Scores
 * bit-identically to bandedSmithWatermanScan.
 */
CigarAlignment
bandedExtendAlign(const bio::Sequence &query,
                  const bio::Sequence &subject,
                  const bio::ScoringMatrix &matrix,
                  const bio::GapPenalties &gaps, int center_diagonal,
                  int half_width, TracebackStats *stats = nullptr);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_TRACEBACK_BANDED_EXTEND_HH
