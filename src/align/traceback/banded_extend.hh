/**
 * @file
 * Banded X-drop gapped extension with CIGAR traceback.
 *
 * The gapped-extension stage BLAST actually runs: a banded affine
 * DP around a seed diagonal, optionally cut short when every cell
 * of a column falls more than X below the best score seen. Unlike
 * align/banded.hh (score-only), this variant records per-cell
 * traceback directions — but only for the O(n * band) in-band
 * cells, never a full matrix — and walks them back into a CIGAR.
 *
 * With the X-drop disabled the per-cell arithmetic and the strict
 * '>' best-cell update replicate bandedSmithWatermanScan
 * (banded_impl.hh) exactly, so the reported score is bit-identical
 * to the score-only scan the serving tier ranked by; that identity
 * is what lets blastAlign()/blastnAlign() re-derive the CIGAR of a
 * ranked hit without perturbing its score.
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
 * |(subject - query) - center| <= half_width).
 *
 * @param x_drop stop scanning further subject columns once every
 *        in-band cell of a column scores more than this below the
 *        best cell seen; negative disables the cutoff (full band,
 *        scores bit-identical to bandedSmithWatermanScan)
 */
CigarAlignment
bandedExtendAlign(const bio::Sequence &query,
                  const bio::Sequence &subject,
                  const bio::ScoringMatrix &matrix,
                  const bio::GapPenalties &gaps, int center_diagonal,
                  int half_width, int x_drop = -1,
                  TracebackStats *stats = nullptr);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_TRACEBACK_BANDED_EXTEND_HH
