/**
 * @file
 * Banded local alignment around a diagonal, the workhorse of the
 * FASTA "opt" stage and of BLAST's gapped extension.
 *
 * bandedSmithWaterman runs a native SIMD kernel
 * (banded_native_impl.hh) on the profile's hardware backend. Its
 * result is exactly the scalar oracle's, bandedSmithWatermanScan
 * (banded_impl.hh) with a no-op hook, which the traced kernel twins
 * keep using; a band whose best score reaches the 16-bit lane limit
 * is rerun on that oracle, and the Scalar backend runs the oracle
 * outright.
 */

#ifndef BIOARCH_ALIGN_BANDED_HH
#define BIOARCH_ALIGN_BANDED_HH

#include <cstdint>
#include <vector>

#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "sw_striped_native.hh"
#include "types.hh"

namespace bioarch::align
{

/**
 * Query profile of the banded kernel: per subject residue, one row
 * of 16-bit scores against every query position, padded on both
 * sides so that a vector load starting up to one vector above row 0
 * or ending up to one vector below row m-1 stays in bounds. Pad
 * entries hold padScore. Band-independent: built once per query
 * (FASTA builds it next to its KtupIndex) and shared read-only. The
 * query and matrix must outlive the profile (the scalar fallback
 * reads them). The backend's kernels are resolved once, here; an
 * unrunnable backend throws std::invalid_argument.
 */
class BandedProfile
{
  public:
    /** Pad entries on each side of a row (>= the widest lanes). */
    static constexpr int pad = 16;
    /** Score of a pad entry: H through it is clamped to 0. */
    static constexpr std::int16_t padScore = -32768;

    BandedProfile(const bio::Sequence &query,
                  const bio::ScoringMatrix &matrix,
                  SimdBackend backend = defaultScanBackend());

    SimdBackend backend() const { return _backend; }
    /** The backend's kernels (nullptr for Scalar). */
    const NativeKernels *kernels() const { return _kernels; }
    const bio::Sequence &query() const { return *_query; }
    const bio::ScoringMatrix &matrix() const { return *_matrix; }
    int queryLength() const { return _m; }
    /** Elements between the rows of consecutive residues. */
    std::size_t stride() const { return _stride; }

    /**
     * Scores of subject residue @p r against query rows:
     * row(r)[i] for i in [-pad, m + pad), padScore outside [0, m).
     */
    const std::int16_t *
    row(bio::Residue r) const
    {
        return _scores.data() + static_cast<std::size_t>(r) * _stride
            + pad;
    }

  private:
    const bio::Sequence *_query;
    const bio::ScoringMatrix *_matrix;
    SimdBackend _backend;
    const NativeKernels *_kernels;
    int _m;
    std::size_t _stride;
    std::vector<std::int16_t> _scores;
};

/**
 * Smith-Waterman restricted to cells with
 * |(j - i) - center_diagonal| <= half_width.
 *
 * Equivalent to full SW when the band covers the whole matrix, which
 * the tests exploit. Cells outside the band are treated as
 * unreachable. The end cell is the first maximum in column-major
 * order (smallest subject column, then smallest query row).
 *
 * @param center_diagonal diagonal d = j - i at the band center
 * @param half_width band half width in diagonals (>= 0)
 */
LocalScore bandedSmithWaterman(const BandedProfile &profile,
                               const bio::Sequence &subject,
                               const bio::GapPenalties &gaps,
                               int center_diagonal, int half_width);

/**
 * The same, building a profile of @p query for the best native
 * backend on every call (BLAST's gapped stage, whose query is a
 * fresh window per subject).
 */
LocalScore bandedSmithWaterman(const bio::Sequence &query,
                               const bio::Sequence &subject,
                               const bio::ScoringMatrix &matrix,
                               const bio::GapPenalties &gaps,
                               int center_diagonal, int half_width);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_BANDED_HH
