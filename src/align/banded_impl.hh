/**
 * @file
 * Header-only scalar banded Smith-Waterman with a per-cell hook: the
 * oracle of the banded kernel.
 *
 * The hook lets instrumented kernel twins (src/kernels) emit one
 * trace-instruction pattern per DP cell. align::bandedSmithWaterman
 * runs a native SIMD kernel instead (banded_native_impl.hh) whose
 * score and end cell equal this template's with a no-op hook
 * (tests/align_test.cc, Banded.NativeMatchesScalarOracle), and falls
 * back to it when a score reaches the kernel's 16-bit lanes.
 */

#ifndef BIOARCH_ALIGN_BANDED_IMPL_HH
#define BIOARCH_ALIGN_BANDED_IMPL_HH

#include <algorithm>
#include <limits>
#include <vector>

#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "types.hh"

namespace bioarch::align
{

/**
 * Banded Smith-Waterman around @p center_diagonal; see banded.hh for
 * the band semantics.
 *
 * @param hook callable invoked once per in-band cell as
 *        hook(i, j, h, e, f) with the freshly computed cell values
 */
template <typename CellHook>
LocalScore
bandedSmithWatermanScan(const bio::Sequence &query,
                        const bio::Sequence &subject,
                        const bio::ScoringMatrix &matrix,
                        const bio::GapPenalties &gaps,
                        int center_diagonal, int half_width,
                        CellHook &&hook)
{
    constexpr int neg_inf = std::numeric_limits<int>::min() / 4;

    const int m = static_cast<int>(query.length());
    const int n = static_cast<int>(subject.length());
    const int open_cost = gaps.openCost();
    const int ext_cost = gaps.extendCost();

    LocalScore best;
    if (m == 0 || n == 0 || half_width < 0)
        return best;

    const int d_lo = center_diagonal - half_width;
    const int d_hi = center_diagonal + half_width;

    std::vector<int> h_row(static_cast<std::size_t>(m), neg_inf);
    std::vector<int> e_row(static_cast<std::size_t>(m), neg_inf);

    for (int j = 0; j < n; ++j) {
        const std::int8_t *profile = matrix.row(subject[j]);
        const int i_lo = std::max(0, j - d_hi);
        const int i_hi = std::min(m - 1, j - d_lo);
        if (i_lo > i_hi)
            continue;
        int h_diag = 0;
        int h_above = 0;
        int f = 0;
        if (i_lo > 0) {
            h_above = neg_inf;
            f = neg_inf;
            h_diag = h_row[static_cast<std::size_t>(i_lo - 1)];
        }
        for (int i = i_lo; i <= i_hi; ++i) {
            const std::size_t si = static_cast<std::size_t>(i);
            const int h_left = h_row[si];
            const int e_left = e_row[si];
            int e;
            if (h_left > neg_inf / 2 || e_left > neg_inf / 2) {
                e = std::max(
                    {0, h_left - open_cost, e_left - ext_cost});
            } else {
                e = 0;
            }
            if (f > neg_inf / 2 || h_above > neg_inf / 2)
                f = std::max({0, h_above - open_cost, f - ext_cost});
            else
                f = 0;
            const int diag_base = h_diag > neg_inf / 2 ? h_diag : 0;
            const int h = std::max(
                {0, diag_base + profile[query[i]], e, f});
            if (h > best.score) {
                best.score = h;
                best.queryEnd = i;
                best.subjectEnd = j;
            }
            hook(i, j, h, e, f);
            h_diag = h_row[si];
            h_row[si] = h;
            e_row[si] = e;
            h_above = h;
        }
        if (i_lo > 0) {
            h_row[static_cast<std::size_t>(i_lo - 1)] = neg_inf;
            e_row[static_cast<std::size_t>(i_lo - 1)] = neg_inf;
        }
    }
    return best;
}

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_BANDED_IMPL_HH
