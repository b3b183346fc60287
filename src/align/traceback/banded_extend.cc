#include "banded_extend.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "align/types.hh"

namespace bioarch::align
{

namespace
{

constexpr int neg_inf = std::numeric_limits<int>::min() / 4;

// Direction bits packed per in-band cell: H source (2 bits), then
// whether E/F extended an existing gap (1 bit each). Same tie
// rules as smith_waterman.cc's full-matrix traceback.
enum : std::uint8_t
{
    hFromZero = 0,
    hFromDiag = 1,
    hFromE = 2,
    hFromF = 3,
    eExtBit = 1 << 2,
    fExtBit = 1 << 3,
};

} // namespace

CigarAlignment
bandedExtendAlign(const bio::Sequence &query,
                  const bio::Sequence &subject,
                  const bio::ScoringMatrix &matrix,
                  const bio::GapPenalties &gaps, int center_diagonal,
                  int half_width, TracebackStats *stats)
{
    const int m = static_cast<int>(query.length());
    const int n = static_cast<int>(subject.length());
    const int open_cost = gaps.openCost();
    const int ext_cost = gaps.extendCost();

    CigarAlignment out;
    if (m == 0 || n == 0 || half_width < 0)
        return out;

    const int d_lo = center_diagonal - half_width;
    const int d_hi = center_diagonal + half_width;
    const int band = 2 * half_width + 1;

    std::vector<int> h_row(static_cast<std::size_t>(m), neg_inf);
    std::vector<int> e_row(static_cast<std::size_t>(m), neg_inf);
    // One direction byte per in-band cell, column-major within the
    // band: cell (i, j) lives at j * band + (i - i_lo(j)).
    std::vector<std::uint8_t> dirs(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(band),
        hFromZero);
    const auto band_lo = [&](int j) {
        return std::max(0, j - d_hi);
    };
    const auto dir_at = [&](int i, int j) -> std::uint8_t & {
        return dirs[static_cast<std::size_t>(j)
                        * static_cast<std::size_t>(band)
                    + static_cast<std::size_t>(i - band_lo(j))];
    };

    LocalScore best;
    std::uint64_t cells = 0;
    for (int j = 0; j < n; ++j) {
        const std::int8_t *profile = matrix.row(subject[j]);
        const int i_lo = band_lo(j);
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
            std::uint8_t dir = hFromZero;
            if (h_left > neg_inf / 2 || e_left > neg_inf / 2) {
                const int e_open = h_left - open_cost;
                const int e_ext = e_left - ext_cost;
                e = std::max({0, e_open, e_ext});
                if (e_ext > e_open)
                    dir |= eExtBit;
            } else {
                e = 0;
            }
            if (f > neg_inf / 2 || h_above > neg_inf / 2) {
                const int f_open = h_above - open_cost;
                const int f_ext = f - ext_cost;
                f = std::max({0, f_open, f_ext});
                if (f_ext > f_open)
                    dir |= fExtBit;
            } else {
                f = 0;
            }
            const int diag_base = h_diag > neg_inf / 2 ? h_diag : 0;
            const int diag = diag_base + profile[query[i]];
            int h = 0;
            if (diag > h) {
                h = diag;
                dir = static_cast<std::uint8_t>(
                    (dir & ~std::uint8_t{3}) | hFromDiag);
            }
            if (e > h) {
                h = e;
                dir = static_cast<std::uint8_t>(
                    (dir & ~std::uint8_t{3}) | hFromE);
            }
            if (f > h) {
                h = f;
                dir = static_cast<std::uint8_t>(
                    (dir & ~std::uint8_t{3}) | hFromF);
            }
            dir_at(i, j) = dir;
            ++cells;
            if (h > best.score) {
                best.score = h;
                best.queryEnd = i;
                best.subjectEnd = j;
            }
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
    if (stats != nullptr) {
        stats->totalCells += cells;
        stats->peakCells = std::max(
            stats->peakCells,
            2 * static_cast<std::uint64_t>(m)
                + static_cast<std::uint64_t>(n)
                    * static_cast<std::uint64_t>(band));
    }

    out.score = best.score;
    if (best.score <= 0) {
        out.score = 0;
        return out;
    }

    // Walk the in-band direction bytes from the best cell. Every
    // E/F step provably stays inside the band (a gap source on the
    // band edge is neg_inf, clamps to 0, and a 0 never feeds an
    // H > 0); a diagonal step that leaves the band means the
    // alignment opened from the zero floor there, so it ends.
    Cigar rev;
    int i = best.queryEnd;
    int j = best.subjectEnd;
    out.qEnd = i;
    out.sEnd = j;
    enum class Layer { h, e, f };
    Layer layer = Layer::h;
    while (true) {
        const std::uint8_t dir = dir_at(i, j);
        if (layer == Layer::h) {
            const std::uint8_t h_src = dir & std::uint8_t{3};
            if (h_src == hFromZero)
                break;
            if (h_src == hFromDiag) {
                cigarAppend(rev, 'M', 1);
                if (query[i] == subject[j])
                    ++out.identities;
                --i;
                --j;
                if (i < 0 || j < 0 || i < band_lo(j)
                    || i > j - d_lo)
                    break;
            } else {
                layer = h_src == hFromE ? Layer::e : Layer::f;
            }
        } else if (layer == Layer::e) {
            // Gap in the query: consume a subject residue.
            cigarAppend(rev, 'D', 1);
            --j;
            if ((dir & eExtBit) == 0)
                layer = Layer::h;
        } else {
            // Gap in the subject: consume a query residue.
            cigarAppend(rev, 'I', 1);
            --i;
            if ((dir & fExtBit) == 0)
                layer = Layer::h;
        }
    }
    out.qBegin = i + 1;
    out.sBegin = j + 1;
    std::reverse(rev.begin(), rev.end());
    out.cigar = std::move(rev);
    for (const CigarOp &run : out.cigar)
        out.columns += run.len;
    return out;
}

} // namespace bioarch::align
