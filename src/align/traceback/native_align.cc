#include "native_align.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "bio/alphabet.hh"
#include "hirschberg.hh"

namespace bioarch::align
{

namespace
{

constexpr int neg_inf = std::numeric_limits<int>::min() / 4;

/**
 * One rectangle cell's direction code: where H came from in the
 * low two bits, then whether the horizontal (E, along a row) and
 * vertical (F, down a column) gap states extended rather than
 * opened.
 */
enum : std::uint8_t
{
    hFromDiag = 0,
    hFromE = 1,
    hFromF = 2,
    hSourceMask = 3,
    eExtended = 4,
    fExtended = 8,
};

/**
 * Live DP elements of a striped pass over @p rows query rows: three
 * column arrays and the snapshot, each padded by at most 31 rows.
 */
std::uint64_t
stripedLiveCells(int rows)
{
    return 4 * (static_cast<std::uint64_t>(rows) + 31);
}

/** Live row elements of a rectangle fill @p cols wide. */
std::uint64_t
fillRowCells(std::uint64_t cols)
{
    return (5 + bio::Alphabet::numSymbols) * (cols + 1);
}

/**
 * The scalar rectangle fill, the oracle of the SIMD fills: global
 * affine alignment (terminal gaps charged) of a[0 .. rows) (the DP
 * rows) against b[0 .. cols), direction codes to
 * codes[(i - 1) * cols + j - 1]. Returns H(rows, cols). Requires
 * gaps.open >= 0.
 *
 * Each row takes three sweeps, two of them free of loop-carried
 * dependencies: F and the diagonal from the previous row; then E
 * along the row, which with open >= 0 is a running maximum —
 * E(j) = max over k < j of T(k) - open - ext * (j - k), with
 * T = max(diagonal, F) — and H = max(T, E); then the codes. Ties
 * prefer the diagonal, then E, then F, and an open over an
 * extension.
 */
int
scalarFill(const bio::Residue *a, int rows, const bio::Residue *b,
           int cols, bool swapped, const bio::ScoringMatrix &matrix,
           const bio::GapPenalties &gaps, std::uint8_t *codes)
{
    const std::size_t w1 = static_cast<std::size_t>(cols) + 1;
    const std::size_t width = static_cast<std::size_t>(cols);

    // Five row arrays, then one score row per A residue, filled on
    // first use: row x holds score(x, b[j - 1]) at j.
    constexpr int symbols = bio::Alphabet::numSymbols;
    thread_local std::vector<int> arrays;
    arrays.resize(std::max(arrays.size(), (5 + symbols) * w1));
    int *__restrict hp = arrays.data();
    int *__restrict hn = hp + w1;
    int *const __restrict fr = hn + w1;
    int *const __restrict dr = fr + w1;
    int *const __restrict er = dr + w1;
    int *const score_rows = er + w1;
    bool filled[symbols] = {};

    const int go = gaps.openCost();
    const int ge = gaps.extendCost();
    hp[0] = 0;
    for (int j = 1; j <= cols; ++j) {
        hp[j] = -gaps.cost(j);
        fr[j] = neg_inf;
    }
    er[0] = neg_inf;
    for (int i = 1; i <= rows; ++i) {
        const bio::Residue x = a[i - 1];
        int *const __restrict sc = score_rows
            + static_cast<std::size_t>(x) * w1;
        if (!filled[x]) {
            const std::int8_t *const row = matrix.row(x);
            for (int j = 1; j <= cols; ++j)
                sc[j] = swapped ? matrix.score(b[j - 1], x)
                                : row[b[j - 1]];
            filled[x] = true;
        }
        // code[j - 1] is cell (i, j), j = 1..cols.
        std::uint8_t *const __restrict code = codes
            + static_cast<std::size_t>(i - 1) * width;
        for (int j = 1; j <= cols; ++j) {
            const int f_open = hp[j] - go;
            const int f_ext = fr[j] - ge;
            fr[j] = f_ext > f_open ? f_ext : f_open;
            dr[j] = hp[j - 1] + sc[j];
            code[j - 1] = f_ext > f_open ? fExtended : 0;
        }
        const int h0 = -gaps.cost(i);
        hn[0] = h0;
        int run = h0; // max over k < j of T(k) + ext * k
        for (int j = 1; j <= cols; ++j) {
            const int e = run - go - ge * (j - 1);
            const int t = dr[j] > fr[j] ? dr[j] : fr[j];
            hn[j] = t > e ? t : e;
            er[j] = e;
            const int reach = t + ge * j;
            run = run > reach ? run : reach;
        }
        for (int j = 1; j <= cols; ++j) {
            const int h = hn[j];
            const int not_diag = h != dr[j];
            const int src = not_diag + (not_diag & (h != er[j]));
            const int e_ext = er[j - 1] - ge > hn[j - 1] - go;
            code[j - 1] = static_cast<std::uint8_t>(
                code[j - 1] | src | (e_ext * eExtended));
        }
        std::swap(hp, hn);
    }
    return hp[cols];
}

/** Bytes past rows * cols that a SIMD fill's last vector writes. */
constexpr std::size_t codeSlack = 64;

/** Identical residue pairs and columns of a query-oriented CIGAR. */
void
fillIdentityStats(CigarAlignment &aln, const bio::Residue *query,
                  const bio::Residue *subject)
{
    int qi = aln.qBegin;
    int si = aln.sBegin;
    for (const CigarOp &run : aln.cigar) {
        aln.columns += run.len;
        if (run.op == 'M') {
            for (std::int32_t k = 0; k < run.len; ++k)
                if (query[qi + k] == subject[si + k])
                    ++aln.identities;
            qi += run.len;
            si += run.len;
        } else if (run.op == 'I') {
            qi += run.len;
        } else {
            si += run.len;
        }
    }
}

} // namespace

namespace detail
{

bool
rectangleFitsI16(int rows, int cols, const bio::ScoringMatrix &matrix,
                 const bio::GapPenalties &gaps)
{
    if (gaps.open < 0 || gaps.extend < 0)
        return false;
    constexpr std::int64_t limit = 32767;
    const auto cost = [&gaps](int len) {
        return len > 0 ? gaps.open
                + static_cast<std::int64_t>(gaps.extend) * len
                       : 0;
    };
    // Every H down to -(cost(rows) + cost(cols)), and H - open cost
    // is still compared.
    if (cost(rows) + cost(cols) + gaps.openCost() > limit)
        return false;
    // H rises by at most the matrix maximum per diagonal step, and
    // the lanes (along the shorter side) add ge per column. int8
    // scores cap the maximum at 127; scan the matrix only when that
    // cap does not settle it.
    const std::int64_t steps = std::min(rows, cols);
    const std::int64_t slope = gaps.extend * steps;
    return steps * 127 + slope <= limit
        || steps * std::max(0, matrix.maxScore()) + slope <= limit;
}

void
fillRectangle(const bio::Residue *query, int q_len,
              const bio::Residue *subject, int s_len,
              const bio::ScoringMatrix &matrix,
              const bio::GapPenalties &gaps,
              const NativeKernels *kernels, RectangleFill &out)
{
    // A supplies the rows, B the columns. The rows run along the
    // longer side, so a row's arrays hold at most
    // sqrt(tracebackCodeBudget) + 1 elements.
    out.swapped = s_len > q_len;
    const bio::Residue *const a = out.swapped ? subject : query;
    const bio::Residue *const b = out.swapped ? query : subject;
    out.rows = out.swapped ? s_len : q_len;
    out.cols = out.swapped ? q_len : s_len;
    out.codes.resize(std::max(
        out.codes.size(),
        static_cast<std::size_t>(out.rows) * out.cols + codeSlack));
    out.score = kernels != nullptr
            && rectangleFitsI16(out.rows, out.cols, matrix, gaps)
        ? kernels->fillI16(a, out.rows, b, out.cols, out.swapped,
                           matrix, gaps, out.codes.data())
        : scalarFill(a, out.rows, b, out.cols, out.swapped, matrix,
                     gaps, out.codes.data());
}

void
walkRectangle(const RectangleFill &fill, Cigar &cigar)
{
    const char op_a = fill.swapped ? 'D' : 'I';
    const char op_b = fill.swapped ? 'I' : 'D';
    const std::size_t width = static_cast<std::size_t>(fill.cols);
    Cigar reversed;
    int i = fill.rows;
    int j = fill.cols;
    int layer = hFromDiag; // which of H, E, F the walk is in
    while (i > 0 && j > 0) {
        const std::uint8_t c =
            fill.codes[static_cast<std::size_t>(i - 1) * width
                       + static_cast<std::size_t>(j - 1)];
        if (layer == hFromDiag) {
            layer = c & hSourceMask;
            if (layer == hFromDiag) {
                cigarAppend(reversed, 'M', 1);
                --i;
                --j;
            }
        } else if (layer == hFromE) {
            cigarAppend(reversed, op_b, 1);
            layer = (c & eExtended) != 0 ? hFromE : hFromDiag;
            --j;
        } else {
            cigarAppend(reversed, op_a, 1);
            layer = (c & fExtended) != 0 ? hFromF : hFromDiag;
            --i;
        }
    }
    // The borders are one gap each (H(i, 0) = -cost(i)).
    cigarAppend(reversed, op_a, i);
    cigarAppend(reversed, op_b, j);
    for (auto run = reversed.rbegin(); run != reversed.rend(); ++run)
        cigarAppend(cigar, run->op, run->len);
}

} // namespace detail

CigarAlignment
nativeLocalAlign(const NativeQueryProfile &profile,
                 const bio::Residue *subject, std::size_t subject_len,
                 const bio::GapPenalties &gaps, const LocalScore &end,
                 TracebackStats *stats)
{
    const int m = profile.queryLength();
    const int n = static_cast<int>(subject_len);
    if (m == 0 || n == 0)
        return {};
    TracebackStats work;

    // (a) The end cell: known outright, or located in
    // subject[0..subjectEnd] (all of it when the end is unknown).
    const bool s_known = end.subjectEnd >= 0 && end.subjectEnd < n;
    LocalScore loc = end;
    if (!s_known || end.score <= 0 || end.queryEnd < 0
        || end.queryEnd >= m) {
        const std::size_t cols = s_known
            ? static_cast<std::size_t>(end.subjectEnd) + 1
            : subject_len;
        loc = swStripedLocate(profile, subject, cols, gaps,
                              s_known ? end.score : 0);
        work.totalCells += static_cast<std::uint64_t>(m) * cols;
        work.peakCells = stripedLiveCells(m);
    }

    CigarAlignment out;
    if (loc.score > 0) {
        // (b) The begin cell, by the anchored reverse pass.
        if (!swStripedBeginCell(profile, subject, loc.queryEnd,
                                loc.subjectEnd, gaps, loc.score,
                                &out.qBegin, &out.sBegin,
                                &work.totalCells))
            throw std::logic_error(
                "nativeLocalAlign: no alignment of the located "
                "score ends at the end cell");
        work.peakCells = std::max(work.peakCells,
                                  stripedLiveCells(loc.queryEnd + 1));

        // (c) Fill the rectangle and walk back, or fall back to
        // linear space when its codes would exceed the budget.
        out.score = loc.score;
        out.qEnd = loc.queryEnd;
        out.sEnd = loc.subjectEnd;
        const int rows = out.qEnd - out.qBegin + 1;
        const int cols = out.sEnd - out.sBegin + 1;
        const std::uint64_t window = static_cast<std::uint64_t>(rows)
            * static_cast<std::uint64_t>(cols);
        const bio::Residue *query = profile.query().residues().data();
        if (window <= tracebackCodeBudget && gaps.open >= 0) {
            thread_local detail::RectangleFill fill;
            detail::fillRectangle(query + out.qBegin, rows,
                                  subject + out.sBegin, cols,
                                  profile.matrix(), gaps,
                                  profile.kernels(), fill);
            if (fill.score != out.score)
                throw std::logic_error(
                    "nativeLocalAlign: rectangle fill disagrees "
                    "with the located score");
            detail::walkRectangle(fill, out.cigar);
            work.totalCells += window;
            work.peakCells = std::max(
                work.peakCells,
                window
                    + fillRowCells(static_cast<std::uint64_t>(
                        std::min(rows, cols))));
        } else {
            myersMillerAlign(query, out.qBegin, rows, subject,
                             out.sBegin, cols, profile.matrix(),
                             gaps, out.cigar, &work);
        }
        fillIdentityStats(out, query, subject);
    }
    if (stats != nullptr)
        *stats += work;
    return out;
}

CigarAlignment
nativeLocalAlign(const NativeQueryProfile &profile,
                 const bio::Sequence &subject,
                 const bio::GapPenalties &gaps, const LocalScore &end,
                 TracebackStats *stats)
{
    return nativeLocalAlign(profile, subject.residues().data(),
                            subject.length(), gaps, end, stats);
}

} // namespace bioarch::align
