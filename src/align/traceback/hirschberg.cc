#include "hirschberg.hh"

#include <algorithm>
#include <vector>

namespace bioarch::align
{

namespace
{

/**
 * The divide-and-conquer core, oriented so the DP arrays run along
 * B — callers put the *shorter* sequence there, which is what makes
 * the whole traceback O(min(m, n)) space. In core coordinates an
 * 'I' consumes A and a 'D' consumes B; myersMillerAlign flips the
 * ops back when it had to swap the inputs.
 *
 * Myers-Miller gap bookkeeping: a gap of length L costs
 * g + h * L with g = gaps.open and h = gaps.extend (identical to
 * GapPenalties::cost). tb/te are the gap-open costs in force at a
 * subproblem's top/bottom boundary: g normally, 0 when the parent
 * split inside a vertical gap (the open was already charged), so a
 * gap crossing a split is charged exactly one open.
 */
class MyersMiller
{
  public:
    MyersMiller(const bio::Residue *a, const bio::Residue *b,
                const bio::ScoringMatrix &matrix, int g, int h)
        : _a(a), _b(b), _matrix(&matrix), _g(g), _h(h)
    {
    }

    /** Align A[a0..a0+m-1] vs B[b0..b0+n-1] globally; emit ops. */
    void
    run(int a0, int m, int b0, int n, Cigar &cigar)
    {
        _cc.assign(static_cast<std::size_t>(n) + 1, 0);
        _dd.assign(static_cast<std::size_t>(n) + 1, 0);
        _rr.assign(static_cast<std::size_t>(n) + 1, 0);
        _ss.assign(static_cast<std::size_t>(n) + 1, 0);
        _cigar = &cigar;
        diff(a0, m, b0, n, _g, _g);
    }

    std::uint64_t cells() const { return _cells; }
    /** Live DP ints while run() executes (4 arrays along B). */
    static std::uint64_t
    liveCells(std::size_t n)
    {
        return 4 * (static_cast<std::uint64_t>(n) + 1);
    }

  private:
    /** Cost of a gap of @p len (0 when empty). */
    int gapCost(int len) const { return len > 0 ? _g + _h * len : 0; }

    void
    diff(int a0, int m, int b0, int n, int tb, int te)
    {
        if (n == 0) {
            cigarAppend(*_cigar, 'I', m);
            return;
        }
        if (m == 0) {
            cigarAppend(*_cigar, 'D', n);
            return;
        }
        if (m == 1) {
            diffSingleRow(a0, b0, n, tb, te);
            return;
        }

        const int midi = m / 2;
        forwardTop(a0, midi, b0, n, tb);
        backwardBottom(a0, m, b0, n, midi, te);
        joinAndRecurse(a0, m, b0, n, midi, tb, te);
    }

    /**
     * Forward half of a split: _cc[j] / _dd[j] = best score (best
     * score ending in a vertical gap) of aligning the top half
     * A[a0..a0+midi-1] against B[b0..b0+j-1].
     */
    void
    forwardTop(int a0, int midi, int b0, int n, int tb)
    {
        _cells += static_cast<std::uint64_t>(midi)
            * static_cast<std::uint64_t>(n);
        int *const __restrict cc = _cc.data();
        int *const __restrict dd = _dd.data();
        cc[0] = 0;
        int t = _g;
        for (int j = 1; j <= n; ++j) {
            t += _h;
            cc[j] = -t;
            dd[j] = -(t + _g);
        }
        t = tb;
        const bio::Residue *const __restrict bw = _b + b0 - 1;
        for (int i = 1; i <= midi; ++i) {
            int s = cc[0];
            t += _h;
            int c = -t;
            cc[0] = c;
            int e = -(t + _g);
            const std::int8_t *const __restrict prof =
                _matrix->row(_a[a0 + i - 1]);
            for (int j = 1; j <= n; ++j) {
                const int eo = c - _g;
                e = (e > eo ? e : eo) - _h;
                const int dj = dd[j];
                const int dopen = cc[j] - _g;
                const int d = (dj > dopen ? dj : dopen) - _h;
                dd[j] = d;
                c = s + prof[bw[j]];
                c = c > d ? c : d;
                c = c > e ? c : e;
                s = cc[j];
                cc[j] = c;
            }
        }
        dd[0] = cc[0];
    }

    /**
     * Backward half: _rr[j] / _ss[j] = best score of aligning the
     * bottom half A[a0+midi..a0+m-1] against B[b0+j..b0+n-1].
     */
    void
    backwardBottom(int a0, int m, int b0, int n, int midi, int te)
    {
        _cells += static_cast<std::uint64_t>(m - midi)
            * static_cast<std::uint64_t>(n);
        int *const __restrict rr = _rr.data();
        int *const __restrict ss = _ss.data();
        rr[n] = 0;
        int t = _g;
        for (int j = n - 1; j >= 0; --j) {
            t += _h;
            rr[j] = -t;
            ss[j] = -(t + _g);
        }
        t = te;
        const bio::Residue *const __restrict bb = _b + b0;
        for (int i = m - 1; i >= midi; --i) {
            int s = rr[n];
            t += _h;
            int c = -t;
            rr[n] = c;
            int e = -(t + _g);
            const std::int8_t *const __restrict prof =
                _matrix->row(_a[a0 + i]);
            for (int j = n - 1; j >= 0; --j) {
                const int eo = c - _g;
                e = (e > eo ? e : eo) - _h;
                const int sj2 = ss[j];
                const int sopen = rr[j] - _g;
                const int d = (sj2 > sopen ? sj2 : sopen) - _h;
                ss[j] = d;
                c = s + prof[bb[j]];
                c = c > d ? c : d;
                c = c > e ? c : e;
                s = rr[j];
                rr[j] = c;
            }
        }
        ss[n] = rr[n];
    }

    /**
     * Join: the split column midj on row midi, either through a
     * match/mismatch boundary (type 1) or inside a vertical gap
     * spanning rows midi and midi+1 (type 2, which refunds the
     * double-charged open with +g); then recurse on both halves.
     */
    void
    joinAndRecurse(int a0, int m, int b0, int n, int midi, int tb,
                   int te)
    {
        int midc = _cc[0] + _rr[0];
        int midj = 0;
        int type = 1;
        for (int j = 0; j <= n; ++j) {
            const std::size_t sj = static_cast<std::size_t>(j);
            const int c = _cc[sj] + _rr[sj];
            if (c >= midc
                && (c > midc
                    || (_cc[sj] != _dd[sj] && _rr[sj] == _ss[sj]))) {
                midc = c;
                midj = j;
            }
        }
        for (int j = n; j >= 0; --j) {
            const std::size_t sj = static_cast<std::size_t>(j);
            const int c = _dd[sj] + _ss[sj] + _g;
            if (c > midc) {
                midc = c;
                midj = j;
                type = 2;
            }
        }

        if (type == 1) {
            diff(a0, midi, b0, midj, tb, _g);
            diff(a0 + midi, m - midi, b0 + midj, n - midj, _g, te);
        } else {
            diff(a0, midi - 1, b0, midj, tb, 0);
            cigarAppend(*_cigar, 'I', 2);
            diff(a0 + midi + 1, m - midi - 1, b0 + midj, n - midj,
                 0, te);
        }
    }

    /** m == 1 base case: A[a0] matches one B residue or none. */
    void
    diffSingleRow(int a0, int b0, int n, int tb, int te)
    {
        _cells += static_cast<std::uint64_t>(n);
        // Option 0: A[a0] in a vertical gap (merged with whichever
        // boundary gap is cheaper), every B residue deleted.
        int best = -(std::min(tb, te) + _h) - gapCost(n);
        int midj = 0;
        for (int j = 1; j <= n; ++j) {
            const int c = -gapCost(j - 1)
                + _matrix->score(_a[a0], _b[b0 + j - 1])
                - gapCost(n - j);
            if (c > best) {
                best = c;
                midj = j;
            }
        }
        if (midj == 0) {
            // Keep the vertical gap adjacent to the boundary it
            // merged with so the replayed CIGAR charges one open.
            if (tb <= te) {
                cigarAppend(*_cigar, 'I', 1);
                cigarAppend(*_cigar, 'D', n);
            } else {
                cigarAppend(*_cigar, 'D', n);
                cigarAppend(*_cigar, 'I', 1);
            }
        } else {
            cigarAppend(*_cigar, 'D', midj - 1);
            cigarAppend(*_cigar, 'M', 1);
            cigarAppend(*_cigar, 'D', n - midj);
        }
    }

    const bio::Residue *_a;
    const bio::Residue *_b;
    const bio::ScoringMatrix *_matrix;
    const int _g; ///< gap open (GapPenalties::open)
    const int _h; ///< gap extend per position
    Cigar *_cigar = nullptr;
    std::vector<int> _cc, _dd, _rr, _ss;
    std::uint64_t _cells = 0;
};

} // namespace

void
myersMillerAlign(const bio::Residue *query, int q_begin, int q_len,
                 const bio::Residue *subject, int s_begin, int s_len,
                 const bio::ScoringMatrix &matrix,
                 const bio::GapPenalties &gaps, Cigar &cigar,
                 TracebackStats *stats)
{
    // A supplies the rows, B the columns the arrays run along; a
    // core 'I' consumes A. Put the shorter sequence in B.
    const bool swapped = s_len > q_len;
    Cigar core;
    MyersMiller mm(swapped ? subject : query,
                   swapped ? query : subject, matrix, gaps.open,
                   gaps.extend);
    if (swapped)
        mm.run(s_begin, s_len, q_begin, q_len, core);
    else
        mm.run(q_begin, q_len, s_begin, s_len, core);
    for (CigarOp &run : core) {
        if (swapped && run.op != 'M')
            run.op = run.op == 'I' ? 'D' : 'I';
        cigarAppend(cigar, run.op, run.len);
    }
    if (stats != nullptr) {
        stats->totalCells += mm.cells();
        stats->peakCells = std::max(
            stats->peakCells,
            MyersMiller::liveCells(static_cast<std::size_t>(
                std::min(q_len, s_len))));
    }
}

} // namespace bioarch::align
