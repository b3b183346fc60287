/**
 * @file
 * The traceback rectangle fill of native_align.cc as a row-wise
 * 16-bit SIMD kernel, instantiated once per hardware backend (the
 * I16 variants of vec/simd_native.hh) by the backend tables
 * (native_kernels_impl.hh); everything else calls
 * detail::fillRectangle (native_align.hh).
 *
 * Rows run along A, lanes along B. For row i and the vector holding
 * columns j0 .. j0 + lanes - 1, with go the open cost and ge the
 * extension cost:
 *
 *  - F(i, j) = max(H(i-1, j) - go, F(i-1, j) - ge) and the diagonal
 *    D(i, j) = H(i-1, j-1) + s(i, j) read the previous row only;
 *  - T = max(D, F), with T(0) = H(i, 0);
 *  - E(i, j) = P(j) - go - ge (j - 1), where P(j) is the exclusive
 *    prefix max over k < j of U(k) = T(k) + ge k: the lanes shift up
 *    by one (lane 0 takes U(j0 - 1) from the vector before), then
 *    log2(lanes) shift-and-max steps shift in -32768, below every
 *    live value (Snytsar's log-step prefix scan, arXiv 1909.00899).
 *    A broadcast carries the running max into the next vector;
 *  - H = max(T, E);
 *  - the direction codes are the scalar fill's, packed to bytes. E
 *    of column j extends exactly when the open cost exceeds the
 *    extension cost and P(j) > U(j - 1), i.e. when the max came
 *    from further left.
 *
 * Exact while every live value fits 16 bits, which
 * rectangleFitsI16 checks before the fill is dispatched here: H, T
 * and E stay within [-(cost(rows) + cost(cols) + go), the matrix
 * maximum per diagonal step], and U adds at most ge * cols. Lanes
 * past the last column may saturate; nothing flows from them into
 * a live lane.
 */

#ifndef BIOARCH_ALIGN_TRACEBACK_FILL_NATIVE_IMPL_HH
#define BIOARCH_ALIGN_TRACEBACK_FILL_NATIVE_IMPL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "bio/alphabet.hh"
#include "bio/scoring.hh"
#include "vec/simd_native.hh"

namespace bioarch::align::detail
{

/**
 * Running max along the lanes of @p x: steps of K = 1, 2, 4, ...
 * lanes, each shifting in @p low[log2 K] (-32768 in the low K
 * lanes, 0 above).
 */
template <class V, int K = 1>
inline typename V::Reg
runningMaxLanes(typename V::Reg x, const typename V::Reg *low)
{
    if constexpr (K < V::lanes) {
        x = V::max(x, V::adds(V::template shiftLanes<K>(x), *low));
        return runningMaxLanes<V, 2 * K>(x, low + 1);
    } else {
        return x;
    }
}

/**
 * Global affine fill of a[0 .. rows) (the DP rows) against
 * b[0 .. cols) (the lanes): writes the direction code of cell (i, j)
 * to codes[(i - 1) * cols + j - 1] and returns H(rows, cols). The
 * codes and the score equal the scalar fill's.
 *
 * @param swapped a is the subject: s(i, j) = score(b[j-1], a[i-1])
 * @param codes rows * cols bytes plus V::lanes of slack, which the
 *        last vector of each row overwrites
 */
template <class V>
int
fillRectangleI16(const bio::Residue *a, int rows,
                 const bio::Residue *b, int cols, bool swapped,
                 const bio::ScoringMatrix &matrix,
                 const bio::GapPenalties &gaps, std::uint8_t *codes)
{
    using Reg = typename V::Reg;
    using Elem = typename V::Elem;
    constexpr int lanes = V::lanes;
    constexpr int steps = [] {
        int s = 0;
        for (int k = 1; k < lanes; k *= 2)
            ++s;
        return s;
    }();
    constexpr int symbols = bio::Alphabet::numSymbols;
    constexpr Elem neg_inf = -32768;

    // H rows hold H(i, 0) at lanes - 1 and column j at lanes + j - 1,
    // so column 1 starts a vector. Two H rows, the F row, then one
    // score row per A residue, filled on first use. A thread's
    // buffer only grows, and is zeroed when it does.
    const int nvec = (cols + lanes - 1) / lanes;
    const std::size_t width = static_cast<std::size_t>(nvec) * lanes;
    const std::size_t row_len = lanes + width;
    const std::size_t need = 2 * row_len + (1 + symbols) * width;
    thread_local vec::native::AlignedArray<Elem> buffer;
    thread_local std::size_t capacity = 0;
    if (capacity < need) {
        buffer = vec::native::allocateAligned<Elem>(need);
        std::fill_n(buffer.get(), need, Elem(0));
        capacity = need;
    }
    Elem *hp = buffer.get();
    Elem *hn = hp + row_len;
    Elem *const fr = hn + row_len;
    Elem *const score_rows = fr + width;
    bool filled[symbols] = {};

    const int go = gaps.openCost();
    const int ge = gaps.extendCost();
    hp[lanes - 1] = 0;
    for (int j = 1; j <= cols; ++j)
        hp[lanes + j - 1] = static_cast<Elem>(-gaps.cost(j));
    std::fill_n(fr, width, neg_inf);

    // Per-lane ge * j and go + ge * (j - 1) of the first vector,
    // advanced by lanes * ge per vector (exact in every live lane).
    const auto clamp16 = [](long v) {
        return static_cast<Elem>(std::min<long>(v, 32767));
    };
    Elem col[lanes];
    Elem cost[lanes];
    for (int u = 0; u < lanes; ++u) {
        col[u] = clamp16(static_cast<long>(u + 1) * ge);
        cost[u] = clamp16(go + static_cast<long>(u) * ge);
    }
    Reg low[steps];
    for (int s = 0; s < steps; ++s) {
        Elem l[lanes];
        for (int u = 0; u < lanes; ++u)
            l[u] = u < (1 << s) ? neg_inf : Elem(0);
        low[s] = V::loadu(l);
    }
    const Reg v_col = V::loadu(col);
    const Reg v_cost = V::loadu(cost);
    const Reg v_step = V::splat(clamp16(static_cast<long>(lanes) * ge));
    const Reg v_go = V::splat(static_cast<Elem>(go));
    const Reg v_ge = V::splat(static_cast<Elem>(ge));
    const Reg v_zero = V::zero();
    const Reg v_two = V::splat(2);
    // The scalar fill's eExtended (never set when go == ge) and
    // fExtended bits.
    const Reg v_e_ext = V::splat(go > ge ? 4 : 0);
    const Reg v_f_ext = V::splat(8);

    for (int i = 1; i <= rows; ++i) {
        const bio::Residue x = a[i - 1];
        Elem *const sc =
            score_rows + static_cast<std::size_t>(x) * width;
        if (!filled[x]) {
            const std::int8_t *const row = matrix.row(x);
            for (int j = 0; j < cols; ++j)
                sc[j] = static_cast<Elem>(
                    swapped ? matrix.score(b[j], x) : row[b[j]]);
            filled[x] = true;
        }
        std::uint8_t *const code =
            codes + static_cast<std::size_t>(i - 1) * cols;
        const Elem h0 = static_cast<Elem>(-gaps.cost(i));
        hn[lanes - 1] = h0;
        Reg u_prev = V::splat(h0); // U(0) = H(i, 0)
        Reg carry = u_prev;        // max over k < j0 of U(k)
        Reg ramp = v_col;
        Reg e_cost = v_cost;
        for (int v = 0; v < nvec; ++v) {
            const std::size_t at =
                lanes + static_cast<std::size_t>(v) * lanes;
            Elem *const fp = fr + (at - lanes);
            const Reg f_open = V::subs(V::load(hp + at), v_go);
            const Reg f_ext = V::subs(V::load(fp), v_ge);
            const Reg f = V::max(f_open, f_ext);
            V::store(fp, f);
            const Reg d = V::adds(V::loadu(hp + at - 1),
                                  V::load(sc + (at - lanes)));
            const Reg t = V::max(d, f);
            const Reg u = V::adds(t, ramp);
            const Reg shifted = V::shiftInLast(u, u_prev);
            const Reg local = runningMaxLanes<V>(shifted, low);
            const Reg p = V::max(local, carry);
            const Reg e = V::subs(p, e_cost);
            const Reg h = V::max(t, e);
            V::store(hn + at, h);
            carry = V::max(carry, V::broadcastLast(V::max(local, u)));
            u_prev = u;
            ramp = V::adds(ramp, v_step);
            e_cost = V::adds(e_cost, v_step);

            // Ties prefer the diagonal, then E, then F, and an open
            // over an extension.
            const Reg not_diag = V::cmpeq(V::cmpeq(h, d), v_zero);
            const Reg src = V::band(not_diag,
                                    V::adds(V::cmpeq(h, e), v_two));
            const Reg e_bits = V::band(V::cmpgt(p, shifted), v_e_ext);
            const Reg f_bits = V::band(V::cmpgt(f_ext, f_open), v_f_ext);
            V::storeBytes(code + (at - lanes),
                          V::adds(V::adds(src, e_bits), f_bits));
        }
        std::swap(hp, hn);
    }
    return hp[lanes - 1 + cols];
}

} // namespace bioarch::align::detail

#endif // BIOARCH_ALIGN_TRACEBACK_FILL_NATIVE_IMPL_HH
