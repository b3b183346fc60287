/**
 * @file
 * The banded Smith-Waterman kernel template instantiated once per
 * native SIMD backend (the I16 variants of vec/simd_native.hh) by
 * the backend tables (native_kernels_impl.hh); everything else
 * calls align::bandedSmithWaterman (banded.hh).
 *
 * The band is swept in diagonal-major order. For subject column j,
 * lane t holds query row i = j - d_hi + t, i.e. the fixed diagonal
 * d = d_hi - t, so the W = d_hi - d_lo + 1 diagonals of the band are
 * W lanes of 16 bits. Each recurrence input is then a fixed lane of
 * a fixed column:
 *
 *  - the H diagonal H(i-1, j-1) is the same lane of column j-1;
 *  - E(i, j) reads H and E of row i in column j-1, which sit one
 *    lane higher there: an unaligned load one element past the
 *    stored column;
 *  - F(i, j) runs down the lanes of column j. With o the open cost
 *    and e' = min(o, extend), F(t) = max over k >= 1 of
 *    H0(t-k) - o - (k-1) e', where H0 is H without F, so F is a
 *    log-step prefix max along the lanes (the deconstructed lazy-F
 *    of the striped scan, Snytsar arXiv 1909.00899) plus a carry
 *    from the vector above.
 *
 * Cells outside the band or the matrix hold 0, the scalar oracle's
 * clamped value. H in lanes >= W is masked to 0 on store, so E
 * there, fed only from those lanes, never rises above 0. E and F
 * are otherwise left unclamped: the oracle's max(0, E) follows from
 * this E column by column, and H = max(H0, F) with H0 >= 0. Rows
 * above the matrix stay 0 because their profile scores are a large
 * negative pad; rows below it are never masked: they feed only rows
 * below the matrix, and never exceed the running best, so they
 * cannot change the result. Vectors whose rows all lie outside the
 * matrix are skipped.
 */

#ifndef BIOARCH_ALIGN_BANDED_NATIVE_IMPL_HH
#define BIOARCH_ALIGN_BANDED_NATIVE_IMPL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "bio/alphabet.hh"
#include "types.hh"
#include "vec/simd_native.hh"

namespace bioarch::align::detail
{

/**
 * Fold the in-vector part of the F prefix max into @p f: steps of
 * K = 1, 2, 4, ... lanes, each decaying by @p decay[log2 K].
 */
template <class V, int K = 1>
inline typename V::Reg
prefixMaxLanes(typename V::Reg f, const typename V::Reg *decay)
{
    if constexpr (K < V::lanes) {
        f = V::max(f, V::subs(V::template shiftLanes<K>(f), *decay));
        return prefixMaxLanes<V, 2 * K>(f, decay + 1);
    } else {
        return f;
    }
}

/**
 * Banded Smith-Waterman over diagonals [d_lo, d_hi], which the
 * caller has clamped to the matrix ([-(m-1), n-1], non-empty).
 * Returns exactly what bandedSmithWatermanScan returns, unless a
 * cell reached the 16-bit limit: then *saturated is set and the
 * caller reruns the scalar oracle.
 *
 * @param profile query row 0 of subject residue 0's padded profile
 *        row (BandedProfile::row(0)); residue r's row starts
 *        r * stride elements later, and every row is padded by at
 *        least V::lanes entries on both sides
 * @param open_cost, ext_cost in [0, 32767]
 */
template <class V>
LocalScore
bandedScanI16(const std::int16_t *profile, std::size_t stride, int m,
              const bio::Residue *subject, int n, int d_lo, int d_hi,
              int open_cost, int ext_cost, bool *saturated)
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

    const int width = d_hi - d_lo + 1;
    const int nvec = (width + lanes - 1) / lanes;

    // H and E of the previous column, updated in place: one extra
    // all-zero vector past the band for the E loads of the last
    // lane. A thread's buffer only grows.
    const std::size_t len =
        static_cast<std::size_t>(nvec + 1) * lanes;
    thread_local vec::native::AlignedArray<Elem> buffer;
    thread_local std::size_t capacity = 0;
    if (capacity < 2 * len) {
        buffer = vec::native::allocateAligned<Elem>(2 * len);
        capacity = 2 * len;
    }
    Elem *const h_col = buffer.get();
    Elem *const e_col = h_col + len;
    std::memset(h_col, 0, 2 * len * sizeof(Elem));

    const auto clamp16 = [](long v) {
        return static_cast<Elem>(std::min<long>(v, 32767));
    };
    const int f_ext = std::min(open_cost, ext_cost);
    Elem ramp[lanes];
    Elem last_mask[lanes];
    for (int u = 0; u < lanes; ++u) {
        ramp[u] = clamp16(static_cast<long>(u) * f_ext);
        last_mask[u] = (nvec - 1) * lanes + u < width ? Elem(-1)
                                                      : Elem(0);
    }
    Reg decay[steps > 0 ? steps : 1];
    for (int s = 0; s < steps; ++s)
        decay[s] = V::splat(clamp16(static_cast<long>(f_ext) << s));
    const Reg v_ramp = V::loadu(ramp);
    const Reg v_last_mask = V::loadu(last_mask);
    const Reg v_open = V::splat(static_cast<Elem>(open_cost));
    const Reg v_ext = V::splat(static_cast<Elem>(ext_cost));
    const Reg v_f_ext = V::splat(static_cast<Elem>(f_ext));
    const Reg v_zero = V::zero();

    LocalScore best;
    Reg v_best = v_zero;
    const int j_begin = std::max(0, d_lo);
    const int j_end = std::min(n - 1, m - 1 + d_hi);
    for (int j = j_begin; j <= j_end; ++j) {
        const int r0 = j - d_hi; // query row of lane 0
        const Elem *scores =
            profile + static_cast<std::size_t>(subject[j]) * stride;
        // Live vectors: at least one row in [0, m).
        const int v_lo = r0 < 0 ? -r0 / lanes : 0;
        const int v_hi = std::min(nvec, (m - 1 - r0) / lanes + 1);
        Reg carry = v_zero;
        Reg col_max = v_zero;
        for (int v = v_lo; v < v_hi; ++v) {
            Elem *const hp = h_col + v * lanes;
            Elem *const ep = e_col + v * lanes;
            const Reg h_diag = V::load(hp);
            const Reg h_left = V::loadu(hp + 1);
            const Reg e_left = V::loadu(ep + 1);
            const Reg s = V::loadu(scores + (r0 + v * lanes));
            const Reg e = V::max(V::subs(h_left, v_open),
                                 V::subs(e_left, v_ext));
            const Reg h0 =
                V::max(V::max(V::adds(h_diag, s), e), v_zero);
            const Reg open = V::subs(h0, v_open);
            Reg f = prefixMaxLanes<V>(V::template shiftLanes<1>(open),
                                      decay);
            f = V::max(f, V::subs(carry, v_ramp));
            Reg h = V::max(h0, f);
            carry = V::broadcastLast(
                V::max(open, V::subs(f, v_f_ext)));
            if (v == nvec - 1)
                h = V::band(h, v_last_mask);
            V::store(hp, h);
            V::store(ep, e);
            col_max = V::max(col_max, h);
        }
        if (V::anyGt(col_max, v_best)) {
            // The first row holding the new maximum: the cell the
            // oracle's column-major strict improvement ends on.
            const Elem top = V::hmax(col_max);
            int t = v_lo * lanes;
            while (h_col[t] != top)
                ++t;
            best = {top, r0 + t, j};
            v_best = V::splat(top);
        }
    }
    *saturated = best.score >= 32767;
    return best;
}

} // namespace bioarch::align::detail

#endif // BIOARCH_ALIGN_BANDED_NATIVE_IMPL_HH
