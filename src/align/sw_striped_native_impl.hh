/**
 * @file
 * The striped Smith-Waterman kernel template instantiated once per
 * native SIMD backend (vec/simd_native.hh variants) by the backend
 * tables (native_kernels_impl.hh). Everything else goes through the
 * API in sw_striped_native.hh.
 *
 * The recurrence is Farrar's striped Smith-Waterman (bit-identical
 * to the scalar reference, tests/sw_native_test.cc), with three
 * refinements over the classic formulation:
 *
 *  - the lazy-F correction is deconstructed (Snytsar): a prefix
 *    scan folds every wrap's boundary-crossing gap flow into one
 *    steady-state inflow, replacing the data-dependent wrap loop
 *    with a single bounded sweep — same H/E values, column for
 *    column, as the classic loop;
 *  - the 8-bit level runs Farrar's biased unsigned arithmetic: the
 *    profile stores score+bias, each H update adds the biased score
 *    and subtracts the bias back out, and unsigned saturating
 *    subtraction clamps H/E/F at zero exactly as the scalar
 *    recurrence does;
 *  - both levels detect saturation (8-bit: best >= 255-bias once
 *    adds can have clipped; 16-bit: best == INT16_MAX) so the
 *    caller can climb the overflow ladder.
 *
 * The same kernel also runs the traceback tier's two locating
 * passes (align/traceback/native_align.hh), selected by
 * compile-time StripedOption flags: a column snapshot on every
 * improvement of the best score (which row ends the alignment),
 * and an anchor seed plus early stop (where the alignment ending
 * at a known cell begins). The score-only scan instantiates none
 * of them, so its loop is unchanged.
 */

#ifndef BIOARCH_ALIGN_SW_STRIPED_NATIVE_IMPL_HH
#define BIOARCH_ALIGN_SW_STRIPED_NATIVE_IMPL_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "bio/alphabet.hh"
#include "types.hh"

// Containers of intrinsic register types drop the type attributes
// from their template arguments; that is fine (the data is still
// stored with the register's alignment) but GCC warns about it.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wignored-attributes"
#endif

namespace bioarch::align::detail
{

/** Compile-time extras of stripedScanImpl (score-only: none). */
enum StripedOption : unsigned
{
    /** Copy the whole H column into StripedPass::snapshot every
     * time the best score improves (with earlyStop: once, at the
     * stop), so the last copy is the column the best was first
     * attained in. */
    snapshotColumn = 1u,
    /** Start lane 0 of column 0 (query row 0's diagonal input)
     * from StripedPass::seed instead of zero, so every alignment
     * through cell (0, 0) carries that bonus. */
    anchorSeed = 2u,
    /** Return after the first column whose best reaches
     * StripedPass::stopAt. */
    earlyStop = 4u,
};

/** Copy a striped column of @p seg registers out as elements. */
template <class Reg>
void
copyColumn(void *out, const std::vector<Reg> &column, int seg)
{
    std::memcpy(out, column.data(),
                static_cast<std::size_t>(seg) * sizeof(Reg));
}

/** Runtime inputs of the StripedOption extras. */
struct StripedPass
{
    /** seg * lanes elements, striped like the profile. */
    void *snapshot = nullptr;
    int seed = 0;
    int stopAt = 0;
};

/**
 * One striped column pass + lazy-F correction, shared verbatim by
 * the 8-bit and 16-bit levels (the only asymmetry — bias handling —
 * is folded into @p v_bias, zero for the 16-bit level whose profile
 * stores raw scores).
 *
 * @param profile [residue][segment][lane] scores, V::lanes wide
 * @param seg     segment length (ceil(m / V::lanes))
 * @param pass    inputs of the @p Opts extras (unused when 0)
 * @return        best lane value seen anywhere, and the column it
 *                was first attained in
 */
template <class V, unsigned Opts = 0>
std::pair<typename V::Elem, int>
stripedScanImpl(const typename V::Elem *profile, int seg,
                const bio::Residue *subject, std::size_t n,
                typename V::Elem open_cost, typename V::Elem ext_cost,
                typename V::Elem bias, const StripedPass &pass = {})
{
    using Reg = typename V::Reg;
    using Elem = typename V::Elem;
    const int lanes = V::lanes;

    const Reg v_open = V::splat(open_cost);
    const Reg v_ext = V::splat(ext_cost);
    const Reg v_bias = V::splat(bias);
    const Reg v_zero = V::zero();
    // Lane 0 = seed, every other lane 0 (saturating seed - seed).
    const Reg v_seed = V::subs(
        V::splat(static_cast<Elem>(pass.seed)),
        V::shiftInZero(V::splat(static_cast<Elem>(pass.seed))));
    const Elem stop_at = static_cast<Elem>(pass.stopAt);
    const int clip = std::numeric_limits<Elem>::max() - bias;

    // Reused across scans on this thread: the serving engine calls
    // this once per database subject, and for the short-subject
    // tail three heap allocations per scan used to dominate the
    // kernel itself.
    thread_local std::vector<Reg> h_store;
    thread_local std::vector<Reg> h_load;
    thread_local std::vector<Reg> e;
    h_store.assign(static_cast<std::size_t>(seg), V::zero());
    h_load.assign(static_cast<std::size_t>(seg), V::zero());
    e.assign(static_cast<std::size_t>(seg), V::zero());

    // Per-lane decay of a vertical gap passing through one whole
    // segment's stripe, clamped to the element range (the clamp
    // only ever *over*-decays flow that was already dead).
    const Elem seg_decay_max = std::numeric_limits<Elem>::max();
    const long seg_decay = static_cast<long>(seg)
        * static_cast<long>(ext_cost);

    Elem best = 0;
    int best_column = -1;

    for (std::size_t j = 0; j < n; ++j) {
        const Elem *prof_row = profile
            + static_cast<std::size_t>(subject[j])
                * static_cast<std::size_t>(seg)
                * static_cast<std::size_t>(lanes);

        Reg v_h = V::shiftInZero(
            h_store[static_cast<std::size_t>(seg - 1)]);
        if constexpr ((Opts & anchorSeed) != 0)
            if (j == 0)
                v_h = v_seed;
        std::swap(h_store, h_load);

        Reg v_f = V::zero();
        Reg v_col_best = V::zero();

        for (int s = 0; s < seg; ++s) {
            const std::size_t ss = static_cast<std::size_t>(s);
            v_h = V::subs(
                V::adds(v_h,
                        V::load(prof_row
                                + ss * static_cast<std::size_t>(
                                      lanes))),
                v_bias);
            v_h = V::max(v_h, e[ss]);
            v_h = V::max(v_h, v_f);
            // Local-alignment zero clamp; a no-op at the unsigned
            // 8-bit level, load-bearing at the signed 16-bit one.
            v_h = V::max(v_h, v_zero);
            v_col_best = V::max(v_col_best, v_h);
            h_store[ss] = v_h;

            const Reg v_h_open = V::subs(v_h, v_open);
            e[ss] = V::max(V::subs(e[ss], v_ext), v_h_open);
            v_f = V::max(V::subs(v_f, v_ext), v_h_open);

            v_h = h_load[ss];
        }

        // Lazy-F correction, deconstructed (after Snytsar,
        // "De(con)struction of the lazy-F loop"). The classic
        // correction chases the vertical gap across segment
        // boundaries with a data-dependent wrap loop — worst case
        // seg x lanes serialized iterations per column. Inside the
        // correction the gap only ever decays (raised H never
        // regenerates flow that isn't dominated, the same invariant
        // the classic early exit rests on), so wrap w's inflow to a
        // lane is just the outflow of the lane w below, decayed by
        // w-1 whole segments — a shift-subtract-max prefix scan can
        // fold every remaining wrap into one steady-state inflow
        // applied by a single bounded sweep. Staging: the cheap
        // entry check first (most columns carry no boundary-
        // crossing gap at all), then ONE classic early-exit sweep
        // (when flow does cross, it near-always dies within a few
        // segments — the prefix scan's 31 single-element shifts
        // would cost more than it saves), and only if that sweep
        // runs the column end-to-end without converging does the
        // deconstructed steady state take over and finish the
        // correction in one more bounded pass.
        Reg v_in = V::shiftInZero(v_f);
        if (V::anyGt(v_in, V::subs(h_store[0], v_open))) {
            bool converged = false;
            for (int s = 0; s < seg; ++s) {
                const std::size_t ss = static_cast<std::size_t>(s);
                if (!V::anyGt(v_in,
                              V::subs(h_store[ss], v_open))) {
                    converged = true;
                    break;
                }
                const Reg h_new = V::max(h_store[ss], v_in);
                h_store[ss] = h_new;
                e[ss] = V::max(e[ss], V::subs(h_new, v_open));
                v_col_best = V::max(v_col_best, h_new);
                v_in = V::subs(v_in, v_ext);
            }
            if (!converged) {
                // v_in is the first sweep's outflow; scan it into
                // the max-over-all-further-wraps inflow.
                Reg g = v_in;
                for (int k = 1; k < lanes; k <<= 1) {
                    Reg sh = g;
                    for (int t = 0; t < k; ++t)
                        sh = V::shiftInZero(sh);
                    const long dec =
                        static_cast<long>(k) * seg_decay;
                    const Elem d =
                        dec > static_cast<long>(seg_decay_max)
                        ? seg_decay_max
                        : static_cast<Elem>(dec);
                    g = V::max(g, V::subs(sh, V::splat(d)));
                }
                v_in = V::shiftInZero(g);
                for (int s = 0; s < seg; ++s) {
                    const std::size_t ss =
                        static_cast<std::size_t>(s);
                    if (!V::anyGt(v_in,
                                  V::subs(h_store[ss], v_open)))
                        break;
                    const Reg h_new = V::max(h_store[ss], v_in);
                    h_store[ss] = h_new;
                    e[ss] =
                        V::max(e[ss], V::subs(h_new, v_open));
                    v_col_best = V::max(v_col_best, h_new);
                    v_in = V::subs(v_in, v_ext);
                }
            }
        }

        const Elem column_max = V::hmax(v_col_best);
        if (column_max > best) {
            best = column_max;
            best_column = static_cast<int>(j);
            if constexpr ((Opts & snapshotColumn) != 0
                          && (Opts & earlyStop) == 0)
                copyColumn(pass.snapshot, h_store, seg);
        }
        if constexpr ((Opts & earlyStop) != 0) {
            if (best >= stop_at) {
                if constexpr ((Opts & snapshotColumn) != 0)
                    copyColumn(pass.snapshot, h_store, seg);
                break;
            }
        }
        // A locating pass that clips is rerun a ladder level up, so
        // its remaining columns would be wasted.
        if constexpr ((Opts & snapshotColumn) != 0) {
            if (best >= clip)
                break;
        }
    }
    return {best, best_column};
}

/**
 * stripedScanImpl with the extras @p pass asks for: none when null
 * (the score-only scan); otherwise the column snapshot, plus the
 * early stop when pass->stopAt is set, plus the anchor seed when
 * pass->seed is set too.
 */
template <class V>
std::pair<typename V::Elem, int>
stripedScanPass(const typename V::Elem *profile, int seg,
                const bio::Residue *subject, std::size_t n,
                typename V::Elem open_cost, typename V::Elem ext_cost,
                typename V::Elem bias, const StripedPass *pass)
{
    if (pass == nullptr)
        return stripedScanImpl<V>(profile, seg, subject, n,
                                  open_cost, ext_cost, bias);
    if (pass->seed > 0)
        return stripedScanImpl<V, snapshotColumn | anchorSeed
                                      | earlyStop>(
            profile, seg, subject, n, open_cost, ext_cost, bias,
            *pass);
    if (pass->stopAt > 0)
        return stripedScanImpl<V, snapshotColumn | earlyStop>(
            profile, seg, subject, n, open_cost, ext_cost, bias,
            *pass);
    return stripedScanImpl<V, snapshotColumn>(
        profile, seg, subject, n, open_cost, ext_cost, bias, *pass);
}

/** 16-bit H never saturates its signed lane type below this. */
inline constexpr int i16SaturationCeiling = 32767;

/**
 * 8-bit unsigned level. The profile holds score+bias per cell (pad
 * rows hold 0 == score -bias, which only ever decays phantom
 * alignments, never inflates the maximum). Saturation is flagged
 * when the best value enters the range where a biased add may have
 * clipped at 255.
 */
template <class V>
LocalScore
stripedScanU8(const std::uint8_t *profile, int seg,
              const bio::Residue *subject, std::size_t n,
              int open_cost, int ext_cost, int bias,
              bool *saturated, const StripedPass *pass = nullptr)
{
    const auto [best, column] = stripedScanPass<V>(
        profile, seg, subject, n,
        static_cast<std::uint8_t>(open_cost),
        static_cast<std::uint8_t>(ext_cost),
        static_cast<std::uint8_t>(bias), pass);
    *saturated = static_cast<int>(best) >= 255 - bias;
    LocalScore out;
    out.score = static_cast<int>(best);
    out.subjectEnd = column;
    return out;
}

/**
 * 16-bit signed level. The profile holds raw scores with a -1000
 * pad sentinel (NativeQueryProfile::padScore); H is clamped at
 * zero by maxing against the zero register inside the shared
 * column pass (e and v_f start at zero, and the biased-subtraction
 * with bias == 0 is a no-op).
 */
template <class V>
LocalScore
stripedScanI16(const std::int16_t *profile, int seg,
               const bio::Residue *subject, std::size_t n,
               int open_cost, int ext_cost, bool *saturated,
               const StripedPass *pass = nullptr)
{
    const auto [best, column] = stripedScanPass<V>(
        profile, seg, subject, n,
        static_cast<std::int16_t>(open_cost),
        static_cast<std::int16_t>(ext_cost),
        static_cast<std::int16_t>(0), pass);
    *saturated = static_cast<int>(best) >= i16SaturationCeiling;
    LocalScore out;
    out.score = static_cast<int>(best) < 0 ? 0
                                           : static_cast<int>(best);
    out.subjectEnd = column;
    return out;
}

} // namespace bioarch::align::detail

#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

#endif // BIOARCH_ALIGN_SW_STRIPED_NATIVE_IMPL_HH
