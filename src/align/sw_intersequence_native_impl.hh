/**
 * @file
 * The inter-sequence (multi-subject) Smith-Waterman kernel template
 * instantiated once per native SIMD backend by the backend tables
 * (native_kernels_impl.hh). Everything else goes through the API in
 * sw_intersequence_native.hh.
 *
 * Where the striped kernel (sw_striped_native_impl.hh) spreads ONE
 * subject's DP column across all lanes — paying Farrar's lazy-F
 * correction for the stripe permutation — this kernel assigns one
 * database subject per lane (the SWIPE / SWAPHI arrangement) and
 * walks the DP column-by-column *down the query*. Within a column
 * the vertical gap F is carried serially in a register, so the
 * recurrence is exact with no correction loop at all; lanes never
 * interact except through refill masking. The trade-off is a
 * per-column gather: each lane's subject residue selects a column
 * of the transposed score matrix, scattered into a [query-residue]
 * [lane] scratch table the inner loop then loads by query residue.
 *
 * The arithmetic is the same biased unsigned 8-bit scheme as the
 * striped kernel (profile stores score+bias; unsigned saturating
 * subtraction is the local-alignment zero clamp), and a lane whose
 * running best enters the clip band [255-bias, 255] is flagged so
 * the caller can rescan that one subject up the striped 16-bit ->
 * scalar ladder. Scores and end coordinates are therefore
 * bit-identical to swStripedNativeScan for every subject.
 */

#ifndef BIOARCH_ALIGN_SW_INTERSEQUENCE_NATIVE_IMPL_HH
#define BIOARCH_ALIGN_SW_INTERSEQUENCE_NATIVE_IMPL_HH

#include <cstddef>
#include <cstdint>
#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "bio/alphabet.hh"
#include "sw_intersequence_native.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wignored-attributes"
#endif

namespace bioarch::align::detail
{

#if defined(__SSE2__)

/**
 * 16x16 byte transpose as a 4-stage unpack network. On return,
 * output row kInterBitrev16[c] holds input column c (the network
 * permutes rows by 4-bit bit-reversal; callers index through the
 * table, which is its own inverse).
 *
 * This and interGatherGroup16 are templated on the calling kernel's
 * lane type V, which they do not otherwise use: the -mavx2 TU's
 * VEX-encoded copies and the baseline TU's SSE2 copies are then
 * distinct symbols, so the link cannot keep an AVX2 copy for the
 * baseline kernels (scripts/check_isa_isolation.sh).
 */
inline constexpr int kInterBitrev16[16] = {0, 8, 4, 12, 2, 10,
                                           6, 14, 1, 9,  5, 13,
                                           3, 11, 7, 15};

template <class V>
inline void
interTranspose16(__m128i v[16])
{
    __m128i b[16], c[16], d[16];
    for (int i = 0; i < 8; ++i) {
        b[i] = _mm_unpacklo_epi8(v[2 * i], v[2 * i + 1]);
        b[i + 8] = _mm_unpackhi_epi8(v[2 * i], v[2 * i + 1]);
    }
    for (int i = 0; i < 8; ++i) {
        c[i] = _mm_unpacklo_epi16(b[2 * i], b[2 * i + 1]);
        c[i + 8] = _mm_unpackhi_epi16(b[2 * i], b[2 * i + 1]);
    }
    for (int i = 0; i < 8; ++i) {
        d[i] = _mm_unpacklo_epi32(c[2 * i], c[2 * i + 1]);
        d[i + 8] = _mm_unpackhi_epi32(c[2 * i], c[2 * i + 1]);
    }
    for (int i = 0; i < 8; ++i) {
        v[i] = _mm_unpacklo_epi64(d[2 * i], d[2 * i + 1]);
        v[i + 8] = _mm_unpackhi_epi64(d[2 * i], d[2 * i + 1]);
    }
}

/**
 * Gather one column's substitution scores for 16 lanes by SIMD
 * transpose instead of 16 x num_symbols scalar scatter stores: load
 * each lane's matrix row in two overlapping 16-byte slices (bytes
 * 0..15 and 7..22 — the pad row is the last row, and its second
 * slice ends exactly at the end of the matrix buffer), transpose
 * both blocks, and store one 16-byte vector per query symbol.
 */
template <class V>
inline void
interGatherGroup16(const std::uint8_t *mat_t, const int *col_idx,
                   std::uint8_t *scratch_group, int lanes)
{
    constexpr int num_symbols = bio::Alphabet::numSymbols;
    static_assert(num_symbols == 23,
                  "slice offsets assume 23 matrix columns");
    __m128i lo[16], hi[16];
    for (int l = 0; l < 16; ++l) {
        const std::uint8_t *row = mat_t
            + static_cast<std::size_t>(col_idx[l]) * num_symbols;
        lo[l] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(row));
        hi[l] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(row + 7));
    }
    interTranspose16<V>(lo);
    interTranspose16<V>(hi);
    for (int r = 0; r < 16; ++r)
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(
                scratch_group
                + static_cast<std::size_t>(r) * lanes),
            lo[kInterBitrev16[r]]);
    for (int r = 16; r < num_symbols; ++r)
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(
                scratch_group
                + static_cast<std::size_t>(r) * lanes),
            hi[kInterBitrev16[r - 7]]);
}

#endif // __SSE2__

/**
 * Gather one column's substitution scores for every lane: lane l's
 * subject residue @p col_idx[l] (numSymbols for an idle lane, the
 * pad row) picks a row of the transposed matrix @p mat_t, scattered
 * to @p scratch[query residue][lane] so the column loop is a single
 * aligned load per query position. On x86 the scatter runs as
 * 16-lane SIMD transposes; the scalar form is store-port-bound at
 * lanes x numSymbols byte stores per column.
 */
template <class V>
inline void
interGatherColumn(const std::uint8_t *mat_t, const int *col_idx,
                  typename V::Elem *scratch)
{
    using Elem = typename V::Elem;
    constexpr int lanes = V::lanes;
    constexpr int num_symbols = bio::Alphabet::numSymbols;
#if defined(__SSE2__)
    if constexpr (sizeof(Elem) == 1 && lanes % 16 == 0) {
        for (int g = 0; g < lanes / 16; ++g)
            interGatherGroup16<V>(
                mat_t, col_idx + g * 16,
                reinterpret_cast<std::uint8_t *>(scratch) + g * 16,
                lanes);
    } else
#endif
    {
        for (int l = 0; l < lanes; ++l) {
            const std::uint8_t *col = mat_t
                + static_cast<std::size_t>(col_idx[l]) * num_symbols;
            for (int r = 0; r < num_symbols; ++r)
                scratch[static_cast<std::size_t>(r) * lanes + l] =
                    static_cast<Elem>(col[r]);
        }
    }
}

/** One lane's worth of work: a packed-arena subject slice. */
struct InterSubject
{
    const bio::Residue *data;
    int length;
};

/** Per-subject kernel output, in the caller's subject order. */
struct InterLaneResult
{
    std::uint8_t best = 0;
    std::int32_t subjectEnd = -1;
    bool saturated = false;
};

/**
 * The inter-sequence kernel, one job per u8 lane, in two
 * instantiations that share the gather, the refill and the
 * recurrence:
 *
 *  - the score scan (@p Anchored false; jobs InterSubject, results
 *    InterLaneResult): each lane runs its whole subject and reports
 *    its best and the 0-based column it was first attained in (the
 *    striped kernel's subjectEnd convention), flagging a best in
 *    the clip band [255-bias, 255] as saturated so the caller can
 *    rescan that subject up the striped 16-bit -> scalar ladder;
 *  - the traceback tier's locating passes (@p Anchored true; jobs
 *    InterAnchoredLane, results InterAnchoredResult), which add an
 *    early stop (a lane retires after the first column whose best
 *    reaches its stopAt or clips), an anchor seed (in a lane's first
 *    column the diagonal input of row seedRow is 1, so alignments
 *    through that cell carry the bonus; only columns where a seeded
 *    lane starts run the seeded loop) and the end row (on
 *    retirement, the smallest row of the lane's last column, or with
 *    snapshot of the column of its best's last improvement, holding
 *    its best; on columns where a snapshot lane's best improves, a
 *    lane-masked blend copies those lanes' H column).
 *
 * Jobs should arrive longest first (longestFirst()), so the short
 * tail refills lanes that retire early and the lanes drain together
 * (correct in any order, just slower). A retiring lane is refilled
 * from the queue immediately; its H/E/best state is zeroed with a
 * lane mask, and exhausted lanes idle on the all-zero pad row of
 * @p mat_t until the batch drains. Values are exact below the clip
 * band; a clipped lane's result means nothing beyond that.
 *
 * @param mat_t  transposed biased matrix: row per *subject* symbol
 *               (numSymbols rows + one all-zero pad row), each row
 *               numSymbols biased scores indexed by query residue
 *               (NativeQueryProfile::interMatrix())
 * @param query  encoded query residues in pass order (the reversed
 *               query for a reverse pass)
 * @param m      query length (> 0)
 * @param results one entry per job, in the caller's job order
 */
template <class V, bool Anchored>
void
interLanes(const std::uint8_t *mat_t, const bio::Residue *query, int m,
           const std::conditional_t<Anchored, InterAnchoredLane,
                                    InterSubject> *jobs,
           std::size_t count, int open_cost, int ext_cost, int bias,
           std::conditional_t<Anchored, InterAnchoredResult,
                              InterLaneResult> *results)
{
    using Reg = typename V::Reg;
    using Elem = typename V::Elem;
    static_assert(std::is_unsigned_v<Elem>,
                  "the zero clamp is the unsigned saturation");
    constexpr int lanes = V::lanes;
    constexpr int num_symbols = bio::Alphabet::numSymbols;
    constexpr Elem ones = static_cast<Elem>(-1);

    const Reg v_open = V::splat(static_cast<Elem>(open_cost));
    const Reg v_ext = V::splat(static_cast<Elem>(ext_cost));
    const Reg v_bias = V::splat(static_cast<Elem>(bias));

    // Per-query-position state, reused across calls on this thread;
    // the anchored seeds stay all zero between columns.
    thread_local std::vector<Reg> h;
    thread_local std::vector<Reg> e;
    thread_local std::vector<std::size_t> qoff;
    const std::size_t mm = static_cast<std::size_t>(m);
    h.assign(mm, V::zero());
    e.assign(mm, V::zero());
    qoff.resize(mm);
    for (std::size_t i = 0; i < mm; ++i)
        qoff[i] = static_cast<std::size_t>(query[i])
            * static_cast<std::size_t>(lanes);
    Reg *snap = nullptr;
    Reg *seed = nullptr;
    if constexpr (Anchored) {
        thread_local std::vector<Reg> snap_col;
        thread_local std::vector<Reg> seed_col;
        snap_col.resize(mm);
        seed_col.assign(mm, V::zero());
        snap = snap_col.data();
        seed = seed_col.data();
    }

    int slot[lanes];      // job index per lane, -1 = idle
    int pos[lanes];       // current column within the job
    Elem lane_best[lanes];
    int lane_end[lanes];
    bool done[lanes];     // anchored: reached stopAt or clipped
    int seeded[lanes];    // anchored: row seeded this column, or -1
    alignas(64) Elem mask[lanes];
    alignas(64) Elem keep[lanes];
    alignas(64) Elem best_now[lanes];
    alignas(64) Elem best_was[lanes];
    alignas(64) Elem scratch[static_cast<std::size_t>(num_symbols)
                             * static_cast<std::size_t>(lanes)];

    // Put job @p next in lane @p l, arming an anchored job's seed.
    bool seeding = false;
    const auto start = [&](int l, std::size_t next) {
        slot[l] = static_cast<int>(next);
        if constexpr (Anchored) {
            done[l] = false;
            seeded[l] = jobs[next].seedRow;
            if (seeded[l] >= 0) {
                reinterpret_cast<Elem *>(seed)
                    [static_cast<std::size_t>(seeded[l]) * lanes
                     + static_cast<std::size_t>(l)] = 1;
                seeding = true;
            }
        }
    };

    Reg v_best = V::zero();
    std::size_t next = 0;
    int active = 0;
    for (int l = 0; l < lanes; ++l) {
        slot[l] = -1;
        pos[l] = 0;
        lane_best[l] = 0;
        lane_end[l] = -1;
        done[l] = false;
        seeded[l] = -1;
    }
    for (int l = 0; l < lanes && next < count; ++l, ++next) {
        start(l, next);
        ++active;
    }

    while (active > 0) {
        // Retire finished jobs and refill from the queue. The mask
        // zeroes a refilled lane's H/E/best columns in one
        // vectorized pass; length-sorted input puts jobs of
        // near-equal length side by side, so simultaneous
        // retirements (one mask pass for many lanes) stay common.
        bool retired = false;
        for (int l = 0; l < lanes; ++l) {
            mask[l] = ones;
            if (slot[l] < 0
                || (pos[l] < jobs[slot[l]].length
                    && !(Anchored && done[l])))
                continue;
            auto &r = results[slot[l]];
            if constexpr (Anchored) {
                // The row, before the mask pass zeroes the column.
                r.best = lane_best[l];
                r.column = lane_end[l];
                r.row = -1;
                const Elem *col = reinterpret_cast<const Elem *>(
                    jobs[slot[l]].snapshot ? snap : h.data());
                for (int i = 0; i < m && lane_best[l] > 0; ++i) {
                    if (col[static_cast<std::size_t>(i) * lanes
                            + static_cast<std::size_t>(l)]
                        == lane_best[l]) {
                        r.row = i;
                        break;
                    }
                }
            } else {
                r.best = lane_best[l];
                r.subjectEnd = lane_end[l];
                r.saturated =
                    static_cast<int>(lane_best[l]) >= 255 - bias;
            }
            retired = true;
            mask[l] = 0;
            lane_best[l] = 0;
            lane_end[l] = -1;
            pos[l] = 0;
            if (next < count) {
                start(l, next++);
            } else {
                slot[l] = -1;
                --active;
            }
        }
        if (active == 0)
            break;
        if (retired) {
            const Reg v_mask = V::load(mask);
            for (std::size_t i = 0; i < mm; ++i) {
                h[i] = V::band(h[i], v_mask);
                e[i] = V::band(e[i], v_mask);
            }
            v_best = V::band(v_best, v_mask);
        }

        // Gather this column's substitution scores. Idle lanes read
        // the pad row (all zeros == score -bias), which only ever
        // decays their already-zero state.
        int col_idx[lanes];
        for (int l = 0; l < lanes; ++l)
            col_idx[l] = slot[l] >= 0
                ? static_cast<int>(jobs[slot[l]].data[pos[l]])
                : num_symbols;
        interGatherColumn<V>(mat_t, col_idx, scratch);

        // One DP column for all lanes. F is carried serially down
        // the query, so the recurrence is exact — the inter-sequence
        // arrangement never needs a lazy-F correction.
        const Reg v_best_in = v_best;
        const auto column = [&](auto with_seed) {
            Reg v_f = V::zero();
            Reg v_diag = V::zero();
            for (std::size_t i = 0; i < mm; ++i) {
                const Reg old_h = h[i];
                Reg v_in = v_diag;
                if constexpr (decltype(with_seed)::value)
                    v_in = V::adds(v_in, seed[i]);
                const Reg v_e = V::max(V::subs(e[i], v_ext),
                                       V::subs(old_h, v_open));
                Reg v_h = V::subs(
                    V::adds(v_in, V::load(scratch + qoff[i])),
                    v_bias);
                v_h = V::max(v_h, v_e);
                v_h = V::max(v_h, v_f);
                h[i] = v_h;
                e[i] = v_e;
                v_best = V::max(v_best, v_h);
                v_f = V::max(V::subs(v_f, v_ext),
                             V::subs(v_h, v_open));
                v_diag = old_h;
            }
        };
        if constexpr (Anchored) {
            if (seeding) {
                column(std::true_type{});
                for (int l = 0; l < lanes; ++l) {
                    if (seeded[l] >= 0)
                        reinterpret_cast<Elem *>(seed)
                            [static_cast<std::size_t>(seeded[l]) * lanes
                             + static_cast<std::size_t>(l)] = 0;
                    seeded[l] = -1;
                }
                seeding = false;
            } else {
                column(std::false_type{});
            }
        } else {
            column(std::false_type{});
        }

        // Track, per lane, the column its best last strictly
        // improved in, extracted only on the (self-limiting: at most
        // 255 per lane) columns where some lane actually improved;
        // an anchored lane also stops there once it reaches its
        // stopAt, and a snapshot lane keeps that column.
        if (V::anyGt(v_best, v_best_in)) {
            std::memcpy(best_now, &v_best, sizeof(Reg));
            std::memcpy(best_was, &v_best_in, sizeof(Reg));
            bool blend = false;
            for (int l = 0; l < lanes; ++l) {
                if constexpr (Anchored) {
                    mask[l] = 0;
                    keep[l] = ones;
                }
                if (best_now[l] <= best_was[l])
                    continue;
                lane_best[l] = best_now[l];
                lane_end[l] = pos[l];
                if constexpr (Anchored) {
                    const InterAnchoredLane &job = jobs[slot[l]];
                    done[l] = lane_best[l]
                        >= std::min(job.stopAt, 255 - bias);
                    if (job.snapshot) {
                        mask[l] = ones;
                        keep[l] = 0;
                        blend = true;
                    }
                }
            }
            if (blend) {
                // H >= 0, so the max of two masked values is their
                // blend.
                const Reg v_take = V::load(mask);
                const Reg v_keep = V::load(keep);
                for (std::size_t i = 0; i < mm; ++i)
                    snap[i] = V::max(V::band(h[i], v_take),
                                     V::band(snap[i], v_keep));
            }
        }
        for (int l = 0; l < lanes; ++l)
            pos[l] += slot[l] >= 0 ? 1 : 0;
    }
}

} // namespace bioarch::align::detail

#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

#endif // BIOARCH_ALIGN_SW_INTERSEQUENCE_NATIVE_IMPL_HH
