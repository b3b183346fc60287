/**
 * @file
 * Hardware SIMD vector layer for the *native* alignment backend.
 *
 * The traced kernels (kernels/sw_vmx_traced) do not use it: they
 * emit one trace instruction per modelled Altivec primitive, which
 * Table III depends on. This header is the execution layer the
 * serving engine scans the database with — real intrinsics, every
 * flavor the target ISA has compiled into every build:
 *
 *   Sse2U8/Sse2I16   — 128-bit SSE2 (x86-64 baseline)
 *   Avx2U8/Avx2I16   — 256-bit AVX2 (separate -mavx2 TU, runtime
 *                      CPUID-guarded dispatch)
 *   NeonU8/NeonI16   — 128-bit NEON (aarch64)
 *
 * A host with none of them serves on the scalar reference
 * (align::SimdBackend::Scalar), which needs no lanes.
 *
 * Each variant exposes the same static interface, so the striped
 * Smith-Waterman kernel (align/sw_striped_native_impl.hh) is written
 * once and instantiated per backend:
 *
 *   lanes, Elem, Reg
 *   zero(), splat(x), load(p)          // load requires 64B-aligned p
 *   adds(a,b), subs(a,b), max(a,b)     // saturating add/sub, max
 *   band(a,b)                          // bitwise AND (lane masking)
 *   shiftInZero(a)                     // one lane toward higher
 *                                      // index, 0 into lane 0
 *   hmax(a)                            // horizontal maximum
 *   anyGt(a,b)                         // any lane a > b
 *
 * The I16 flavors add what the diagonal-major banded kernel
 * (align/banded_native_impl.hh) and the traceback rectangle fill
 * (align/traceback/fill_native_impl.hh) need:
 *
 *   loadu(p), store(p,a)               // unaligned load; store
 *                                      // requires 64B-aligned p
 *   shiftLanes<K>(a)                   // K lanes toward higher
 *                                      // index, 0 into the low K
 *   broadcastLast(a)                   // the top lane in every lane
 *   shiftInLast(a,prev)                // one lane toward higher
 *                                      // index, prev's top lane
 *                                      // into lane 0
 *   cmpeq(a,b), cmpgt(a,b)             // all-ones lanes where true
 *   storeBytes(p,a)                    // lanes (in [0, 255]) as
 *                                      // bytes to unaligned p
 *
 * The U8 flavors are unsigned saturating (Farrar's biased 8-bit
 * profile arithmetic: clamping at 0 is exactly the Smith-Waterman
 * zero clamp); the I16 flavors are signed saturating (the 16-bit
 * rescan level of the overflow ladder).
 */

#ifndef BIOARCH_VEC_SIMD_NATIVE_HH
#define BIOARCH_VEC_SIMD_NATIVE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace bioarch::vec::native
{

/** Alignment of every buffer the native kernels load from. */
inline constexpr std::size_t registerAlignment = 64;

namespace detail
{

struct AlignedDeleter
{
    void
    operator()(void *p) const
    {
        ::operator delete[](p, std::align_val_t(registerAlignment));
    }
};

} // namespace detail

/** Owning pointer to a 64-byte-aligned array of trivial elements. */
template <typename T>
using AlignedArray = std::unique_ptr<T[], detail::AlignedDeleter>;

/**
 * Allocate @p count elements aligned for any native register load.
 * Contents are uninitialized; callers fill every byte they read.
 */
template <typename T>
AlignedArray<T>
allocateAligned(std::size_t count)
{
    static_assert(std::is_trivial_v<T>);
    void *p = ::operator new[](count * sizeof(T),
                               std::align_val_t(registerAlignment));
    return AlignedArray<T>(static_cast<T *>(p));
}

#if defined(__SSE2__)

struct Sse2U8
{
    static constexpr int lanes = 16;
    using Elem = std::uint8_t;
    using Reg = __m128i;

    static Reg zero() { return _mm_setzero_si128(); }
    static Reg
    splat(Elem x)
    {
        return _mm_set1_epi8(static_cast<char>(x));
    }
    static Reg
    load(const Elem *p)
    {
        return _mm_load_si128(reinterpret_cast<const __m128i *>(p));
    }
    static Reg adds(Reg a, Reg b) { return _mm_adds_epu8(a, b); }
    static Reg subs(Reg a, Reg b) { return _mm_subs_epu8(a, b); }
    static Reg max(Reg a, Reg b) { return _mm_max_epu8(a, b); }
    static Reg band(Reg a, Reg b) { return _mm_and_si128(a, b); }
    static Reg shiftInZero(Reg a) { return _mm_slli_si128(a, 1); }
    static Elem
    hmax(Reg a)
    {
        a = _mm_max_epu8(a, _mm_srli_si128(a, 8));
        a = _mm_max_epu8(a, _mm_srli_si128(a, 4));
        a = _mm_max_epu8(a, _mm_srli_si128(a, 2));
        a = _mm_max_epu8(a, _mm_srli_si128(a, 1));
        return static_cast<Elem>(_mm_cvtsi128_si32(a) & 0xFF);
    }
    static bool
    anyGt(Reg a, Reg b)
    {
        // a > b (unsigned) wherever the saturating difference is
        // nonzero.
        const __m128i d = _mm_subs_epu8(a, b);
        const __m128i z = _mm_cmpeq_epi8(d, _mm_setzero_si128());
        return _mm_movemask_epi8(z) != 0xFFFF;
    }
};

struct Sse2I16
{
    static constexpr int lanes = 8;
    using Elem = std::int16_t;
    using Reg = __m128i;

    static Reg zero() { return _mm_setzero_si128(); }
    static Reg splat(Elem x) { return _mm_set1_epi16(x); }
    static Reg
    load(const Elem *p)
    {
        return _mm_load_si128(reinterpret_cast<const __m128i *>(p));
    }
    static Reg adds(Reg a, Reg b) { return _mm_adds_epi16(a, b); }
    static Reg subs(Reg a, Reg b) { return _mm_subs_epi16(a, b); }
    static Reg max(Reg a, Reg b) { return _mm_max_epi16(a, b); }
    static Reg band(Reg a, Reg b) { return _mm_and_si128(a, b); }
    static Reg shiftInZero(Reg a) { return _mm_slli_si128(a, 2); }
    static Reg
    loadu(const Elem *p)
    {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    }
    static void
    store(Elem *p, Reg a)
    {
        _mm_store_si128(reinterpret_cast<__m128i *>(p), a);
    }
    template <int K>
    static Reg
    shiftLanes(Reg a)
    {
        return _mm_slli_si128(a, 2 * K);
    }
    static Reg
    broadcastLast(Reg a)
    {
        const __m128i hi = _mm_shufflehi_epi16(a, 0xFF);
        return _mm_unpackhi_epi64(hi, hi);
    }
    static Reg
    shiftInLast(Reg a, Reg prev)
    {
        return _mm_or_si128(_mm_slli_si128(a, 2),
                            _mm_srli_si128(prev, 14));
    }
    static Reg cmpeq(Reg a, Reg b) { return _mm_cmpeq_epi16(a, b); }
    static Reg cmpgt(Reg a, Reg b) { return _mm_cmpgt_epi16(a, b); }
    static void
    storeBytes(std::uint8_t *p, Reg a)
    {
        _mm_storel_epi64(reinterpret_cast<__m128i *>(p),
                         _mm_packus_epi16(a, a));
    }
    static Elem
    hmax(Reg a)
    {
        a = _mm_max_epi16(a, _mm_srli_si128(a, 8));
        a = _mm_max_epi16(a, _mm_srli_si128(a, 4));
        a = _mm_max_epi16(a, _mm_srli_si128(a, 2));
        return static_cast<Elem>(_mm_extract_epi16(a, 0));
    }
    static bool
    anyGt(Reg a, Reg b)
    {
        return _mm_movemask_epi8(_mm_cmpgt_epi16(a, b)) != 0;
    }
};

#endif // __SSE2__

#if defined(__AVX2__)

namespace detail
{

/**
 * Full-width 256-bit byte shift toward higher lanes (AVX2 has no
 * single cross-lane byte shift): feed alignr the vector paired with
 * [a.low, 0] so lane 1 pulls its carry bytes from a.low.
 */
template <int K>
inline __m256i
shiftLeft256(__m256i a)
{
    const __m256i carry = _mm256_permute2x128_si256(a, a, 0x08);
    return _mm256_alignr_epi8(a, carry, 16 - K);
}

} // namespace detail

struct Avx2U8
{
    static constexpr int lanes = 32;
    using Elem = std::uint8_t;
    using Reg = __m256i;

    static Reg zero() { return _mm256_setzero_si256(); }
    static Reg
    splat(Elem x)
    {
        return _mm256_set1_epi8(static_cast<char>(x));
    }
    static Reg
    load(const Elem *p)
    {
        return _mm256_load_si256(
            reinterpret_cast<const __m256i *>(p));
    }
    static Reg adds(Reg a, Reg b) { return _mm256_adds_epu8(a, b); }
    static Reg subs(Reg a, Reg b) { return _mm256_subs_epu8(a, b); }
    static Reg max(Reg a, Reg b) { return _mm256_max_epu8(a, b); }
    static Reg band(Reg a, Reg b) { return _mm256_and_si256(a, b); }
    static Reg
    shiftInZero(Reg a)
    {
        return detail::shiftLeft256<1>(a);
    }
    static Elem
    hmax(Reg a)
    {
        __m128i m = _mm_max_epu8(_mm256_castsi256_si128(a),
                                 _mm256_extracti128_si256(a, 1));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 8));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
        return static_cast<Elem>(_mm_cvtsi128_si32(m) & 0xFF);
    }
    static bool
    anyGt(Reg a, Reg b)
    {
        const __m256i d = _mm256_subs_epu8(a, b);
        return !_mm256_testz_si256(d, d);
    }
};

struct Avx2I16
{
    static constexpr int lanes = 16;
    using Elem = std::int16_t;
    using Reg = __m256i;

    static Reg zero() { return _mm256_setzero_si256(); }
    static Reg splat(Elem x) { return _mm256_set1_epi16(x); }
    static Reg
    load(const Elem *p)
    {
        return _mm256_load_si256(
            reinterpret_cast<const __m256i *>(p));
    }
    static Reg adds(Reg a, Reg b) { return _mm256_adds_epi16(a, b); }
    static Reg subs(Reg a, Reg b) { return _mm256_subs_epi16(a, b); }
    static Reg max(Reg a, Reg b) { return _mm256_max_epi16(a, b); }
    static Reg band(Reg a, Reg b) { return _mm256_and_si256(a, b); }
    static Reg
    shiftInZero(Reg a)
    {
        return detail::shiftLeft256<2>(a);
    }
    static Reg
    loadu(const Elem *p)
    {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p));
    }
    static void
    store(Elem *p, Reg a)
    {
        _mm256_store_si256(reinterpret_cast<__m256i *>(p), a);
    }
    template <int K>
    static Reg
    shiftLanes(Reg a)
    {
        return detail::shiftLeft256<2 * K>(a);
    }
    static Reg
    broadcastLast(Reg a)
    {
        // Word 7 of each 128-bit half into its top quadword, then
        // the top quadword (word 15) into all four.
        const __m256i hi = _mm256_shufflehi_epi16(a, 0xFF);
        return _mm256_permute4x64_epi64(hi, 0xFF);
    }
    static Reg
    shiftInLast(Reg a, Reg prev)
    {
        // [prev.high, a.low] supplies each half's incoming word.
        return _mm256_alignr_epi8(
            a, _mm256_permute2x128_si256(prev, a, 0x21), 14);
    }
    static Reg
    cmpeq(Reg a, Reg b)
    {
        return _mm256_cmpeq_epi16(a, b);
    }
    static Reg
    cmpgt(Reg a, Reg b)
    {
        return _mm256_cmpgt_epi16(a, b);
    }
    static void
    storeBytes(std::uint8_t *p, Reg a)
    {
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(p),
            _mm_packus_epi16(_mm256_castsi256_si128(a),
                             _mm256_extracti128_si256(a, 1)));
    }
    static Elem
    hmax(Reg a)
    {
        __m128i m = _mm_max_epi16(_mm256_castsi256_si128(a),
                                  _mm256_extracti128_si256(a, 1));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 8));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 4));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 2));
        return static_cast<Elem>(_mm_extract_epi16(m, 0));
    }
    static bool
    anyGt(Reg a, Reg b)
    {
        return _mm256_movemask_epi8(_mm256_cmpgt_epi16(a, b)) != 0;
    }
};

#endif // __AVX2__

#if defined(__ARM_NEON) && defined(__aarch64__)

struct NeonU8
{
    static constexpr int lanes = 16;
    using Elem = std::uint8_t;
    using Reg = uint8x16_t;

    static Reg zero() { return vdupq_n_u8(0); }
    static Reg splat(Elem x) { return vdupq_n_u8(x); }
    static Reg load(const Elem *p) { return vld1q_u8(p); }
    static Reg adds(Reg a, Reg b) { return vqaddq_u8(a, b); }
    static Reg subs(Reg a, Reg b) { return vqsubq_u8(a, b); }
    static Reg max(Reg a, Reg b) { return vmaxq_u8(a, b); }
    static Reg band(Reg a, Reg b) { return vandq_u8(a, b); }
    static Reg
    shiftInZero(Reg a)
    {
        return vextq_u8(vdupq_n_u8(0), a, 15);
    }
    static Elem hmax(Reg a) { return vmaxvq_u8(a); }
    static bool
    anyGt(Reg a, Reg b)
    {
        return vmaxvq_u8(vcgtq_u8(a, b)) != 0;
    }
};

struct NeonI16
{
    static constexpr int lanes = 8;
    using Elem = std::int16_t;
    using Reg = int16x8_t;

    static Reg zero() { return vdupq_n_s16(0); }
    static Reg splat(Elem x) { return vdupq_n_s16(x); }
    static Reg load(const Elem *p) { return vld1q_s16(p); }
    static Reg adds(Reg a, Reg b) { return vqaddq_s16(a, b); }
    static Reg subs(Reg a, Reg b) { return vqsubq_s16(a, b); }
    static Reg max(Reg a, Reg b) { return vmaxq_s16(a, b); }
    static Reg band(Reg a, Reg b) { return vandq_s16(a, b); }
    static Reg
    shiftInZero(Reg a)
    {
        return vextq_s16(vdupq_n_s16(0), a, 7);
    }
    static Reg loadu(const Elem *p) { return vld1q_s16(p); }
    static void store(Elem *p, Reg a) { vst1q_s16(p, a); }
    template <int K>
    static Reg
    shiftLanes(Reg a)
    {
        return vextq_s16(vdupq_n_s16(0), a, lanes - K);
    }
    static Reg broadcastLast(Reg a) { return vdupq_laneq_s16(a, 7); }
    static Reg
    shiftInLast(Reg a, Reg prev)
    {
        return vextq_s16(prev, a, 7);
    }
    static Reg
    cmpeq(Reg a, Reg b)
    {
        return vreinterpretq_s16_u16(vceqq_s16(a, b));
    }
    static Reg
    cmpgt(Reg a, Reg b)
    {
        return vreinterpretq_s16_u16(vcgtq_s16(a, b));
    }
    static void
    storeBytes(std::uint8_t *p, Reg a)
    {
        vst1_u8(p, vqmovun_s16(a));
    }
    static Elem hmax(Reg a) { return vmaxvq_s16(a); }
    static bool
    anyGt(Reg a, Reg b)
    {
        return vmaxvq_u16(vcgtq_s16(a, b)) != 0;
    }
};

#endif // __ARM_NEON && __aarch64__

} // namespace bioarch::vec::native

#endif // BIOARCH_VEC_SIMD_NATIVE_HH
