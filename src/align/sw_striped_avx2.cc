/**
 * @file
 * The only translation unit compiled with -mavx2: the AVX2 kernel
 * instantiations (striped u8/i16, inter-sequence u8, the banded
 * i16 kernel and the i16 traceback rectangle fill), reached through
 * plain function pointers so the rest of the library stays at the
 * baseline ISA and dispatch is guarded by runtime CPUID
 * (sw_striped_native.cc / sw_intersequence_native.cc / banded.cc /
 * traceback/native_align.cc).
 */

#include "banded_native_impl.hh"
#include "sw_intersequence_native_impl.hh"
#include "sw_striped_native_impl.hh"
#include "traceback/fill_native_impl.hh"

#include "vec/simd_native.hh"

#if !defined(__AVX2__)
#error "sw_striped_avx2.cc must be compiled with -mavx2"
#endif

namespace bioarch::align::detail
{

LocalScore
scanU8Avx2(const std::uint8_t *profile, int seg,
           const bio::Residue *subject, std::size_t n,
           int open_cost, int ext_cost, int bias, bool *saturated,
           const StripedPass *pass)
{
    return stripedScanU8<vec::native::Avx2U8>(
        profile, seg, subject, n, open_cost, ext_cost, bias,
        saturated, pass);
}

LocalScore
scanI16Avx2(const std::int16_t *profile, int seg,
            const bio::Residue *subject, std::size_t n,
            int open_cost, int ext_cost, bool *saturated,
            const StripedPass *pass)
{
    return stripedScanI16<vec::native::Avx2I16>(
        profile, seg, subject, n, open_cost, ext_cost, saturated,
        pass);
}

void
interScanU8Avx2(const std::uint8_t *mat_t, const bio::Residue *query,
                int m, const InterSubject *subjects,
                std::size_t count, int open_cost, int ext_cost,
                int bias, InterLaneResult *results)
{
    interScanU8<vec::native::Avx2U8>(mat_t, query, m, subjects,
                                     count, open_cost, ext_cost,
                                     bias, results);
}

LocalScore
bandedScanI16Avx2(const std::int16_t *profile, std::size_t stride,
                  int m, const bio::Residue *subject, int n, int d_lo,
                  int d_hi, int open_cost, int ext_cost,
                  bool *saturated)
{
    return bandedScanI16<vec::native::Avx2I16>(
        profile, stride, m, subject, n, d_lo, d_hi, open_cost,
        ext_cost, saturated);
}

int
fillRectangleAvx2(const bio::Residue *a, int rows, const bio::Residue *b,
                  int cols, bool swapped, const bio::ScoringMatrix &matrix,
                  const bio::GapPenalties &gaps, std::uint8_t *codes)
{
    return fillRectangleI16<vec::native::Avx2I16>(
        a, rows, b, cols, swapped, matrix, gaps, codes);
}

} // namespace bioarch::align::detail
