/**
 * @file
 * The one template that builds a hardware backend's NativeKernels
 * table from its lane types. Private to the two TUs that hold the
 * tables: native_kernels.cc (SSE2 / NEON, at the baseline ISA) and
 * sw_striped_avx2.cc (AVX2, the only -mavx2 TU).
 */

#ifndef BIOARCH_ALIGN_NATIVE_KERNELS_IMPL_HH
#define BIOARCH_ALIGN_NATIVE_KERNELS_IMPL_HH

#include "banded_native_impl.hh"
#include "sw_intersequence_native_impl.hh"
#include "sw_striped_native.hh"
#include "sw_striped_native_impl.hh"
#include "traceback/fill_native_impl.hh"

namespace bioarch::align::detail
{

/** The kernels of the backend with lane types @p U8 and @p I16. */
template <class U8, class I16>
inline constexpr NativeKernels kernelTable = {
    U8::lanes,
    &stripedScanU8<U8>,
    &stripedScanI16<I16>,
    &interLanes<U8, false>,
    &interLanes<U8, true>,
    &bandedScanI16<I16>,
    &fillRectangleI16<I16>,
};

} // namespace bioarch::align::detail

#endif // BIOARCH_ALIGN_NATIVE_KERNELS_IMPL_HH
