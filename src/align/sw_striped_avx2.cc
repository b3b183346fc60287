/**
 * @file
 * The only translation unit compiled with -mavx2: the AVX2 kernel
 * table. native_kernels.cc lists it among the runnable backends
 * only when CPUID reports AVX2, so the rest of the library stays
 * at the baseline ISA and reaches this code only through that
 * table's function pointers.
 */

#include "native_kernels_impl.hh"

#if !defined(__AVX2__)
#error "sw_striped_avx2.cc must be compiled with -mavx2"
#endif

namespace bioarch::align::detail
{

const NativeKernels &
avx2Kernels()
{
    return kernelTable<vec::native::Avx2U8, vec::native::Avx2I16>;
}

} // namespace bioarch::align::detail
