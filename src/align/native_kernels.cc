/**
 * @file
 * The backend table: which ISA variants this build has, which of
 * them this CPU runs, and which functions implement each one's
 * kernels. The SSE2 and NEON tables are instantiated here, at the
 * baseline ISA; the AVX2 table lives in sw_striped_avx2.cc, the
 * only -mavx2 TU, and is listed only when CPUID reports AVX2.
 */

#include <stdexcept>
#include <string>

#include "native_kernels_impl.hh"
#include "sw_striped_native.hh"

namespace bioarch::align
{

#if BIOARCH_NATIVE_AVX2
namespace detail
{
// Defined in sw_striped_avx2.cc.
const NativeKernels &avx2Kernels();
} // namespace detail
#endif

namespace
{

struct Runnable
{
    SimdBackend backend;
    const NativeKernels *kernels; ///< nullptr for Scalar
};

/** The backends this host runs, best first, with their tables. */
const std::vector<Runnable> &
runnable()
{
    static const std::vector<Runnable> table = [] {
        std::vector<Runnable> out;
#if BIOARCH_NATIVE_AVX2
        if (__builtin_cpu_supports("avx2"))
            out.push_back({SimdBackend::AVX2, &detail::avx2Kernels()});
#endif
#if defined(__SSE2__)
        out.push_back(
            {SimdBackend::SSE2,
             &detail::kernelTable<vec::native::Sse2U8,
                                  vec::native::Sse2I16>});
#endif
#if defined(__ARM_NEON) && defined(__aarch64__)
        out.push_back(
            {SimdBackend::NEON,
             &detail::kernelTable<vec::native::NeonU8,
                                  vec::native::NeonI16>});
#endif
        out.push_back({SimdBackend::Scalar, nullptr});
        return out;
    }();
    return table;
}

/** The lookup's error path, kept out of the profiles' constructors. */
[[noreturn]] void
throwUnrunnable(SimdBackend backend)
{
    std::string names;
    for (const Runnable &r : runnable()) {
        names += names.empty() ? "" : ", ";
        names += backendName(r.backend);
    }
    throw std::invalid_argument(
        "backend '" + std::string(backendName(backend))
        + "' does not run on this host (runnable: " + names + ")");
}

} // namespace

std::string_view
backendName(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::Scalar:
        return "scalar";
    case SimdBackend::SSE2:
        return "sse2";
    case SimdBackend::AVX2:
        return "avx2";
    case SimdBackend::NEON:
        return "neon";
    }
    return "unknown";
}

std::optional<SimdBackend>
parseBackend(std::string_view name)
{
    if (name == "auto")
        return defaultScanBackend();
    for (const SimdBackend b : runnableBackends())
        if (name == backendName(b))
            return b;
    return std::nullopt;
}

const std::vector<SimdBackend> &
runnableBackends()
{
    static const std::vector<SimdBackend> backends = [] {
        std::vector<SimdBackend> out;
        for (const Runnable &r : runnable())
            out.push_back(r.backend);
        return out;
    }();
    return backends;
}

SimdBackend
defaultScanBackend()
{
    return runnable().front().backend;
}

const NativeKernels *
nativeKernels(SimdBackend backend)
{
    for (const Runnable &r : runnable())
        if (r.backend == backend)
            return r.kernels;
    throwUnrunnable(backend);
}

} // namespace bioarch::align
