#include "sw_striped_native.hh"

#include <algorithm>
#include <cstdlib>

#include "smith_waterman.hh"
#include "sw_striped_native_impl.hh"

namespace bioarch::align
{

namespace
{

/** Lane counts per backend for the two ladder levels. */
int
lanes8(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::Portable:
        return vec::native::PortableU8::lanes;
#if BIOARCH_NATIVE_SIMD && defined(__SSE2__)
    case SimdBackend::SSE2:
        return vec::native::Sse2U8::lanes;
#endif
#if BIOARCH_NATIVE_AVX2
    case SimdBackend::AVX2:
        return 32;
#endif
#if BIOARCH_NATIVE_SIMD && defined(__ARM_NEON) && defined(__aarch64__)
    case SimdBackend::NEON:
        return vec::native::NeonU8::lanes;
#endif
    default:
        return vec::native::PortableU8::lanes;
    }
}

int
lanes16(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::Portable:
        return vec::native::PortableI16::lanes;
#if BIOARCH_NATIVE_SIMD && defined(__SSE2__)
    case SimdBackend::SSE2:
        return vec::native::Sse2I16::lanes;
#endif
#if BIOARCH_NATIVE_AVX2
    case SimdBackend::AVX2:
        return 16;
#endif
#if BIOARCH_NATIVE_SIMD && defined(__ARM_NEON) && defined(__aarch64__)
    case SimdBackend::NEON:
        return vec::native::NeonI16::lanes;
#endif
    default:
        return vec::native::PortableI16::lanes;
    }
}

bool
avx2Runnable()
{
#if BIOARCH_NATIVE_AVX2 && defined(__GNUC__) \
    && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

std::vector<SimdBackend>
computeCompiledBackends()
{
    std::vector<SimdBackend> out;
    if (avx2Runnable())
        out.push_back(SimdBackend::AVX2);
#if BIOARCH_NATIVE_SIMD && defined(__SSE2__)
    out.push_back(SimdBackend::SSE2);
#endif
#if BIOARCH_NATIVE_SIMD && defined(__ARM_NEON) && defined(__aarch64__)
    out.push_back(SimdBackend::NEON);
#endif
    out.push_back(SimdBackend::Portable);
    return out;
}

} // namespace

std::string_view
backendName(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::Portable:
        return "portable";
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
    if (name == "portable")
        return SimdBackend::Portable;
    if (name == "sse2")
        return SimdBackend::SSE2;
    if (name == "avx2")
        return SimdBackend::AVX2;
    if (name == "neon")
        return SimdBackend::NEON;
    if (name == "auto")
        return bestNativeBackend();
    return std::nullopt;
}

const std::vector<SimdBackend> &
compiledNativeBackends()
{
    static const std::vector<SimdBackend> backends =
        computeCompiledBackends();
    return backends;
}

SimdBackend
bestNativeBackend()
{
    return compiledNativeBackends().front();
}

SimdBackend
defaultScanBackend()
{
    if (const char *env = std::getenv("BIOARCH_SIMD_BACKEND")) {
        const auto parsed = parseBackend(env);
        if (parsed) {
            const auto &avail = compiledNativeBackends();
            if (std::find(avail.begin(), avail.end(), *parsed)
                != avail.end())
                return *parsed;
        }
        // Unknown or unrunnable request: fall through to auto.
    }
    return bestNativeBackend();
}

NativeQueryProfile::NativeQueryProfile(
    const bio::Sequence &query, const bio::ScoringMatrix &matrix,
    SimdBackend backend)
    : _query(&query), _matrix(&matrix),
      _backend(backend),
      _m(static_cast<int>(query.length())), _bias(0), _seg8(0),
      _seg16(0)
{
    if (_m == 0)
        return;

    const int min_score = matrix.minScore();
    _bias = min_score < 0 ? -min_score : 0;

    const int l16 = lanes16(_backend);
    _seg16 = (_m + l16 - 1) / l16;
    _i16 = vec::native::allocateAligned<std::int16_t>(
        static_cast<std::size_t>(bio::Alphabet::numSymbols)
        * static_cast<std::size_t>(_seg16)
        * static_cast<std::size_t>(l16));
    for (int r = 0; r < bio::Alphabet::numSymbols; ++r) {
        const bio::Residue res = static_cast<bio::Residue>(r);
        std::int16_t *row = _i16.get()
            + static_cast<std::size_t>(r)
                * static_cast<std::size_t>(_seg16)
                * static_cast<std::size_t>(l16);
        for (int s = 0; s < _seg16; ++s) {
            for (int l = 0; l < l16; ++l) {
                const int p = s + l * _seg16;
                row[s * l16 + l] =
                    p < _m ? static_cast<std::int16_t>(
                        matrix.score(res, query[p]))
                           : padScore;
            }
        }
    }

    // The 8-bit level only exists when a biased score fits a byte.
    // Today's int8 score tables always do (bias <= 128, max <= 127);
    // the check guards against a future wider score type.
    if (_bias + matrix.maxScore() > 255)
        return;
    const int l8 = lanes8(_backend);
    _seg8 = (_m + l8 - 1) / l8;
    _u8 = vec::native::allocateAligned<std::uint8_t>(
        static_cast<std::size_t>(bio::Alphabet::numSymbols)
        * static_cast<std::size_t>(_seg8)
        * static_cast<std::size_t>(l8));
    for (int r = 0; r < bio::Alphabet::numSymbols; ++r) {
        const bio::Residue res = static_cast<bio::Residue>(r);
        std::uint8_t *row = _u8.get()
            + static_cast<std::size_t>(r)
                * static_cast<std::size_t>(_seg8)
                * static_cast<std::size_t>(l8);
        for (int s = 0; s < _seg8; ++s) {
            for (int l = 0; l < l8; ++l) {
                const int p = s + l * _seg8;
                // Pad rows hold 0 (== score -bias): a pad H can only
                // decay along any alignment path, so it never
                // inflates the maximum.
                row[s * l8 + l] =
                    p < _m ? static_cast<std::uint8_t>(
                        matrix.score(res, query[p]) + _bias)
                           : 0;
            }
        }
    }

    // Transposed biased matrix for the inter-sequence kernel: row
    // per subject symbol, columns indexed by query residue, plus an
    // all-zero pad row (index numSymbols) idle lanes read — zero is
    // score -bias, which only ever decays an already-dead lane.
    const std::size_t n_sym =
        static_cast<std::size_t>(bio::Alphabet::numSymbols);
    _matT = vec::native::allocateAligned<std::uint8_t>(
        (n_sym + 1) * n_sym);
    for (int c = 0; c < bio::Alphabet::numSymbols; ++c)
        for (int r = 0; r < bio::Alphabet::numSymbols; ++r)
            _matT[static_cast<std::size_t>(c) * n_sym
                  + static_cast<std::size_t>(r)] =
                static_cast<std::uint8_t>(
                    matrix.score(static_cast<bio::Residue>(r),
                                 static_cast<bio::Residue>(c))
                    + _bias);
    for (std::size_t r = 0; r < n_sym; ++r)
        _matT[n_sym * n_sym + r] = 0;
}

#if BIOARCH_NATIVE_AVX2
// Implemented in sw_striped_avx2.cc (the only -mavx2 TU).
namespace detail
{
LocalScore scanU8Avx2(const std::uint8_t *profile, int seg,
                      const bio::Residue *subject, std::size_t n,
                      int open_cost, int ext_cost, int bias,
                      bool *saturated);
LocalScore scanI16Avx2(const std::int16_t *profile, int seg,
                       const bio::Residue *subject, std::size_t n,
                       int open_cost, int ext_cost,
                       bool *saturated);
} // namespace detail
#endif

namespace
{

LocalScore
dispatchU8(SimdBackend backend, const std::uint8_t *profile,
           int seg, const bio::Residue *subject, std::size_t n,
           int open_cost, int ext_cost, int bias, bool *saturated)
{
    switch (backend) {
#if BIOARCH_NATIVE_SIMD && defined(__SSE2__)
    case SimdBackend::SSE2:
        return detail::stripedScanU8<vec::native::Sse2U8>(
            profile, seg, subject, n, open_cost, ext_cost, bias,
            saturated);
#endif
#if BIOARCH_NATIVE_AVX2
    case SimdBackend::AVX2:
        return detail::scanU8Avx2(profile, seg, subject, n,
                                  open_cost, ext_cost, bias,
                                  saturated);
#endif
#if BIOARCH_NATIVE_SIMD && defined(__ARM_NEON) && defined(__aarch64__)
    case SimdBackend::NEON:
        return detail::stripedScanU8<vec::native::NeonU8>(
            profile, seg, subject, n, open_cost, ext_cost, bias,
            saturated);
#endif
    default:
        return detail::stripedScanU8<vec::native::PortableU8>(
            profile, seg, subject, n, open_cost, ext_cost, bias,
            saturated);
    }
}

LocalScore
dispatchI16(SimdBackend backend, const std::int16_t *profile,
            int seg, const bio::Residue *subject, std::size_t n,
            int open_cost, int ext_cost, bool *saturated)
{
    switch (backend) {
#if BIOARCH_NATIVE_SIMD && defined(__SSE2__)
    case SimdBackend::SSE2:
        return detail::stripedScanI16<vec::native::Sse2I16>(
            profile, seg, subject, n, open_cost, ext_cost,
            saturated);
#endif
#if BIOARCH_NATIVE_AVX2
    case SimdBackend::AVX2:
        return detail::scanI16Avx2(profile, seg, subject, n,
                                   open_cost, ext_cost, saturated);
#endif
#if BIOARCH_NATIVE_SIMD && defined(__ARM_NEON) && defined(__aarch64__)
    case SimdBackend::NEON:
        return detail::stripedScanI16<vec::native::NeonI16>(
            profile, seg, subject, n, open_cost, ext_cost,
            saturated);
#endif
    default:
        return detail::stripedScanI16<vec::native::PortableI16>(
            profile, seg, subject, n, open_cost, ext_cost,
            saturated);
    }
}

} // namespace

LocalScore
swStripedNativeScan(const NativeQueryProfile &profile,
                    const bio::Residue *subject, std::size_t n,
                    const bio::GapPenalties &gaps,
                    std::uint64_t *cells, NativeScanStats *stats)
{
    const int m = profile.queryLength();
    if (cells)
        *cells += static_cast<std::uint64_t>(m)
            * static_cast<std::uint64_t>(n);
    LocalScore out;
    if (m == 0 || n == 0)
        return out;
    if (stats) {
        ++stats->scans;
        ++stats->striped;
    }

    const int open_cost = gaps.openCost();
    const int ext_cost = gaps.extendCost();

    // Gap costs outside the 16-bit range would corrupt the splat
    // registers; no realistic penalty comes close, but stay exact.
    if (open_cost < 0 || ext_cost < 0 || open_cost > 32767
        || ext_cost > 32767)
        return smithWatermanScoreRaw(
            profile.query().residues().data(),
            static_cast<std::size_t>(m), subject, n,
            profile.matrix(), gaps);

    bool saturated = false;
    if (profile.hasU8() && open_cost <= 255 && ext_cost <= 255) {
        out = dispatchU8(profile.backend(), profile.profile8(),
                         profile.segmentLength8(), subject, n,
                         open_cost, ext_cost, profile.bias(),
                         &saturated);
        if (!saturated)
            return out;
        if (stats)
            ++stats->rescans16;
    }

    return swStripedScan16Tail(profile, subject, n, gaps, stats);
}

LocalScore
swStripedScan16Tail(const NativeQueryProfile &profile,
                    const bio::Residue *subject, std::size_t n,
                    const bio::GapPenalties &gaps,
                    NativeScanStats *stats)
{
    const int open_cost = gaps.openCost();
    const int ext_cost = gaps.extendCost();
    bool saturated = false;
    const LocalScore out = dispatchI16(
        profile.backend(), profile.profile16(),
        profile.segmentLength16(), subject, n, open_cost, ext_cost,
        &saturated);
    if (!saturated)
        return out;

    if (stats)
        ++stats->rescansScalar;
    return smithWatermanScoreRaw(
        profile.query().residues().data(),
        static_cast<std::size_t>(profile.queryLength()), subject, n,
        profile.matrix(), gaps);
}

LocalScore
swStripedNativeScan(const NativeQueryProfile &profile,
                    const bio::Sequence &subject,
                    const bio::GapPenalties &gaps,
                    std::uint64_t *cells, NativeScanStats *stats)
{
    return swStripedNativeScan(profile,
                               subject.residues().data(),
                               subject.length(), gaps, cells,
                               stats);
}

} // namespace bioarch::align
