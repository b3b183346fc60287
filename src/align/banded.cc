#include "banded.hh"

#include <algorithm>

#include "banded_impl.hh"

namespace bioarch::align
{

// Every kernel loads up to one vector beyond the query rows.
static_assert(BandedProfile::pad >= 16 /* Avx2I16, the widest */,
              "profile pad must cover one vector of every backend");

BandedProfile::BandedProfile(const bio::Sequence &query,
                             const bio::ScoringMatrix &matrix,
                             SimdBackend backend)
    : _query(&query), _matrix(&matrix), _backend(backend),
      _kernels(nativeKernels(backend)),
      _m(static_cast<int>(query.length())),
      _stride(static_cast<std::size_t>(_m + 2 * pad)),
      _scores(static_cast<std::size_t>(bio::Alphabet::numSymbols)
                  * _stride,
              padScore)
{
    for (int r = 0; r < bio::Alphabet::numSymbols; ++r) {
        const std::int8_t *scores =
            matrix.row(static_cast<bio::Residue>(r));
        std::int16_t *out = _scores.data()
            + static_cast<std::size_t>(r) * _stride + pad;
        for (int i = 0; i < _m; ++i)
            out[i] = scores[query[static_cast<std::size_t>(i)]];
    }
}

LocalScore
bandedSmithWaterman(const BandedProfile &profile,
                    const bio::Sequence &subject,
                    const bio::GapPenalties &gaps,
                    int center_diagonal, int half_width)
{
    const int m = profile.queryLength();
    const int n = static_cast<int>(subject.length());
    if (m == 0 || n == 0 || half_width < 0)
        return {};
    const int open_cost = gaps.openCost();
    const int ext_cost = gaps.extendCost();
    const auto oracle = [&] {
        return bandedSmithWatermanScan(
            profile.query(), subject, profile.matrix(), gaps,
            center_diagonal, half_width, [](int, int, int, int, int) {});
    };
    const NativeKernels *kernels = profile.kernels();
    if (kernels == nullptr || open_cost < 0 || ext_cost < 0
        || open_cost > 32767 || ext_cost > 32767)
        return oracle();

    // Diagonals beyond [-(m-1), n-1] hold no cells: clamping the
    // band to them bounds the lane count by m + n - 1.
    const long long d_lo =
        std::max<long long>(static_cast<long long>(center_diagonal)
                                - half_width,
                            -(m - 1));
    const long long d_hi =
        std::min<long long>(static_cast<long long>(center_diagonal)
                                + half_width,
                            n - 1);
    if (d_lo > d_hi)
        return {};

    bool saturated = false;
    const LocalScore out = kernels->bandedI16(
        profile.row(0), profile.stride(), m, subject.residues().data(),
        n, static_cast<int>(d_lo), static_cast<int>(d_hi), open_cost,
        ext_cost, &saturated);
    return saturated ? oracle() : out;
}

LocalScore
bandedSmithWaterman(const bio::Sequence &query,
                    const bio::Sequence &subject,
                    const bio::ScoringMatrix &matrix,
                    const bio::GapPenalties &gaps,
                    int center_diagonal, int half_width)
{
    return bandedSmithWaterman(BandedProfile(query, matrix), subject,
                               gaps, center_diagonal, half_width);
}

} // namespace bioarch::align
