#include "sw_striped_native.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "smith_waterman.hh"
#include "sw_striped_native_impl.hh"

namespace bioarch::align
{

namespace
{

/**
 * Fill a striped 16-bit profile of the @p m residues at @p query:
 * [residue][segment][lane], row p = s + l * seg, pad rows holding
 * NativeQueryProfile::padScore.
 */
void
fillProfile16(std::int16_t *out, const bio::Residue *query, int m,
              int seg, int lanes, const bio::ScoringMatrix &matrix)
{
    for (int r = 0; r < bio::Alphabet::numSymbols; ++r) {
        const bio::Residue res = static_cast<bio::Residue>(r);
        std::int16_t *row = out
            + static_cast<std::size_t>(r)
                * static_cast<std::size_t>(seg)
                * static_cast<std::size_t>(lanes);
        for (int s = 0; s < seg; ++s) {
            for (int l = 0; l < lanes; ++l) {
                const int p = s + l * seg;
                row[s * lanes + l] =
                    p < m ? static_cast<std::int16_t>(
                        matrix.score(res, query[p]))
                          : NativeQueryProfile::padScore;
            }
        }
    }
}

} // namespace

NativeQueryProfile::NativeQueryProfile(
    const bio::Sequence &query, const bio::ScoringMatrix &matrix,
    SimdBackend backend)
    : _query(&query), _matrix(&matrix),
      _kernels(nativeKernels(backend)),
      _m(static_cast<int>(query.length())), _bias(0), _seg8(0),
      _seg16(0)
{
    if (_m == 0 || _kernels == nullptr)
        return;

    const int min_score = matrix.minScore();
    _bias = min_score < 0 ? -min_score : 0;

    const int l16 = _kernels->lanesU8 / 2;
    _seg16 = (_m + l16 - 1) / l16;
    _i16 = vec::native::allocateAligned<std::int16_t>(
        static_cast<std::size_t>(bio::Alphabet::numSymbols)
        * static_cast<std::size_t>(_seg16)
        * static_cast<std::size_t>(l16));
    fillProfile16(_i16.get(), query.residues().data(), _m, _seg16,
                  l16, matrix);

    // The 8-bit level only exists when a biased score fits a byte.
    // Today's int8 score tables always do (bias <= 128, max <= 127);
    // the check guards against a future wider score type.
    if (_bias + matrix.maxScore() > 255)
        return;
    const int l8 = _kernels->lanesU8;
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

namespace
{

/** Whether the gap costs fit the 16-bit splat registers. */
bool
gapsFit16(const bio::GapPenalties &gaps)
{
    return gaps.openCost() >= 0 && gaps.extendCost() >= 0
        && gaps.openCost() <= 32767 && gaps.extendCost() <= 32767;
}

/** Whether the lane kernels run: a hardware backend and gapsFit16. */
bool
lanesFit(const NativeQueryProfile &profile,
         const bio::GapPenalties &gaps)
{
    return profile.kernels() != nullptr && gapsFit16(gaps);
}

/**
 * The scan of a profile the lanes cannot take, by the scalar
 * reference. It reports what the lanes would, so that hit lists
 * match across backends: their ladder knows queryEnd only from its
 * scalar rung.
 */
LocalScore
scalarScan(const NativeQueryProfile &profile,
           const bio::Residue *subject, std::size_t n,
           const bio::GapPenalties &gaps)
{
    LocalScore out = smithWatermanScoreRaw(
        profile.query().residues().data(),
        static_cast<std::size_t>(profile.queryLength()), subject, n,
        profile.matrix(), gaps);
    if (gapsFit16(gaps) && out.score < detail::i16SaturationCeiling)
        out.queryEnd = -1;
    return out;
}

/** This thread's column snapshot buffer, at least @p count long. */
template <class Elem>
Elem *
snapshotBuffer(std::size_t count)
{
    thread_local std::vector<Elem> buffer;
    if (buffer.size() < count)
        buffer.resize(count);
    return buffer.data();
}

/**
 * Smallest real row (< @p m) whose element of a striped column
 * snapshot equals @p target, or -1. Row p = s + l * seg sits at
 * element s * lanes + l.
 */
template <class Elem>
int
firstRowAt(const Elem *column, int seg, int lanes, int m, int target)
{
    for (int l = 0; l < lanes; ++l) {
        for (int s = 0; s < seg; ++s) {
            const int p = l * seg + s;
            if (p >= m)
                return -1;
            if (column[s * lanes + l] == target)
                return p;
        }
    }
    return -1;
}

/**
 * Scalar rung of the anchored reverse pass, for targets beyond the
 * 16-bit lanes: the smithWatermanScoreRaw recurrence, column by
 * column, with the diagonal input of cell (0, 0) seeded. Returns
 * the first column whose best reaches @p target and the smallest
 * row there, or {-1, -1}.
 */
std::pair<int, int>
anchoredBeginScalar(const bio::Residue *query, int m,
                    const bio::Residue *subject, int n,
                    const bio::ScoringMatrix &matrix,
                    const bio::GapPenalties &gaps, int seed,
                    int target)
{
    const int open_cost = gaps.openCost();
    const int ext_cost = gaps.extendCost();
    std::vector<int> h_col(static_cast<std::size_t>(m), 0);
    std::vector<int> e_col(static_cast<std::size_t>(m), 0);
    for (int j = 0; j < n; ++j) {
        const std::int8_t *profile = matrix.row(subject[j]);
        int h_diag = j == 0 ? seed : 0;
        int h_above = 0;
        int f = 0;
        int row = -1;
        for (int i = 0; i < m; ++i) {
            const std::size_t si = static_cast<std::size_t>(i);
            const int e = std::max(
                {0, h_col[si] - open_cost, e_col[si] - ext_cost});
            f = std::max({0, h_above - open_cost, f - ext_cost});
            const int h = std::max(
                {0, h_diag + profile[query[i]], e, f});
            if (h >= target && row < 0)
                row = i;
            h_diag = h_col[si];
            h_col[si] = h;
            e_col[si] = e;
            h_above = h;
        }
        if (row >= 0)
            return {row, j};
    }
    return {-1, -1};
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
    if (!lanesFit(profile, gaps))
        return scalarScan(profile, subject, n, gaps);

    bool saturated = false;
    if (profile.hasU8() && open_cost <= 255 && ext_cost <= 255) {
        out = profile.kernels()->stripedU8(
            profile.profile8(), profile.segmentLength8(), subject, n,
            open_cost, ext_cost, profile.bias(), &saturated, nullptr);
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
    if (!lanesFit(profile, gaps))
        return scalarScan(profile, subject, n, gaps);
    const int open_cost = gaps.openCost();
    const int ext_cost = gaps.extendCost();
    bool saturated = false;
    const LocalScore out = profile.kernels()->stripedI16(
        profile.profile16(), profile.segmentLength16(), subject, n,
        open_cost, ext_cost, &saturated, nullptr);
    if (!saturated)
        return out;

    if (stats)
        ++stats->rescansScalar;
    return scalarScan(profile, subject, n, gaps);
}

LocalScore
swStripedLocate(const NativeQueryProfile &profile,
                const bio::Residue *subject, std::size_t n,
                const bio::GapPenalties &gaps, int known_score)
{
    const int m = profile.queryLength();
    if (m == 0 || n == 0)
        return {};
    const auto scalar = [&] {
        return smithWatermanScoreRaw(
            profile.query().residues().data(),
            static_cast<std::size_t>(m), subject, n,
            profile.matrix(), gaps);
    };
    if (!lanesFit(profile, gaps))
        return scalar();

    const int open_cost = gaps.openCost();
    const int ext_cost = gaps.extendCost();
    // With the score known the pass stops (and snapshots) at the
    // first column reaching it; otherwise it snapshots at every
    // improvement of the best.
    detail::StripedPass pass;
    pass.stopAt = std::max(known_score, 0);
    const auto finish = [&](LocalScore out, const auto *column,
                            int seg, int lanes) {
        if (known_score > 0 && out.score != known_score)
            // Not this prefix's optimum: locate it afresh.
            return swStripedLocate(profile, subject, n, gaps, 0);
        if (out.score > 0)
            out.queryEnd =
                firstRowAt(column, seg, lanes, m, out.score);
        return out;
    };

    bool saturated = false;
    if (profile.hasU8() && open_cost <= 255 && ext_cost <= 255
        && known_score < 255 - profile.bias()) {
        const int seg = profile.segmentLength8();
        const int lanes = profile.kernels()->lanesU8;
        std::uint8_t *column = snapshotBuffer<std::uint8_t>(
            static_cast<std::size_t>(seg * lanes));
        pass.snapshot = column;
        const LocalScore out = profile.kernels()->stripedU8(
            profile.profile8(), seg, subject, n, open_cost, ext_cost,
            profile.bias(), &saturated, &pass);
        if (!saturated)
            return finish(out, column, seg, lanes);
    }
    if (known_score < detail::i16SaturationCeiling) {
        const int seg = profile.segmentLength16();
        const int lanes = profile.kernels()->lanesU8 / 2;
        std::int16_t *column = snapshotBuffer<std::int16_t>(
            static_cast<std::size_t>(seg * lanes));
        pass.snapshot = column;
        const LocalScore out = profile.kernels()->stripedI16(
            profile.profile16(), seg, subject, n, open_cost, ext_cost,
            &saturated, &pass);
        if (!saturated)
            return finish(out, column, seg, lanes);
    }
    return scalar();
}

bool
swStripedBeginCell(const NativeQueryProfile &profile,
                   const bio::Residue *subject, int query_end,
                   int subject_end, const bio::GapPenalties &gaps,
                   int score, int *query_begin, int *subject_begin,
                   std::uint64_t *cells)
{
    // Any bonus >= 1 lifts the anchored alignments strictly above
    // every other local alignment of the prefixes (all <= score).
    constexpr int seed = 1;
    const int target = score + seed;
    const int rows = query_end + 1;
    const int cols = subject_end + 1;
    if (score <= 0 || rows <= 0 || cols <= 0
        || rows > profile.queryLength())
        return false;

    thread_local std::vector<bio::Residue> rev_query;
    thread_local std::vector<bio::Residue> rev_subject;
    rev_query.resize(static_cast<std::size_t>(rows));
    rev_subject.resize(static_cast<std::size_t>(cols));
    const bio::Residue *query = profile.query().residues().data();
    std::reverse_copy(query, query + rows, rev_query.begin());
    std::reverse_copy(subject, subject + cols, rev_subject.begin());

    std::pair<int, int> cell{-1, -1};
    bool saturated = true; // until a lane pass runs
    if (lanesFit(profile, gaps)
        && target < detail::i16SaturationCeiling) {
        // A fresh 16-bit profile of the reversed query prefix, in
        // a per-thread buffer that only grows.
        const int lanes = profile.kernels()->lanesU8 / 2;
        const int seg = (rows + lanes - 1) / lanes;
        const std::size_t size =
            static_cast<std::size_t>(bio::Alphabet::numSymbols)
            * static_cast<std::size_t>(seg)
            * static_cast<std::size_t>(lanes);
        thread_local vec::native::AlignedArray<std::int16_t> rev;
        thread_local std::size_t rev_size = 0;
        if (rev_size < size) {
            rev = vec::native::allocateAligned<std::int16_t>(size);
            rev_size = size;
        }
        fillProfile16(rev.get(), rev_query.data(), rows, seg, lanes,
                      profile.matrix());
        std::int16_t *column = snapshotBuffer<std::int16_t>(
            static_cast<std::size_t>(seg * lanes));
        detail::StripedPass pass;
        pass.snapshot = column;
        pass.seed = seed;
        pass.stopAt = target;
        saturated = false;
        const LocalScore out = profile.kernels()->stripedI16(
            rev.get(), seg, rev_subject.data(),
            static_cast<std::size_t>(cols), gaps.openCost(),
            gaps.extendCost(), &saturated, &pass);
        if (!saturated && out.score == target)
            cell = {firstRowAt(column, seg, lanes, rows, target),
                    out.subjectEnd};
    }
    if (saturated) {
        cell = anchoredBeginScalar(rev_query.data(), rows,
                                   rev_subject.data(), cols,
                                   profile.matrix(), gaps, seed,
                                   target);
    }
    if (cells)
        *cells += static_cast<std::uint64_t>(rows)
            * static_cast<std::uint64_t>(
                cell.second >= 0 ? cell.second + 1 : cols);
    if (cell.first < 0)
        return false;
    *query_begin = query_end - cell.first;
    *subject_begin = subject_end - cell.second;
    return true;
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
