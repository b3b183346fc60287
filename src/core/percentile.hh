/**
 * @file
 * Quantile/percentile helpers shared by the metric histograms
 * (src/obs/metrics.hh), bioarch-serve's reports and the bench
 * harnesses' JSON
 * footers (bench/bench_common.hh), so both report the same numbers
 * for the same samples instead of carrying two ad-hoc
 * implementations.
 */

#ifndef BIOARCH_CORE_PERCENTILE_HH
#define BIOARCH_CORE_PERCENTILE_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace bioarch::core
{

/**
 * Linear-interpolation quantile of @p samples (the R-7 / NumPy
 * default): q = 0 is the minimum, q = 1 the maximum, and fractional
 * ranks interpolate between the two neighboring order statistics.
 * Returns 0 for an empty sample set.
 *
 * @param samples the observations (taken by value; sorted in place)
 * @param q quantile in [0, 1] (clamped)
 */
inline double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    if (q <= 0.0)
        return samples.front();
    if (q >= 1.0)
        return samples.back();
    const double rank =
        q * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= samples.size())
        return samples.back();
    return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

/** quantile() with @p pct expressed in percent (p50, p95, p99...). */
inline double
percentile(const std::vector<double> &samples, double pct)
{
    return quantile(samples, pct / 100.0);
}

} // namespace bioarch::core

#endif // BIOARCH_CORE_PERCENTILE_HH
