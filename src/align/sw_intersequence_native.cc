#include "sw_intersequence_native.hh"

#include <algorithm>
#include <vector>

#include "sw_intersequence_native_impl.hh"

namespace bioarch::align
{

void
swInterSequenceScan(const NativeQueryProfile &profile,
                    const SubjectSpan *subjects, std::size_t count,
                    const bio::GapPenalties &gaps, LocalScore *out,
                    std::uint64_t *cells, NativeScanStats *stats)
{
    const int m = profile.queryLength();
    for (std::size_t i = 0; i < count; ++i)
        out[i] = LocalScore{};
    if (cells) {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < count; ++i)
            total += subjects[i].length;
        *cells += static_cast<std::uint64_t>(m) * total;
    }
    if (m == 0 || count == 0)
        return;

    const int open_cost = gaps.openCost();
    const int ext_cost = gaps.extendCost();
    const bool u8_ok = profile.hasU8() && open_cost >= 0
        && ext_cost >= 0 && open_cost <= 255 && ext_cost <= 255;
    if (!u8_ok) {
        // The whole batch rides the striped ladder per subject
        // (cells were already accounted above).
        for (std::size_t i = 0; i < count; ++i)
            if (subjects[i].length > 0)
                out[i] = swStripedNativeScan(
                    profile, subjects[i].data, subjects[i].length,
                    gaps, nullptr, stats);
        return;
    }

    // Longest-first lane schedule; lanes are independent, so scores
    // and end columns do not depend on it.
    thread_local std::vector<std::uint32_t> order;
    detail::longestFirst(
        count, [&](std::size_t k) { return subjects[k].length; }, order);
    if (order.empty())
        return;

    thread_local std::vector<detail::InterSubject> sorted;
    thread_local std::vector<detail::InterLaneResult> results;
    sorted.resize(order.size());
    results.assign(order.size(), detail::InterLaneResult{});
    for (std::size_t k = 0; k < order.size(); ++k)
        sorted[k] = detail::InterSubject{
            subjects[order[k]].data,
            static_cast<int>(subjects[order[k]].length)};

    // hasU8() implies a hardware backend, so kernels() is set.
    profile.kernels()->interU8(profile.interMatrix(),
                               profile.query().residues().data(), m,
                               sorted.data(), sorted.size(), open_cost,
                               ext_cost, profile.bias(), results.data());
    if (stats) {
        stats->scans += order.size();
        stats->interSequence += order.size();
    }

    for (std::size_t k = 0; k < order.size(); ++k) {
        const std::size_t slot = order[k];
        const detail::InterLaneResult &r = results[k];
        if (!r.saturated) {
            out[slot].score = static_cast<int>(r.best);
            out[slot].subjectEnd = r.subjectEnd;
            continue;
        }
        // Same climb the striped scan takes after 8-bit clipping:
        // 16-bit lanes, then the scalar reference.
        if (stats)
            ++stats->rescans16;
        out[slot] = swStripedScan16Tail(profile, subjects[slot].data,
                                        subjects[slot].length, gaps,
                                        stats);
    }
}

std::size_t
interSequenceCutover()
{
    // From bench_aligners' GCUPS-by-length-bucket breakdown (AVX2,
    // reference container): with lanes filled, the inter-sequence
    // kernel leads in every bucket — ~1.1x at 128-255 residues,
    // ~1.9x at >= 512 — so only outliers several times the
    // SwissProt-like median stay striped, where a lone subject
    // monopolizes the lane schedule (tail divergence) and u8
    // overflow rescans get likelier. Lane *underfill* is the other
    // reason to prefer striped, and the serving shard scan handles
    // that separately with a batch-occupancy floor.
    return 2048;
}

} // namespace bioarch::align
