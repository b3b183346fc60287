/**
 * @file
 * Inter-sequence (multi-subject) native Smith-Waterman — the second
 * execution kernel of the serving engine, packing one database
 * subject per SIMD lane (the SWIPE / SWAPHI arrangement) instead of
 * striping one subject across all lanes.
 *
 * Per-lane DP walks the query column-by-column, so the vertical gap
 * F is carried exactly in a register and there is no lazy-F
 * correction loop at all; the cost moved into a per-column gather
 * of each lane's substitution scores. That trade wins on the short
 * subjects the synthetic database's Zipf length mix is full of
 * (where the striped kernel's per-scan setup and lazy-F entry
 * checks dominate) and loses on long subjects (where the gather
 * overhead can't amortize) — hence the cutover heuristic the
 * serving shard scan applies (interSequenceCutover()).
 *
 * Ladder contract: identical to swStripedNativeScan. Every subject
 * is scanned at unsigned 8 bits first; a subject whose lane clips
 * is rescanned up the striped 16-bit -> scalar ladder, so final
 * scores (and end coordinates) are bit-identical to
 * align::smithWatermanScore — and to the striped kernel — for every
 * input, on every backend (asserted by tests/sw_native_test.cc).
 */

#ifndef BIOARCH_ALIGN_SW_INTERSEQUENCE_NATIVE_HH
#define BIOARCH_ALIGN_SW_INTERSEQUENCE_NATIVE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "sw_striped_native.hh"
#include "types.hh"

namespace bioarch::align
{

/**
 * One subject to scan: a slice of contiguous encoded residues (a
 * Sequence's own storage or the database's packed arena).
 */
struct SubjectSpan
{
    const bio::Residue *data = nullptr;
    std::size_t length = 0;
};

/**
 * Scan @p count subjects against the profile's query with the
 * inter-sequence kernel, writing one LocalScore per subject (in the
 * caller's order) to @p out. Subjects are processed in a
 * longest-first (length desc, index asc) lane schedule internally
 * — results do not depend on the caller's ordering beyond the
 * output slots.
 *
 * Scores and subjectEnd match swStripedNativeScan bit-for-bit;
 * queryEnd is -1 unless the scalar ladder level ran. Subjects that
 * cannot take the 8-bit inter-sequence path (no u8 profile, as on
 * the Scalar backend, or gap costs outside a byte) take
 * swStripedNativeScan one by one; u8-saturated lanes are rescanned
 * up the striped 16-bit -> scalar ladder. stats->interSequence /
 * stats->striped count the subjects each kernel handled.
 */
void swInterSequenceScan(const NativeQueryProfile &profile,
                         const SubjectSpan *subjects,
                         std::size_t count,
                         const bio::GapPenalties &gaps,
                         LocalScore *out,
                         std::uint64_t *cells = nullptr,
                         NativeScanStats *stats = nullptr);

namespace detail
{

/**
 * One lane of an anchored pass (the traceback tier's locate and
 * reverse passes, NativeKernels::interAnchoredU8): the columns the
 * lane runs, in pass order, and where it stops.
 */
struct InterAnchoredLane
{
    const bio::Residue *data;
    /** Columns at most (> 0). */
    int length;
    /** Retire after the first column whose best reaches this (the
     * lane also retires once it clips). */
    int stopAt;
    /** Query row whose diagonal input in the lane's first column
     * starts at 1 instead of 0 (the anchor seed), or -1. */
    int seedRow;
    /** Keep the lane's H column of every improvement of its best,
     * so the row can be read from the column of the first maximum
     * rather than the last column the lane ran. */
    bool snapshot;
};

/** One anchored lane's outcome, in pass coordinates. */
struct InterAnchoredResult
{
    /** Best H of the columns run (unbiased). */
    int best = 0;
    /** First column attaining best, or -1 when best is 0. */
    int column = -1;
    /** Smallest row holding best in the snapshot column (with
     * InterAnchoredLane::snapshot) or the last column run, or -1. */
    int row = -1;
};

/**
 * The lane schedule of the inter-sequence kernel: the indices of the
 * @p count jobs with a positive @p length_of(k), longest first, ties
 * by index, into @p order. The long jobs start together and the
 * short ones refill the lanes that retire early, so the lanes drain
 * close together instead of one long job idling the rest at the
 * end; the key makes the schedule a pure function of the jobs.
 */
template <class LengthOf>
void
longestFirst(std::size_t count, LengthOf length_of,
             std::vector<std::uint32_t> &order)
{
    order.clear();
    for (std::size_t k = 0; k < count; ++k)
        if (length_of(k) > 0)
            order.push_back(static_cast<std::uint32_t>(k));
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  const auto la = length_of(a);
                  const auto lb = length_of(b);
                  return la != lb ? la > lb : a < b;
              });
}

} // namespace detail

/**
 * Default subject-length cutover of the serving heuristic: subjects
 * strictly shorter go to the inter-sequence kernel, the rest stay
 * striped. Chosen from bench_aligners' GCUPS-by-length-bucket
 * breakdown; EngineConfig::interseqCutover overrides it (0 disables
 * the inter-sequence kernel entirely).
 */
std::size_t interSequenceCutover();

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_SW_INTERSEQUENCE_NATIVE_HH
