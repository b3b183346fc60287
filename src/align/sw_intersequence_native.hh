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

#include <cstddef>
#include <cstdint>

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
