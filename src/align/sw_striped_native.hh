/**
 * @file
 * Native hardware-SIMD striped Smith-Waterman — the execution
 * backend the serving engine scans the database with.
 *
 * Strictly separate from the traced/simulated kernels
 * (kernels/sw_vmx_traced), which emit the paper's Table III
 * instruction stream. This backend exists to make `bioarch-serve`
 * run as fast as the hardware allows
 * (Farrar-striped layout, 8-bit saturating lanes, lazy-F loop —
 * the SSW/SWIPE lineage the paper's SW kernels led to).
 *
 * Overflow ladder (classic Farrar/SSW): every subject is scanned
 * with unsigned 8-bit lanes first; a subject whose score enters the
 * 8-bit saturation range is rescanned with signed 16-bit lanes; a
 * subject that saturates those too falls back to the scalar
 * reference. Final scores are therefore bit-identical to
 * align::smithWatermanScore for every input (asserted by
 * tests/sw_native_test.cc across all runnable backends).
 *
 * Backend selection: every build compiles the intrinsic variants
 * its target ISA has (SSE2 on x86-64, AVX2 in its own -mavx2 TU,
 * NEON on aarch64) plus the Scalar backend, which runs the scalar
 * reference at every step. Each hardware backend is one
 * NativeKernels table (native_kernels.cc, and sw_striped_avx2.cc
 * for AVX2), and runnableBackends() lists the backends this CPU
 * runs: AVX2 only where CPUID reports it, Scalar always last.
 * Nothing accepts a backend outside that list: parseBackend
 * rejects its name and nativeKernels() throws.
 */

#ifndef BIOARCH_ALIGN_SW_STRIPED_NATIVE_HH
#define BIOARCH_ALIGN_SW_STRIPED_NATIVE_HH

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "types.hh"
#include "vec/simd_native.hh"

namespace bioarch::align
{

/** Which native kernel implementation scans the database. */
enum class SimdBackend
{
    Scalar,
    SSE2,
    AVX2,
    NEON,
};

/** Lower-case display name ("scalar", "sse2", ...). */
std::string_view backendName(SimdBackend backend);

/**
 * Parse the name of a runnable backend; "auto" maps to
 * defaultScanBackend(). Any other name, including a backend this
 * host cannot run, gives nullopt.
 */
std::optional<SimdBackend> parseBackend(std::string_view name);

/**
 * The backends this host runs, best first: the ISA variants this
 * build compiles, minus AVX2 when the CPU lacks it, and always
 * Scalar last.
 */
const std::vector<SimdBackend> &runnableBackends();

/**
 * The widest runnable native backend: what the serving layer uses
 * when nothing else is specified.
 */
SimdBackend defaultScanBackend();

namespace detail
{
struct StripedPass;
struct InterSubject;
struct InterLaneResult;
struct InterAnchoredLane;
struct InterAnchoredResult;
} // namespace detail

/**
 * One hardware backend's kernels, built from its lane types by
 * detail::kernelTable (native_kernels_impl.hh): the striped scan at
 * both ladder levels, the inter-sequence scan and its anchored
 * variant (the traceback tier's locate and reverse passes, one hit
 * per lane), the banded scan and the traceback rectangle fill.
 */
struct NativeKernels
{
    /** Lanes of the 8-bit level; the 16-bit level has half. */
    int lanesU8;
    LocalScore (*stripedU8)(const std::uint8_t *profile, int seg,
                            const bio::Residue *subject,
                            std::size_t n, int open_cost,
                            int ext_cost, int bias, bool *saturated,
                            const detail::StripedPass *pass);
    LocalScore (*stripedI16)(const std::int16_t *profile, int seg,
                             const bio::Residue *subject,
                             std::size_t n, int open_cost,
                             int ext_cost, bool *saturated,
                             const detail::StripedPass *pass);
    void (*interU8)(const std::uint8_t *mat_t,
                    const bio::Residue *query, int m,
                    const detail::InterSubject *subjects,
                    std::size_t count, int open_cost, int ext_cost,
                    int bias, detail::InterLaneResult *results);
    /** The anchored inter-sequence passes, at 8 bits. */
    void (*interAnchoredU8)(const std::uint8_t *mat_t,
                            const bio::Residue *query, int m,
                            const detail::InterAnchoredLane *jobs,
                            std::size_t count, int open_cost,
                            int ext_cost, int bias,
                            detail::InterAnchoredResult *results);
    LocalScore (*bandedI16)(const std::int16_t *profile,
                            std::size_t stride, int m,
                            const bio::Residue *subject, int n,
                            int d_lo, int d_hi, int open_cost,
                            int ext_cost, bool *saturated);
    int (*fillI16)(const bio::Residue *a, int rows,
                   const bio::Residue *b, int cols, bool swapped,
                   const bio::ScoringMatrix &matrix,
                   const bio::GapPenalties &gaps,
                   std::uint8_t *codes);
};

/**
 * The kernel table of @p backend: nullptr for Scalar, which has no
 * lanes.
 *
 * @throws std::invalid_argument if @p backend is not in
 *         runnableBackends()
 */
const NativeKernels *nativeKernels(SimdBackend backend);

/** Ladder accounting, for tests and bench/obs reporting. */
struct NativeScanStats
{
    std::uint64_t scans = 0;         ///< subjects scanned
    std::uint64_t rescans16 = 0;     ///< 8-bit saturated, redone @16
    std::uint64_t rescansScalar = 0; ///< 16-bit saturated too
    /** Subjects whose 8-bit pass ran in the inter-sequence kernel. */
    std::uint64_t interSequence = 0;
    /** Subjects scanned by the striped kernel. */
    std::uint64_t striped = 0;
};

/** Merge per-task ladder counts (e.g. per-shard into per-batch). */
inline NativeScanStats &
operator+=(NativeScanStats &a, const NativeScanStats &b)
{
    a.scans += b.scans;
    a.rescans16 += b.rescans16;
    a.rescansScalar += b.rescansScalar;
    a.interSequence += b.interSequence;
    a.striped += b.striped;
    return a;
}

/**
 * Striped query profile for one native backend: the 8-bit biased
 * and 16-bit raw score layouts, both padded to the backend's lane
 * count and 64-byte aligned (the Scalar backend builds neither).
 * Built once per query and shared read-only across every
 * shard-scan task. The query and matrix must outlive the profile
 * (it keeps references for the scalar fallback level). The
 * backend's kernels are resolved once, here; an unrunnable backend
 * throws std::invalid_argument.
 */
class NativeQueryProfile
{
  public:
    /** Pad sentinel of the 16-bit level. */
    static constexpr std::int16_t padScore = -1000;

    NativeQueryProfile(const bio::Sequence &query,
                       const bio::ScoringMatrix &matrix,
                       SimdBackend backend);

    /** The backend's kernels (nullptr for Scalar). */
    const NativeKernels *kernels() const { return _kernels; }
    const bio::Sequence &query() const { return *_query; }
    int queryLength() const { return _m; }
    /** Bias added to every 8-bit profile score (= -min score). */
    int bias() const { return _bias; }
    /** False when the matrix range does not fit 8-bit lanes. */
    bool hasU8() const { return _u8 != nullptr; }

    int segmentLength8() const { return _seg8; }
    int segmentLength16() const { return _seg16; }
    const std::uint8_t *profile8() const { return _u8.get(); }
    const std::int16_t *profile16() const { return _i16.get(); }
    const bio::ScoringMatrix &matrix() const { return *_matrix; }

    /**
     * Transposed biased matrix for the inter-sequence kernel: one
     * row per *subject* symbol (numSymbols rows plus one all-zero
     * pad row for idle lanes), each row numSymbols biased scores
     * indexed by *query* residue. Built whenever the 8-bit level
     * exists (hasU8()); nullptr otherwise.
     */
    const std::uint8_t *interMatrix() const { return _matT.get(); }

  private:
    const bio::Sequence *_query;
    const bio::ScoringMatrix *_matrix;
    const NativeKernels *_kernels;
    int _m;
    int _bias;
    int _seg8;
    int _seg16;
    vec::native::AlignedArray<std::uint8_t> _u8;
    vec::native::AlignedArray<std::int16_t> _i16;
    vec::native::AlignedArray<std::uint8_t> _matT;
};

/**
 * Scan one subject with the profile's backend, climbing the
 * 8-bit -> 16-bit -> scalar overflow ladder as levels saturate.
 * The score is exactly align::smithWatermanScore's, and subjectEnd
 * is the first column attaining it. queryEnd is not tracked (-1)
 * unless the scalar fallback level ran; the traceback tier's
 * locate pass recovers it when an alignment is reported.
 *
 * @param subject encoded residues (any contiguous storage — a
 *        Sequence's own vector or the database's packed arena)
 * @param[out] cells optional logical DP cell counter (m*n per call)
 * @param[out] stats optional ladder accounting
 */
LocalScore swStripedNativeScan(const NativeQueryProfile &profile,
                               const bio::Residue *subject,
                               std::size_t n,
                               const bio::GapPenalties &gaps,
                               std::uint64_t *cells = nullptr,
                               NativeScanStats *stats = nullptr);

/** Convenience overload scanning a Sequence. */
LocalScore swStripedNativeScan(const NativeQueryProfile &profile,
                               const bio::Sequence &subject,
                               const bio::GapPenalties &gaps,
                               std::uint64_t *cells = nullptr,
                               NativeScanStats *stats = nullptr);

/**
 * The upper half of the overflow ladder on its own: scan at 16
 * bits, falling back to the scalar reference (counted in
 * stats->rescansScalar) if those lanes saturate too. Used by the
 * striped scan after 8-bit saturation and by the inter-sequence
 * driver to rescan clipped lanes — both climbs are the same code,
 * so the two kernels share one ladder contract. Does not touch
 * stats->scans/rescans16 or the cell count; the caller owns those.
 */
LocalScore swStripedScan16Tail(const NativeQueryProfile &profile,
                               const bio::Residue *subject,
                               std::size_t n,
                               const bio::GapPenalties &gaps,
                               NativeScanStats *stats = nullptr);

/**
 * Single-hit locate pass of the traceback tier (align/traceback/
 * native_align.hh; groups of hits locate in the lanes of the
 * anchored inter-sequence kernel instead): the same ladder and
 * kernel as swStripedNativeScan, plus the exact end row. The kernel
 * keeps a copy of the H column in which the best score was first
 * attained, and queryEnd is the smallest row of that column holding
 * the score — the same cell the scalar reference reports
 * (column-major first maximum). The scalar rung reports it itself.
 *
 * @param known_score the optimum of subject[0..n) when the caller
 *        knows it (a score scan's result with n = subjectEnd + 1),
 *        else 0: the pass then stops at the first column reaching
 *        it, copying that one column, and skips ladder levels it
 *        would saturate; without it the pass copies the column at
 *        every improvement of the best. A wrong value costs a
 *        second pass, never a wrong answer.
 */
LocalScore swStripedLocate(const NativeQueryProfile &profile,
                           const bio::Residue *subject,
                           std::size_t n,
                           const bio::GapPenalties &gaps,
                           int known_score = 0);

/**
 * Single-hit anchored reverse pass of the traceback tier (groups of
 * hits run it in inter-sequence lanes instead): the begin cell of a
 * local alignment scoring @p score that ends exactly at
 * (query_end, subject_end). Runs the 16-bit striped kernel over the
 * reversed prefixes query[0..query_end] x subject[0..subject_end]
 * with a fresh profile of the reversed query prefix. Lane 0 of
 * column 0 — the anchor cell's diagonal input — is seeded with a
 * bonus B = 1, so alignments through the anchor score up to
 * score + B and every other local alignment of the prefixes at
 * most score. The begin cell is the smallest row of the first
 * column reaching score + B. (An unseeded reverse pass could stop
 * on an equal-scoring alignment that does not end at the anchor.)
 * Targets beyond the 16-bit lanes take the scalar rung.
 *
 * @param[out] cells optional count of the cells swept
 * @return false when no alignment scoring @p score ends at the
 *         anchor (the outputs are then untouched)
 */
bool swStripedBeginCell(const NativeQueryProfile &profile,
                        const bio::Residue *subject, int query_end,
                        int subject_end,
                        const bio::GapPenalties &gaps, int score,
                        int *query_begin, int *subject_begin,
                        std::uint64_t *cells = nullptr);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_SW_STRIPED_NATIVE_HH
