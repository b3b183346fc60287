/**
 * @file
 * Query-serving request/response types, the per-request prepared
 * query state, and the deterministic synthetic request stream the
 * load generator replays.
 *
 * A request names one of the paper's five database-search
 * applications (Table I) and carries the query sequence to search;
 * the response is the ranked top-K hit list plus the work and
 * latency accounting for that request.
 */

#ifndef BIOARCH_SERVE_REQUEST_HH
#define BIOARCH_SERVE_REQUEST_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "align/blast.hh"
#include "align/blastn.hh"
#include "align/fasta.hh"
#include "align/sw_intersequence_native.hh"
#include "align/sw_striped_native.hh"
#include "align/types.hh"
#include "bio/database.hh"
#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "kernels/workload.hh"

namespace bioarch::serve
{

/** One alignment query submitted to the serving engine. */
struct Request
{
    std::uint64_t id = 0;
    /** Which application scans the database for this request. */
    kernels::Workload kind = kernels::Workload::Ssearch34;
    bio::Sequence query;
    /** Hits wanted; 0 falls back to the engine's configured top-K. */
    std::size_t topK = 0;
    /**
     * Tenant the request is billed to. Admission charges this
     * tenant's token bucket and dequeue is weighted-fair across
     * tenants (serve/loop.hh); tenants absent from the loop's
     * quota table get the default (unlimited) quota, so
     * single-tenant callers can ignore the field entirely.
     */
    std::uint32_t tenant = 0;
    /**
     * Two-phase serving switch: when set, the engine follows the
     * ranked score scan (phase 1, untouched) with a traceback pass
     * (phase 2) that emits a CIGAR alignment for each surviving
     * top-K hit. Ranked hits are bit-identical either way —
     * reporting only adds Response::alignments.
     */
    bool reportAlignments = false;
};

/** Ranked answer to one Request. */
struct Response
{
    std::uint64_t id = 0;
    kernels::Workload kind = kernels::Workload::Ssearch34;
    /** Top-K hits, ranked by (score desc, db index asc). */
    std::vector<align::SearchHit> hits;
    std::uint64_t cellsComputed = 0;
    std::uint64_t sequencesSearched = 0;
    /**
     * Residues aligned against across all shards: the whole
     * database on a full scan, only the index candidates on the
     * indexed route (how the serving tier proves its <= 20%
     * scanned-residue budget).
     */
    std::uint64_t residuesScanned = 0;
    /** Wall time of the batch that served the request (us). */
    double serviceUs = 0.0;
    /** Serial-equivalent scan work of this request's shards (us). */
    double scanUs = 0.0;
    /**
     * Shard scans cancelled because the request's deadline had
     * expired (see serve::BatchControl). Non-zero means the hit
     * list is partial: the serving loop reports such responses
     * with a Deadline status.
     */
    std::uint64_t shardsSkipped = 0;
    /**
     * True when the ranked hits came out of the engine's result
     * cache (EngineConfig::cache) instead of a database scan. The
     * hits are bit-identical either way (the cache stores full
     * scan results, keyed by epoch); the flag only explains the
     * microsecond-scale serviceUs.
     */
    bool fromCache = false;
    /**
     * Phase-2 alignments, index-aligned with hits. Empty unless
     * the request set reportAlignments; an element may itself be
     * empty when its traceback was deadline-skipped (counted in
     * tracebacksSkipped).
     */
    std::vector<align::CigarAlignment> alignments;
    /** DP cells evaluated by the traceback phase. */
    std::uint64_t tracebackCells = 0;
    /** Serial-equivalent traceback work of this request (us). */
    double tracebackUs = 0.0;
    /** Tracebacks cancelled because the deadline had expired. */
    std::uint64_t tracebacksSkipped = 0;

    /** True when any shard scan or traceback was
     * deadline-cancelled (the response is partial). */
    bool
    deadlineExpired() const
    {
        return shardsSkipped > 0 || tracebacksSkipped > 0;
    }
};

/**
 * The query state an application builds once per request and then
 * shares, read-only, across every shard scan and traceback: the
 * native striped profile (all Smith-Waterman kinds), FASTA's
 * k-tuple index and banded opt-stage profile (plus the native
 * profile when reporting), or BLAST's neighborhood word index.
 *
 * References the request's query sequence (and the scoring matrix);
 * both must outlive the prepared query.
 */
class PreparedQuery
{
  public:
    /**
     * @param backend native kernel backend for the Smith-Waterman
     *        kinds (ssearch34 / sw_vmx*), whose scans all go
     *        through the striped native kernel, for FASTA's banded
     *        opt stage, and for a reporting FASTA request's
     *        traceback. BLAST's gapped stage uses the best native
     *        backend.
     */
    PreparedQuery(const Request &request,
                  const bio::ScoringMatrix &matrix,
                  const bio::GapPenalties &gaps,
                  const align::FastaParams &fasta,
                  const align::BlastParams &blast,
                  align::SimdBackend backend =
                      align::defaultScanBackend(),
                  const align::BlastnParams &blastn = {});

    kernels::Workload kind() const { return _kind; }
    const bio::Sequence &query() const { return *_query; }

    /** True for the Smith-Waterman kinds, whose scans go through
     * the native striped kernel. */
    bool
    usesNativeScan() const
    {
        return _native != nullptr
            && _kind != kernels::Workload::Fasta34;
    }

    /**
     * BLAST's query-side neighborhood word index (nullptr for
     * every other kind) — the query half the seed-index probe
     * joins against (index/seed_index.hh).
     */
    const align::NeighborhoodIndex *neighborhoodIndex() const
    {
        return _neighborhood.get();
    }

    /** The BLAST parameters this query was prepared with. */
    const align::BlastParams &blastParams() const
    {
        return _blast;
    }

    /**
     * Scan one subject sequence. The reported score matches what
     * the corresponding *Search driver ranks by (SW score for the
     * Smith-Waterman kinds, max(opt, initn) for FASTA, the gapped
     * score for BLAST); the heuristics leave the end coordinates
     * at -1, as their drivers do.
     *
     * @param[out] stats optional native overflow-ladder accounting
     *        (u8 scans / i16 / scalar rescans); untouched on the
     *        heuristic paths
     */
    align::LocalScore
    scan(const bio::Sequence &subject, std::uint64_t *cells,
         align::NativeScanStats *stats = nullptr) const;

    /**
     * Scan @p n residues in contiguous storage (the database's
     * packed arena). Only valid when usesNativeScan().
     */
    align::LocalScore
    scanPacked(const bio::Residue *subject, std::size_t n,
               std::uint64_t *cells,
               align::NativeScanStats *stats = nullptr) const;

    /**
     * Scan a whole batch of packed-arena subjects with the
     * inter-sequence kernel (one subject per SIMD lane), writing
     * one LocalScore per subject in the caller's order. Results are
     * bit-identical to scanPacked per subject — the shard scan
     * routes short subjects here and long ones through scanPacked
     * purely as a throughput decision. Only valid when
     * usesNativeScan().
     */
    void
    scanPackedBatch(const align::SubjectSpan *subjects,
                    std::size_t count, align::LocalScore *out,
                    std::uint64_t *cells,
                    align::NativeScanStats *stats = nullptr) const;

    /**
     * Whether traceback() locates @p hit in the lanes of the
     * anchored inter-sequence kernel when it shares the call with
     * other such hits (align::nativeAlignFitsLanes): false for the
     * kinds without a native profile (BLAST, BLASTN), on the Scalar
     * backend, and for a hit whose score clips the 8-bit lanes.
     * Phase 4 traces those hits one per task.
     */
    bool tracesInLanes(const align::SearchHit &hit) const;

    /** Lanes of the kernel tracesInLanes() hits share, or 0. */
    std::size_t tracebackLanes() const;

    /**
     * Phase-2 traceback of @p count ranked hits into @p out: the
     * CIGAR alignment behind each hit, its subject db[dbIndex]. The
     * Smith-Waterman kinds and FASTA run
     * align::nativeLocalAlignBatch, which locates each alignment's
     * rectangle in the lanes of the anchored inter-sequence kernel,
     * one hit per lane (tracesInLanes(); a lone hit and the hits
     * that clip the lanes take the striped passes), and traces only
     * that rectangle. The SW
     * kinds hand it the scan's score and end column, so a lane
     * reads only that prefix; the score stays bit-identical to the
     * ranked SW score. FASTA ranks by the heuristic
     * max(opt, initn) but reports the optimal local alignment,
     * located over the whole subject, so its alignment score may
     * exceed the ranked score. BLAST and BLASTN rerun their word
     * scan and trace the banded gapped extension over the scan's
     * window and band (score bit-identical to their ranked gapped
     * score). Every CIGAR replays to exactly the alignment's own
     * score, and no alignment depends on how the hits were
     * grouped. Memory is bounded: at most
     * align::tracebackCodeBudget direction codes per worker,
     * linear space beyond.
     *
     * FASTA needs the profile built only for reporting requests
     * (Request::reportAlignments); tracing a score-only FASTA
     * query throws std::logic_error.
     *
     * @param[out] stats optional work of all @p count hits
     */
    void traceback(const bio::SequenceDatabase &db,
                   const align::SearchHit *hits, std::size_t count,
                   align::CigarAlignment *out,
                   align::TracebackStats *stats = nullptr) const;

  private:
    kernels::Workload _kind;
    const bio::Sequence *_query;
    const bio::ScoringMatrix *_matrix;
    bio::GapPenalties _gaps;
    align::FastaParams _fasta;
    align::BlastParams _blast;
    align::BlastnParams _blastn;

    // One of these is built, depending on _kind (FASTA builds its
    // k-tuple index and banded profile, plus _native for a reporting
    // request, whose traceback locates with it).
    std::unique_ptr<align::NativeQueryProfile> _native;
    std::unique_ptr<align::KtupIndex> _ktup;
    std::unique_ptr<align::BandedProfile> _banded;
    std::unique_ptr<align::NeighborhoodIndex> _neighborhood;
    // Blastn: the query re-packed to 2 bits plus its word index.
    std::unique_ptr<bio::PackedDna> _dnaQuery;
    std::unique_ptr<align::DnaWordIndex> _dnaIndex;
};

/** Knobs of the deterministic synthetic request stream. */
struct StreamSpec
{
    std::size_t requests = 64;
    /** Per-request top-K (0 = engine default). */
    std::size_t topK = 0;
    /** Ask for phase-2 CIGAR reporting on every request. Does not
     * consume RNG draws, so the (kind, query) stream is identical
     * with reporting on or off. */
    bool reportAlignments = false;
    /** RNG seed; fixed default for reproducible replays. */
    std::uint64_t seed = 0x5EedF00d;
    /** Application mix; each request draws uniformly from these. */
    std::vector<kernels::Workload> kinds = {
        kernels::Workload::Ssearch34, kernels::Workload::SwVmx128,
        kernels::Workload::SwVmx256, kernels::Workload::Fasta34,
        kernels::Workload::Blast};
};

/**
 * Build a deterministic request stream: request i draws its query
 * from @p query_pool and its application from spec.kinds, both via
 * a bio::Rng seeded with spec.seed (same spec + pool => identical
 * stream on every platform).
 */
std::vector<Request>
makeRequestStream(const StreamSpec &spec,
                  const std::vector<bio::Sequence> &query_pool);

} // namespace bioarch::serve

#endif // BIOARCH_SERVE_REQUEST_HH
