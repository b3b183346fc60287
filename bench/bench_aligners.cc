/**
 * @file
 * Native-speed microbenchmarks of the aligners (google-benchmark):
 * the Section-I claim that the heuristics are an order of
 * magnitude faster than rigorous Smith-Waterman, measured on real
 * wall-clock rather than in simulation.
 *
 * Ends with an interleaved A/B of the two native kernels the
 * serving engine scans with — the striped backend
 * (sw_striped_native) and the inter-sequence backend
 * (sw_intersequence_native) — reported as GCUPS in the standard
 * JSON footer, plus a GCUPS-by-subject-length-bucket breakdown of
 * striped vs inter-sequence that justifies the serving engine's
 * kernel-selection cutover, an A/B of the native banded kernel
 * (FASTA's opt stage, BLAST's gapped stage) against its scalar
 * oracle over the same bands (gcups_banded, banded_speedup), and an
 * A/B of the 16-bit SIMD traceback rectangle fill against the
 * scalar fill over the rectangles of real top-100 Smith-Waterman
 * hits (gcups_fill, fill_speedup), and an A/B of FASTA's k-tuple
 * stages 2-4 against the branchy reference they replaced over
 * perfbench's 11 x 1000 query-subject pairs (fasta_scan_ms,
 * fasta_reference_ms, fasta_speedup), and a replay of phase 2 over
 * the same top-100 hits, in lanes against one hit at a time on the
 * striped passes, with the scan's end hints (Smith-Waterman) and
 * without (FASTA): microseconds per alignment (phase2_us_sw,
 * phase2_us_fasta, phase2_striped_us_*), the shared fill-and-walk
 * step (phase2_rect_us), locate + reverse in lanes over striped
 * (phase2_locate_ratio_*), and phase2_speedup.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>

#include "align/banded.hh"
#include "align/banded_impl.hh"
#include "align/blast.hh"
#include "align/fasta.hh"
#include "align/smith_waterman.hh"
#include "align/ssearch.hh"
#include "align/sw_intersequence_native.hh"
#include "align/sw_striped_native.hh"
#include "align/traceback/native_align.hh"
#include "bench_common.hh"
#include "bio/scoring.hh"
#include "bio/synthetic.hh"
#include "fasta_reference.hh"

namespace
{

using namespace bioarch;

const bio::ScoringMatrix &kMat = bio::blosum62();
const bio::GapPenalties kGaps{};

const bio::Sequence &
query()
{
    static const bio::Sequence q = bio::makeDefaultQuery();
    return q;
}

const bio::SequenceDatabase &
database()
{
    static const bio::SequenceDatabase db =
        bio::makeDefaultDatabase(60);
    return db;
}

void
BM_SmithWatermanScan(benchmark::State &state)
{
    std::uint64_t residues = 0;
    for (auto _ : state) {
        int best = 0;
        for (const bio::Sequence &s : database()) {
            best = std::max(
                best,
                align::smithWatermanScore(query(), s, kMat, kGaps)
                    .score);
            residues += s.length();
        }
        benchmark::DoNotOptimize(best);
    }
    state.counters["Mcells/s"] = benchmark::Counter(
        static_cast<double>(residues * query().length()) / 1e6,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SmithWatermanScan)->Unit(benchmark::kMillisecond);

void
BM_SsearchScan(benchmark::State &state)
{
    const align::QueryProfile profile(query(), kMat);
    std::uint64_t residues = 0;
    for (auto _ : state) {
        int best = 0;
        for (const bio::Sequence &s : database()) {
            best = std::max(
                best, align::ssearchScan(profile, s, kGaps).score);
            residues += s.length();
        }
        benchmark::DoNotOptimize(best);
    }
    state.counters["Mcells/s"] = benchmark::Counter(
        static_cast<double>(residues * query().length()) / 1e6,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SsearchScan)->Unit(benchmark::kMillisecond);

void
BM_FastaSearch(benchmark::State &state)
{
    for (auto _ : state) {
        const align::SearchResults res =
            align::fastaSearch(query(), database(), kMat, kGaps);
        benchmark::DoNotOptimize(res.hits.size());
    }
}
BENCHMARK(BM_FastaSearch)->Unit(benchmark::kMillisecond);

void
BM_BlastSearch(benchmark::State &state)
{
    for (auto _ : state) {
        const align::SearchResults res =
            align::blastSearch(query(), database(), kMat, kGaps);
        benchmark::DoNotOptimize(res.hits.size());
    }
}
BENCHMARK(BM_BlastSearch)->Unit(benchmark::kMillisecond);

void
BM_BlastNeighborhoodBuild(benchmark::State &state)
{
    const align::BlastParams params;
    for (auto _ : state) {
        const align::NeighborhoodIndex index(query(), kMat, params);
        benchmark::DoNotOptimize(index.numEntries());
    }
}
BENCHMARK(BM_BlastNeighborhoodBuild)->Unit(benchmark::kMillisecond);

void
BM_SwStripedNativeScan(benchmark::State &state,
                       align::SimdBackend backend)
{
    const align::NativeQueryProfile profile(query(), kMat, backend);
    std::uint64_t residues = 0;
    for (auto _ : state) {
        int best = 0;
        for (const bio::Sequence &s : database()) {
            best = std::max(
                best,
                align::swStripedNativeScan(profile, s, kGaps)
                    .score);
            residues += s.length();
        }
        benchmark::DoNotOptimize(best);
    }
    state.counters["Mcells/s"] = benchmark::Counter(
        static_cast<double>(residues * query().length()) / 1e6,
        benchmark::Counter::kIsRate);
}

/** FASTA's opt-stage band: the default half width, on diagonal 0. */
constexpr int kBandCenter = 0;
const int kBandHalfWidth = align::FastaParams{}.bandHalfWidth;

/** In-band cells of one query x subject matrix. */
std::uint64_t
bandCells(int m, int n)
{
    std::uint64_t cells = 0;
    for (int j = 0; j < n; ++j) {
        const int lo = std::max(0, j - kBandCenter - kBandHalfWidth);
        const int hi =
            std::min(m - 1, j - kBandCenter + kBandHalfWidth);
        cells += static_cast<std::uint64_t>(std::max(0, hi - lo + 1));
    }
    return cells;
}

std::uint64_t
databaseBandCells()
{
    std::uint64_t cells = 0;
    for (const bio::Sequence &s : database())
        cells += bandCells(static_cast<int>(query().length()),
                           static_cast<int>(s.length()));
    return cells;
}

/** Best banded score over the database on @p profile's backend. */
int
bandedScan(const align::BandedProfile &profile)
{
    int best = 0;
    for (const bio::Sequence &s : database())
        best = std::max(best, align::bandedSmithWaterman(
                                  profile, s, kGaps, kBandCenter,
                                  kBandHalfWidth)
                                  .score);
    return best;
}

void
BM_BandedScore(benchmark::State &state, align::SimdBackend backend)
{
    const align::BandedProfile profile(query(), kMat, backend);
    for (auto _ : state)
        benchmark::DoNotOptimize(bandedScan(profile));
    state.counters["Mcells/s"] = benchmark::Counter(
        static_cast<double>(databaseBandCells()) / 1e6,
        benchmark::Counter::kIsIterationInvariantRate);
}

/** The same bands through the scalar oracle the kernel must equal. */
int
oracleBandedScan()
{
    int best = 0;
    for (const bio::Sequence &s : database())
        best = std::max(best, align::bandedSmithWatermanScan(
                                  query(), s, kMat, kGaps,
                                  kBandCenter, kBandHalfWidth,
                                  [](int, int, int, int, int) {})
                                  .score);
    return best;
}

void
BM_BandedScoreScalarOracle(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(oracleBandedScan());
    state.counters["Mcells/s"] = benchmark::Counter(
        static_cast<double>(databaseBandCells()) / 1e6,
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BandedScoreScalarOracle)->Unit(benchmark::kMillisecond);

/** Hits per query whose rectangles the fill benchmarks replay. */
constexpr std::size_t kFillTopK = 100;

/** One traceback rectangle: the aligned query and subject spans. */
struct FillRectangle
{
    const bio::Residue *query;
    int qLen;
    const bio::Residue *subject;
    int sLen;
};

/**
 * One Table II query's top-kFillTopK Smith-Waterman hits against the
 * 1000-sequence Zipf-length database (the perfbench search_report
 * set-up), as phase 2 receives them: with the scan's end hints (the
 * SW kinds) and without (FASTA, which locates over the whole
 * subject), plus their alignments.
 */
struct Phase2Query
{
    std::unique_ptr<align::NativeQueryProfile> profile;
    std::vector<align::NativeAlignHit> sw;
    std::vector<align::NativeAlignHit> fasta;
    std::vector<align::CigarAlignment> alignments;
};

const std::vector<Phase2Query> &
phase2Queries()
{
    static const std::vector<bio::Sequence> queries =
        bio::makeQuerySet();
    static const bio::SequenceDatabase db = bio::makeZipfDatabase(1000);
    static const std::vector<Phase2Query> out = [] {
        std::vector<Phase2Query> qs;
        for (const bio::Sequence &q : queries) {
            Phase2Query pq;
            pq.profile = std::make_unique<align::NativeQueryProfile>(
                q, kMat, align::defaultScanBackend());
            std::vector<std::pair<align::LocalScore, std::size_t>> hits;
            for (std::size_t i = 0; i < db.size(); ++i)
                hits.emplace_back(
                    align::swStripedNativeScan(*pq.profile, db[i], kGaps),
                    i);
            const std::size_t k = std::min(kFillTopK, hits.size());
            std::partial_sort(hits.begin(), hits.begin() + k,
                              hits.end(), [](const auto &a,
                                             const auto &b) {
                                  return a.first.score > b.first.score;
                              });
            for (std::size_t h = 0; h < k; ++h) {
                const bio::Sequence &s = db[hits[h].second];
                pq.sw.push_back(
                    {s.residues().data(), s.length(), hits[h].first});
                pq.fasta.push_back({s.residues().data(), s.length(), {}});
                pq.alignments.push_back(align::nativeLocalAlign(
                    *pq.profile, s, kGaps, hits[h].first));
            }
            qs.push_back(std::move(pq));
        }
        return qs;
    }();
    return out;
}

/** The rectangles the serving tier fills for phase2Queries(). */
const std::vector<FillRectangle> &
fillRectangles()
{
    static const std::vector<FillRectangle> rects = [] {
        std::vector<FillRectangle> out;
        for (const Phase2Query &pq : phase2Queries()) {
            const bio::Residue *q =
                pq.profile->query().residues().data();
            for (std::size_t h = 0; h < pq.sw.size(); ++h) {
                const align::CigarAlignment &aln = pq.alignments[h];
                if (aln.empty())
                    continue;
                out.push_back({q + aln.qBegin, aln.qEnd - aln.qBegin + 1,
                               pq.sw[h].subject + aln.sBegin,
                               aln.sEnd - aln.sBegin + 1});
            }
        }
        return out;
    }();
    return rects;
}

std::uint64_t
fillCells()
{
    std::uint64_t cells = 0;
    for (const FillRectangle &r : fillRectangles())
        cells += static_cast<std::uint64_t>(r.qLen) * r.sLen;
    return cells;
}

/**
 * Fill every rectangle on @p backend (the Scalar backend runs the
 * scalar fill); returns the summed global scores.
 */
int
fillAll(align::SimdBackend backend)
{
    thread_local align::detail::RectangleFill fill;
    const align::NativeKernels *kernels = align::nativeKernels(backend);
    int sum = 0;
    for (const FillRectangle &r : fillRectangles()) {
        align::detail::fillRectangle(r.query, r.qLen, r.subject, r.sLen,
                                     kMat, kGaps, kernels, fill);
        sum += fill.score;
    }
    return sum;
}

void
BM_TracebackFill(benchmark::State &state, align::SimdBackend backend)
{
    fillRectangles(); // located once, outside the timing
    for (auto _ : state)
        benchmark::DoNotOptimize(fillAll(backend));
    state.counters["Mcells/s"] = benchmark::Counter(
        static_cast<double>(fillCells()) / 1e6,
        benchmark::Counter::kIsIterationInvariantRate);
}

void
BM_TracebackFillScalar(benchmark::State &state)
{
    BM_TracebackFill(state, align::SimdBackend::Scalar);
}
BENCHMARK(BM_TracebackFillScalar)->Unit(benchmark::kMillisecond);

/**
 * Phase 2 of every phase2Queries() hit, with (@p fasta) or without
 * FASTA's missing end hints: in lanes, as the serving engine hands
 * them out (each query's hits that fit the lanes, by their scan
 * score, in one nativeLocalAlignBatch call, and the others one at a
 * time), or every hit one at a time through nativeLocalAlign (the
 * striped passes). Returns the summed scores.
 */
int
phase2All(bool fasta, bool lanes)
{
    thread_local std::vector<align::CigarAlignment> out;
    thread_local std::vector<align::NativeAlignHit> group;
    thread_local std::vector<align::CigarAlignment> group_out;
    thread_local std::vector<std::size_t> group_at;
    int sum = 0;
    for (const Phase2Query &pq : phase2Queries()) {
        const std::vector<align::NativeAlignHit> &hits =
            fasta ? pq.fasta : pq.sw;
        out.resize(hits.size());
        group.clear();
        group_at.clear();
        for (std::size_t h = 0; h < hits.size(); ++h) {
            if (lanes
                && align::nativeAlignFitsLanes(*pq.profile, kGaps,
                                               pq.sw[h].end.score)) {
                group.push_back(hits[h]);
                group_at.push_back(h);
                continue;
            }
            out[h] = align::nativeLocalAlign(*pq.profile, hits[h].subject,
                                             hits[h].length, kGaps,
                                             hits[h].end);
        }
        group_out.resize(group.size());
        align::nativeLocalAlignBatch(*pq.profile, group.data(),
                                     group.size(), kGaps,
                                     group_out.data());
        for (std::size_t k = 0; k < group.size(); ++k)
            out[group_at[k]] = group_out[k];
        for (const align::CigarAlignment &aln : out)
            sum += aln.score;
    }
    return sum;
}

/** Step 3 alone, fill and walk, over every phase-2 rectangle. */
int
rectanglesAll()
{
    thread_local align::detail::RectangleFill fill;
    thread_local align::Cigar cigar;
    const align::NativeKernels *kernels =
        align::nativeKernels(align::defaultScanBackend());
    int sum = 0;
    for (const FillRectangle &r : fillRectangles()) {
        align::detail::fillRectangle(r.query, r.qLen, r.subject, r.sLen,
                                     kMat, kGaps, kernels, fill);
        cigar.clear();
        align::detail::walkRectangle(fill, cigar);
        sum += fill.score + static_cast<int>(cigar.size());
    }
    return sum;
}

/**
 * perfbench's query-subject pairs for the FASTA arms: the 11 Table II
 * queries, each with its k-tuple index and banded profile, against
 * the 1000-sequence Zipf-length database.
 */
struct FastaPairs
{
    std::vector<bio::Sequence> queries = bio::makeQuerySet();
    bio::SequenceDatabase db = bio::makeZipfDatabase(1000, 0xDBDBDBDB);
    std::vector<align::KtupIndex> indexes;
    std::vector<align::BandedProfile> profiles;
    /** Stages 2-4 only: the reference arm runs no opt stage. */
    align::FastaParams params;

    FastaPairs()
    {
        params.optThreshold = std::numeric_limits<int>::max();
        for (const bio::Sequence &q : queries) {
            indexes.emplace_back(q, params.ktup);
            profiles.emplace_back(q, kMat);
        }
    }
};

const FastaPairs &
fastaPairs()
{
    static const FastaPairs pairs;
    return pairs;
}

/** Summed initn of fastaScan over every pair (opt stage off). */
int
fastaScanAll()
{
    const FastaPairs &p = fastaPairs();
    int sum = 0;
    for (std::size_t q = 0; q < p.queries.size(); ++q)
        for (const bio::Sequence &s : p.db)
            sum += align::fastaScan(p.indexes[q], p.profiles[q],
                                    p.queries[q], s, kMat, kGaps,
                                    p.params)
                       .initn;
    return sum;
}

/** The same pairs through the reference stages 2-4. */
int
fastaReferenceAll()
{
    const FastaPairs &p = fastaPairs();
    int sum = 0;
    for (std::size_t q = 0; q < p.queries.size(); ++q)
        for (const bio::Sequence &s : p.db)
            sum += reference::fastaStages2to4(p.indexes[q], p.queries[q],
                                              s, kMat, p.params)
                       .initn;
    return sum;
}

void
BM_FastaScan(benchmark::State &state)
{
    fastaPairs(); // built once, outside the timing
    for (auto _ : state)
        benchmark::DoNotOptimize(fastaScanAll());
}
BENCHMARK(BM_FastaScan)->Unit(benchmark::kMillisecond);

void
BM_FastaScanReference(benchmark::State &state)
{
    fastaPairs();
    for (auto _ : state)
        benchmark::DoNotOptimize(fastaReferenceAll());
}
BENCHMARK(BM_FastaScanReference)->Unit(benchmark::kMillisecond);

/**
 * One BM_SwStripedNativeScan, BM_BandedScore and BM_TracebackFill
 * instance per runnable hardware backend. Scalar's would repeat
 * BM_SmithWatermanScan, BM_BandedScoreScalarOracle and
 * BM_TracebackFillScalar.
 */
void
registerNativeBenchmarks()
{
    for (const align::SimdBackend backend :
         align::runnableBackends()) {
        if (backend == align::SimdBackend::Scalar)
            continue;
        const std::string name(align::backendName(backend));
        benchmark::RegisterBenchmark(
            ("BM_SwStripedNativeScan/" + name).c_str(),
            BM_SwStripedNativeScan, backend)
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(("BM_BandedScore/" + name).c_str(),
                                     BM_BandedScore, backend)
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            ("BM_TracebackFill/" + name).c_str(), BM_TracebackFill,
            backend)
            ->Unit(benchmark::kMillisecond);
    }
}

/**
 * GCUPS-by-subject-length-bucket A/B of the striped vs the
 * inter-sequence kernel — the data behind the serving engine's
 * kernel-selection cutover (align::interSequenceCutover). Returns
 * a preformatted JSON object keyed by bucket label.
 */
std::string
runLengthBucketBreakdown(const align::NativeQueryProfile &profile)
{
    constexpr int rounds = 3;
    // A wider length spread than the default database — background
    // sequences only (planted homologs would all land near the
    // query lengths) — so every bucket, including the ones
    // bracketing the cutover, has subjects in it.
    static const bio::SequenceDatabase db = [] {
        bio::DatabaseSpec spec;
        spec.numSequences = 120;
        spec.minLength = 40;
        spec.maxLength = 2000;
        spec.homologsPerQuery = 0;
        spec.seed = 0xB0C4E75;
        return bio::makeDatabase(spec, bio::makeQuerySet());
    }();
    const std::size_t m = query().length();

    struct Bucket
    {
        const char *label;
        std::size_t maxLen; // exclusive upper bound
        std::vector<align::SubjectSpan> spans;
        std::vector<const bio::Sequence *> seqs;
        std::uint64_t cells = 0;
    };
    std::vector<Bucket> buckets{{"lt128", 128, {}, {}, 0},
                                {"128_255", 256, {}, {}, 0},
                                {"256_511", 512, {}, {}, 0},
                                {"ge512",
                                 std::numeric_limits<
                                     std::size_t>::max(),
                                 {}, {}, 0}};
    for (const bio::Sequence &s : db) {
        for (Bucket &b : buckets) {
            if (s.length() < b.maxLen) {
                b.spans.push_back(align::SubjectSpan{
                    s.residues().data(), s.length()});
                b.seqs.push_back(&s);
                b.cells += static_cast<std::uint64_t>(s.length())
                    * m;
                break;
            }
        }
    }

    using Clock = std::chrono::steady_clock;
    auto time_ms = [](auto &&scan) {
        const Clock::time_point t0 = Clock::now();
        int best = 0;
        scan(best);
        benchmark::DoNotOptimize(best);
        return std::chrono::duration<double, std::milli>(
                   Clock::now() - t0)
            .count();
    };

    std::string json = "{";
    bool first = true;
    for (Bucket &b : buckets) {
        if (b.spans.empty())
            continue;
        std::vector<align::LocalScore> out(b.spans.size());
        double striped_ms =
            std::numeric_limits<double>::infinity();
        double inter_ms = std::numeric_limits<double>::infinity();
        for (int r = 0; r < rounds; ++r) {
            striped_ms = std::min(striped_ms, time_ms([&](int &x) {
                for (const bio::Sequence *s : b.seqs)
                    x = std::max(
                        x,
                        align::swStripedNativeScan(profile, *s,
                                                   kGaps)
                            .score);
            }));
            inter_ms = std::min(inter_ms, time_ms([&](int &x) {
                align::swInterSequenceScan(profile,
                                           b.spans.data(),
                                           b.spans.size(), kGaps,
                                           out.data());
                for (const align::LocalScore &h : out)
                    x = std::max(x, h.score);
            }));
        }
        const auto gcups = [&b](double ms) {
            return ms <= 0.0
                ? 0.0
                : static_cast<double>(b.cells) / (ms * 1e6);
        };
        std::cout << "#   length " << b.label << ": "
                  << b.spans.size() << " subjects, striped "
                  << gcups(striped_ms) << " GCUPS / inter-seq "
                  << gcups(inter_ms) << " GCUPS\n";
        json += std::string(first ? "" : ",") + "\"" + b.label
            + "\":{\"subjects\":" + std::to_string(b.spans.size())
            + ",\"cells\":" + std::to_string(b.cells)
            + ",\"gcups_striped\":"
            + std::to_string(gcups(striped_ms))
            + ",\"gcups_intersequence\":"
            + std::to_string(gcups(inter_ms)) + "}";
        first = false;
    }
    json += "}";
    return json;
}

/**
 * Interleaved A/B rounds of the native striped vs native
 * inter-sequence database scan, single-threaded, per-arm minimum
 * over the rounds, GCUPS = DP cells / wall-ns. Interleaving
 * (striped, inter-seq, striped, ...) means thermal or scheduler
 * drift hits both arms equally.
 */
void
runNativeGcups()
{
    constexpr int rounds = 5;
    const bio::Sequence &q = query();
    const bio::SequenceDatabase &db = database();
    const std::uint64_t cells = db.totalResidues() * q.length();

    const align::SimdBackend backend = align::defaultScanBackend();
    const align::NativeQueryProfile native_profile(q, kMat,
                                                   backend);

    std::vector<align::SubjectSpan> spans;
    spans.reserve(db.size());
    for (const bio::Sequence &s : db)
        spans.push_back(
            align::SubjectSpan{s.residues().data(), s.length()});
    std::vector<align::LocalScore> inter_out(spans.size());

    using Clock = std::chrono::steady_clock;
    auto time_ms = [](auto &&scan_all) {
        const Clock::time_point t0 = Clock::now();
        int best = 0;
        scan_all(best);
        benchmark::DoNotOptimize(best);
        return std::chrono::duration<double, std::milli>(
                   Clock::now() - t0)
            .count();
    };
    auto native_scan = [&](int &best) {
        for (const bio::Sequence &s : db)
            best = std::max(
                best,
                align::swStripedNativeScan(native_profile, s, kGaps)
                    .score);
    };
    auto inter_scan = [&](int &best) {
        align::swInterSequenceScan(native_profile, spans.data(),
                                   spans.size(), kGaps,
                                   inter_out.data());
        for (const align::LocalScore &h : inter_out)
            best = std::max(best, h.score);
    };

    double native_ms = std::numeric_limits<double>::infinity();
    double inter_ms = std::numeric_limits<double>::infinity();
    std::vector<double> point_ms;
    double wall_ms = 0.0;
    for (int r = 0; r < rounds; ++r) {
        const double n = time_ms(native_scan);
        const double i = time_ms(inter_scan);
        native_ms = std::min(native_ms, n);
        inter_ms = std::min(inter_ms, i);
        point_ms.push_back(n);
        point_ms.push_back(i);
        wall_ms += n + i;
    }

    // The banded kernel vs its scalar oracle over the same bands,
    // interleaved the same way; each timing sweeps the database
    // bandReps times so the kernel arm runs for milliseconds.
    constexpr int bandReps = 10;
    const align::BandedProfile band_profile(q, kMat, backend);
    auto banded_scan = [&](int &best) {
        for (int r = 0; r < bandReps; ++r)
            best = std::max(best, bandedScan(band_profile));
    };
    auto oracle_scan = [&](int &best) {
        for (int r = 0; r < bandReps; ++r)
            best = std::max(best, oracleBandedScan());
    };
    double banded_ms = std::numeric_limits<double>::infinity();
    double oracle_ms = std::numeric_limits<double>::infinity();
    for (int r = 0; r < rounds; ++r) {
        banded_ms = std::min(banded_ms, time_ms(banded_scan));
        oracle_ms = std::min(oracle_ms, time_ms(oracle_scan));
    }
    const std::uint64_t band_cells = databaseBandCells() * bandReps;

    // The rectangle fill vs the scalar fill, interleaved the same way.
    double fill_ms = std::numeric_limits<double>::infinity();
    double fill_scalar_ms = std::numeric_limits<double>::infinity();
    for (int r = 0; r < rounds; ++r) {
        fill_ms = std::min(fill_ms, time_ms([&](int &sum) {
                               sum += fillAll(backend);
                           }));
        fill_scalar_ms = std::min(fill_scalar_ms, time_ms([](int &sum) {
                                      sum += fillAll(
                                          align::SimdBackend::Scalar);
                                  }));
    }
    const std::uint64_t fill_cells = fillCells();

    // FASTA stages 2-4 vs the reference, interleaved the same way.
    fastaPairs();
    double fasta_ms = std::numeric_limits<double>::infinity();
    double fasta_ref_ms = std::numeric_limits<double>::infinity();
    for (int r = 0; r < rounds; ++r) {
        fasta_ms = std::min(fasta_ms, time_ms([](int &sum) {
                                sum += fastaScanAll();
                            }));
        fasta_ref_ms = std::min(fasta_ref_ms, time_ms([](int &sum) {
                                    sum += fastaReferenceAll();
                                }));
    }

    // Phase 2 in lanes vs one hit at a time on the striped passes,
    // Smith-Waterman (end hints) and FASTA (none), interleaved; the
    // fill-and-walk arm is the step both share.
    phase2Queries();
    double p2_ms[2][2];
    for (auto &arm : p2_ms)
        arm[0] = arm[1] = std::numeric_limits<double>::infinity();
    double rect_ms = std::numeric_limits<double>::infinity();
    for (int r = 0; r < rounds; ++r) {
        for (const bool fasta : {false, true})
            for (const bool lanes : {true, false})
                p2_ms[fasta][lanes] =
                    std::min(p2_ms[fasta][lanes], time_ms([&](int &sum) {
                                 sum += phase2All(fasta, lanes);
                             }));
        rect_ms = std::min(rect_ms, time_ms([](int &sum) {
                               sum += rectanglesAll();
                           }));
    }
    double p2_hits = 0.0;
    for (const Phase2Query &pq : phase2Queries())
        p2_hits += static_cast<double>(pq.sw.size());
    const auto us_per_hit = [&](double ms) { return 1e3 * ms / p2_hits; };
    // Locate + reverse alone: phase 2 minus the shared step 3.
    const auto locate_ratio = [&](bool fasta) {
        return (p2_ms[fasta][1] - rect_ms) / (p2_ms[fasta][0] - rect_ms);
    };

    const auto gcups_of = [](std::uint64_t n, double ms) {
        return ms <= 0.0 ? 0.0 : static_cast<double>(n) / (ms * 1e6);
    };
    const auto gcups = [&](double ms) { return gcups_of(cells, ms); };
    std::cout << "# native striped vs inter-sequence scan ("
              << align::backendName(backend) << "), " << rounds
              << " interleaved rounds, per-arm min: striped "
              << native_ms << " ms / inter-seq " << inter_ms
              << " ms\n";
    std::cout << "# banded kernel vs scalar oracle, half width "
              << kBandHalfWidth << ", per-arm min: kernel "
              << banded_ms << " ms / oracle " << oracle_ms << " ms ("
              << gcups_of(band_cells, banded_ms) << " vs "
              << gcups_of(band_cells, oracle_ms) << " GCUPS)\n";
    std::cout << "# rectangle fill vs scalar fill, "
              << fillRectangles().size() << " top-" << kFillTopK
              << " Smith-Waterman rectangles, per-arm min: kernel "
              << fill_ms << " ms / scalar " << fill_scalar_ms << " ms\n";
    std::cout << "# FASTA stages 2-4 vs reference, "
              << fastaPairs().queries.size() << " x "
              << fastaPairs().db.size()
              << " pairs, per-arm min: fastaScan " << fasta_ms
              << " ms / reference " << fasta_ref_ms << " ms\n";
    std::cout << "# phase 2, " << p2_hits
              << " top-" << kFillTopK
              << " hits, per-arm min us/alignment: SW lanes "
              << us_per_hit(p2_ms[0][1]) << " / striped "
              << us_per_hit(p2_ms[0][0]) << ", FASTA lanes "
              << us_per_hit(p2_ms[1][1]) << " / striped "
              << us_per_hit(p2_ms[1][0]) << ", fill+walk "
              << us_per_hit(rect_ms) << "\n";
    const std::string buckets =
        runLengthBucketBreakdown(native_profile);
    bench::printJsonFooter(
        "bench_aligners", 1, point_ms.size(), wall_ms, wall_ms,
        {{"cells", std::to_string(cells)},
         {"native_ms", std::to_string(native_ms)},
         {"interseq_ms", std::to_string(inter_ms)},
         {"gcups_native", std::to_string(gcups(native_ms))},
         {"gcups_intersequence", std::to_string(gcups(inter_ms))},
         {"interseq_speedup_vs_striped",
          std::to_string(native_ms / inter_ms)},
         {"interseq_cutover",
          std::to_string(align::interSequenceCutover())},
         {"gcups_by_subject_length", buckets},
         {"banded_cells", std::to_string(band_cells)},
         {"banded_ms", std::to_string(banded_ms)},
         {"banded_oracle_ms", std::to_string(oracle_ms)},
         {"gcups_banded", std::to_string(gcups_of(band_cells, banded_ms))},
         {"gcups_banded_oracle",
          std::to_string(gcups_of(band_cells, oracle_ms))},
         {"banded_speedup", std::to_string(oracle_ms / banded_ms)},
         {"fill_cells", std::to_string(fill_cells)},
         {"gcups_fill", std::to_string(gcups_of(fill_cells, fill_ms))},
         {"gcups_fill_scalar",
          std::to_string(gcups_of(fill_cells, fill_scalar_ms))},
         {"fill_speedup", std::to_string(fill_scalar_ms / fill_ms)},
         {"fasta_scan_ms", std::to_string(fasta_ms)},
         {"fasta_reference_ms", std::to_string(fasta_ref_ms)},
         {"fasta_speedup", std::to_string(fasta_ref_ms / fasta_ms)},
         {"phase2_us_sw", std::to_string(us_per_hit(p2_ms[0][1]))},
         {"phase2_us_fasta", std::to_string(us_per_hit(p2_ms[1][1]))},
         {"phase2_striped_us_sw",
          std::to_string(us_per_hit(p2_ms[0][0]))},
         {"phase2_striped_us_fasta",
          std::to_string(us_per_hit(p2_ms[1][0]))},
         {"phase2_rect_us", std::to_string(us_per_hit(rect_ms))},
         {"phase2_locate_ratio_sw", std::to_string(locate_ratio(false))},
         {"phase2_locate_ratio_fasta", std::to_string(locate_ratio(true))},
         {"phase2_speedup",
          std::to_string((p2_ms[0][0] + p2_ms[1][0])
                         / (p2_ms[0][1] + p2_ms[1][1]))},
         {"native_backend",
          "\"" + std::string(align::backendName(backend)) + "\""}},
        point_ms);
}

} // namespace

int
main(int argc, char **argv)
{
    registerNativeBenchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    runNativeGcups();
    return 0;
}
