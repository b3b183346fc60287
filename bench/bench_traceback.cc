/**
 * @file
 * Traceback-tier harness: the cells/sec of the two reporting
 * kernels — the native locate-then-trace local traceback
 * (align/traceback/native_align.hh: striped locate and anchored
 * reverse passes, then a direction-code fill of the alignment's
 * rectangle) and the banded X-drop gapped extension with its
 * per-cell direction bytes — followed by the end-to-end cost of
 * the serving tier's phase 2 (score -> align -> report) at
 * top-K 10 and 100 on the reference Zipf workload. The native
 * arm's cells count all three passes, and it builds one profile
 * per query on the default backend, as the serving tier does.
 *
 * Every alignment produced here is replayed through the
 * cigarScore() oracle; a CIGAR that does not reproduce its
 * reported score fails the run (exit 1), so the numbers can never
 * come from a kernel that quietly mis-traces.
 *
 * Knobs: BIOARCH_JOBS (engine workers), BIOARCH_DB_SEQS (serving
 * database size, default 200).
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <vector>

#include "align/traceback/banded_extend.hh"
#include "align/traceback/cigar.hh"
#include "align/traceback/native_align.hh"
#include "bench_common.hh"
#include "bio/random.hh"
#include "bio/synthetic.hh"
#include "serve/engine.hh"

using namespace bioarch;

namespace
{

int
envInt(const char *name, int fallback)
{
    if (const char *env = std::getenv(name)) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    return fallback;
}

double
wallMsOf(const auto &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main()
{
    bench::banner(
        "bench_traceback - alignment reporting kernels",
        "native locate-then-trace CIGAR traceback vs the banded "
        "X-drop extension, then the serving tier's two-phase "
        "(score -> align -> report) overhead");

    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;

    // Homologous pairs (query + mutated copy) so both kernels
    // trace realistic alignments rather than noise.
    bio::Rng rng(0x7BACEBACull);
    struct Pair
    {
        bio::Sequence q;
        bio::Sequence s;
    };
    std::vector<Pair> pairs;
    for (int i = 0; i < 24; ++i) {
        const std::size_t len =
            300 + static_cast<std::size_t>(rng.below(500));
        bio::Sequence q = bio::makeRandomSequence(
            rng, static_cast<int>(len),
            "q" + std::to_string(i));
        bio::Sequence s = bio::mutate(rng, q, 0.85,
                                      "s" + std::to_string(i), "");
        pairs.push_back({std::move(q), std::move(s)});
    }

    bool cigars_ok = true;
    const auto check = [&](const align::CigarAlignment &aln,
                           const Pair &p) {
        if (aln.empty())
            return;
        try {
            if (align::cigarScore(aln, p.q, p.s, matrix, gaps)
                != aln.score)
                cigars_ok = false;
        } catch (const std::exception &) {
            cigars_ok = false;
        }
    };

    // Arm 1: the native local traceback with no end known, as
    // FASTA reports (best-of-3).
    constexpr int rounds = 3;
    align::TracebackStats nstats;
    double native_ms = std::numeric_limits<double>::infinity();
    for (int r = 0; r < rounds; ++r) {
        align::TracebackStats stats;
        const double ms = wallMsOf([&] {
            for (const Pair &p : pairs) {
                const align::NativeQueryProfile profile(
                    p.q, matrix, align::defaultScanBackend());
                const align::CigarAlignment aln =
                    align::nativeLocalAlign(profile, p.s, gaps, {},
                                            &stats);
                if (r == 0)
                    check(aln, p);
            }
        });
        if (ms < native_ms) {
            native_ms = ms;
            nstats = stats;
        }
    }

    // Arm 2: banded X-drop extension over the same pairs (the
    // homolog sits near the main diagonal, so a centered band
    // covers it).
    align::TracebackStats bstats;
    double banded_ms = std::numeric_limits<double>::infinity();
    for (int r = 0; r < rounds; ++r) {
        align::TracebackStats stats;
        const double ms = wallMsOf([&] {
            for (const Pair &p : pairs) {
                const align::CigarAlignment aln =
                    align::bandedExtendAlign(p.q, p.s, matrix,
                                             gaps, 0, 32, 25,
                                             &stats);
                if (r == 0)
                    check(aln, p);
            }
        });
        if (ms < banded_ms) {
            banded_ms = ms;
            bstats = stats;
        }
    }

    const auto mcups = [](std::uint64_t cells, double ms) {
        return ms <= 0.0
            ? 0.0
            : static_cast<double>(cells) / (ms * 1e3);
    };

    // Phase-2 cost at top-K 10 and 100: the reference Zipf
    // workload score-only vs reporting, interleaved best-of-3.
    const int db_seqs = envInt("BIOARCH_DB_SEQS", 200);
    const bio::SequenceDatabase db =
        bio::makeZipfDatabase(db_seqs);
    serve::StreamSpec stream;
    stream.requests = 32;
    const std::vector<serve::Request> score_requests =
        serve::makeRequestStream(stream, bio::makeQuerySet());
    std::vector<serve::Request> report_requests = score_requests;
    for (serve::Request &r : report_requests)
        r.reportAlignments = true;

    struct PhaseCost
    {
        std::size_t topK;
        double scoreMs;
        double reportMs;
        std::uint64_t tracebackCells;
        double overheadPct() const
        {
            return scoreMs <= 0.0
                ? 0.0
                : 100.0 * (reportMs - scoreMs) / scoreMs;
        }
    };
    std::vector<PhaseCost> costs;
    for (const std::size_t top_k : {10u, 100u}) {
        serve::EngineConfig cfg;
        cfg.jobs = bench::jobs();
        cfg.topK = top_k;
        serve::Engine score_engine(db, cfg);
        serve::Engine report_engine(db, cfg);
        PhaseCost cost{top_k,
                       std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::infinity(),
                       0};
        for (int r = 0; r < rounds; ++r) {
            std::vector<serve::Response> out;
            cost.scoreMs = std::min(
                cost.scoreMs, wallMsOf([&] {
                    out = score_engine.serveBatch(score_requests);
                }));
            cost.reportMs = std::min(
                cost.reportMs, wallMsOf([&] {
                    out = report_engine.serveBatch(
                        report_requests);
                }));
            if (r == 0) {
                cost.tracebackCells = 0;
                for (const serve::Response &resp : out)
                    cost.tracebackCells += resp.tracebackCells;
            }
        }
        costs.push_back(cost);
    }

    core::Table t({"metric", "value"});
    t.row().add("pairs").add(
        static_cast<std::uint64_t>(pairs.size()));
    t.row().add("native ms").add(native_ms, 2);
    t.row().add("native cells").add(nstats.totalCells);
    t.row().add("native mcups").add(
        mcups(nstats.totalCells, native_ms), 1);
    t.row().add("native peak cells").add(nstats.peakCells);
    t.row().add("banded ms").add(banded_ms, 2);
    t.row().add("banded cells").add(bstats.totalCells);
    t.row().add("banded mcups").add(
        mcups(bstats.totalCells, banded_ms), 1);
    for (const PhaseCost &c : costs) {
        const std::string k = std::to_string(c.topK);
        t.row().add("topK=" + k + " score-only ms")
            .add(c.scoreMs, 2);
        t.row().add("topK=" + k + " reporting ms")
            .add(c.reportMs, 2);
        t.row().add("topK=" + k + " overhead %")
            .add(c.overheadPct(), 1);
        t.row().add("topK=" + k + " traceback cells")
            .add(c.tracebackCells);
    }
    t.row().add("cigars replay ok").add(
        std::string(cigars_ok ? "yes" : "NO"));
    t.print(std::cout);
    if (!cigars_ok)
        std::cerr << "FAIL: a CIGAR did not replay to its "
                     "reported score\n";

    std::vector<double> point_ms = {native_ms, banded_ms};
    bench::printJsonFooter(
        "bench_traceback", bench::jobs(), pairs.size(),
        native_ms + banded_ms, native_ms + banded_ms,
        {{"native_ms", std::to_string(native_ms)},
         {"native_cells", std::to_string(nstats.totalCells)},
         {"native_mcups",
          std::to_string(mcups(nstats.totalCells, native_ms))},
         {"native_peak_cells", std::to_string(nstats.peakCells)},
         {"banded_ms", std::to_string(banded_ms)},
         {"banded_cells", std::to_string(bstats.totalCells)},
         {"banded_mcups",
          std::to_string(mcups(bstats.totalCells, banded_ms))},
         {"topk10_score_ms", std::to_string(costs[0].scoreMs)},
         {"topk10_report_ms", std::to_string(costs[0].reportMs)},
         {"topk10_overhead_pct",
          std::to_string(costs[0].overheadPct())},
         {"topk100_score_ms", std::to_string(costs[1].scoreMs)},
         {"topk100_report_ms",
          std::to_string(costs[1].reportMs)},
         {"topk100_overhead_pct",
          std::to_string(costs[1].overheadPct())},
         {"cigars_ok", cigars_ok ? "true" : "false"}},
        point_ms);
    return cigars_ok ? 0 : 1;
}
