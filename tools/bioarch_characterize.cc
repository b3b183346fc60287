/**
 * @file
 * bioarch-characterize: command-line front end to the whole stack.
 *
 * Examples:
 *   bioarch-characterize --workload blast
 *   bioarch-characterize --workload sw_vmx128 --width 8 \
 *       --memory meinf --bpred perfect --db-seqs 24
 *   bioarch-characterize --workload fasta34 --save-trace f.trc
 *   bioarch-characterize --trace f.trc --width 16 --csv
 *
 * Prints the characterization the paper reports per application:
 * instruction mix, IPC, cache and branch statistics, and the top
 * stall reasons. With --sweep it instead fans the full
 * width x memory x predictor cross out over --jobs threads and
 * prints one row per design point plus the sweep's throughput.
 */

#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/report.hh"
#include "core/suite.hh"
#include "core/sweep.hh"
#include "sim/sample.hh"
#include "trace/trace_io.hh"

using namespace bioarch;

namespace
{

void
usage(std::ostream &out)
{
    out << "usage: bioarch-characterize [options]\n"
           "\n"
           "workload selection (one of):\n"
           "  --workload NAME   ssearch34 | sw_vmx128 | sw_vmx256 |\n"
           "                    fasta34 | blast\n"
           "  --trace FILE      simulate a saved trace file\n"
           "\n"
           "working set (with --workload):\n"
           "  --db-seqs N       database sequences (default 8)\n"
           "  --query ACC       query accession (default P14942)\n"
           "  --save-trace FILE write the generated trace and exit\n"
           "\n"
           "machine:\n"
           "  --width W         4 | 8 | 16 (default 4)\n"
           "  --memory M        me1 | me2 | me3 | me4 | meinf\n"
           "  --bpred P         bimodal | gshare | gp | perfect\n"
           "\n"
           "sampled simulation (any flag enables sampling):\n"
           "  --sample-window N measured instructions per window\n"
           "                    (default 20000)\n"
           "  --sample-period N distance between window starts\n"
           "                    (default 250000; >= window)\n"
           "\n"
           "design-space sweep:\n"
           "  --sweep           simulate the full width x memory x\n"
           "                    predictor cross (for --workload, or\n"
           "                    all five applications) in parallel\n"
           "  --jobs N          worker threads for --sweep (default:\n"
           "                    BIOARCH_JOBS, else all hardware\n"
           "                    threads)\n"
           "\n"
           "output:\n"
           "  --csv             machine-readable output\n"
           "  --help            this text\n";
}

std::optional<kernels::Workload>
parseWorkload(const std::string &name)
{
    for (const kernels::Workload w : kernels::allWorkloads) {
        std::string n(kernels::workloadName(w));
        for (char &c : n)
            c = static_cast<char>(std::tolower(c));
        if (n == name)
            return w;
    }
    return std::nullopt;
}

std::optional<sim::MemoryConfig>
parseMemory(const std::string &name)
{
    for (const sim::MemoryConfig &m : core::memorySweep())
        if (m.name == name)
            return m;
    return std::nullopt;
}

std::optional<sim::PredictorKind>
parsePredictor(const std::string &name)
{
    if (name == "bimodal")
        return sim::PredictorKind::Bimodal;
    if (name == "gshare")
        return sim::PredictorKind::Gshare;
    if (name == "gp" || name == "combined")
        return sim::PredictorKind::Combined;
    if (name == "perfect")
        return sim::PredictorKind::Perfect;
    return std::nullopt;
}

/**
 * --sweep: the paper's whole design space in one invocation. One
 * row per (workload, width, memory, predictor) point, simulated
 * across @p jobs threads, plus the throughput summary.
 */
int
runFullSweep(const std::optional<kernels::Workload> &only,
             const kernels::TraceSpec &spec, unsigned jobs,
             bool csv,
             const std::optional<sim::SampleConfig> &sample)
{
    core::WorkloadSuite suite(spec);

    std::vector<kernels::Workload> apps;
    if (only)
        apps.push_back(*only);
    else
        apps.assign(std::begin(kernels::allWorkloads),
                    std::end(kernels::allWorkloads));

    const sim::PredictorKind kinds[] = {
        sim::PredictorKind::Bimodal, sim::PredictorKind::Gshare,
        sim::PredictorKind::Combined, sim::PredictorKind::Perfect};

    std::vector<core::SweepPoint> points;
    for (const kernels::Workload w : apps)
        for (const sim::CoreConfig &core_cfg : core::coreSweep())
            for (const sim::MemoryConfig &mem : core::memorySweep())
                for (const sim::PredictorKind kind : kinds) {
                    core::SweepPoint p;
                    p.workload = w;
                    p.config.core = core_cfg;
                    p.config.memory = mem;
                    p.config.bpred.kind = kind;
                    p.sample = sample;
                    points.push_back(std::move(p));
                }

    core::SweepRunner runner(suite, jobs);
    const core::SweepResult sweep = runner.run(points);

    core::Table t({"workload", "core", "memory", "bpred", "cycles",
                   "IPC", "DL1 miss %", "BP acc %", "ms"});
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        const core::SweepPointResult &r = sweep.points[i];
        // Sampled points report whole-trace estimates; full points
        // report exact counts. Either way the row shape is one.
        const std::uint64_t cycles = r.sampled
            ? static_cast<std::uint64_t>(r.sampled->estimatedCycles)
            : r.stats.cycles;
        const double ipc =
            r.sampled ? r.sampled->ipc() : r.stats.ipc();
        const double dl1 = r.sampled ? r.sampled->dl1MissRate()
                                     : r.stats.dl1MissRate();
        t.row()
            .add(std::string(kernels::workloadName(r.point.workload)))
            .add(r.point.config.core.name)
            .add(r.point.config.memory.name)
            .add(std::string(
                sim::predictorKindName(r.point.config.bpred.kind)))
            .add(cycles)
            .add(ipc, 3)
            .add(100.0 * dl1, 2)
            .add(100.0 * r.stats.predictionAccuracy(), 2)
            .add(r.elapsedMs, 1);
    }

    const core::SweepSummary &s = sweep.summary;
    core::Table summary({"metric", "value"});
    summary.row().add("points").add(
        static_cast<std::uint64_t>(s.points));
    summary.row().add("jobs").add(static_cast<int>(s.jobs));
    summary.row().add("wall ms").add(s.wallMs, 1);
    summary.row().add("serial-equivalent ms").add(s.cpuMs, 1);
    summary.row().add("points/sec").add(s.pointsPerSec(), 1);
    summary.row().add("parallel efficiency").add(
        s.parallelEfficiency(), 2);
    summary.row().add("total cycles simulated").add(s.totalCycles);
    summary.row().add("total instructions").add(
        s.totalInstructions);

    if (csv) {
        t.printCsv(std::cout);
        summary.printCsv(std::cout);
    } else {
        t.print(std::cout);
        std::cout << "\nsweep summary:\n";
        summary.print(std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::optional<kernels::Workload> workload;
    std::string trace_path;
    std::string save_path;
    kernels::TraceSpec spec;
    spec.dbSequences = 8;
    sim::SimConfig cfg;
    bool csv = false;
    bool sweep = false;
    bool sampling = false;
    sim::SampleConfig sample_cfg;
    unsigned jobs = core::ThreadPool::defaultJobs();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (arg == "--workload") {
            workload = parseWorkload(value());
            if (!workload) {
                std::cerr << "unknown workload\n";
                return 2;
            }
        } else if (arg == "--trace") {
            trace_path = value();
        } else if (arg == "--save-trace") {
            save_path = value();
        } else if (arg == "--db-seqs") {
            spec.dbSequences = std::atoi(value().c_str());
            if (spec.dbSequences <= 0) {
                std::cerr << "--db-seqs must be positive\n";
                return 2;
            }
        } else if (arg == "--query") {
            spec.queryAccession = value();
        } else if (arg == "--width") {
            const std::string w = value();
            if (w == "4")
                cfg.core = sim::core4Way();
            else if (w == "8")
                cfg.core = sim::core8Way();
            else if (w == "16")
                cfg.core = sim::core16Way();
            else {
                std::cerr << "--width must be 4, 8 or 16\n";
                return 2;
            }
        } else if (arg == "--memory") {
            const auto mem = parseMemory(value());
            if (!mem) {
                std::cerr << "unknown memory preset\n";
                return 2;
            }
            cfg.memory = *mem;
        } else if (arg == "--bpred") {
            const auto bp = parsePredictor(value());
            if (!bp) {
                std::cerr << "unknown predictor\n";
                return 2;
            }
            cfg.bpred.kind = *bp;
        } else if (arg == "--sample-window"
                   || arg == "--sample-period") {
            // Reject zero / negative / non-numeric up front: a zero
            // window or period would plan no measurement at all,
            // and negative counts are nonsense.
            const long long n = std::atoll(value().c_str());
            if (n <= 0) {
                std::cerr << arg
                          << " must be a positive instruction "
                             "count\n";
                return 2;
            }
            if (arg == "--sample-window")
                sample_cfg.windowInsts =
                    static_cast<std::uint64_t>(n);
            else
                sample_cfg.periodInsts =
                    static_cast<std::uint64_t>(n);
            sampling = true;
        } else if (arg == "--sweep") {
            sweep = true;
        } else if (arg == "--jobs") {
            const int n = std::atoi(value().c_str());
            if (n <= 0) {
                std::cerr << "--jobs must be positive\n";
                return 2;
            }
            jobs = static_cast<unsigned>(n);
        } else if (arg == "--csv") {
            csv = true;
        } else {
            std::cerr << "unknown option " << arg << " (--help)\n";
            return 2;
        }
    }

    if (workload && !trace_path.empty()) {
        std::cerr << "--trace and --workload are mutually "
                     "exclusive: pick one trace source (--help)\n";
        return 2;
    }

    if (sampling) {
        const std::string problem = sample_cfg.validate();
        if (!problem.empty()) {
            std::cerr << problem << "\n";
            return 2;
        }
    }
    const std::optional<sim::SampleConfig> sample =
        sampling ? std::optional<sim::SampleConfig>(sample_cfg)
                 : std::nullopt;

    if (sweep) {
        if (!trace_path.empty()) {
            std::cerr << "--sweep generates its own traces; it "
                         "cannot be combined with --trace\n";
            return 2;
        }
        return runFullSweep(workload, spec, jobs, csv, sample);
    }

    if (!workload && trace_path.empty()) {
        usage(std::cerr);
        return 2;
    }

    // Obtain the trace.
    trace::Trace tr;
    try {
        if (!trace_path.empty()) {
            tr = trace::readTraceFile(trace_path);
        } else {
            tr = kernels::traceWorkload(*workload, spec).trace;
        }
        if (!save_path.empty()) {
            trace::writeTraceFile(save_path, tr);
            std::cout << "wrote " << tr.size()
                      << " instructions to " << save_path << "\n";
            return 0;
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

    // Simulate (fully, or sampled) and report.
    std::optional<sim::SampledStats> sampled;
    sim::SimStats stats;
    if (sample)
        sampled = sim::sampleTrace(tr, cfg, *sample);
    else
        stats = core::simulate(tr, cfg);
    if (sampled)
        stats = sampled->measured;
    const trace::InstructionMix mix = tr.mix();

    core::Table summary({"metric", "value"});
    summary.row().add("trace").add(tr.name());
    summary.row().add("instructions").add(
        static_cast<std::uint64_t>(tr.size()));
    summary.row().add("core").add(cfg.core.name);
    summary.row().add("memory").add(cfg.memory.name);
    summary.row().add("predictor").add(
        std::string(sim::predictorKindName(cfg.bpred.kind)));
    if (sampled) {
        summary.row().add("sampling").add(
            "window " + std::to_string(sample->windowInsts)
            + " / period " + std::to_string(sample->periodInsts));
        summary.row().add("windows").add(sampled->windows);
        summary.row().add("sampled insts %").add(
            100.0 * sampled->sampledFraction(), 2);
        summary.row().add("est. cycles").add(
            static_cast<std::uint64_t>(sampled->estimatedCycles));
        summary.row().add("est. IPC").add(sampled->ipc(), 3);
    } else {
        summary.row().add("cycles").add(stats.cycles);
        summary.row().add("IPC").add(stats.ipc(), 3);
    }
    // Sampled runs report the exact whole-trace rates from the
    // functional coverage stream, not the windowed counters.
    summary.row().add("DL1 miss rate %").add(
        100.0
            * (sampled ? sampled->dl1MissRate()
                       : stats.dl1MissRate()),
        2);
    summary.row().add("L2 misses").add(
        sampled ? sampled->l2Misses : stats.l2Misses);
    summary.row().add("BP accuracy %").add(
        100.0 * stats.predictionAccuracy(), 2);
    summary.row().add("ctrl %").add(100.0 * mix.ctrlFraction(), 1);
    summary.row().add("load %").add(100.0 * mix.loadFraction(), 1);

    core::Table traumas({"trauma", "cycles"});
    sim::TraumaCounts copy = stats.traumas;
    for (int k = 0; k < 5; ++k) {
        const sim::Trauma t = copy.dominant();
        if (copy.get(t) == 0)
            break;
        traumas.row()
            .add(std::string(sim::traumaName(t)))
            .add(copy.get(t));
        copy.cycles[static_cast<int>(t)] = 0;
    }

    if (csv) {
        summary.printCsv(std::cout);
        traumas.printCsv(std::cout);
    } else {
        summary.print(std::cout);
        std::cout << "\ntop stall reasons:\n";
        traumas.print(std::cout);
    }
    return 0;
}
