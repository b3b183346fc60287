/**
 * @file
 * Simulator-throughput harness: simulated Minst/s per
 * {workload x Me1/Me4 x 8-way}, single-threaded on purpose — this
 * measures the *inner loop* the sweep engine fans out, not the
 * fan-out (perfbench and the figure harnesses cover that). Me4's
 * infinite L2 keeps the machine busy; Me1's 300-cycle memory
 * misses park it — exactly the regime the idle-cycle
 * fast-forward targets — so the two columns bound the speedup.
 *
 * Every point then runs a second, *sampled* arm (sim::sampleTrace,
 * same machine) as an A/B against its own full run: the footer's
 * sampled_speedup and max_*_error keys are what CI gates on
 * (speedup >= 5, error <= 2% IPC), and the per-point table shows
 * where the estimate lands. The sampled arm's period scales per
 * trace (~50 windows each) and it runs max(1, min(8, nproc - 1))
 * workers: parallel chunk fan-out is the sampler's design point,
 * and leaving one CPU free keeps the functional walker (the
 * critical path) from being preempted by its own chunks. On a one-
 * or two-core host the arm degrades to the serial single-chunk
 * walk and the speedup is bounded by the functional-warming rate
 * (~3x aggregate; see EXPERIMENTS.md for the caveat).
 *
 * The JSON footer carries minst_per_sec (aggregate) plus the Me1
 * and Me4 aggregates so archived BENCH_*.json files track simulator
 * throughput release over release, the sampled-arm speedup/error
 * keys, and per-workload trace memory (trace::Trace::memoryBytes);
 * the table's B/inst column is that memory per instruction.
 */

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <thread>

#include "bench_common.hh"
#include "sim/sample.hh"

int
main()
{
    using namespace bioarch;
    using Clock = std::chrono::steady_clock;

    bench::banner(
        "bench_sim_speed — simulator throughput (Minst/s)",
        "n/a (simulator engineering, not a paper figure)");

    const sim::CoreConfig core = sim::core8Way();
    const std::array<sim::MemoryConfig, 2> memories = {
        sim::memoryMe1(), sim::memoryMe4()};
    const unsigned nproc = std::thread::hardware_concurrency();
    const unsigned sample_jobs =
        std::max(1u, std::min(8u, nproc > 0 ? nproc - 1 : 0u));
    const std::uint64_t sample_window = 10'000;
    const std::uint64_t sample_target_windows = 50;
    // Per-trace sampled-arm config: ~50 windows of 10k
    // instructions each. With >1 core, fan 8-window chunks across
    // the pool: one functional walker checkpoints each chunk's
    // start while earlier chunks run, and runs the last chunk
    // itself, so its stream gives the exact miss counters;
    // serially, the default single chunk walks the trace once,
    // which is the cheapest exact shape.
    const auto sampleFor = [&](const trace::Trace &tr) {
        sim::SampleConfig s;
        s.windowInsts = sample_window;
        s.periodInsts = std::max<std::uint64_t>(
            s.windowInsts,
            (tr.size() + sample_target_windows - 1)
                / sample_target_windows);
        s.jobs = sample_jobs;
        if (sample_jobs > 1)
            s.chunkWindows = 8;
        return s;
    };

    std::cout << "#\n# "
              << std::setw(10) << std::left << "workload"
              << std::setw(7) << "memory"
              << std::right << std::setw(14) << "instructions"
              << std::setw(12) << "cycles"
              << std::setw(10) << "ms"
              << std::setw(10) << "Minst/s"
              << std::setw(11) << "smpl-ms"
              << std::setw(9) << "speedup"
              << std::setw(9) << "ipcerr%"
              << std::setw(8) << "B/inst" << "\n";

    std::vector<double> point_ms;
    std::array<double, 2> mem_insts{};
    std::array<double, 2> mem_secs{};
    double wall_ms = 0.0;
    std::uint64_t total_insts = 0;
    double full_ms_total = 0.0;
    double sampled_ms_total = 0.0;
    double max_ipc_err = 0.0;
    double max_dl1_err = 0.0;
    double max_l2_err = 0.0;
    double max_trauma_err = 0.0;
    std::vector<std::pair<std::string, std::uint64_t>> trace_mem;
    std::vector<std::uint64_t> trace_insts;

    const Clock::time_point start = Clock::now();
    for (const kernels::Workload w : kernels::allWorkloads) {
        const trace::Trace &tr = bench::suite().trace(w);
        trace_mem.emplace_back(std::string(kernels::workloadName(w)),
                               tr.memoryBytes());
        trace_insts.push_back(tr.size());
        for (std::size_t m = 0; m < memories.size(); ++m) {
            sim::SimConfig cfg;
            cfg.core = core;
            cfg.memory = memories[m];
            const Clock::time_point t0 = Clock::now();
            const sim::SimStats stats = core::simulate(tr, cfg);
            const double ms =
                std::chrono::duration<double, std::milli>(
                    Clock::now() - t0)
                    .count();
            point_ms.push_back(ms);
            mem_insts[m] +=
                static_cast<double>(stats.instructions);
            mem_secs[m] += ms / 1000.0;
            total_insts += stats.instructions;
            full_ms_total += ms;

            const Clock::time_point t1 = Clock::now();
            const sim::SampledStats sampled =
                sim::sampleTrace(tr, cfg, sampleFor(tr));
            const double sampled_ms =
                std::chrono::duration<double, std::milli>(
                    Clock::now() - t1)
                    .count();
            sampled_ms_total += sampled_ms;
            const sim::SampleError err =
                sim::compareSampled(sampled, stats);
            max_ipc_err = std::max(max_ipc_err, err.ipcPct);
            max_dl1_err = std::max(max_dl1_err, err.dl1MissRatePct);
            max_l2_err = std::max(max_l2_err, err.l2MissRatePct);
            max_trauma_err =
                std::max(max_trauma_err, err.traumaSharePts);

            std::cout << "# " << std::setw(10) << std::left
                      << kernels::workloadName(w) << std::setw(7)
                      << memories[m].name << std::right
                      << std::fixed << std::setprecision(0)
                      << std::setw(14) << stats.instructions
                      << std::setw(12) << stats.cycles
                      << std::setprecision(2) << std::setw(10)
                      << ms << std::setw(10)
                      << (ms <= 0.0
                              ? 0.0
                              : static_cast<double>(
                                    stats.instructions)
                                  / 1e6 / (ms / 1000.0))
                      << std::setw(11) << sampled_ms
                      << std::setw(9)
                      << (sampled_ms <= 0.0 ? 0.0
                                            : ms / sampled_ms)
                      << std::setw(9) << err.ipcPct
                      << std::setw(8)
                      << static_cast<double>(tr.memoryBytes())
                          / static_cast<double>(
                              std::max<std::size_t>(1, tr.size()))
                      << "\n";
        }
    }
    wall_ms = std::chrono::duration<double, std::milli>(
                  Clock::now() - start)
                  .count();

    double cpu_ms = 0.0;
    for (const double ms : point_ms)
        cpu_ms += ms;
    const auto minst = [](double insts, double secs) {
        return secs <= 0.0 ? 0.0 : insts / 1e6 / secs;
    };
    const auto fmt = [](double v) {
        std::ostringstream s;
        s << std::fixed << std::setprecision(3) << v;
        return s.str();
    };
    std::ostringstream trace_bytes;
    std::uint64_t trace_bytes_total = 0;
    std::uint64_t trace_insts_total = 0;
    trace_bytes << "{";
    for (std::size_t i = 0; i < trace_mem.size(); ++i) {
        trace_bytes << (i ? "," : "") << "\"" << trace_mem[i].first
                    << "\":" << trace_mem[i].second;
        trace_bytes_total += trace_mem[i].second;
        trace_insts_total += trace_insts[i];
    }
    trace_bytes << "}";
    // Effective sampled throughput: the instructions the sampled
    // runs *stand for* (the full traces, both arms) per second of
    // sampled wall clock — directly comparable to minst_per_sec.
    const double sampled_minst = minst(
        static_cast<double>(total_insts), sampled_ms_total / 1000.0);
    bench::printJsonFooter(
        "bench_sim_speed", 1, point_ms.size(), wall_ms, cpu_ms,
        {{"core", "\"" + core.name + "\""},
         {"total_instructions", std::to_string(total_insts)},
         {"minst_per_sec",
          fmt(minst(mem_insts[0] + mem_insts[1],
                    mem_secs[0] + mem_secs[1]))},
         {"minst_per_sec_me1", fmt(minst(mem_insts[0], mem_secs[0]))},
         {"minst_per_sec_me4", fmt(minst(mem_insts[1], mem_secs[1]))},
         {"sample_window", std::to_string(sample_window)},
         {"sample_windows_target",
          std::to_string(sample_target_windows)},
         {"sample_jobs", std::to_string(sample_jobs)},
         {"sampled_speedup",
          fmt(sampled_ms_total <= 0.0
                  ? 0.0
                  : full_ms_total / sampled_ms_total)},
         {"sampled_minst_per_sec", fmt(sampled_minst)},
         {"max_ipc_error_pct", fmt(max_ipc_err)},
         {"max_dl1_error_pct", fmt(max_dl1_err)},
         {"max_l2_error_pct", fmt(max_l2_err)},
         {"max_trauma_share_err_pts", fmt(max_trauma_err)},
         {"trace_bytes", trace_bytes.str()},
         {"trace_bytes_total", std::to_string(trace_bytes_total)},
         {"trace_bytes_per_inst",
          fmt(static_cast<double>(trace_bytes_total)
              / static_cast<double>(
                  std::max<std::uint64_t>(1, trace_insts_total)))}},
        point_ms);
    return 0;
}
