/**
 * @file
 * The sim_sweep workload: sampled simulation of the paper's design
 * points.
 *
 * Set-up generates the five traced workloads (the user-paid cost of
 * any simulation study) and runs every design point once untimed;
 * those first results are the reference fingerprints. Each measured
 * operation is one sim::sampleTrace of one design point: a traced
 * workload on the 8-way core with memory Me1 or Me4, ~50 windows of
 * 10k instructions, chunks of 8 windows fanned across hostJobs()
 * workers, at most 8. The chunk partition is fixed, so the result
 * does not depend on the host. Points run in rounds, each a seeded
 * permutation of all ten, and a run ends only at a round boundary,
 * so every run weighs the points equally.
 */

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bench.hh"
#include "bio/random.hh"
#include "core/suite.hh"
#include "sim/config.hh"
#include "sim/pipeline.hh"
#include "sim/sample.hh"

namespace perfbench
{
namespace
{

using namespace bioarch;

struct Point
{
    kernels::Workload workload = kernels::Workload::Ssearch34;
    sim::SimConfig machine;
};

std::vector<Point>
designPoints()
{
    std::vector<Point> out;
    for (const kernels::Workload w : kernels::allWorkloads)
        for (const sim::MemoryConfig &mem :
             {sim::memoryMe1(), sim::memoryMe4()}) {
            Point p;
            p.workload = w;
            p.machine.core = sim::core8Way();
            p.machine.memory = mem;
            out.push_back(p);
        }
    return out;
}

sim::SampleConfig
sampleConfigFor(const trace::Trace &trace)
{
    constexpr std::uint64_t targetWindows = 50;
    sim::SampleConfig s;
    s.windowInsts = 10'000;
    s.periodInsts = std::max<std::uint64_t>(
        s.windowInsts, (trace.size() + targetWindows - 1) / targetWindows);
    s.chunkWindows = 8;
    s.warmupInsts = std::uint64_t{1} << 60; // every chunk: full prefix
    s.jobs = std::min(8u, hostJobs());
    return s;
}

} // namespace

Outcome
runSimSweep(const Options &o)
{
    Tracer tracer;
    tracer.setEnabled(o.trace);
    // The paper's query against 8 subjects: 11.5M instructions over
    // the five traces, ~460 MB in memory (the default 24 subjects
    // need three times that).
    kernels::TraceSpec spec;
    spec.dbSequences = o.smoke ? 2 : 8;
    const std::vector<Point> points = designPoints();
    const int setup_reps = o.smoke ? 1 : 5;

    // Set-up: trace generation plus one untimed pass over every
    // point, whose fingerprints every later run must reproduce.
    std::vector<double> setup_s;
    std::vector<double> setup_steal;
    std::vector<double> trace_gen_ms;
    std::unique_ptr<core::WorkloadSuite> suite;
    std::vector<std::uint64_t> reference;
    for (int rep = 0; rep < setup_reps; ++rep) {
        suite.reset();
        reference.clear();
        const double steal0 = stealTicks();
        const double t0 = tracer.nowUs();
        const std::int64_t span = tracer.open("setup");
        suite = std::make_unique<core::WorkloadSuite>(spec);
        for (const kernels::Workload w : kernels::allWorkloads) {
            const std::int64_t gen =
                tracer.open("kernels.traceWorkload", span);
            (void)suite->run(w);
            tracer.close(gen);
        }
        trace_gen_ms.push_back((tracer.nowUs() - t0) / 1000.0);
        const std::int64_t warm = tracer.open("warmup", span);
        for (const Point &p : points) {
            const trace::Trace &tr = suite->trace(p.workload);
            reference.push_back(
                sim::sampleTrace(tr, p.machine, sampleConfigFor(tr))
                    .fingerprint());
        }
        tracer.close(warm);
        tracer.close(span);
        setup_s.push_back((tracer.nowUs() - t0) / 1e6);
        setup_steal.push_back(ratio(stealTicks() - steal0, setup_s.back()));
    }

    bio::Rng rng(mixSeed(o.seed, 2));
    std::vector<std::size_t> order(points.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double measured_us = 0.0;
    /** Per untraced round: each point's latency, the points per
     * second, and the host's steal rate (ticks per second). */
    std::vector<std::vector<double>> round_point_ms;
    std::vector<double> round_qps;
    std::vector<double> round_steal;
    /** Per round: measured us per operation, and whether traced. */
    std::vector<std::pair<double, bool>> round_us;
    double warm_insts = 0.0;
    double detailed_insts = 0.0;
    double trace_insts = 0.0;
    for (std::size_t round = 0;; ++round) {
        // The traced run alternates untraced and traced rounds.
        const bool traced = o.trace && round % 2 == 1;
        tracer.setEnabled(traced);
        const std::int64_t round_span = tracer.open("round");
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        double this_round = 0.0;
        std::vector<double> point_ms(points.size(), 0.0);
        std::uint64_t round_failed = 0;
        const double steal0 = stealTicks();
        const double wall0 = tracer.nowUs();
        for (const std::size_t k : order) {
            const Point &p = points[k];
            const trace::Trace &tr = suite->trace(p.workload);
            const sim::SampleConfig cfg = sampleConfigFor(tr);
            ++attempted;
            const double t0 = tracer.nowUs();
            bool ok = true;
            sim::SampledStats stats;
            try {
                stats = sim::sampleTrace(tr, p.machine, cfg);
            } catch (const std::exception &) {
                ok = false;
            }
            const double t1 = tracer.nowUs();
            tracer.record("sim.sampleTrace", t0, t1, round_span, k);
            this_round += t1 - t0;
            if (!ok || stats.fingerprint() != reference[k]) {
                ++failed;
                ++round_failed;
                continue;
            }
            point_ms[k] = (t1 - t0) / 1000.0;
            warm_insts += static_cast<double>(stats.warmupInstructions);
            detailed_insts +=
                static_cast<double>(stats.measuredInstructions);
            trace_insts += static_cast<double>(stats.traceInstructions);
        }
        const double steal_rate =
            ratio(stealTicks() - steal0, (tracer.nowUs() - wall0) / 1e6);
        tracer.close(round_span);
        measured_us += this_round;
        if (!traced && round_failed == 0) {
            round_point_ms.push_back(std::move(point_ms));
            round_qps.push_back(ratio(static_cast<double>(order.size()),
                                      this_round / 1e6));
            round_steal.push_back(steal_rate);
        }
        round_us.emplace_back(this_round / static_cast<double>(order.size()),
                              traced);
        if (measured_us / 1e6 >= o.seconds && (!o.trace || round >= 1))
            break;
    }

    Outcome out;
    out.attempted = attempted;
    out.failed = failed;
    out.correct = failed == 0;
    Metrics &m = out.metrics;
    if (!o.trace) {
        // As on the serving workloads, only the quieter half of the
        // rounds and set-ups counts. Design points differ in cost by
        // design, so the latency quantiles are taken over the points'
        // own medians: each point weighs once, and noise in one
        // operation moves nothing.
        const std::vector<std::size_t> quiet = quietRounds(round_steal);
        std::vector<double> typical_ms;
        for (std::size_t k = 0; k < points.size(); ++k) {
            std::vector<double> ms;
            for (const std::size_t r : quiet)
                ms.push_back(round_point_ms[r][k]);
            typical_ms.push_back(median(ms));
        }
        setEndToEnd(m, quietMedian(setup_s, setup_steal),
                    quietMedian(round_qps, round_steal),
                    quantile(typical_ms, 0.5), quantile(typical_ms, 0.9));
        return out;
    }

    // The sampled arm against full detailed simulation of the same
    // points, once each.
    tracer.setEnabled(true);
    double full_us = 0.0;
    double sampled_us = 0.0;
    double full_insts = 0.0;
    double ipc_error_max = 0.0;
    for (std::size_t k = 0; k < points.size(); ++k) {
        const Point &p = points[k];
        const trace::Trace &tr = suite->trace(p.workload);
        const double t0 = tracer.nowUs();
        const sim::SampledStats sampled =
            sim::sampleTrace(tr, p.machine, sampleConfigFor(tr));
        const double t1 = tracer.nowUs();
        sim::Simulator simulator(p.machine);
        const sim::SimStats full = simulator.run(tr);
        const double t2 = tracer.nowUs();
        tracer.record("sim.sampleTrace", t0, t1, -1, k);
        tracer.record("sim.run", t1, t2, -1, k);
        sampled_us += t1 - t0;
        full_us += t2 - t1;
        full_insts += static_cast<double>(full.instructions);
        ipc_error_max = std::max(
            ipc_error_max, sim::compareSampled(sampled, full).ipcPct);
    }

    if (!o.spansPath.empty() && !tracer.write(o.spansPath))
        throw std::runtime_error("cannot write " + o.spansPath);
    double trace_total = 0.0;
    for (const kernels::Workload w : kernels::allWorkloads)
        trace_total += static_cast<double>(suite->trace(w).size());
    m.set("kernels.trace_gen_ms", median(trace_gen_ms));
    m.set("kernels.trace_instructions", trace_total);
    m.set("sim.sample.warm_fraction", ratio(warm_insts, trace_insts));
    m.set("sim.sample.detailed_fraction",
          ratio(detailed_insts, trace_insts));
    m.set("sim.sample.speedup", ratio(full_us, sampled_us));
    m.set("sim.sample.ipc_error_pct_max", ipc_error_max);
    m.set("sim.pipeline.detailed_minst_per_s", ratio(full_insts, full_us));

    m.set("obs.tracing_overhead_pct", tracingOverheadPct(round_us));
    // The sampler's documented error gate.
    out.correct = out.correct && ipc_error_max <= 2.0;
    return out;
}

} // namespace perfbench
