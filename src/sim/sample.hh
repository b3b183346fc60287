/**
 * @file
 * Sampled simulation: SimPoint/SMARTS-style windowed sampling over
 * the detailed pipeline model.
 *
 * Full-trace detailed simulation costs O(every instruction); the
 * paper's methodology tops out around 14 Minst/s, which makes
 * full-database-scale traces (and characterizing the serving
 * engine's own instruction stream) intractable. The sampler splits
 * a trace into measurement windows spaced periodInsts apart and
 * detailed-simulates windowInsts instructions of each from a warm
 * MachineState (caches, TLBs, BTB and direction predictor trained
 * by a functional walk of everything before the window —
 * structural updates only, no timing), with the pipeline starting
 * empty and draining at the window's end.
 *
 * Windows are grouped into fixed-size *chunks* (SampleConfig::
 * chunkWindows): a chunk's windows run serially on one worker with
 * the machine state functionally warmed through the gaps between
 * them (SMARTS-style continuous warming). Each chunk starts from a
 * checkpoint: one functional *walker* streams the trace once,
 * snapshots the state at every chunk's first window and hands the
 * snapshot to a ThreadPool task, so chunks run while the walk goes
 * on. The snapshot equals a cold state warmed over the chunk's
 * whole prefix in one call, so every window sees the same state
 * whatever the chunk size. The walker runs the last chunk itself
 * and warms the tail. The chunk partition is fixed by the config,
 * never the jobs count, and results merge in window order, so the
 * merged SampledStats is bit-for-bit identical for any jobs value,
 * the same contract the design-space sweep enforces.
 *
 * Chunks cannot hand state on to each other instead of starting
 * from the walker's snapshots: a detailed window touches the
 * D-cache at issue, out of trace order, so the state it leaves
 * differs from a functional walk of the same span.
 *
 * Timing (cycles, IPC, stall traumas) is extrapolated per window —
 * each window stands for its surrounding period. Cache miss
 * *rates* are not extrapolated at all: the walker's stream (its
 * functional walk, then the last chunk's windows, gaps and tail)
 * covers the complete trace, and the whole-trace dl1/l2 counters
 * are harvested from it. These traces miss mostly on compulsory
 * fills — a few hundred events in millions of accesses — so any
 * windowed estimate of a miss rate is statistically hopeless,
 * while the functional stream makes the detailed loop's accesses
 * (in trace order rather than issue order) and the rates exact.
 * Error bounds are pinned against golden full runs in
 * tests/sim_sample_test.cc.
 */

#ifndef BIOARCH_SIM_SAMPLE_HH
#define BIOARCH_SIM_SAMPLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline.hh"

namespace bioarch::sim
{

/** Sampling parameters. Every count is in instructions. */
struct SampleConfig
{
    /** Detailed-measured instructions per window. */
    std::uint64_t windowInsts = 20'000;
    /** Distance between window starts; each window extrapolates to
     * the period it sits in. Must be >= windowInsts. */
    std::uint64_t periodInsts = 250'000;
    /** Unused: every chunk starts from a functional walk of its
     * whole prefix, which the checkpointing walker builds in one
     * pass. Kept so callers that still set it compile. */
    std::uint64_t warmupInsts = 0;
    /**
     * Windows per chunk. A chunk is the parallel unit: its windows
     * run serially on one worker with the machine state warmed
     * *continuously* through the gaps between them (SMARTS-style
     * functional warming), starting from the walker's snapshot at
     * its first window. The chunk partition is fixed by this
     * config — never by the jobs count — which is what keeps the
     * merged result bit-identical across jobs.
     *
     * The default is large enough that any realistic trace runs as
     * one chunk: a single stream of prefix, windows, gaps and
     * tail, the least functional work. Set it smaller to fan
     * chunks across jobs on a multi-core host; every chunk but the
     * last then warms its gaps twice (once in the walk, once
     * itself), so functional work stays under twice the trace.
     */
    std::uint64_t chunkWindows = 1'000'000;
    /** Worker threads for the chunk fan-out. */
    unsigned jobs = 1;

    /**
     * Empty string when the configuration is usable; otherwise a
     * one-line description of the first problem (zero counts,
     * window larger than period) for CLI-grade error reporting.
     */
    std::string validate() const;
};

/** One planned measurement window. */
struct SampleWindow
{
    /** First detailed-measured instruction. */
    std::uint64_t begin = 0;
    /** Detailed-measured instruction count (tail windows clamp). */
    std::uint64_t count = 0;
    /** Instructions this window stands for when extrapolating
     * (its period, clamped to the trace's end). */
    std::uint64_t represents = 0;
};

/** Window layout for a trace of @p traceInsts instructions. */
std::vector<SampleWindow> planWindows(std::uint64_t traceInsts,
                                      const SampleConfig &config);

/** Everything a sampled run reports. */
struct SampledStats
{
    /** Per-window detailed stats summed in window order (cycles /
     * instructions / misses cover only measured windows). */
    SimStats measured;
    std::uint64_t windows = 0;
    /** Length of the full trace the sample stands for. */
    std::uint64_t traceInstructions = 0;
    std::uint64_t measuredInstructions = 0;
    /** Instructions streamed through the functional model: the
     * walk up to the last chunk's first window, plus every chunk's
     * gaps and the tail. A lone chunk streams trace minus measured
     * instructions; more chunks add each earlier chunk's gaps. */
    std::uint64_t warmupInstructions = 0;
    /**
     * Whole-trace cache counters from the walker's stream (its
     * functional walk plus the last chunk's windows, gaps and tail
     * cover every instruction). Exact, not extrapolated: the
     * functional model makes the detailed loop's accesses, in
     * trace order.
     */
    std::uint64_t dl1Accesses = 0;
    std::uint64_t dl1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    /**
     * Whole-trace cycle estimate: each window's cycles scaled by
     * the instructions it represents (sum_k cycles_k *
     * represents_k / count_k), accumulated in window order so the
     * value is schedule-independent.
     */
    double estimatedCycles = 0.0;

    /** Fraction of the trace that was detailed-simulated. */
    double
    sampledFraction() const
    {
        return traceInstructions == 0
            ? 0.0
            : static_cast<double>(measuredInstructions)
                / static_cast<double>(traceInstructions);
    }

    /** Whole-trace IPC estimate. */
    double
    ipc() const
    {
        return estimatedCycles <= 0.0
            ? 0.0
            : static_cast<double>(traceInstructions)
                / estimatedCycles;
    }

    /** Whole-trace DL1 miss rate (from the functional stream). */
    double
    dl1MissRate() const
    {
        return dl1Accesses == 0
            ? 0.0
            : static_cast<double>(dl1Misses)
                / static_cast<double>(dl1Accesses);
    }

    /** Whole-trace L2 miss rate (from the functional stream). */
    double
    l2MissRate() const
    {
        return l2Accesses == 0
            ? 0.0
            : static_cast<double>(l2Misses)
                / static_cast<double>(l2Accesses);
    }

    /** Share of @p t in the measured stall cycles (0 when none). */
    double traumaShare(Trauma t) const;

    /** FNV-1a digest over every field (the determinism pin: equal
     * digests across jobs counts mean bit-identical results). */
    std::uint64_t fingerprint() const;

    bool operator==(const SampledStats &) const = default;
};

/**
 * Error of a sampled run against the full detailed run of the same
 * trace and configuration (the acceptance gates: IPC within 2%,
 * miss rates within 5%, trauma shares within 5 points).
 */
struct SampleError
{
    /** Relative IPC error, percent. */
    double ipcPct = 0.0;
    /** Relative DL1 miss-rate error, percent (absolute when the
     * full run's rate is ~0). */
    double dl1MissRatePct = 0.0;
    /** Relative L2 miss-rate error, percent (same guard). */
    double l2MissRatePct = 0.0;
    /** Largest absolute trauma-share difference, in percentage
     * points of total stall cycles. */
    double traumaSharePts = 0.0;
};

SampleError compareSampled(const SampledStats &sampled,
                           const SimStats &full);

/**
 * Sample @p trace on @p machine: plan windows, walk the trace once
 * to checkpoint each chunk's start, measure the chunks (fanned
 * across config.jobs workers, the walker one of them; windows
 * within a chunk serial with continuously warmed state), merge in
 * window order. jobs <= 1 walks and runs the chunks in order on
 * the calling thread. Throws std::invalid_argument when
 * config.validate() rejects.
 */
SampledStats sampleTrace(const trace::Trace &trace,
                         const SimConfig &machine,
                         const SampleConfig &config);

} // namespace bioarch::sim

#endif // BIOARCH_SIM_SAMPLE_HH
