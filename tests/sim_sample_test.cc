/**
 * @file
 * Sampled-simulation tests (src/sim/sample.{hh,cc}).
 *
 * Three contracts:
 *  - accuracy: sampled estimates stay inside the acceptance error
 *    bounds (IPC within 2%, DL1/L2 miss rates within 5%, trauma
 *    shares within 5 points) against golden full runs, for every
 *    workload x memory point of a reduced config grid;
 *  - determinism: the merged SampledStats is bit-for-bit identical
 *    across jobs {1, 2, 4, 8} (fingerprint() and full equality),
 *    and equal to a per-chunk reference that warms every chunk's
 *    prefix from a cold state;
 *  - checkpointing: MachineState snapshot/restore round-trips —
 *    a window simulated from a restored state reproduces the
 *    original run exactly, counter for counter — and a warm split
 *    into pieces equals one warm over the whole span.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/suite.hh"
#include "sim/sample.hh"

namespace
{

using namespace bioarch;

/** Same reduced working set as sim_golden_test: dbSequences=3
 * keeps 10 sampled-vs-full pairs fast while exercising every
 * kernel's hit and miss paths. */
core::WorkloadSuite &
sampleSuite()
{
    static core::WorkloadSuite s([] {
        kernels::TraceSpec spec;
        spec.dbSequences = 3;
        return spec;
    }());
    return s;
}

/** Fixed geometry for the plan/validate tests. */
sim::SampleConfig
testSample()
{
    sim::SampleConfig cfg;
    cfg.windowInsts = 10'000;
    cfg.periodInsts = 50'000;
    cfg.jobs = 1;
    return cfg;
}

/** Accuracy geometry scaled per trace (232k-3M instructions):
 * 10k-instruction windows, period chosen so every trace gets ~50
 * windows — small traces are measured nearly wall to wall (their
 * full runs are cheap anyway), long traces genuinely sample. */
sim::SampleConfig
accuracySample(const trace::Trace &tr)
{
    sim::SampleConfig cfg;
    cfg.windowInsts = 10'000;
    cfg.periodInsts =
        std::max<std::uint64_t>(cfg.windowInsts,
                                (tr.size() + 49) / 50);
    cfg.jobs = 1;
    return cfg;
}

sim::SimConfig
testMachine(const sim::MemoryConfig &memory)
{
    sim::SimConfig cfg;
    cfg.core = sim::core8Way();
    cfg.memory = memory;
    return cfg;
}

TEST(SamplePlan, EmptyTraceYieldsNoWindows)
{
    EXPECT_TRUE(sim::planWindows(0, testSample()).empty());
}

TEST(SamplePlan, ShortTraceYieldsOneClampedWindow)
{
    const auto windows = sim::planWindows(5'000, testSample());
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_EQ(windows[0].begin, 0u);
    EXPECT_EQ(windows[0].count, 5'000u);
    EXPECT_EQ(windows[0].represents, 5'000u);
}

TEST(SamplePlan, RepresentsPartitionsTheTrace)
{
    const std::uint64_t insts = 1'234'567;
    const auto windows = sim::planWindows(insts, testSample());
    ASSERT_FALSE(windows.empty());
    std::uint64_t represented = 0;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const sim::SampleWindow &w = windows[i];
        EXPECT_GE(w.count, 1u);
        EXPECT_LE(w.count, testSample().windowInsts);
        EXPECT_LE(w.begin + w.count, insts);
        // The window sits inside its own period (its placement
        // within the period is a deterministic jitter, so strict
        // period-start spacing is NOT guaranteed — or wanted:
        // aligned placement resonates with loopy phase structure).
        const std::uint64_t period_begin = represented;
        EXPECT_GE(w.begin, period_begin);
        EXPECT_LE(w.begin + w.count, period_begin + w.represents);
        represented += w.represents;
    }
    EXPECT_EQ(represented, insts);

    // The same config plans the same windows every time.
    const auto again = sim::planWindows(insts, testSample());
    ASSERT_EQ(again.size(), windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i) {
        EXPECT_EQ(again[i].begin, windows[i].begin);
        EXPECT_EQ(again[i].count, windows[i].count);
    }
}

TEST(SampleConfigValidate, RejectsNonsense)
{
    sim::SampleConfig cfg = testSample();
    EXPECT_TRUE(cfg.validate().empty());

    cfg.windowInsts = 0;
    EXPECT_FALSE(cfg.validate().empty());

    cfg = testSample();
    cfg.periodInsts = 0;
    EXPECT_FALSE(cfg.validate().empty());

    cfg = testSample();
    cfg.windowInsts = 1'000;
    cfg.periodInsts = 100;
    EXPECT_FALSE(cfg.validate().empty());

    cfg = testSample();
    cfg.chunkWindows = 0;
    EXPECT_FALSE(cfg.validate().empty());

    cfg = testSample();
    cfg.jobs = 0;
    EXPECT_FALSE(cfg.validate().empty());
}

TEST(SampleConfigValidate, SampleTraceThrowsOnRejectedConfig)
{
    sim::SampleConfig bad = testSample();
    bad.windowInsts = 0;
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Blast);
    EXPECT_THROW(
        sim::sampleTrace(tr, testMachine(sim::memoryMe4()), bad),
        std::invalid_argument);
}

TEST(TraceWindows, SubspanViewsAreZeroCopyAndClamped)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Blast);
    ASSERT_GT(tr.size(), 100u);

    const trace::TraceView full = tr.view();
    EXPECT_EQ(full.size(), tr.size());
    EXPECT_EQ(full.baseIndex(), 0u);

    const trace::TraceView mid = tr.subspan(50, 25);
    EXPECT_EQ(mid.size(), 25u);
    EXPECT_EQ(mid.baseIndex(), 50u);
    // Zero-copy: the view aliases the trace's own storage.
    EXPECT_EQ(mid.records(), tr.records().data() + 50);
    EXPECT_EQ(mid.statics(), tr.statics().data());
    EXPECT_EQ(mid[0].pc, tr[50].pc);

    // Clamping: a window reaching past the end truncates; a window
    // starting past the end is empty.
    EXPECT_EQ(tr.subspan(tr.size() - 10, 100).size(), 10u);
    EXPECT_TRUE(tr.subspan(tr.size() + 5, 1).empty());

    // Resident bytes: 12 per record plus the static table.
    EXPECT_EQ(tr.memoryBytes(),
              tr.size() * sizeof(trace::Record)
                  + tr.statics().size() * sizeof(trace::StaticInst));
}

/** run(trace) and runWindow(full view, cold state) are the same
 * computation — the window refactor must not fork the two paths. */
TEST(SampleWindows, FullRangeWindowEqualsFullRun)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Fasta34);
    const sim::SimConfig cfg = testMachine(sim::memoryMe1());

    const sim::SimStats full = core::simulate(tr, cfg);

    sim::MachineState cold(cfg);
    sim::Simulator sim(cfg);
    const sim::SimStats windowed = sim.runWindow(tr.view(), cold);

    EXPECT_EQ(full, windowed);
    EXPECT_EQ(full.fingerprint(), windowed.fingerprint());
}

/**
 * The accuracy pin: for every workload x {Me1, Me4} on the 8-way
 * core, the sampled estimate must sit within the acceptance
 * bounds of its own golden full run.
 */
TEST(SampleAccuracy, ErrorBoundsHoldAcrossWorkloadsAndMemories)
{
    const std::array<sim::MemoryConfig, 2> memories = {
        sim::memoryMe1(), sim::memoryMe4()};
    for (const kernels::Workload w : kernels::allWorkloads) {
        const trace::Trace &tr = sampleSuite().trace(w);
        for (const sim::MemoryConfig &mem : memories) {
            const sim::SimConfig cfg = testMachine(mem);
            const sim::SimStats full = core::simulate(tr, cfg);
            const sim::SampledStats sampled =
                sim::sampleTrace(tr, cfg, accuracySample(tr));
            const sim::SampleError err =
                sim::compareSampled(sampled, full);

            const std::string where =
                std::string(kernels::workloadName(w)) + " / "
                + mem.name;
            EXPECT_LE(err.ipcPct, 2.0) << where;
            EXPECT_LE(err.dl1MissRatePct, 5.0) << where;
            EXPECT_LE(err.l2MissRatePct, 5.0) << where;
            EXPECT_LE(err.traumaSharePts, 5.0) << where;

            // Miss rates come from the functional stream covering
            // the whole trace, so the access counts — a pure
            // function of the instruction mix — match the full
            // run's exactly.
            EXPECT_EQ(sampled.dl1Accesses, full.dl1Accesses)
                << where;

            // Sanity on the bookkeeping, not just the errors.
            EXPECT_EQ(sampled.traceInstructions, tr.size())
                << where;
            EXPECT_GT(sampled.windows, 1u) << where;
            EXPECT_LE(sampled.sampledFraction(), 1.0) << where;
            EXPECT_GT(sampled.estimatedCycles, 0.0) << where;
        }
        // The longest trace must genuinely sample, not replay.
        if (w == kernels::Workload::Ssearch34) {
            const trace::Trace &big = sampleSuite().trace(w);
            const sim::SampledStats s = sim::sampleTrace(
                big, testMachine(sim::memoryMe1()),
                accuracySample(big));
            EXPECT_LT(s.sampledFraction(), 0.25);
        }
    }
}

/** Merged stats must be bit-identical whatever the jobs count,
 * with many chunks so the walker really fans them out. */
TEST(SampleDeterminism, MergeIsIdenticalAcrossJobCounts)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Ssearch34);
    const sim::SimConfig cfg = testMachine(sim::memoryMe1());

    sim::SampleConfig sample = testSample();
    sample.chunkWindows = 8; // many chunks: real fan-out
    sample.jobs = 1;
    const sim::SampledStats one = sim::sampleTrace(tr, cfg, sample);
    for (const unsigned jobs : {2u, 4u, 8u}) {
        sample.jobs = jobs;
        const sim::SampledStats many =
            sim::sampleTrace(tr, cfg, sample);
        EXPECT_EQ(one, many) << "jobs " << jobs;
        EXPECT_EQ(one.fingerprint(), many.fingerprint())
            << "jobs " << jobs;
    }
}

/**
 * The reference the checkpointing walker must reproduce: every
 * chunk trains a cold state over its whole prefix in one warm()
 * call, then alternates windows with gap warming; the last chunk
 * also warms the tail, and its state gives the whole-trace cache
 * counters. Everything but warmupInstructions is filled in.
 */
sim::SampledStats
perChunkPrefixOracle(const trace::Trace &tr,
                     const sim::SimConfig &machine,
                     const sim::SampleConfig &config)
{
    const auto windows = sim::planWindows(tr.size(), config);
    sim::SampledStats out;
    out.windows = windows.size();
    out.traceInstructions = tr.size();
    sim::Simulator sim(machine);
    for (std::size_t first = 0; first < windows.size();
         first += config.chunkWindows) {
        const std::size_t last = std::min<std::size_t>(
            first + config.chunkWindows, windows.size());
        sim::MachineState state(machine);
        state.warm(tr.subspan(0, windows[first].begin));
        for (std::size_t i = first; i < last; ++i) {
            const sim::SampleWindow &w = windows[i];
            const sim::SimStats s =
                sim.runWindow(tr.subspan(w.begin, w.count), state);
            out.measured.accumulate(s);
            out.measuredInstructions += w.count;
            out.estimatedCycles += static_cast<double>(s.cycles)
                * (static_cast<double>(w.represents)
                   / static_cast<double>(w.count));
            const std::uint64_t end = w.begin + w.count;
            const std::uint64_t next = i + 1 < last
                ? windows[i + 1].begin
                : (last == windows.size() ? tr.size() : end);
            state.warm(tr.subspan(end, next - end));
        }
        if (last == windows.size()) {
            const sim::DataHierarchy &mem = state.dataHierarchy();
            out.dl1Accesses = mem.dl1().accesses();
            out.dl1Misses = mem.dl1().misses();
            out.l2Accesses = mem.l2().accesses();
            out.l2Misses = mem.l2().misses();
        }
    }
    return out;
}

/** Checkpointed fan-out is the per-chunk-prefix algorithm, bit for
 * bit, for every jobs count: each walker snapshot equals a cold
 * state warmed over the chunk's prefix in one call. */
TEST(SampleDeterminism, CheckpointedMatchesPerChunkPrefixOracle)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Ssearch34);
    for (const sim::MemoryConfig &mem :
         {sim::memoryMe1(), sim::memoryMe4()}) {
        const sim::SimConfig cfg = testMachine(mem);
        sim::SampleConfig sample = testSample();
        sample.chunkWindows = 8;
        const sim::SampledStats oracle =
            perChunkPrefixOracle(tr, cfg, sample);
        ASSERT_GT(oracle.windows, 3 * sample.chunkWindows);
        for (const unsigned jobs : {1u, 2u, 4u}) {
            sample.jobs = jobs;
            sim::SampledStats got = sim::sampleTrace(tr, cfg, sample);
            got.warmupInstructions = 0;
            EXPECT_EQ(got, oracle) << mem.name << " jobs " << jobs;
        }
    }
}

/** warmupInstructions counts what the functional model streamed:
 * a lone chunk streams everything it does not measure, and a
 * multi-chunk run stays under twice the trace (one walk, plus the
 * earlier chunks' gaps again) instead of re-streaming every
 * chunk's prefix. */
TEST(SampleAccounting, WarmCountsWhatTheFunctionalModelStreamed)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Ssearch34);
    const sim::SimConfig cfg = testMachine(sim::memoryMe1());
    sim::SampleConfig sample = testSample();

    const sim::SampledStats lone = sim::sampleTrace(tr, cfg, sample);
    EXPECT_EQ(lone.warmupInstructions,
              tr.size() - lone.measuredInstructions);

    sample.chunkWindows = 8;
    sample.jobs = 2;
    const sim::SampledStats chunked =
        sim::sampleTrace(tr, cfg, sample);
    EXPECT_GT(chunked.warmupInstructions, lone.warmupInstructions);
    EXPECT_LE(chunked.warmupInstructions, 2 * tr.size());
}

/**
 * Snapshot/restore round-trip: a window simulated from a restored
 * snapshot reproduces the original window bit for bit, and the
 * machine states it leaves behind digest-match.
 */
TEST(SampleCheckpoint, SnapshotRestoreRoundTripsBitForBit)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::SwVmx128);
    const sim::SimConfig cfg = testMachine(sim::memoryMe1());
    ASSERT_GT(tr.size(), 60'000u);

    // Train a state, snapshot it at the measurement boundary.
    sim::MachineState state(cfg);
    state.warm(tr.subspan(0, 40'000));
    const sim::MachineState snap = state.snapshot();
    EXPECT_EQ(state.stateDigest(), snap.stateDigest());

    // Measure a window from the live state...
    sim::Simulator sim(cfg);
    const trace::TraceView window = tr.subspan(40'000, 10'000);
    const sim::SimStats first = sim.runWindow(window, state);
    // ...the run advanced the state past its snapshot...
    EXPECT_NE(state.stateDigest(), snap.stateDigest());

    // ...and restoring + re-running reproduces everything.
    state.restore(snap);
    EXPECT_EQ(state.stateDigest(), snap.stateDigest());
    const sim::SimStats second = sim.runWindow(window, state);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first.fingerprint(), second.fingerprint());
}

/** Continuation: windows simulated back to back on one state are
 * the same whether or not a snapshot/restore sits between them. */
TEST(SampleCheckpoint, ContinuationIsUnaffectedBySnapshotCycle)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::SwVmx256);
    const sim::SimConfig cfg = testMachine(sim::memoryMe4());
    ASSERT_GT(tr.size(), 30'000u);

    const trace::TraceView first = tr.subspan(0, 10'000);
    const trace::TraceView second = tr.subspan(10'000, 10'000);

    sim::Simulator sim(cfg);
    sim::MachineState direct(cfg);
    const sim::SimStats a1 = sim.runWindow(first, direct);
    const sim::SimStats a2 = sim.runWindow(second, direct);

    sim::MachineState cycled(cfg);
    const sim::SimStats b1 = sim.runWindow(first, cycled);
    sim::MachineState mid = cycled.snapshot();
    cycled.restore(mid);
    const sim::SimStats b2 = sim.runWindow(second, cycled);

    EXPECT_EQ(a1, b1);
    EXPECT_EQ(a2, b2);
    EXPECT_EQ(direct.stateDigest(), cycled.stateDigest());
}

/** warm() resumes where the previous call stopped: splitting a
 * functional walk at any offset (mid I-line included) leaves the
 * same state as one call over the whole span. */
TEST(SampleCheckpoint, SplitWarmMatchesOneCallWarm)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Fasta34);
    const sim::SimConfig cfg = testMachine(sim::memoryMe1());
    const std::uint64_t span = 60'000;
    ASSERT_GT(tr.size(), span);

    sim::MachineState whole(cfg);
    whole.warm(tr.subspan(0, span));
    for (const std::uint64_t split :
         {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{1'001},
          std::uint64_t{12'345}, std::uint64_t{33'333},
          span - 1}) {
        sim::MachineState pieces(cfg);
        pieces.warm(tr.subspan(0, split));
        pieces.warm(tr.subspan(split, 0));
        pieces.warm(tr.subspan(split, span - split));
        EXPECT_EQ(pieces.stateDigest(), whole.stateDigest())
            << "split at " << split;
    }
}

/** The digest must see every component of the machine state. */
TEST(SampleCheckpoint, StateDigestSeesEveryComponent)
{
    const sim::SimConfig cfg = testMachine(sim::memoryMe1());
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Blast);

    sim::MachineState cold(cfg);
    sim::MachineState warmed(cfg);
    EXPECT_EQ(cold.stateDigest(), warmed.stateDigest());
    warmed.warm(tr.subspan(0, 5'000));
    EXPECT_NE(cold.stateDigest(), warmed.stateDigest());

    // A different predictor kind changes the digest even cold.
    sim::SimConfig other = cfg;
    other.bpred.kind = sim::PredictorKind::Bimodal;
    sim::MachineState bimodal(other);
    EXPECT_NE(cold.stateDigest(), bimodal.stateDigest());
}

} // namespace
