/**
 * @file
 * Trace-driven out-of-order superscalar processor model (our
 * Turandot substitute).
 *
 * The model follows the paper's simulated machine: a parameterized
 * fetch/rename/dispatch/retire pipeline with per-class issue queues
 * and functional units (Table IV), a two-level cache hierarchy
 * (Table V), a combined branch predictor with an NFA/BTB (Table VI),
 * and per-cycle stall ("trauma") attribution (Table VII / Fig. 2).
 *
 * Modeling decisions (standard for trace-driven simulation):
 *  - wrong-path instructions are not simulated; a mispredicted
 *    branch instead blocks fetch until it resolves, plus the
 *    configured recovery cycles;
 *  - the direction predictor trains non-speculatively in trace
 *    order;
 *  - stores retire through a store buffer (complete one cycle after
 *    issue) but do access and fill the cache hierarchy.
 */

#ifndef BIOARCH_SIM_PIPELINE_HH
#define BIOARCH_SIM_PIPELINE_HH

#include <array>
#include <cstdint>
#include <variant>
#include <vector>

#include "bpred.hh"
#include "cache.hh"
#include "config.hh"
#include "trace/trace.hh"
#include "trauma.hh"

namespace bioarch::sim
{

/** Everything a simulation run reports. */
struct SimStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    double
    ipc() const
    {
        return cycles == 0
            ? 0.0
            : static_cast<double>(instructions)
                / static_cast<double>(cycles);
    }

    /** Stall attribution (Fig. 2). */
    TraumaCounts traumas;

    /** Cache statistics (Figs. 3-7). */
    std::uint64_t dl1Accesses = 0;
    std::uint64_t dl1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t il1Misses = 0;
    std::uint64_t dtlb1Misses = 0;
    std::uint64_t dtlb2Misses = 0;
    double
    dl1MissRate() const
    {
        return dl1Accesses == 0
            ? 0.0
            : static_cast<double>(dl1Misses)
                / static_cast<double>(dl1Accesses);
    }

    /** Branch statistics (Figs. 9, 11). */
    std::uint64_t branchPredictions = 0;
    std::uint64_t branchMispredictions = 0;
    std::uint64_t btbMisses = 0;
    double
    predictionAccuracy() const
    {
        return branchPredictions == 0
            ? 1.0
            : 1.0
                - static_cast<double>(branchMispredictions)
                    / static_cast<double>(branchPredictions);
    }

    /**
     * Issue-queue occupancy histograms (Fig. 10a/b):
     * queueOccupancy[class][n] = cycles the queue held n entries.
     */
    std::array<std::vector<std::uint64_t>, numFuClasses>
        queueOccupancy;
    /** In-flight instruction histogram (Fig. 10c/d). */
    std::vector<std::uint64_t> inflightOccupancy;
    /** Retire-queue (ROB) occupancy histogram (Fig. 10d). */
    std::vector<std::uint64_t> retireQueueOccupancy;

    /** Mean of an occupancy histogram. */
    static double meanOccupancy(const std::vector<std::uint64_t> &h);

    /**
     * Order-sensitive 64-bit FNV-1a digest over every counter and
     * histogram (including histogram lengths). Two stats compare
     * equal iff they fingerprint equal, so golden tests can pin a
     * full SimStats in one value (tests/sim_golden_test.cc).
     */
    std::uint64_t fingerprint() const;

    /** Every counter and histogram equal — the bit-for-bit
     * determinism contract the parallel sweep is tested against. */
    bool operator==(const SimStats &) const = default;

    /**
     * Add @p other's counters and histograms into this one (the
     * sampled-simulation merge: per-window stats summed in window
     * order are one deterministic aggregate whatever the execution
     * schedule was). Histograms grow to the larger length.
     */
    void accumulate(const SimStats &other);
};

/**
 * The checkpointable micro-architectural state that survives
 * between simulation windows: the cache and TLB tag arrays on both
 * sides, the BTB, and the direction predictor's tables. This is
 * exactly the state functional warmup trains and a measurement
 * window consumes; the pipeline's transient state (ROB, issue
 * queues, in-flight instructions) is drained at window boundaries
 * and never checkpointed.
 *
 * The class is copyable, and a copy IS a snapshot: restoring means
 * copying back (or running from the copy). Equality of two states
 * is checked through stateDigest().
 */
class MachineState
{
  public:
    /** Cold state for @p config (what a full run starts from). */
    explicit MachineState(const SimConfig &config);

    /** An independent snapshot of the complete state. */
    MachineState snapshot() const { return *this; }

    /** Restore this state from a snapshot. */
    void restore(const MachineState &snap) { *this = snap; }

    /**
     * Functional warmup: stream @p window through the caches,
     * TLBs, BTB and direction predictor — the same structural
     * updates the detailed loop performs, with no timing model.
     * This is what makes measurement windows independent: a
     * window's state is trained by a functional walk of the trace
     * before it instead of by detailed-simulating it.
     *
     * Resumable: the last fetched I-line carries over between
     * calls, so warm(A); warm(B) leaves the same state as one
     * warm(A + B) over the concatenated span. runWindow() forgets
     * the line (the detailed loop tracks its own), so a warm after
     * a window starts with a fresh line.
     */
    void warm(const trace::TraceView &window);

    /** Order-sensitive FNV-1a digest over the complete state. */
    std::uint64_t stateDigest() const;

    DataHierarchy &dataHierarchy() { return _dmem; }
    InstrHierarchy &instrHierarchy() { return _imem; }
    Btb &btb() { return _btb; }
    const DataHierarchy &dataHierarchy() const { return _dmem; }
    const InstrHierarchy &instrHierarchy() const { return _imem; }
    const Btb &btb() const { return _btb; }

  private:
    friend class Simulator;

    DataHierarchy _dmem;
    InstrHierarchy _imem;
    Btb _btb;
    /** Concrete predictor (selected once from the config), so the
     * detailed loop keeps its devirtualized instantiation. */
    std::variant<BimodalPredictor, GsharePredictor,
                 CombinedPredictor, PerfectPredictor>
        _predictor;
    /** log2 of the IL1 line size (power of two), so the per-
     * instruction line check in warm() is a shift. */
    int _il1LineShift = 7;
    /** I-line warm() fetched last (none after construction or a
     * detailed window). */
    std::uint64_t _warmLine = ~std::uint64_t{0};
};

/**
 * The simulator. Construct with a configuration, then run() a
 * trace; each run uses fresh machine state.
 */
class Simulator
{
  public:
    /**
     * Largest retire queue (ROB) the model accepts. The register
     * table's exactness and the trace's dropped far sources both
     * rely on a producer leaving the ROB within a few thousand
     * younger instructions (pipeline.cc, register-table comment).
     */
    static constexpr int maxRetireQueue = 512;

    /** @throws std::invalid_argument if config.core.retireQueue is
     * outside [1, maxRetireQueue]. */
    explicit Simulator(const SimConfig &config);

    /** Simulate @p trace to completion and return the statistics. */
    SimStats run(const trace::Trace &trace);

    /**
     * Detailed-simulate one window of a trace, starting from (and
     * updating in place) the warm machine state @p state. The
     * pipeline starts empty and drains at the window's end — the
     * contract a sampling driver needs: windows are independent
     * given their warm state, and statistics cover only this
     * window's instructions (warmup accesses to @p state before
     * the call are excluded).
     *
     * run(trace) is exactly runWindow(trace.view(), cold state).
     */
    SimStats runWindow(const trace::TraceView &window,
                       MachineState &state);

    const SimConfig &config() const { return _config; }

  private:
    /**
     * The simulation loop, instantiated per concrete predictor
     * type (runWindow() visits the state's variant once, hoisting
     * the dispatch out of the per-branch hot path).
     */
    template <class Predictor>
    SimStats runImpl(const trace::TraceView &window,
                     Predictor &predictor, MachineState &state);

    SimConfig _config;
};

} // namespace bioarch::sim

#endif // BIOARCH_SIM_PIPELINE_HH
