#include "pipeline.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/digest.hh"
#include "ring_buffer.hh"

namespace bioarch::sim
{

double
SimStats::meanOccupancy(const std::vector<std::uint64_t> &h)
{
    std::uint64_t cycles = 0;
    double weighted = 0.0;
    for (std::size_t n = 0; n < h.size(); ++n) {
        cycles += h[n];
        weighted += static_cast<double>(n) * static_cast<double>(h[n]);
    }
    return cycles == 0 ? 0.0 : weighted / static_cast<double>(cycles);
}

std::uint64_t
SimStats::fingerprint() const
{
    // Shared FNV-1a (core/digest.hh); same offset basis, prime,
    // and little-endian u64 mixing as the hand-rolled original, so
    // every pinned golden fingerprint is unchanged.
    core::Fnv1a fnv;
    const auto mix = [&fnv](std::uint64_t v) { fnv.update64(v); };
    const auto mixHist = [&mix](const std::vector<std::uint64_t> &v) {
        mix(v.size());
        for (std::uint64_t x : v)
            mix(x);
    };

    mix(cycles);
    mix(instructions);
    for (std::uint64_t c : traumas.cycles)
        mix(c);
    mix(dl1Accesses);
    mix(dl1Misses);
    mix(l2Accesses);
    mix(l2Misses);
    mix(il1Misses);
    mix(dtlb1Misses);
    mix(dtlb2Misses);
    mix(branchPredictions);
    mix(branchMispredictions);
    mix(btbMisses);
    for (const std::vector<std::uint64_t> &q : queueOccupancy)
        mixHist(q);
    mixHist(inflightOccupancy);
    mixHist(retireQueueOccupancy);
    return fnv.digest();
}

void
SimStats::accumulate(const SimStats &other)
{
    cycles += other.cycles;
    instructions += other.instructions;
    for (int t = 0; t < numTraumas; ++t)
        traumas.cycles[static_cast<std::size_t>(t)] +=
            other.traumas.cycles[static_cast<std::size_t>(t)];
    dl1Accesses += other.dl1Accesses;
    dl1Misses += other.dl1Misses;
    l2Accesses += other.l2Accesses;
    l2Misses += other.l2Misses;
    il1Misses += other.il1Misses;
    dtlb1Misses += other.dtlb1Misses;
    dtlb2Misses += other.dtlb2Misses;
    branchPredictions += other.branchPredictions;
    branchMispredictions += other.branchMispredictions;
    btbMisses += other.btbMisses;

    const auto add_hist = [](std::vector<std::uint64_t> &into,
                             const std::vector<std::uint64_t> &from) {
        if (into.size() < from.size())
            into.resize(from.size(), 0);
        for (std::size_t n = 0; n < from.size(); ++n)
            into[n] += from[n];
    };
    for (int c = 0; c < numFuClasses; ++c)
        add_hist(queueOccupancy[static_cast<std::size_t>(c)],
                 other.queueOccupancy[static_cast<std::size_t>(c)]);
    add_hist(inflightOccupancy, other.inflightOccupancy);
    add_hist(retireQueueOccupancy, other.retireQueueOccupancy);
}

MachineState::MachineState(const SimConfig &config)
    : _dmem(config.memory), _imem(config.memory),
      _btb(config.bpred.btbEntries, config.bpred.btbAssociativity),
      _predictor([&config]()
                     -> std::variant<BimodalPredictor,
                                     GsharePredictor,
                                     CombinedPredictor,
                                     PerfectPredictor> {
          const BranchPredictorConfig &bp = config.bpred;
          switch (bp.kind) {
            case PredictorKind::Bimodal:
              return BimodalPredictor(bp.tableEntries);
            case PredictorKind::Gshare:
              return GsharePredictor(bp.tableEntries);
            case PredictorKind::Combined:
              return CombinedPredictor(bp.tableEntries);
            case PredictorKind::Perfect:
              return PerfectPredictor();
          }
          return CombinedPredictor(bp.tableEntries);
      }()),
      _il1LineShift(std::countr_zero(static_cast<unsigned>(
          std::max(1, config.memory.il1.lineBytes))))
{
}

void
MachineState::warm(const trace::TraceView &window)
{
    // The same structural touches the detailed loop makes, minus
    // all timing: one I-side fetch per new line, predict+train per
    // conditional branch, a BTB probe per taken branch, and a
    // D-side hierarchy access per memory op. Warmup accesses land
    // on the state's own statistics counters; runWindow() measures
    // against a baseline, so they never leak into window stats.
    std::uint64_t last_line = _warmLine;
    std::visit(
        [&](auto &predictor) {
            using P = std::decay_t<decltype(predictor)>;
            const trace::Record *recs = window.records();
            const trace::StaticInst *statics = window.statics();
            for (std::size_t i = 0; i < window.size(); ++i) {
                const trace::Record &rec = recs[i];
                const trace::StaticInst &st =
                    statics[rec.staticIndex()];
                // Line bytes are a power of two (the cache model
                // indexes by shift), so this stays off the
                // integer divider — warm() runs this per
                // instruction and it is the sampler's speed limit.
                const std::uint64_t line =
                    st.byteAddress() >> _il1LineShift;
                if (line != last_line) {
                    _imem.fetch(st.byteAddress());
                    last_line = line;
                }
                if (st.isBranch()) {
                    const bool taken = rec.taken();
                    if (st.conditional) {
                        if constexpr (std::is_same_v<
                                          P, PerfectPredictor>)
                            predictor.setOutcome(taken);
                        predictor.predict(st.pc);
                        predictor.update(st.pc, taken);
                    }
                    if (taken)
                        _btb.lookup(st.pc);
                } else if (st.isMemory()) {
                    _dmem.access(rec.addr, st.isStore());
                }
            }
        },
        _predictor);
    _warmLine = last_line;
}

std::uint64_t
MachineState::stateDigest() const
{
    core::Fnv1a fnv;
    fnv.update64(_dmem.stateDigest());
    fnv.update64(_imem.stateDigest());
    fnv.update64(_btb.stateDigest());
    fnv.update64(static_cast<std::uint64_t>(_predictor.index()));
    fnv.update64(std::visit(
        [](const auto &p) { return p.stateDigest(); }, _predictor));
    fnv.update64(_warmLine);
    return fnv.digest();
}

namespace
{

constexpr std::uint64_t notReady = ~std::uint64_t{0};
/** Null link for the 32-bit intrusive waiter/wheel lists (trace
 * indices; a trace can never reach 2^32 instructions). */
constexpr std::uint32_t noLink = ~std::uint32_t{0};

/** Route an op class to its functional-unit class. */
constexpr FuClass
fuClassOf(isa::OpClass cls)
{
    switch (cls) {
      case isa::OpClass::IntAlu: return FuClass::Fix;
      case isa::OpClass::IntLoad:
      case isa::OpClass::IntStore:
      case isa::OpClass::VecLoad:
      case isa::OpClass::VecStore: return FuClass::LdSt;
      case isa::OpClass::Branch: return FuClass::Br;
      case isa::OpClass::VecSimple: return FuClass::Vi;
      case isa::OpClass::VecPerm: return FuClass::VPer;
      case isa::OpClass::VecComplex: return FuClass::VCmplx;
      case isa::OpClass::VecFloat: return FuClass::VFp;
      case isa::OpClass::FloatOp: return FuClass::Fp;
      case isa::OpClass::Other: return FuClass::Fix;
      case isa::OpClass::NumClasses: break;
    }
    return FuClass::Fix;
}

/** Physical register file a destination lives in. */
enum class RegFile : std::uint8_t { Gpr, Vpr, Fpr, None };

constexpr RegFile
regFileOf(isa::OpClass cls)
{
    switch (cls) {
      case isa::OpClass::IntAlu:
      case isa::OpClass::IntLoad:
      case isa::OpClass::Other: return RegFile::Gpr;
      case isa::OpClass::VecLoad:
      case isa::OpClass::VecSimple:
      case isa::OpClass::VecPerm:
      case isa::OpClass::VecComplex:
      case isa::OpClass::VecFloat: return RegFile::Vpr;
      case isa::OpClass::FloatOp: return RegFile::Fpr;
      default: return RegFile::None;
    }
}

constexpr Trauma
rgTrauma(FuClass cls, bool producer_is_load)
{
    if (producer_is_load)
        return Trauma::RgMem;
    switch (cls) {
      case FuClass::LdSt: return Trauma::RgMem;
      case FuClass::Fix: return Trauma::RgFix;
      case FuClass::Fp: return Trauma::RgFpu;
      case FuClass::Br: return Trauma::RgBr;
      case FuClass::Vi: return Trauma::RgVi;
      case FuClass::VPer: return Trauma::RgVper;
      case FuClass::VCmplx: return Trauma::RgVcmplx;
      case FuClass::VFp: return Trauma::RgVfpu;
      case FuClass::NumClasses: break;
    }
    return Trauma::Other;
}

constexpr Trauma
fulTrauma(FuClass cls)
{
    switch (cls) {
      case FuClass::LdSt: return Trauma::FulMem;
      case FuClass::Fix: return Trauma::FulFix;
      case FuClass::Fp: return Trauma::FulFpu;
      case FuClass::Br: return Trauma::FulBr;
      case FuClass::Vi: return Trauma::FulVi;
      case FuClass::VPer: return Trauma::FulVper;
      case FuClass::VCmplx: return Trauma::FulVcmplx;
      case FuClass::VFp: return Trauma::FulVfpu;
      case FuClass::NumClasses: break;
    }
    return Trauma::Other;
}

constexpr Trauma
diqTrauma(FuClass cls)
{
    switch (cls) {
      case FuClass::LdSt: return Trauma::DiqMem;
      case FuClass::Fix: return Trauma::DiqFix;
      case FuClass::Fp: return Trauma::DiqFpu;
      case FuClass::Br: return Trauma::DiqBr;
      case FuClass::Vi: return Trauma::DiqVi;
      case FuClass::VPer: return Trauma::DiqVper;
      case FuClass::VCmplx: return Trauma::DiqVcmplx;
      case FuClass::VFp: return Trauma::DiqVfpu;
      case FuClass::NumClasses: break;
    }
    return Trauma::Other;
}

/**
 * The routing functions above are the source of truth, but as
 * switches they are data-dependent branches on every instruction;
 * the hot loop reads these precomputed byte tables instead.
 */
constexpr auto fuClassTable = [] {
    std::array<FuClass, isa::numOpClasses> t{};
    for (int i = 0; i < isa::numOpClasses; ++i)
        t[static_cast<std::size_t>(i)] =
            fuClassOf(static_cast<isa::OpClass>(i));
    return t;
}();
constexpr auto regFileTable = [] {
    std::array<std::uint8_t, isa::numOpClasses> t{};
    for (int i = 0; i < isa::numOpClasses; ++i)
        t[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
            regFileOf(static_cast<isa::OpClass>(i)));
    return t;
}();
constexpr auto rgTraumaTable = [] {
    std::array<Trauma, numFuClasses> t{};
    for (int i = 0; i < numFuClasses; ++i)
        t[static_cast<std::size_t>(i)] =
            rgTrauma(static_cast<FuClass>(i), false);
    return t;
}();
constexpr auto fulTraumaTable = [] {
    std::array<Trauma, numFuClasses> t{};
    for (int i = 0; i < numFuClasses; ++i)
        t[static_cast<std::size_t>(i)] =
            fulTrauma(static_cast<FuClass>(i));
    return t;
}();
constexpr auto diqTraumaTable = [] {
    std::array<Trauma, numFuClasses> t{};
    for (int i = 0; i < numFuClasses; ++i)
        t[static_cast<std::size_t>(i)] =
            diqTrauma(static_cast<FuClass>(i));
    return t;
}();

/** Producer record for SSA register lookups. */
struct RegEntry
{
    std::uint64_t ready = 0;
    isa::RegId tag = 0;
    /**
     * Head of the intrusive list (trace indices, linked through
     * Entry::waiterNext) of queued consumers parked on this not-yet-
     * issued producer. The producer's issue — the one moment its
     * completion time becomes known — pays each waiter one O(1)
     * wakeup instead of every waiter re-scanning its operands every
     * cycle. noLink means no waiters.
     */
    std::uint32_t waiterHead = noLink;
    FuClass producer = FuClass::Fix;
    bool producerIsLoad = false;
};

/**
 * Direct-mapped SSA producer table. The tag is the full register
 * id, so a hit is always the true producer; the only question is
 * whether an entry survives long enough. An instruction's id is its
 * window index + 1, so two ids collide only when they are >= 2^12
 * instructions apart — and in-order rename stalls once the ROB
 * fills, so a producer always leaves the ROB (issued, waiters
 * drained, ready time final) long before the 4096th younger
 * instruction could overwrite its slot: the Simulator constructor
 * rejects a ROB above maxRetireQueue, keeping an 8x margin. Sources
 * old enough to have been evicted retired — hence completed —
 * before their consumer renamed, so a tag miss treated as "ready
 * long ago" is exact and can never carry the max ready time that
 * issue attribution wants. The same argument makes the trace's
 * dropped sources (farther than trace::maxSourceDistance) exact.
 * Keeping the table this small matters for speed: destination
 * writes sweep the table cyclically, and at 2^12 x 24 B the whole
 * sweep stays cache-resident instead of evicting itself each
 * revolution.
 */
constexpr int regTableBits = 12;
constexpr std::size_t regTableSize = std::size_t{1} << regTableBits;
constexpr std::size_t regTableMask = regTableSize - 1;
static_assert(std::size_t{Simulator::maxRetireQueue} * 8 <= regTableSize);
static_assert(Simulator::maxRetireQueue <= trace::maxSourceDistance);

/** retireInfo bits (see Entry::retireInfo). */
constexpr std::uint8_t infoRegFile = 0x3;
constexpr std::uint8_t infoHasDst = 0x4;
constexpr std::uint8_t infoCondBranch = 0x8;
constexpr std::uint8_t infoLoad = 0x10;
constexpr std::uint8_t infoVecLoad = 0x20;

/** One in-flight instruction, packed to one cache line (the ROB
 * ring and the issue scans touch these constantly). Rename copies
 * in everything later stages need from the trace, so no stage
 * after it reads the trace again. */
struct alignas(64) Entry
{
    std::uint64_t completeCycle = notReady;
    std::uint64_t enqueueCycle = 0;
    /**
     * Earliest cycle this entry could possibly issue, when that is
     * provable: once a blocking producer has issued, its completion
     * time is fixed (SSA register ids are unique, and a pinned
     * RegEntry is never overwritten while a consumer waits — see
     * the table-size comment above). The issue stage skips the
     * per-cycle operand re-scan until then; re-checks while a
     * producer is still un-issued (unknown timing) keep nextTry in
     * the past.
     */
    std::uint64_t nextTry = 0;
    /** Latest source-ready cycle and its producer, captured by the
     * operand scan that set opsReady (the values are final by
     * then); issue-time trauma attribution reads these instead of
     * re-walking the register table. */
    std::uint64_t srcReady = 0;
    /** Window index (the register id is traceIdx + 1). */
    std::uint32_t traceIdx = 0;
    /** Next consumer in the producer's waiter list (RegEntry::
     * waiterHead); noLink when not linked. */
    std::uint32_t waiterNext = noLink;
    /** Next entry in this entry's timer-wheel bucket; noLink when
     * not parked on the wheel. */
    std::uint32_t wheelNext = noLink;
    isa::Addr addr = 0; ///< effective address (memory ops)
    /** Source distances (trace::Record::srcDist). */
    std::uint16_t srcDist[isa::maxSources] = {0, 0, 0};
    enum class St : std::uint8_t { Renamed, Queued, Issued } st =
        St::Renamed;
    FuClass cls = FuClass::Fix;
    FuClass srcProducer = FuClass::Fix;
    bool srcProducerIsLoad = false;
    /**
     * Immutable per-instruction facts cached at rename, from the
     * static table: bits 0-1 the destination's register file, bit 2
     * "has a destination", bit 3 "conditional branch", bit 4 "load"
     * (the packed-queue low bit; every load is LdSt-class), bit 5
     * "vector load" (the info* constants).
     */
    std::uint8_t retireInfo = 0;
    std::uint8_t accessSize = 0; ///< bytes (memory ops)
    bool mispredicted = false;
    bool storeBlocked = false; ///< was held back by an older store
    /**
     * All sources passed the readiness check once — they stay
     * ready forever (completion times are fixed, and a RegEntry
     * overwrite flips the tag, which also reads as ready), so the
     * scan of a port- or unit-contended entry never repeats the
     * register lookups.
     */
    bool opsReady = false;

    bool
    completed(std::uint64_t now) const
    {
        return st == St::Issued && completeCycle <= now;
    }
};
static_assert(sizeof(Entry) == 64);

/** One fetched-but-not-renamed instruction (the ibuffer plus the
 * decode-pipe latches in front of rename). */
struct IbufEntry
{
    std::uint64_t readyAt = 0; ///< exits the decode pipe then
    std::uint32_t traceIdx = 0;
    bool mispred = false;
};

} // namespace

Simulator::Simulator(const SimConfig &config) : _config(config)
{
    // The register table and the trace's dropped far sources are
    // exact only for a ROB this small (see regTableSize).
    if (config.core.retireQueue < 1
        || config.core.retireQueue > maxRetireQueue)
        throw std::invalid_argument(
            "retireQueue must be in [1, "
            + std::to_string(maxRetireQueue) + "], got "
            + std::to_string(config.core.retireQueue));
}

SimStats
Simulator::run(const trace::Trace &tr)
{
    // A full run is the degenerate sampled case: one window over
    // the whole trace, from cold state. Bit-for-bit identical to
    // the historical all-in-one loop (the golden tests pin this).
    MachineState state(_config);
    return runWindow(tr.view(), state);
}

SimStats
Simulator::runWindow(const trace::TraceView &window,
                     MachineState &state)
{
    // Hoist the predictor dispatch out of the simulation loop: one
    // visit here instead of a virtual call per fetched branch. The
    // concrete predictor types are final, so the instantiated loop
    // calls (and typically inlines) predict/update directly.
    state._warmLine = ~std::uint64_t{0};
    return std::visit(
        [&](auto &predictor) {
            return runImpl(window, predictor, state);
        },
        state._predictor);
}

template <class Predictor>
SimStats
Simulator::runImpl(const trace::TraceView &tr, Predictor &predictor,
                   MachineState &state)
{
    SimStats stats;
    const CoreConfig &core = _config.core;
    const BranchPredictorConfig &bp = _config.bpred;

    // Per-class constants hoisted out of the loop: opLatency() is
    // an out-of-line call and the queue capacities sit behind two
    // pointer hops; both are read on every issue/dispatch.
    std::array<std::uint64_t, numFuClasses> op_latency;
    std::array<int, numFuClasses> queue_cap;
    for (int c = 0; c < numFuClasses; ++c) {
        op_latency[static_cast<std::size_t>(c)] =
            static_cast<std::uint64_t>(
                _config.opLatency(static_cast<FuClass>(c)));
        queue_cap[static_cast<std::size_t>(c)] =
            core.queueSize(static_cast<FuClass>(c));
    }

    for (int c = 0; c < numFuClasses; ++c)
        stats.queueOccupancy[static_cast<std::size_t>(c)].assign(
            static_cast<std::size_t>(
                core.issueQueue[static_cast<std::size_t>(c)]) + 1,
            0);
    stats.inflightOccupancy.assign(
        static_cast<std::size_t>(core.inflightLimit) + 1, 0);
    stats.retireQueueOccupancy.assign(
        static_cast<std::size_t>(core.retireQueue) + 1, 0);

    if (tr.empty())
        return stats;
    // The intrusive waiter/wheel links store window-relative trace
    // indices in 32 bits (31 in the packed scan queues); a window
    // that large is far beyond physical memory.
    assert(tr.size() < (std::uint64_t{noLink} >> 1));

    // The machine state is warm when a sampling driver calls in
    // (cold from run()); statistics are measured against these
    // baselines so a window reports only its own events.
    DataHierarchy &dmem = state._dmem;
    InstrHierarchy &imem = state._imem;
    Btb &btb = state._btb;
    const std::uint64_t base_dl1_accesses = dmem.dl1().accesses();
    const std::uint64_t base_dl1_misses = dmem.dl1().misses();
    const std::uint64_t base_l2_accesses = dmem.l2().accesses();
    const std::uint64_t base_l2_misses = dmem.l2().misses();
    const std::uint64_t base_dtlb1_misses =
        dmem.tlb().tlb1().misses();
    const std::uint64_t base_dtlb2_misses =
        dmem.tlb().tlb2().misses();
    const std::uint64_t base_btb_misses = btb.misses();
    std::uint64_t branch_predictions = 0;
    std::uint64_t branch_mispredictions = 0;

    std::vector<RegEntry> regs(regTableSize);
    auto reg_lookup = [&regs](isa::RegId id) -> RegEntry & {
        return regs[id & regTableMask];
    };

    // The constructor bounds this (see the register-table comment).
    const int rob_cap = core.retireQueue;
    // Rename copies what later stages need into the Entry; fetch and
    // rename read the records and the (L1-resident) static table.
    const trace::Record *const recs = tr.records();
    const trace::StaticInst *const statics = tr.statics();
    // The decode pipe's stage latches hold instructions in
    // addition to the ibuffer proper.
    const int fe_capacity =
        core.ibuffer + core.frontEndDepth * core.fetchWidth;

    // The ROB, with the ibuffer in front of it. Both have hard
    // capacities from CoreConfig, so fixed-size rings replace the
    // deques: no allocator traffic in the loop.
    RingBuffer<Entry> rob(static_cast<std::size_t>(rob_cap));
    RingBuffer<IbufEntry> ibuffer(
        static_cast<std::size_t>(fe_capacity));

    // Issue queues hold indices into `rob` — but rob shifts on
    // retire, so we store (traceIdx) and locate entries by an
    // offset: rob[i].traceIdx == robBaseIdx + i is NOT invariant
    // (ibuffer gap), so queues store traceIdx and we map through
    // robFront (the traceIdx of rob.front()). All rob entries are
    // contiguous in trace order, so index = traceIdx - robFront.
    //
    // Each `queues[c]` is only the *scannable* part of the model's
    // issue queue c, kept sorted by traceIdx: entries that are
    // provably blocked until a known cycle wait in `timers` (a
    // min-heap on wake cycle), and entries blocked on an un-issued
    // producer wait on that producer's RegEntry waiter list. Both
    // re-enter the scan queue at their trace-order position when
    // they wake, so the scan issues exactly the entries the full
    // per-cycle walk would — without touching blocked entries at
    // all. `queue_count[c]` is the *logical* occupancy (scannable +
    // parked), which dispatch backpressure and the occupancy
    // histograms are defined over.
    //
    // Queue values pack (traceIdx << 1) | isLoad. The low bit lets
    // the LdSt scan reject port- or MSHR-starved memory ops from
    // the packed value alone — no Entry or instruction line touched
    // — and since every traceIdx is distinct, ordering by packed
    // value is ordering by trace index.
    std::array<std::vector<std::uint32_t>, numFuClasses> queues;
    std::array<int, numFuClasses> queue_count{};

    // Timer wheel for parked entries: bucket (wake & wheelMask)
    // heads an intrusive list (linked through Entry::wheelNext) of
    // the trace indices to re-examine at cycle `wake`. Every wake
    // is at most the worst-case operation latency ahead — far
    // below wheelSize — so a slot is always drained before it
    // could be reused; a wake beyond the horizon (impossible with
    // the shipped configs, but clamped anyway) just fires early
    // and re-parks, which costs a redundant scan, never
    // correctness.
    constexpr std::uint64_t wheelSize = 2048; // > max latency sum
    constexpr std::uint64_t wheelMask = wheelSize - 1;
    std::vector<std::uint32_t> wheel(wheelSize, noLink);
    std::uint64_t wheel_pos = 0; // wakes <= wheel_pos are drained
    std::uint64_t wheel_pending = 0;

    // Completion calendar for the idle-cycle fast-forward:
    // comp_wheel[c & wheelMask] counts issued-but-uncompleted
    // entries whose results arrive at cycle c (every latency is
    // far below wheelSize, so slots cannot alias). Finding the
    // next completion is then a forward probe over a 4 KB array
    // instead of a full ROB walk on every stalled cycle — the walk
    // was the dominant cost of exactly the long-latency
    // configurations the fast-forward exists for.
    std::vector<std::uint16_t> comp_wheel(wheelSize, 0);
    std::uint64_t comp_pos = 0; // counts <= comp_pos are drained
    std::uint64_t comp_pending = 0;

    // MSHR occupancy as a calendar sharing comp_wheel's drain
    // position: mshr_pending counts L1-missing loads still in
    // flight, and expired slots are dropped in the same pass that
    // drains comp_wheel — O(1) amortized, where the former vector
    // of completion times was rescanned linearly every cycle.
    std::vector<std::uint16_t> mshr_wheel(wheelSize, 0);
    int mshr_pending = 0;

    auto rob_entry = [&rob](std::uint64_t trace_idx) -> Entry & {
        return rob[static_cast<std::size_t>(
            trace_idx - rob.front().traceIdx)];
    };

    std::uint64_t now = 0;
    const auto park_timer = [&wheel, &wheel_pending, &rob_entry,
                             &now](std::uint64_t wake,
                                   std::uint64_t ti) {
        if (wake - now >= wheelSize)
            wake = now + wheelSize - 1; // early wake, re-parks
        std::uint32_t &head = wheel[wake & wheelMask];
        rob_entry(ti).wheelNext = head;
        head = static_cast<std::uint32_t>(ti);
        ++wheel_pending;
    };
    std::uint64_t next_fetch = 0;     // next trace index to fetch
    std::uint64_t dispatch_next = 0;  // next trace index to dispatch
    std::uint64_t fetch_stall_until = 0;
    Trauma fetch_stall_reason = Trauma::IfFlit;
    bool fetch_blocked_mispred = false;
    std::uint64_t mispred_resolve_idx = 0;

    // Free physical registers, indexed by RegFile; the None slot
    // is a sink that can never run out (minus architected state).
    std::array<int, 4> free_regs{core.gprRegs - 36,
                                 core.vprRegs - 34,
                                 core.fprRegs - 34, 1 << 30};
    int unresolved_branches = 0;

    std::uint64_t last_fetch_line = ~std::uint64_t{0};

    // In-flight (unretired) stores, for memory-dependence checks: a
    // load may not issue while an older overlapping store is still
    // completing — there is no store-to-load forwarding, as in the
    // modeled machine; the load reads the cache after the store
    // drains (this is what puts the SIMD kernels' row-buffer
    // reload on the L1-latency path, Fig. 7).
    //
    // [store_lo, store_hi) is a conservative watermark over the
    // queue's live address range: it grows as stores enter and only
    // resets when the queue drains, so a load whose bytes fall
    // outside it provably overlaps no store and skips the exact
    // walk (the common case — the kernels' loads and stores stream
    // through disjoint rows). Staleness after removals can only
    // widen the range, i.e. force a redundant exact walk, never an
    // incorrect skip.
    struct StoreRec
    {
        std::uint64_t traceIdx;
        std::uint64_t addr;
        std::uint64_t end;
    };
    // Entered at dispatch; every member is in the ROB, so the ROB
    // capacity bounds it.
    RingBuffer<StoreRec> store_queue(
        static_cast<std::size_t>(rob_cap));
    std::uint64_t store_lo = ~std::uint64_t{0};
    std::uint64_t store_hi = 0;

    const int il1_line = _config.memory.il1.lineBytes;
    // Fetch groups instructions by I-cache line every cycle; keep
    // that a shift when the configured line size allows (it always
    // does in practice), not a division.
    const int il1_line_shift =
        std::has_single_bit(static_cast<unsigned>(il1_line))
        ? std::countr_zero(static_cast<unsigned>(il1_line))
        : -1;

    const std::uint64_t total = tr.size();
    std::uint64_t retired_total = 0;

    while (retired_total < total) {
        bool issued_any = false;
        bool dispatched_any = false;
        bool renamed_any = false;
        bool imem_accessed = false;
        int fetched = 0;

        // Completions at cycles the clock has now passed are no
        // longer fast-forward targets; drop their counts.
        if (comp_pending != 0 || mshr_pending != 0) {
            for (std::uint64_t t = comp_pos + 1;
                 t <= now && (comp_pending != 0 || mshr_pending != 0);
                 ++t) {
                std::uint16_t &pending = comp_wheel[t & wheelMask];
                comp_pending -= pending;
                pending = 0;
                std::uint16_t &misses = mshr_wheel[t & wheelMask];
                mshr_pending -= misses;
                misses = 0;
            }
        }
        comp_pos = now;

        // ---------------- retire ---------------------------------
        int retired = 0;
        while (retired < core.retireWidth && !rob.empty()
               && rob.front().completed(now)) {
            const std::uint8_t info = rob.front().retireInfo;
            if (info & infoHasDst)
                ++free_regs[info & infoRegFile];
            if (info & infoCondBranch)
                --unresolved_branches;
            rob.pop_front();
            ++retired;
            ++retired_total;
        }
        stats.instructions += static_cast<std::uint64_t>(retired);

        // Drop retired stores from the dependence queue. (MSHRs
        // whose fills completed were reclaimed by the calendar
        // drain above.)
        if (rob.empty()) {
            store_queue.clear();
        } else {
            const std::uint64_t oldest = rob.front().traceIdx;
            while (!store_queue.empty()
                   && store_queue.front().traceIdx < oldest)
                store_queue.pop_front();
        }
        if (store_queue.empty()) {
            store_lo = ~std::uint64_t{0};
            store_hi = 0;
        }

        // ---------------- issue ----------------------------------
        // Wake parked entries whose earliest-issue cycle arrived:
        // back into their scan queue at trace-order position, so
        // the scan below sees exactly what a full walk would. No
        // parks happen between stage runs, so every pending wake
        // is within wheelSize of the previously drained position.
        if (wheel_pending != 0) {
            const std::uint64_t hi =
                std::min(now, wheel_pos + wheelSize);
            for (std::uint64_t t = wheel_pos + 1;
                 t <= hi && wheel_pending != 0; ++t) {
                std::uint32_t &head = wheel[t & wheelMask];
                if (head == noLink)
                    continue;
                // Detach the whole bucket before walking it, so a
                // clamped (over-horizon) park that fires early and
                // re-parks into this same slot waits for the
                // slot's next revolution instead of being walked
                // again now.
                std::uint32_t ti = head;
                head = noLink;
                while (ti != noLink) {
                    --wheel_pending;
                    Entry &e = rob_entry(ti);
                    const std::uint32_t next = e.wheelNext;
                    e.wheelNext = noLink;
                    if (e.nextTry > now) {
                        park_timer(e.nextTry, ti);
                    } else {
                        auto &q =
                            queues[static_cast<std::size_t>(e.cls)];
                        const std::uint32_t packed =
                            (static_cast<std::uint32_t>(ti) << 1)
                            | ((e.retireInfo & infoLoad) ? 1u : 0u);
                        q.insert(
                            std::lower_bound(q.begin(), q.end(),
                                             packed),
                            packed);
                    }
                    ti = next;
                }
            }
        }
        wheel_pos = now;
        int load_ports = core.dcachePorts;
        int store_ports = core.dcacheWritePorts;
        std::array<int, numFuClasses> avail = core.units;
        // The scan body is instantiated twice: the LdSt queue needs
        // the port, MSHR, and store-dependence logic, and every
        // other class is pure compute that compiles without any of
        // it (one fewer unpredictable branch per scanned entry).
        const auto scan_queue = [&](const int c, auto is_mem) {
            auto &queue = queues[static_cast<std::size_t>(c)];
            int &units = avail[static_cast<std::size_t>(c)];
            std::size_t out = 0;
            for (std::size_t qi = 0;
                 qi < queue.size(); ++qi) {
                const std::uint32_t packed = queue[qi];
                if (units == 0) {
                    // No units left: nothing further in this queue
                    // can issue, and a unit-blocked entry is never
                    // touched (the operand and memory checks are
                    // all behind issue_now), so the tail keeps its
                    // order wholesale instead of entry-by-entry.
                    if (out != qi)
                        std::copy(queue.begin()
                                      + static_cast<std::ptrdiff_t>(
                                          qi),
                                  queue.end(),
                                  queue.begin()
                                      + static_cast<std::ptrdiff_t>(
                                          out));
                    out += queue.size() - qi;
                    break;
                }
                if constexpr (is_mem.value) {
                    // A port- or MSHR-starved memory op cannot
                    // issue this cycle whatever its operands, and
                    // deciding that needs only the packed low bit —
                    // the stalled vmx scans reject several blocked
                    // loads per cycle without touching an Entry or
                    // instruction line. Deferring the operand check
                    // is exact: a later pass reads the same pinned
                    // RegEntries (see the register-table comment),
                    // and the op still issues at the first cycle
                    // where units, ports, and operands all allow.
                    if (packed & 1u) {
                        if (load_ports == 0
                            || mshr_pending
                                >= core.maxOutstandingMisses) {
                            queue[out++] = packed;
                            continue;
                        }
                    } else if (store_ports == 0) {
                        queue[out++] = packed;
                        continue;
                    }
                }
                const std::uint64_t ti = packed >> 1;
                // Every queued entry is scannable (nextTry <=
                // now): provably blocked entries are parked off
                // the queue and only drained back in when their
                // wake cycle arrives.
                Entry &e = rob_entry(ti);
                bool issue_now = true;
                // 0 = stay scannable (unit/port/MSHR contention:
                // state-dependent, re-check each cycle), 1 = park
                // until e.nextTry (timer wheel), 2 = park on a
                // producer's waiter list.
                int park = 0;
                if (!e.opsReady) {
                    // Operand readiness, with a wakeup so a blocked
                    // entry is not re-scanned every cycle. The
                    // first blocking source is a lower bound on the
                    // issue cycle either way: an issued producer
                    // completes at a fixed time (nextTry jumps
                    // there), and an un-issued one parks this entry
                    // on its waiter list — its own issue sets
                    // nextTry then. Both skips are exact: a blocked
                    // entry's re-scan has no side effects, and a
                    // pinned RegEntry is never overwritten while a
                    // consumer waits (see the register-table
                    // comment). A pass that finds every source
                    // ready has seen all their final ready times,
                    // so it records the attribution max as it goes.
                    std::uint64_t max_ready = 0;
                    FuClass prod = FuClass::Fix;
                    bool prod_load = false;
                    for (const std::uint16_t dist : e.srcDist) {
                        // 0 = no source; a distance past the window
                        // start names a producer this run never
                        // renamed, which reads as ready.
                        if (dist == 0 || dist > e.traceIdx)
                            continue;
                        const isa::RegId src = e.traceIdx + 1u - dist;
                        RegEntry &re = reg_lookup(src);
                        if (re.tag != src)
                            continue;
                        if (re.ready > now) {
                            issue_now = false;
                            if (re.ready != notReady) {
                                e.nextTry = re.ready;
                                park = 1;
                            } else {
                                e.waiterNext = re.waiterHead;
                                re.waiterHead =
                                    static_cast<std::uint32_t>(
                                        e.traceIdx);
                                e.nextTry = notReady;
                                park = 2;
                            }
                            break;
                        }
                        if (re.ready > max_ready) {
                            max_ready = re.ready;
                            prod = re.producer;
                            prod_load = re.producerIsLoad;
                        }
                    }
                    if (issue_now) {
                        e.opsReady = true;
                        e.srcReady = max_ready;
                        e.srcProducer = prod;
                        e.srcProducerIsLoad = prod_load;
                    }
                }
                if constexpr (is_mem.value) {
                    const bool is_load = (packed & 1u) != 0;
                    if (issue_now && is_load) {
                        const std::uint64_t lo = e.addr;
                        const std::uint64_t hi = lo + e.accessSize;
                        // Exact walk only when the load intersects
                        // the conservative live-store range.
                        if (lo < store_hi && hi > store_lo) {
                            for (std::size_t si = 0;
                                 si < store_queue.size(); ++si) {
                                const StoreRec &st =
                                    store_queue[si];
                                if (st.traceIdx >= e.traceIdx)
                                    continue;
                                if (st.addr < hi && st.end > lo) {
                                    const Entry &se =
                                        rob_entry(st.traceIdx);
                                    if (se.completed(now))
                                        continue;
                                    issue_now = false;
                                    e.storeBlocked = true;
                                    // An issued store completes at
                                    // a fixed cycle; the load stays
                                    // blocked (by this store) until
                                    // then, so skip the re-walks.
                                    if (se.st
                                        == Entry::St::Issued) {
                                        e.nextTry =
                                            se.completeCycle;
                                        park = 1;
                                    }
                                    break;
                                }
                            }
                        }
                    }
                    // A penalized (double-pumped) wide vector load
                    // also occupies the permute network for its
                    // merge, like Altivec's load-alignment path.
                    if (issue_now && (e.retireInfo & infoVecLoad)
                        && _config.memory.wideVectorLoadPenalty > 0
                        && avail[static_cast<std::size_t>(
                               FuClass::VPer)] == 0)
                        issue_now = false;
                }
                if (!issue_now) {
                    if (park == 0)
                        queue[out++] = packed; // re-check next cycle
                    else if (park == 1)
                        park_timer(e.nextTry, ti);
                    // park == 2: reachable via the waiter list.
                    continue;
                }

                // Issue the instruction. Attribute its waiting
                // time the way Turandot records operation flow:
                // cycles spent waiting on a source register go to
                // rg_<producer class>, unit/port contention beyond
                // that goes to ful_<class>, and memory service time
                // goes to mm_dl1/mm_dl2 below. The adds are
                // unconditional (of zero when there was no wait) so
                // the two updates carry no data-dependent branches.
                {
                    const std::uint64_t enq = e.enqueueCycle;
                    const std::uint64_t rg_delta =
                        e.srcReady > enq ? e.srcReady - enq : 0;
                    stats.traumas.add(
                        e.srcProducerIsLoad
                            ? Trauma::RgMem
                            : rgTraumaTable[static_cast<std::size_t>(
                                  e.srcProducer)],
                        rg_delta);
                    const std::uint64_t ready_at =
                        std::max(e.srcReady, enq);
                    const std::uint64_t ful_delta =
                        now > ready_at ? now - ready_at : 0;
                    stats.traumas.add(
                        e.storeBlocked
                            ? Trauma::StData
                            : fulTraumaTable[static_cast<std::size_t>(
                                  e.cls)],
                        ful_delta);
                }
                --units;
                --queue_count[static_cast<std::size_t>(c)];
                issued_any = true;
                e.st = Entry::St::Issued;
                std::uint64_t latency =
                    op_latency[static_cast<std::size_t>(c)];
                if constexpr (is_mem.value) {
                    if ((e.retireInfo & infoVecLoad)
                        && _config.memory.wideVectorLoadPenalty > 0)
                        --avail[static_cast<std::size_t>(
                            FuClass::VPer)];
                    // LdSt-class: not a load means a store.
                    const MemAccess acc =
                        dmem.access(e.addr, (packed & 1u) == 0);
                    if ((packed & 1u) != 0) {
                        --load_ports;
                        latency = static_cast<std::uint64_t>(
                            acc.latency);
                        if (e.retireInfo & infoVecLoad)
                            latency += static_cast<std::uint64_t>(
                                _config.memory
                                    .wideVectorLoadPenalty);
                        if (acc.tlbLevel != TlbLevel::Tlb1) {
                            const auto &dt =
                                _config.memory.dataTranslation;
                            stats.traumas.add(
                                acc.tlbLevel == TlbLevel::Walk
                                    ? Trauma::MmTlb2
                                    : Trauma::MmTlb1,
                                static_cast<std::uint64_t>(
                                    acc.tlbLevel == TlbLevel::Walk
                                        ? dt.tlb2Latency
                                              + dt.walkLatency
                                        : dt.tlb2Latency));
                        }
                        if (acc.level != MemLevel::L1) {
                            ++mshr_wheel[(now + latency)
                                         & wheelMask];
                            ++mshr_pending;
                            stats.traumas.add(
                                acc.level == MemLevel::Memory
                                    ? Trauma::MmDl2
                                    : Trauma::MmDl1,
                                latency
                                    - static_cast<std::uint64_t>(
                                        _config.memory.dl1
                                            .latency));
                        }
                    } else {
                        --store_ports;
                        latency = 1; // store buffer absorbs it
                    }
                }
                e.completeCycle = now + latency;
                assert(latency < wheelSize);
                ++comp_wheel[e.completeCycle & wheelMask];
                ++comp_pending;
                if (e.retireInfo & infoHasDst) {
                    const isa::RegId dst = e.traceIdx + 1u;
                    RegEntry &re = reg_lookup(dst);
                    re.tag = dst;
                    re.ready = e.completeCycle;
                    re.producer = e.cls;
                    re.producerIsLoad = (e.retireInfo & infoLoad) != 0;
                    // Wake the consumers parked on this producer:
                    // they could not issue before now, and from now
                    // on this completion time bounds them.
                    std::uint32_t w = re.waiterHead;
                    re.waiterHead = noLink;
                    while (w != noLink) {
                        Entry &we = rob_entry(w);
                        w = we.waiterNext;
                        we.waiterNext = noLink;
                        we.nextTry = e.completeCycle;
                        park_timer(we.nextTry, we.traceIdx);
                    }
                }
                if (e.mispredicted
                    && e.traceIdx == mispred_resolve_idx) {
                    // Fetch resumes after resolution + recovery.
                    fetch_blocked_mispred = false;
                    fetch_stall_until = std::max(
                        fetch_stall_until,
                        e.completeCycle
                            + static_cast<std::uint64_t>(
                                bp.recoveryCycles));
                    fetch_stall_reason = Trauma::IfPred;
                }
            }
            queue.resize(out);
        };
        for (int c = 0; c < numFuClasses; ++c) {
            if (queues[static_cast<std::size_t>(c)].empty())
                continue;
            if (c == static_cast<int>(FuClass::LdSt))
                scan_queue(c, std::true_type{});
            else
                scan_queue(c, std::false_type{});
        }

        // ---------------- dispatch -------------------------------
        for (int d = 0; d < core.dispatchWidth; ++d) {
            if (rob.empty() || dispatch_next > rob.back().traceIdx)
                break;
            if (dispatch_next < rob.front().traceIdx)
                dispatch_next = rob.front().traceIdx;
            Entry &e = rob_entry(dispatch_next);
            if (e.st != Entry::St::Renamed)
                break;
            auto &queue =
                queues[static_cast<std::size_t>(e.cls)];
            if (queue_count[static_cast<std::size_t>(e.cls)]
                >= queue_cap[static_cast<std::size_t>(e.cls)])
                break; // in-order dispatch: younger ops wait too
            queue.push_back(
                (static_cast<std::uint32_t>(e.traceIdx) << 1)
                | ((e.retireInfo & infoLoad) ? 1u : 0u));
            ++queue_count[static_cast<std::size_t>(e.cls)];
            e.st = Entry::St::Queued;
            e.enqueueCycle = now;
            dispatched_any = true;
            // The issue scan walks the sources against the
            // register table no earlier than next cycle; start
            // those (L2-resident) lines toward L1 now.
            for (const std::uint16_t dist : e.srcDist)
                if (dist != 0 && dist <= e.traceIdx)
                    __builtin_prefetch(
                        &regs[(e.traceIdx + 1u - dist) & regTableMask]);
            if (e.cls == FuClass::LdSt && !(e.retireInfo & infoLoad)) {
                const std::uint64_t lo = e.addr;
                const std::uint64_t hi = lo + e.accessSize;
                store_queue.push_back(StoreRec{e.traceIdx, lo, hi});
                store_lo = std::min(store_lo, lo);
                store_hi = std::max(store_hi, hi);
            }
            ++dispatch_next;
        }

        // ---------------- rename ---------------------------------
        for (int r = 0; r < core.renameWidth; ++r) {
            if (ibuffer.empty()
                || static_cast<int>(rob.size()) >= rob_cap)
                break;
            if (ibuffer.front().readyAt > now)
                break; // still in the decode pipe
            const std::uint32_t ti = ibuffer.front().traceIdx;
            const trace::Record &rec = recs[ti];
            const trace::StaticInst &st = statics[rec.staticIndex()];
            const std::size_t cls = static_cast<std::size_t>(st.cls);
            if (st.produces) {
                int &avail_regs = free_regs[regFileTable[cls]];
                if (avail_regs <= 0)
                    break; // physical registers exhausted
                --avail_regs;
            }

            Entry &e = rob.emplace_back();
            e.traceIdx = ti;
            e.addr = rec.addr;
            std::copy(std::begin(rec.srcDist), std::end(rec.srcDist),
                      e.srcDist);
            e.accessSize = st.size;
            e.cls = fuClassTable[cls];
            e.mispredicted = ibuffer.front().mispred;
            e.retireInfo = static_cast<std::uint8_t>(
                (st.produces ? infoHasDst | regFileTable[cls] : 0u)
                | (st.isBranch() && st.conditional ? infoCondBranch
                                                   : 0u)
                | (st.isLoad() ? infoLoad : 0u)
                | (st.cls == isa::OpClass::VecLoad ? infoVecLoad
                                                   : 0u));
            if (st.produces) {
                // Mark the destination pending so consumers wait
                // until the producer actually issues. Any previous
                // tenant of this slot drained its waiters when it
                // issued, so the list starts empty.
                const isa::RegId dst = ti + 1u;
                RegEntry &re = reg_lookup(dst);
                re.tag = dst;
                re.ready = notReady;
                re.waiterHead = noLink;
                re.producer = e.cls;
                re.producerIsLoad = st.isLoad();
            }
            ibuffer.pop_front();
            renamed_any = true;
        }

        // ---------------- fetch ----------------------------------
        Trauma front_end_reason = fetch_stall_reason;
        if (now >= fetch_stall_until && !fetch_blocked_mispred) {
            front_end_reason = Trauma::IfFlit;
            while (fetched < core.fetchWidth
                   && static_cast<int>(ibuffer.size()) < fe_capacity
                   && next_fetch < total) {
                const trace::Record &rec = recs[next_fetch];
                const trace::StaticInst &st =
                    statics[rec.staticIndex()];
                const bool taken = rec.taken();

                // I-cache: access once per new line.
                const std::uint64_t line = il1_line_shift >= 0
                    ? st.byteAddress() >> il1_line_shift
                    : st.byteAddress()
                        / static_cast<unsigned>(il1_line);
                if (line != last_fetch_line) {
                    const MemAccess acc =
                        imem.fetch(st.byteAddress());
                    last_fetch_line = line;
                    imem_accessed = true;
                    if (acc.level != MemLevel::L1
                        || acc.tlbLevel != TlbLevel::Tlb1) {
                        stats.il1Misses +=
                            acc.level != MemLevel::L1;
                        fetch_stall_until = now
                            + static_cast<std::uint64_t>(
                                acc.latency);
                        if (acc.tlbLevel != TlbLevel::Tlb1) {
                            fetch_stall_reason =
                                acc.tlbLevel == TlbLevel::Walk
                                    ? Trauma::IfTlb2
                                    : Trauma::IfTlb1;
                        } else {
                            fetch_stall_reason =
                                acc.level == MemLevel::L2
                                    ? Trauma::IfL1
                                    : Trauma::IfL2;
                        }
                        front_end_reason = fetch_stall_reason;
                        break;
                    }
                }

                bool mispred = false;
                if (st.isBranch()) {
                    if (unresolved_branches
                        >= bp.maxPredictedBranches) {
                        front_end_reason = Trauma::IfBrch;
                        break;
                    }
                    if (st.conditional) {
                        // Direct (devirtualized) calls: Predictor
                        // is a concrete final type.
                        if constexpr (std::is_same_v<
                                          Predictor,
                                          PerfectPredictor>)
                            predictor.setOutcome(taken);
                        const bool pred = predictor.predict(st.pc);
                        predictor.update(st.pc, taken);
                        ++branch_predictions;
                        mispred = pred != taken;
                        branch_mispredictions += mispred;
                        ++unresolved_branches;
                    }
                    if (taken && !btb.lookup(st.pc)) {
                        fetch_stall_until = now
                            + static_cast<std::uint64_t>(
                                bp.nfaMissPenalty);
                        fetch_stall_reason = Trauma::IfNfa;
                    }
                }

                ibuffer.push_back(IbufEntry{
                    now
                        + static_cast<std::uint64_t>(
                            core.frontEndDepth),
                    static_cast<std::uint32_t>(next_fetch),
                    mispred});
                ++next_fetch;
                ++fetched;

                if (mispred) {
                    fetch_blocked_mispred = true;
                    mispred_resolve_idx = next_fetch - 1;
                    front_end_reason = Trauma::IfPred;
                    break;
                }
                if (st.isBranch() && taken)
                    break; // fetch group ends at a taken branch
            }
        } else if (fetch_blocked_mispred) {
            front_end_reason = Trauma::IfPred;
        }

        // ---------------- idle-cycle fast-forward ----------------
        // If this cycle changed nothing (no retire, issue,
        // dispatch, rename, fetch, or I-cache touch), the machine
        // replays it verbatim until the next timed event: every
        // gate above compares `now` against a known future time.
        // Jump there in one step and multiply this cycle's
        // occupancy/trauma accounting by the span instead of
        // re-discovering the same stall cycle by cycle.
        std::uint64_t span = 1;
        const bool progress = retired != 0 || issued_any
            || dispatched_any || renamed_any || fetched != 0
            || imem_accessed;
        if (!progress) {
            // Issued-but-uncompleted entries all live in the ROB,
            // so the completion calendar's first occupied slot is
            // exactly the min completeCycle a ROB walk would find.
            std::uint64_t next_event = notReady;
            if (comp_pending != 0) {
                for (std::uint64_t t = now + 1;; ++t) {
                    if (comp_wheel[t & wheelMask] != 0) {
                        next_event = t;
                        break;
                    }
                }
            }
            // In-flight misses need no separate scan: an MSHR's
            // fill time is its load's completeCycle, which the
            // completion calendar above already covers.
            if (fetch_stall_until > now
                && fetch_stall_until < next_event)
                next_event = fetch_stall_until;
            if (!ibuffer.empty() && ibuffer.front().readyAt > now
                && ibuffer.front().readyAt < next_event)
                next_event = ibuffer.front().readyAt;
            // No timed event would mean a wedged machine; keep the
            // single-step behavior in that (impossible) case.
            if (next_event != notReady)
                span = next_event - now;
        }

        // ---------------- occupancy + trauma accounting ----------
        // Empty queues (the common case for most classes) are not
        // counted here; h[0] is reconstructed after the loop as
        // total cycles minus the occupied ones.
        for (int c = 0; c < numFuClasses; ++c) {
            const auto occ = static_cast<std::size_t>(
                queue_count[static_cast<std::size_t>(c)]);
            if (occ == 0)
                continue;
            auto &h =
                stats.queueOccupancy[static_cast<std::size_t>(c)];
            h[std::min(occ, h.size() - 1)] += span;
        }
        stats.inflightOccupancy[std::min(
            rob.size() + ibuffer.size(),
            stats.inflightOccupancy.size() - 1)] += span;
        stats.retireQueueOccupancy[std::min(
            rob.size(), stats.retireQueueOccupancy.size() - 1)] +=
            span;

        // Fetch-side traumas are cycle-based: every cycle the
        // fetch stage makes no progress for a front-end reason is
        // charged to that reason (back-end rg_/mm_/ful_ waiting is
        // operation-weighted at issue time instead). A fast-forward
        // span charges every skipped cycle to the same reason —
        // the skipped cycles are literal replays.
        if (next_fetch < total) {
            if (fetch_blocked_mispred) {
                stats.traumas.add(Trauma::IfPred, span);
            } else if (now < fetch_stall_until) {
                stats.traumas.add(fetch_stall_reason, span);
            } else if (front_end_reason == Trauma::IfBrch) {
                stats.traumas.add(Trauma::IfBrch, span);
            }
        }
        if (retired == 0 && retired_total < total) {
            if (!rob.empty()) {
                Entry &oldest = rob.front();
                if (oldest.st == Entry::St::Renamed)
                    stats.traumas.add(
                        diqTraumaTable[static_cast<std::size_t>(
                            oldest.cls)],
                        span);
            } else if (!ibuffer.empty()
                       && ibuffer.front().readyAt > now
                       && now >= fetch_stall_until
                       && !fetch_blocked_mispred) {
                // Decode-pipe refill with an idle machine: part of
                // the preceding flush's cost.
                stats.traumas.add(fetch_stall_reason, span);
            }
        }

        now += span;
    }




    stats.cycles = now;
    for (int c = 0; c < numFuClasses; ++c) {
        auto &h = stats.queueOccupancy[static_cast<std::size_t>(c)];
        std::uint64_t occupied = 0;
        for (std::size_t n = 1; n < h.size(); ++n)
            occupied += h[n];
        h[0] = now - occupied;
    }
    stats.dl1Accesses = dmem.dl1().accesses() - base_dl1_accesses;
    stats.dl1Misses = dmem.dl1().misses() - base_dl1_misses;
    stats.l2Accesses = dmem.l2().accesses() - base_l2_accesses;
    stats.l2Misses = dmem.l2().misses() - base_l2_misses;
    stats.dtlb1Misses =
        dmem.tlb().tlb1().misses() - base_dtlb1_misses;
    stats.dtlb2Misses =
        dmem.tlb().tlb2().misses() - base_dtlb2_misses;
    stats.branchPredictions = branch_predictions;
    stats.branchMispredictions = branch_mispredictions;
    stats.btbMisses = btb.misses() - base_btb_misses;
    return stats;
}

} // namespace bioarch::sim
