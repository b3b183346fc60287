#include "sample.hh"

#include <bit>
#include <stdexcept>
#include <utility>

#include "core/digest.hh"
#include "core/thread_pool.hh"

namespace bioarch::sim
{

std::string
SampleConfig::validate() const
{
    if (windowInsts == 0)
        return "sample window must be a positive instruction count";
    if (periodInsts == 0)
        return "sample period must be a positive instruction count";
    if (windowInsts > periodInsts)
        return "sample window (" + std::to_string(windowInsts)
            + ") must not exceed the sample period ("
            + std::to_string(periodInsts) + ")";
    if (chunkWindows == 0)
        return "sample chunk must hold at least one window";
    if (jobs == 0)
        return "sample jobs must be at least 1";
    return "";
}

namespace
{

/** splitmix64: the offset scrambler for window placement. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

std::vector<SampleWindow>
planWindows(std::uint64_t traceInsts, const SampleConfig &config)
{
    std::vector<SampleWindow> windows;
    if (traceInsts == 0)
        return windows;

    // One window per period. The window sits at a *pseudo-random
    // offset* within its period (deterministic — a fixed hash of
    // the period index — so plans never depend on anything but the
    // config): strict period-start placement resonates with loopy
    // programs whose phase structure divides the period, and the
    // aliased estimate can be off by 10x the jittered one. Each
    // window stands for exactly its period's instructions, so the
    // represents counts partition the trace.
    std::uint64_t index = 0;
    for (std::uint64_t periodBegin = 0; periodBegin < traceInsts;
         periodBegin += config.periodInsts, ++index) {
        const std::uint64_t span =
            std::min(config.periodInsts, traceInsts - periodBegin);
        SampleWindow w;
        w.count = std::min(config.windowInsts, span);
        const std::uint64_t slack = span - w.count;
        w.begin = periodBegin
            + (slack == 0 ? 0 : mix64(index) % (slack + 1));
        w.represents = span;
        windows.push_back(w);
    }
    return windows;
}

double
SampledStats::traumaShare(Trauma t) const
{
    const std::uint64_t total = measured.traumas.total();
    return total == 0
        ? 0.0
        : static_cast<double>(measured.traumas.get(t))
            / static_cast<double>(total);
}

std::uint64_t
SampledStats::fingerprint() const
{
    core::Fnv1a fnv;
    fnv.update64(measured.fingerprint());
    fnv.update64(windows);
    fnv.update64(traceInstructions);
    fnv.update64(measuredInstructions);
    fnv.update64(warmupInstructions);
    fnv.update64(dl1Accesses);
    fnv.update64(dl1Misses);
    fnv.update64(l2Accesses);
    fnv.update64(l2Misses);
    fnv.update64(std::bit_cast<std::uint64_t>(estimatedCycles));
    return fnv.digest();
}

namespace
{

/** Relative error in percent; absolute (scaled) when the reference
 * is effectively zero, so empty counters do not divide by zero. */
double
relErrorPct(double sampled, double full)
{
    const double diff =
        sampled >= full ? sampled - full : full - sampled;
    if (full > 1e-9 || full < -1e-9)
        return 100.0 * diff / (full < 0 ? -full : full);
    return 100.0 * diff;
}

} // namespace

SampleError
compareSampled(const SampledStats &sampled, const SimStats &full)
{
    SampleError err;
    err.ipcPct = relErrorPct(sampled.ipc(), full.ipc());
    err.dl1MissRatePct =
        relErrorPct(sampled.dl1MissRate(), full.dl1MissRate());
    const double fullL2 = full.l2Accesses == 0
        ? 0.0
        : static_cast<double>(full.l2Misses)
            / static_cast<double>(full.l2Accesses);
    err.l2MissRatePct = relErrorPct(sampled.l2MissRate(), fullL2);

    const std::uint64_t fullTotal = full.traumas.total();
    for (int t = 0; t < numTraumas; ++t) {
        const Trauma trauma = static_cast<Trauma>(t);
        const double fullShare = fullTotal == 0
            ? 0.0
            : static_cast<double>(full.traumas.get(trauma))
                / static_cast<double>(fullTotal);
        const double diff =
            100.0 * (sampled.traumaShare(trauma) - fullShare);
        const double pts = diff < 0 ? -diff : diff;
        if (pts > err.traumaSharePts)
            err.traumaSharePts = pts;
    }
    return err;
}

SampledStats
sampleTrace(const trace::Trace &trace, const SimConfig &machine,
            const SampleConfig &config)
{
    const std::string problem = config.validate();
    if (!problem.empty())
        throw std::invalid_argument(problem);

    const std::vector<SampleWindow> windows =
        planWindows(trace.size(), config);
    SampledStats out;
    out.traceInstructions = trace.size();
    if (windows.empty())
        return out;

    // Chunks are the parallel unit. A chunk starts from the state
    // a functional walk of the whole trace before its first
    // window leaves, then alternates detailed measurement
    // (runWindow) with functional warming of the inter-window
    // gaps, so every window carries continuous state history.
    //
    // One walker builds those states: it streams the trace through
    // the functional model once, snapshots the state at each
    // chunk's first window and hands the snapshot off, so chunks
    // run while the walk goes on. At the last chunk the walker
    // runs that chunk itself on its own state and warms the tail,
    // so its stream covers the whole trace and the whole-trace
    // dl1/l2 counters are harvested from it (miss rates are never
    // extrapolated from windows). A lone chunk is exactly that
    // stream. The chunk partition depends only on the config, and
    // results land in index-ordered slots, so the aggregate is
    // bit-identical whatever the execution schedule was.
    std::vector<SimStats> results(windows.size());
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            config.chunkWindows, windows.size()));
    const std::size_t chunks = (windows.size() + chunk - 1) / chunk;
    const std::uint64_t lastChunkBegin =
        windows[(chunks - 1) * chunk].begin;
    // What a chunk warms after window i: the gap to its next
    // window, or the trace's tail after the very last window.
    const auto warmAfter = [&](std::size_t i) -> std::uint64_t {
        const std::uint64_t end = windows[i].begin + windows[i].count;
        if (i + 1 == windows.size())
            return trace.size() - end;
        return (i + 1) % chunk == 0 ? 0 : windows[i + 1].begin - end;
    };
    const auto runChunk = [&](std::size_t c, MachineState &state) {
        const std::size_t last =
            std::min((c + 1) * chunk, windows.size());
        Simulator sim(machine);
        for (std::size_t i = c * chunk; i < last; ++i) {
            const SampleWindow &w = windows[i];
            results[i] = sim.runWindow(
                trace.subspan(w.begin, w.count), state);
            state.warm(trace.subspan(w.begin + w.count, warmAfter(i)));
        }
    };
    const auto walk = [&](const auto &handOff) {
        MachineState state(machine);
        std::uint64_t walked = 0;
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::uint64_t begin = windows[c * chunk].begin;
            state.warm(trace.subspan(walked, begin - walked));
            walked = begin;
            if (c + 1 < chunks)
                handOff(c, state.snapshot());
        }
        runChunk(chunks - 1, state);
        const DataHierarchy &mem = state.dataHierarchy();
        out.dl1Accesses = mem.dl1().accesses();
        out.dl1Misses = mem.dl1().misses();
        out.l2Accesses = mem.l2().accesses();
        out.l2Misses = mem.l2().misses();
    };

    if (config.jobs <= 1 || chunks == 1) {
        // Serial path doubles as the nested-pool escape hatch: a
        // sweep point already running inside a ThreadPool task must
        // not wait() on a pool from within it.
        walk([&](std::size_t c, MachineState snap) {
            runChunk(c, snap);
        });
    } else {
        // The walker is one pool task; it submits each chunk, with
        // its snapshot moved in, from inside that task.
        core::ThreadPool pool(config.jobs);
        pool.submit([&] {
            walk([&](std::size_t c, MachineState snap) {
                pool.submit([&runChunk, c,
                             state = std::move(snap)]() mutable {
                    runChunk(c, state);
                });
            });
        });
        pool.wait();
    }

    out.windows = windows.size();
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const SampleWindow &w = windows[i];
        out.measured.accumulate(results[i]);
        out.measuredInstructions += w.count;
        // Fixed accumulation order keeps the double deterministic.
        out.estimatedCycles +=
            static_cast<double>(results[i].cycles)
            * (static_cast<double>(w.represents)
               / static_cast<double>(w.count));
    }
    // Functionally streamed instructions: the walk up to the last
    // chunk, then every chunk's gaps and the tail. Chunks other
    // than the last stream their gaps a second time.
    out.warmupInstructions = lastChunkBegin;
    for (std::size_t i = 0; i < windows.size(); ++i)
        out.warmupInstructions += warmAfter(i);
    return out;
}

} // namespace bioarch::sim
