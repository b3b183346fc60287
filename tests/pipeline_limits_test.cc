/**
 * @file
 * Pipeline resource-limit tests: each structural limit of the
 * modeled core (physical registers, predicted-branch cap, NFA
 * penalty, issue-queue capacity, store-to-load dependences,
 * front-end depth) is exercised in isolation with a crafted trace
 * and must produce the expected throughput effect and trauma.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/pipeline.hh"
#include "trace/tracer.hh"

namespace
{

using namespace bioarch;
using sim::SimConfig;
using trace::Reg;
using trace::Tracer;

SimConfig
idealMemoryConfig()
{
    SimConfig cfg;
    cfg.memory = sim::memoryInf();
    return cfg;
}

TEST(PipelineLimits, PhysicalRegistersBoundTheWindow)
{
    // Long-latency producers hold physical registers; with a tiny
    // register file the machine cannot cover the latency even
    // though the ROB could.
    Tracer t("regs");
    for (int i = 0; i < 4000; ++i)
        t.vcomplex(); // 4-cycle producers, all independent
    const trace::Trace tr = t.take();

    SimConfig small = idealMemoryConfig();
    small.core.vprRegs = 40; // ~6 usable past the architected 34
    SimConfig large = idealMemoryConfig();
    large.core.vprRegs = 128;
    // Equalize everything else that could bind.
    for (auto *c : {&small.core, &large.core}) {
        c->units[static_cast<int>(sim::FuClass::VCmplx)] = 4;
        c->issueQueue[static_cast<int>(sim::FuClass::VCmplx)] = 80;
    }

    const double ipc_small = sim::Simulator(small).run(tr).ipc();
    const double ipc_large = sim::Simulator(large).run(tr).ipc();
    EXPECT_GT(ipc_large, 1.5 * ipc_small);
}

TEST(PipelineLimits, PredictedBranchCapThrottlesFetch)
{
    // A branch-dense trace (every other instruction) with slow
    // resolution: the 12-predicted-branch cap limits lookahead.
    Tracer t("brcap");
    Reg r = t.vcomplex();
    for (int i = 0; i < 3000; ++i) {
        r = t.vcomplex({r}); // slow chain the branches depend on
        t.branch(i % 2 == 0, {r});
    }
    const trace::Trace tr = t.take();

    SimConfig tight = idealMemoryConfig();
    tight.bpred.kind = sim::PredictorKind::Perfect;
    tight.bpred.maxPredictedBranches = 1;
    SimConfig loose = tight;
    loose.bpred.maxPredictedBranches = 64;

    const sim::SimStats st = sim::Simulator(tight).run(tr);
    const sim::SimStats sl = sim::Simulator(loose).run(tr);
    EXPECT_GT(sl.ipc(), 1.2 * st.ipc());
    EXPECT_GT(st.traumas.get(sim::Trauma::IfBrch), 0u);
}

TEST(PipelineLimits, NfaMissesCostFetchBubbles)
{
    // Many distinct always-taken branches thrash a tiny BTB.
    Tracer t("nfa");
    for (int i = 0; i < 600; ++i) {
        // 64 distinct jump sites exercised round-robin... a static
        // loop emitting from one site would share a PC, so unroll
        // by hand over several textual sites.
        t.jump();
        t.alu();
        t.jump();
        t.alu();
        t.jump();
        t.alu();
    }
    const trace::Trace tr = t.take();

    SimConfig no_penalty = idealMemoryConfig();
    no_penalty.bpred.nfaMissPenalty = 0;
    SimConfig harsh = idealMemoryConfig();
    harsh.bpred.nfaMissPenalty = 12;
    harsh.bpred.btbEntries = 2; // thrash even 3 jump sites
    harsh.bpred.btbAssociativity = 1;

    const sim::SimStats fast =
        sim::Simulator(no_penalty).run(tr);
    const sim::SimStats slow = sim::Simulator(harsh).run(tr);
    EXPECT_GT(slow.cycles, fast.cycles);
    EXPECT_GT(slow.traumas.get(sim::Trauma::IfNfa), 0u);
    EXPECT_GT(slow.btbMisses, 100u);
}

TEST(PipelineLimits, IssueQueueFullBlocksDispatch)
{
    // A long-latency serial chain fills the VCMPLX queue; younger
    // independent work behind it cannot dispatch (in-order
    // dispatch) -> diq_* traumas.
    Tracer t("qfull");
    Reg r = t.vcomplex();
    for (int i = 0; i < 500; ++i) {
        r = t.vcomplex({r});
        for (int k = 0; k < 8; ++k)
            t.alu();
    }
    const trace::Trace tr = t.take();

    SimConfig cfg = idealMemoryConfig();
    cfg.core.issueQueue[static_cast<int>(sim::FuClass::VCmplx)] =
        4;
    const sim::SimStats stats = sim::Simulator(cfg).run(tr);
    EXPECT_GT(stats.traumas.get(sim::Trauma::DiqVcmplx), 0u);
}

TEST(PipelineLimits, StoreToLoadDependenceSerializes)
{
    // load <- store <- load ... through one address: the machine
    // must serialize on the store queue (no forwarding), and the
    // same trace with *disjoint* addresses must run much faster.
    auto make = [](bool aliased) {
        Tracer t(aliased ? "alias" : "noalias");
        const isa::Addr buf = t.alloc(1 << 16, "buf");
        Reg v = t.alu();
        for (int i = 0; i < 2000; ++i) {
            const isa::Addr addr = aliased
                ? buf
                : buf + static_cast<isa::Addr>(i % 1024) * 64;
            Reg x = t.load(addr, 8, {});
            v = t.alu({x, v});
            t.store(addr, 8, v, {});
        }
        return t.take();
    };

    SimConfig cfg = idealMemoryConfig();
    const sim::SimStats aliased =
        sim::Simulator(cfg).run(make(true));
    const sim::SimStats disjoint =
        sim::Simulator(cfg).run(make(false));
    EXPECT_GT(disjoint.ipc(), 1.5 * aliased.ipc());
    EXPECT_GT(aliased.traumas.get(sim::Trauma::StData)
                  + aliased.traumas.get(sim::Trauma::RgMem),
              0u);
}

TEST(PipelineLimits, FrontEndDepthSetsFlushCost)
{
    // Unpredictable branches: a deeper decode pipe makes each
    // flush costlier.
    Tracer t("depth");
    Reg r = t.alu();
    for (int i = 0; i < 4000; ++i) {
        r = t.alu({r});
        t.branch((i * 2654435761u >> 11) & 1, {r});
    }
    const trace::Trace tr = t.take();

    SimConfig shallow = idealMemoryConfig();
    shallow.core.frontEndDepth = 1;
    SimConfig deep = idealMemoryConfig();
    deep.core.frontEndDepth = 16;

    const double ipc_shallow =
        sim::Simulator(shallow).run(tr).ipc();
    const double ipc_deep = sim::Simulator(deep).run(tr).ipc();
    EXPECT_GT(ipc_shallow, 1.3 * ipc_deep);
}

TEST(PipelineLimits, MshrLimitGatesMissParallelism)
{
    // Independent missing loads: more MSHRs = more memory-level
    // parallelism.
    Tracer t("mshr");
    const isa::Addr buf = t.alloc(32u << 20, "big");
    for (int i = 0; i < 1500; ++i)
        t.load(buf + static_cast<isa::Addr>(i) * 4096, 4, {});
    const trace::Trace tr = t.take();

    SimConfig one;
    one.memory = sim::memoryMe1();
    one.core.maxOutstandingMisses = 1;
    SimConfig many = one;
    many.core.maxOutstandingMisses = 16;

    const double ipc_one = sim::Simulator(one).run(tr).ipc();
    const double ipc_many = sim::Simulator(many).run(tr).ipc();
    EXPECT_GT(ipc_many, 3.0 * ipc_one);
}

TEST(PipelineLimits, RetireWidthCapsIpc)
{
    Tracer t("retire");
    for (int i = 0; i < 20000; ++i) {
        t.alu();
        t.vsimple();
        t.vperm();
        t.other();
    }
    const trace::Trace tr = t.take();

    SimConfig cfg = idealMemoryConfig();
    cfg.core = sim::core16Way();
    cfg.core.retireWidth = 2;
    const double ipc = sim::Simulator(cfg).run(tr).ipc();
    EXPECT_LE(ipc, 2.01);
    EXPECT_GT(ipc, 1.8);
}

TEST(PipelineLimits, RetireQueueOutsideOneTo512IsRejected)
{
    // The register table is exact, and the trace may drop far
    // sources, only while a producer leaves the ROB within a few
    // thousand younger instructions; the bound is a real check.
    SimConfig cfg = idealMemoryConfig();
    for (const int bad : {0, -1, sim::Simulator::maxRetireQueue + 1}) {
        cfg.core.retireQueue = bad;
        EXPECT_THROW(sim::Simulator{cfg}, std::invalid_argument) << bad;
    }
    Tracer t("rob");
    Reg r = t.alu();
    for (int i = 0; i < 200; ++i)
        r = t.alu({r});
    const trace::Trace tr = t.take();
    for (const int ok : {1, sim::Simulator::maxRetireQueue}) {
        cfg.core.retireQueue = ok;
        EXPECT_EQ(sim::Simulator(cfg).run(tr).instructions, tr.size())
            << ok;
    }
}

/** A slow load, @p gap independent ALU ops, then a consumer that
 * names the load as a source or not. */
trace::Trace
distantConsumer(int gap, bool with_source)
{
    Tracer t("far");
    const isa::Addr buf = t.alloc(1u << 20, "buf");
    const Reg load = t.load(buf + 4096, 4);
    for (int i = 0; i < gap; ++i)
        t.alu();
    const Reg use = t.vcomplex({with_source ? load : Reg{}});
    for (int i = 0; i < 50; ++i)
        t.alu({use});
    return t.take();
}

TEST(PipelineLimits, SourceOlderThanTheRobIsInvisible)
{
    // A producer farther back than the ROB retired before its
    // consumer renamed, so naming it changes nothing — which is
    // why the compact trace may store such a source as "none".
    SimConfig cfg;
    cfg.memory = sim::memoryMe1(); // the load misses to memory
    const int far = 4 * cfg.core.retireQueue;
    EXPECT_EQ(sim::Simulator(cfg).run(distantConsumer(far, true))
                  .fingerprint(),
              sim::Simulator(cfg).run(distantConsumer(far, false))
                  .fingerprint());
    // Control: inside the ROB the same source does cost cycles.
    EXPECT_NE(sim::Simulator(cfg).run(distantConsumer(8, true))
                  .fingerprint(),
              sim::Simulator(cfg).run(distantConsumer(8, false))
                  .fingerprint());
}

} // namespace
