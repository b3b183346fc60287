/**
 * @file
 * Unit tests for the trace container and the Tracer emission API.
 */

#include <gtest/gtest.h>

#include "trace/trace.hh"
#include "trace/tracer.hh"

namespace
{

using namespace bioarch;
using trace::Reg;
using trace::Tracer;

TEST(Tracer, AssignsFreshSsaRegisters)
{
    Tracer t("t");
    const Reg a = t.alu();
    const Reg b = t.alu();
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_NE(a.id, b.id);
}

TEST(Tracer, RecordsDependencies)
{
    Tracer t("t");
    const Reg a = t.alu();
    const Reg b = t.alu();
    t.alu({a, b});
    const trace::Trace tr = t.take();
    ASSERT_EQ(tr.size(), 3u);
    EXPECT_EQ(tr[2].src[0], a.id);
    EXPECT_EQ(tr[2].src[1], b.id);
    EXPECT_EQ(tr[2].cls, isa::OpClass::IntAlu);
}

TEST(Tracer, InvalidRegsAreNotRecordedAsSources)
{
    Tracer t("t");
    const Reg a = t.alu();
    t.alu({Reg{}, a});
    const trace::Trace tr = t.take();
    EXPECT_EQ(tr[1].src[0], a.id);
    EXPECT_EQ(tr[1].src[1], 0u);
}

TEST(Tracer, SameCallSiteGetsSamePc)
{
    Tracer t("t");
    for (int i = 0; i < 3; ++i)
        t.alu(); // one textual site, three dynamic instances
    const Reg a = t.alu(); // a different site
    (void)a;
    const trace::Trace tr = t.take();
    ASSERT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr[0].pc, tr[1].pc);
    EXPECT_EQ(tr[1].pc, tr[2].pc);
    EXPECT_NE(tr[2].pc, tr[3].pc);
    EXPECT_EQ(tr.staticFootprint(), 2u);
}

TEST(Tracer, LoadsCarryAddressAndSize)
{
    Tracer t("t");
    const isa::Addr base = t.alloc(64, "buf");
    t.load(base + 8, 4);
    t.store(base + 16, 8, Reg{});
    const trace::Trace tr = t.take();
    ASSERT_EQ(tr.size(), 2u);
    EXPECT_EQ(tr[0].addr, base + 8);
    EXPECT_EQ(tr[0].size, 4);
    EXPECT_TRUE(tr[0].isLoad());
    EXPECT_EQ(tr[1].addr, base + 16);
    EXPECT_TRUE(tr[1].isStore());
}

TEST(Tracer, AllocationsAreAlignedAndDisjoint)
{
    Tracer t("t");
    const isa::Addr a = t.alloc(3, "a");
    const isa::Addr b = t.alloc(100, "b");
    const isa::Addr c = t.alloc(1, "c");
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b % 16, 0u);
    EXPECT_GE(b, a + 3);
    EXPECT_GE(c, b + 100);
    EXPECT_GE(t.allocatedBytes(), 104u);
}

TEST(Tracer, BranchOutcomesAreRecorded)
{
    Tracer t("t");
    t.branch(true);
    t.branch(false);
    t.jump();
    const trace::Trace tr = t.take();
    ASSERT_EQ(tr.size(), 3u);
    EXPECT_TRUE(tr[0].taken);
    EXPECT_TRUE(tr[0].conditional);
    EXPECT_FALSE(tr[1].taken);
    EXPECT_TRUE(tr[2].taken);
    EXPECT_FALSE(tr[2].conditional);
    EXPECT_EQ(tr.conditionalBranches(), 2u);
}

TEST(Tracer, VectorOpsGetVectorClasses)
{
    Tracer t("t");
    const isa::Addr base = t.alloc(64, "v");
    const Reg v = t.vload(base, 16);
    const Reg p = t.vperm({v});
    const Reg s = t.vsimple({p});
    t.vcomplex({s});
    t.vstore(base + 16, 16, s);
    const trace::Trace tr = t.take();
    EXPECT_EQ(tr[0].cls, isa::OpClass::VecLoad);
    EXPECT_EQ(tr[1].cls, isa::OpClass::VecPerm);
    EXPECT_EQ(tr[2].cls, isa::OpClass::VecSimple);
    EXPECT_EQ(tr[3].cls, isa::OpClass::VecComplex);
    EXPECT_EQ(tr[4].cls, isa::OpClass::VecStore);
    EXPECT_TRUE(isa::isVector(tr[0].cls));
    EXPECT_FALSE(isa::isVector(isa::OpClass::IntAlu));
}

TEST(TraceMix, FractionsSumToOne)
{
    Tracer t("t");
    const isa::Addr base = t.alloc(64, "m");
    for (int i = 0; i < 10; ++i)
        t.alu();
    for (int i = 0; i < 5; ++i)
        t.load(base, 4);
    for (int i = 0; i < 5; ++i)
        t.branch(i % 2 == 0);
    const trace::Trace tr = t.take();
    const trace::InstructionMix mix = tr.mix();
    EXPECT_EQ(mix.total, 20u);
    EXPECT_DOUBLE_EQ(mix.fraction(isa::OpClass::IntAlu), 0.5);
    EXPECT_DOUBLE_EQ(mix.loadFraction(), 0.25);
    EXPECT_DOUBLE_EQ(mix.ctrlFraction(), 0.25);
    double sum = 0.0;
    for (int c = 0; c < isa::numOpClasses; ++c)
        sum += mix.fraction(static_cast<isa::OpClass>(c));
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(CompactTrace, RegisterIdIsTraceIndexPlusOne)
{
    Tracer t("t");
    t.branch(true);
    const Reg a = t.alu();
    const Reg b = t.load(0x100, 4, {a});
    t.store(0x200, 4, b, {a});
    const trace::Trace tr = t.take();
    EXPECT_EQ(a.id, 2u);
    EXPECT_EQ(b.id, 3u);
    EXPECT_EQ(tr[0].dst, 0u);
    EXPECT_EQ(tr[1].dst, a.id);
    EXPECT_EQ(tr[2].dst, b.id);
    EXPECT_EQ(tr[2].src[0], a.id);
    // A store's value is its first source, its address deps follow.
    EXPECT_EQ(tr[3].src[0], b.id);
    EXPECT_EQ(tr[3].src[1], a.id);
    EXPECT_EQ(tr[3].dst, 0u);
    // Stored as distances back to the producer.
    EXPECT_EQ(tr.records()[3].srcDist[0], 1u);
    EXPECT_EQ(tr.records()[3].srcDist[1], 2u);
}

TEST(CompactTrace, StaticTableInternsWholeTuples)
{
    // One call site, two access sizes: two static entries at one
    // PC, and each dynamic instance decodes its own size.
    Tracer t("t");
    for (int i = 0; i < 6; ++i)
        t.load(0x100, i % 2 == 0 ? 4 : 8);
    const trace::Trace tr = t.take();
    ASSERT_EQ(tr.statics().size(), 2u);
    EXPECT_EQ(tr.statics()[0].pc, tr.statics()[1].pc);
    for (std::size_t i = 0; i < tr.size(); ++i)
        EXPECT_EQ(tr[i].size, i % 2 == 0 ? 4 : 8);
    EXPECT_EQ(tr.staticFootprint(), 1u);
    EXPECT_EQ(tr.memoryBytes(),
              6 * sizeof(trace::Record) + 2 * sizeof(trace::StaticInst));
    EXPECT_EQ(sizeof(trace::Record), 12u);
}

TEST(CompactTrace, SourcesBeyondMaxDistanceDecodeAsNone)
{
    Tracer t("t");
    const Reg far = t.alu();
    const Reg edge = t.alu();
    for (std::uint64_t i = 0; i + 1 < trace::maxSourceDistance; ++i)
        t.alu();
    // edge is exactly maxSourceDistance back, far one more.
    t.alu({far, edge});
    const trace::Trace tr = t.take();
    const isa::Inst last = tr[tr.size() - 1];
    EXPECT_EQ(last.src[0], 0u);
    EXPECT_EQ(last.src[1], edge.id);
    EXPECT_EQ(tr.records().back().srcDist[1],
              trace::maxSourceDistance);
}

TEST(CompactTrace, ViewsDecodeTraceGlobalIds)
{
    Tracer t("t");
    Reg r = t.alu();
    for (int i = 0; i < 20; ++i)
        r = t.alu({r});
    const trace::Trace tr = t.take();
    const trace::TraceView mid = tr.subspan(10, 5);
    std::size_t i = 0;
    for (const isa::Inst &inst : mid) {
        EXPECT_EQ(inst.dst, tr[10 + i].dst);
        EXPECT_EQ(inst.src[0], tr[10 + i].src[0]);
        ++i;
    }
    EXPECT_EQ(i, 5u);
}

TEST(OpClass, NamesMatchPaperLegend)
{
    EXPECT_EQ(isa::opClassName(isa::OpClass::IntAlu), "ialu");
    EXPECT_EQ(isa::opClassName(isa::OpClass::Branch), "ctrl");
    EXPECT_EQ(isa::opClassName(isa::OpClass::VecSimple), "vsimple");
    EXPECT_EQ(isa::opClassName(isa::OpClass::VecPerm), "vperm");
}

} // namespace
