/**
 * @file
 * Tests for the binary trace file format: round-trips, error
 * handling, and compatibility with generated workload traces.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "kernels/factory.hh"
#include "trace/trace_io.hh"
#include "trace/tracer.hh"

namespace
{

using namespace bioarch;
using trace::Reg;
using trace::Tracer;

trace::Trace
makeSample()
{
    Tracer t("sample");
    const isa::Addr buf = t.alloc(256, "buf");
    Reg a = t.alu();
    for (int i = 0; i < 100; ++i) {
        a = t.load(buf + (i % 8) * 16u, 4, {a});
        t.store(buf + 128, 8, a);
        t.branch(i % 3 == 0, {a});
        t.vsimple({a});
    }
    return t.take();
}

/** makeSample() serialized, for byte-level corruption. */
std::string
sampleBytes()
{
    std::stringstream buffer;
    trace::writeTrace(buffer, makeSample());
    return buffer.str();
}

/** Overwrite the @p T at byte @p offset of @p bytes. */
template <class T>
void
poke(std::string &bytes, std::size_t offset, T value)
{
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

// v2 header: magic[8], nameLength u32 @8, staticCount u32 @12,
// instCount u64 @16; then the name, the static table, the records.
constexpr std::size_t headerBytes = 24;

/** readTrace() on @p bytes throws a TraceIoError whose message
 * contains @p needle. */
void
expectRejected(const std::string &bytes, const std::string &needle)
{
    std::stringstream in(bytes);
    try {
        trace::readTrace(in);
        ADD_FAILURE() << "accepted; expected: " << needle;
    } catch (const trace::TraceIoError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(TraceIo, RoundTripsThroughStream)
{
    const trace::Trace original = makeSample();
    std::stringstream buffer;
    trace::writeTrace(buffer, original);
    const trace::Trace back = trace::readTrace(buffer);

    EXPECT_EQ(back.name(), original.name());
    ASSERT_EQ(back.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(back[i].pc, original[i].pc);
        EXPECT_EQ(back[i].cls, original[i].cls);
        EXPECT_EQ(back[i].dst, original[i].dst);
        EXPECT_EQ(back[i].src[0], original[i].src[0]);
        EXPECT_EQ(back[i].src[1], original[i].src[1]);
        EXPECT_EQ(back[i].src[2], original[i].src[2]);
        EXPECT_EQ(back[i].addr, original[i].addr);
        EXPECT_EQ(back[i].size, original[i].size);
        EXPECT_EQ(back[i].taken, original[i].taken);
        EXPECT_EQ(back[i].conditional, original[i].conditional);
    }
}

TEST(TraceIo, RoundTripsThroughFile)
{
    const trace::Trace original = makeSample();
    const std::string path = "/tmp/bioarch_trace_io_test.trc";
    trace::writeTraceFile(path, original);
    const trace::Trace back = trace::readTraceFile(path);
    EXPECT_EQ(back.size(), original.size());
    EXPECT_EQ(back.mix().counts, original.mix().counts);
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream buffer;
    buffer << "this is not a trace file at all, not even close";
    EXPECT_THROW(trace::readTrace(buffer), trace::TraceIoError);
}

TEST(TraceIo, RejectsTruncatedFile)
{
    const trace::Trace original = makeSample();
    std::stringstream buffer;
    trace::writeTrace(buffer, original);
    const std::string full = buffer.str();
    std::stringstream truncated(
        full.substr(0, full.size() / 2));
    EXPECT_THROW(trace::readTrace(truncated), trace::TraceIoError);
}

TEST(TraceIo, RejectsStaticIndexOutOfRange)
{
    const trace::Trace original = makeSample();
    std::string bytes = sampleBytes();
    const std::size_t records = headerBytes + original.name().size()
        + original.statics().size() * sizeof(trace::StaticInst);
    // Record 7's info field (static index | taken bit).
    poke(bytes, records + 7 * sizeof(trace::Record) + 4,
         static_cast<std::uint16_t>(original.statics().size()));
    expectRejected(bytes, "static index out of range");
}

TEST(TraceIo, RejectsImplausibleStaticTableSize)
{
    std::string bytes = sampleBytes();
    poke(bytes, 12,
         static_cast<std::uint32_t>(trace::maxStaticInsts + 1));
    expectRejected(bytes, "implausible static table size");
}

TEST(TraceIo, RejectsInstCountBeyondTheStream)
{
    // A count the bytes cannot hold is refused from the header,
    // before the reader allocates for it.
    std::string bytes = sampleBytes();
    poke(bytes, 16, std::uint64_t{1} << 60);
    expectRejected(bytes, "exceeds the bytes");
    bytes = sampleBytes();
    poke(bytes, 16, static_cast<std::uint64_t>(makeSample().size() + 1));
    expectRejected(bytes, "exceeds the bytes");
}

TEST(TraceIo, RejectsVersion1Files)
{
    std::string bytes = sampleBytes();
    std::memcpy(bytes.data(), "BIOTRC01", 8);
    expectRejected(bytes, "--save-trace");
}

TEST(TraceIo, RejectsMalformedStaticEntries)
{
    const trace::Trace original = makeSample();
    std::string bytes = sampleBytes();
    const std::size_t statics = headerBytes + original.name().size();
    poke(bytes, statics + 4,
         static_cast<std::uint8_t>(isa::numOpClasses));
    expectRejected(bytes, "malformed static instruction");
}

TEST(TraceIo, RejectsSourcesBeforeTheTraceStart)
{
    const trace::Trace original = makeSample();
    std::string bytes = sampleBytes();
    const std::size_t records = headerBytes + original.name().size()
        + original.statics().size() * sizeof(trace::StaticInst);
    // Record 2 naming a producer 3 instructions back.
    poke(bytes, records + 2 * sizeof(trace::Record) + 6,
         std::uint16_t{3});
    expectRejected(bytes, "before the trace start");
}

TEST(TraceIo, RejectsMissingFile)
{
    EXPECT_THROW(
        trace::readTraceFile("/nonexistent/dir/trace.trc"),
        trace::TraceIoError);
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    const trace::Trace empty("nothing");
    std::stringstream buffer;
    trace::writeTrace(buffer, empty);
    const trace::Trace back = trace::readTrace(buffer);
    EXPECT_EQ(back.name(), "nothing");
    EXPECT_TRUE(back.empty());
}

TEST(TraceIo, WorkloadTraceRoundTripsExactly)
{
    kernels::TraceSpec spec;
    spec.dbSequences = 2;
    const kernels::TracedRun run =
        kernels::traceWorkload(kernels::Workload::Fasta34, spec);
    std::stringstream buffer;
    trace::writeTrace(buffer, run.trace);
    const trace::Trace back = trace::readTrace(buffer);
    ASSERT_EQ(back.size(), run.trace.size());
    EXPECT_EQ(back.mix().counts, run.trace.mix().counts);
    EXPECT_EQ(back.conditionalBranches(),
              run.trace.conditionalBranches());
    EXPECT_EQ(back.staticFootprint(),
              run.trace.staticFootprint());
    EXPECT_EQ(back.statics(), run.trace.statics());
    EXPECT_EQ(std::memcmp(back.records().data(),
                          run.trace.records().data(),
                          run.trace.size() * sizeof(trace::Record)),
              0);
}

} // namespace
