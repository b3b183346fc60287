#include "trace_io.hh"

#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace bioarch::trace
{

namespace
{

constexpr char magic[8] = {'B', 'I', 'O', 'T', 'R', 'C', '0', '2'};
constexpr char magicV1[8] = {'B', 'I', 'O', 'T', 'R', 'C', '0', '1'};

struct Header
{
    char magic[8];
    std::uint32_t nameLength;
    std::uint32_t staticCount;
    std::uint64_t instCount;
};

static_assert(sizeof(Header) == 24);
// The static table is written as StaticInst memory and read back
// byte by byte at these offsets.
static_assert(offsetof(StaticInst, cls) == 4
              && offsetof(StaticInst, size) == 5
              && offsetof(StaticInst, conditional) == 6
              && offsetof(StaticInst, produces) == 7);

/** Bytes between the read position and the end of @p in. A stream
 * that cannot tell is refused: its header could not be checked. */
std::uint64_t
bytesLeft(std::istream &in)
{
    const std::istream::pos_type here = in.tellg();
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(here);
    if (!in || here == std::istream::pos_type(-1)
        || end == std::istream::pos_type(-1))
        throw TraceIoError("trace stream is not seekable");
    return static_cast<std::uint64_t>(end - here);
}

} // namespace

void
writeTrace(std::ostream &out, const Trace &trace)
{
    Header header{};
    std::memcpy(header.magic, magic, sizeof(magic));
    header.nameLength =
        static_cast<std::uint32_t>(trace.name().size());
    header.staticCount =
        static_cast<std::uint32_t>(trace.statics().size());
    header.instCount = trace.size();

    out.write(reinterpret_cast<const char *>(&header),
              sizeof(header));
    out.write(trace.name().data(),
              static_cast<std::streamsize>(trace.name().size()));
    out.write(reinterpret_cast<const char *>(trace.statics().data()),
              static_cast<std::streamsize>(trace.statics().size()
                                           * sizeof(StaticInst)));
    out.write(reinterpret_cast<const char *>(trace.records().data()),
              static_cast<std::streamsize>(trace.size()
                                           * sizeof(Record)));
    if (!out)
        throw TraceIoError("trace write failed");
}

void
writeTraceFile(const std::string &path, const Trace &trace)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw TraceIoError("cannot open for writing: " + path);
    writeTrace(out, trace);
}

Trace
readTrace(std::istream &in)
{
    Header header{};
    in.read(reinterpret_cast<char *>(&header), sizeof(header));
    if (in && std::memcmp(header.magic, magicV1, sizeof(magicV1)) == 0)
        throw TraceIoError("version 1 trace file (28-byte records) is "
                           "no longer read; regenerate it with "
                           "--save-trace");
    if (!in || std::memcmp(header.magic, magic, sizeof(magic)) != 0)
        throw TraceIoError("not a bioarch trace (bad magic)");
    if (header.nameLength > 4096)
        throw TraceIoError("implausible trace name length");
    if (header.staticCount > maxStaticInsts)
        throw TraceIoError("implausible static table size");
    const std::uint64_t left = bytesLeft(in);
    const std::uint64_t fixed = header.nameLength
        + std::uint64_t{header.staticCount} * sizeof(StaticInst);
    if (fixed > left
        || header.instCount > (left - fixed) / sizeof(Record))
        throw TraceIoError("instruction count exceeds the bytes in "
                           "the trace file");

    std::string name(header.nameLength, '\0');
    in.read(name.data(),
            static_cast<std::streamsize>(header.nameLength));
    // Static entries are checked byte by byte before any becomes a
    // StaticInst: the class indexes the simulator's routing tables
    // and the flags must be valid bools.
    std::vector<StaticInst> statics(header.staticCount);
    for (StaticInst &st : statics) {
        unsigned char raw[sizeof(StaticInst)];
        in.read(reinterpret_cast<char *>(raw), sizeof(raw));
        if (!in)
            throw TraceIoError("truncated trace file");
        if (raw[4] >= isa::numOpClasses || raw[6] > 1 || raw[7] > 1)
            throw TraceIoError("malformed static instruction");
        std::memcpy(&st.pc, raw, sizeof(st.pc));
        st.cls = static_cast<isa::OpClass>(raw[4]);
        st.size = raw[5];
        st.conditional = raw[6] != 0;
        st.produces = raw[7] != 0;
    }

    std::vector<Record> records(header.instCount);
    in.read(reinterpret_cast<char *>(records.data()),
            static_cast<std::streamsize>(records.size()
                                         * sizeof(Record)));
    if (!in)
        throw TraceIoError("truncated trace file");
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].staticIndex() >= statics.size())
            throw TraceIoError("record with a static index out of "
                               "range");
        for (const std::uint16_t d : records[i].srcDist)
            if (d > i)
                throw TraceIoError("record with a source before the "
                                   "trace start");
    }
    return Trace(std::move(name), std::move(statics),
                 std::move(records));
}

Trace
readTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw TraceIoError("cannot open for reading: " + path);
    return readTrace(in);
}

} // namespace bioarch::trace
