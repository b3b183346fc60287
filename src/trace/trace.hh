/**
 * @file
 * In-memory dynamic instruction trace and per-class statistics.
 *
 * A trace is stored compactly: a static-instruction table (a few
 * dozen entries per traced kernel) plus one 12-byte Record per
 * dynamic instruction holding only what varies — effective
 * address, taken bit, static index and source distances.
 * isa::Inst is decoded from the two on access.
 */

#ifndef BIOARCH_TRACE_TRACE_HH
#define BIOARCH_TRACE_TRACE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/inst.hh"

namespace bioarch::trace
{

/**
 * Instruction mix of a trace: dynamic counts per op class — the data
 * behind the paper's Fig. 1.
 */
struct InstructionMix
{
    std::array<std::uint64_t, isa::numOpClasses> counts{};
    std::uint64_t total = 0;

    /** Fraction of @p cls in the trace (0 when empty). */
    double
    fraction(isa::OpClass cls) const
    {
        return total == 0
            ? 0.0
            : static_cast<double>(
                  counts[static_cast<int>(cls)])
                / static_cast<double>(total);
    }

    std::uint64_t
    count(isa::OpClass cls) const
    {
        return counts[static_cast<int>(cls)];
    }

    /** Branches + jumps (the paper's "ctrl"). */
    double ctrlFraction() const
    {
        return fraction(isa::OpClass::Branch);
    }
    /** Scalar + vector loads. */
    double
    loadFraction() const
    {
        return fraction(isa::OpClass::IntLoad)
            + fraction(isa::OpClass::VecLoad);
    }
    /** Scalar + vector stores. */
    double
    storeFraction() const
    {
        return fraction(isa::OpClass::IntStore)
            + fraction(isa::OpClass::VecStore);
    }
};

/**
 * What never varies at one static instruction: interned once per
 * distinct (pc, class, access size, conditional, produces) tuple.
 * Interning the whole tuple keeps the encoding exact by
 * construction: a call site whose access size varies simply owns
 * two entries.
 */
struct StaticInst
{
    isa::Addr pc = 0;          ///< static word PC
    isa::OpClass cls = isa::OpClass::Other;
    std::uint8_t size = 0;     ///< access size in bytes (memory ops)
    bool conditional = false;  ///< conditional branch
    bool produces = false;     ///< writes a register

    bool isBranch() const { return cls == isa::OpClass::Branch; }
    bool isLoad() const { return isa::isLoad(cls); }
    bool isStore() const { return isa::isStore(cls); }
    bool isMemory() const { return isa::isMemory(cls); }

    /** Byte address of the static instruction (4-byte words). */
    std::uint64_t
    byteAddress() const
    {
        return static_cast<std::uint64_t>(pc) * 4;
    }

    bool operator==(const StaticInst &) const = default;
};
static_assert(sizeof(StaticInst) == 8);

/**
 * One dynamic instruction as stored: only what varies per
 * execution. Sources are distances back to the producing
 * instruction (0 = none); a producer is always the instruction at
 * that distance, so the destination is implicit.
 */
struct Record
{
    isa::Addr addr = 0;       ///< effective address (memory ops)
    std::uint16_t info = 0;   ///< static index | takenBit
    std::uint16_t srcDist[isa::maxSources] = {0, 0, 0};

    static constexpr std::uint16_t takenBit = 0x8000;

    std::uint16_t
    staticIndex() const
    {
        return static_cast<std::uint16_t>(info & (takenBit - 1));
    }
    bool taken() const { return (info & takenBit) != 0; }
};
static_assert(sizeof(Record) == 12);

/** Static-table capacity: bit 15 of Record::info is the taken bit. */
constexpr std::size_t maxStaticInsts = std::size_t{1} << 15;

/**
 * Farthest source a record can name; the Tracer stores a farther
 * one as "none". That is exact for the simulator: a producer more
 * than the (at most 512-entry) ROB older than its consumer retired
 * before the consumer renamed, so it contributes no wait.
 */
constexpr std::uint64_t maxSourceDistance = 0xffff;

/**
 * Decode the record at trace index @p index against its trace's
 * static table. Register ids are trace index + 1; a source
 * distance reaching before the trace's start decodes as "none".
 */
inline isa::Inst
decode(const Record &rec, const StaticInst *statics,
       std::uint64_t index)
{
    const StaticInst &st = statics[rec.staticIndex()];
    isa::Inst inst;
    const auto id = static_cast<isa::RegId>(index + 1);
    inst.pc = st.pc;
    inst.cls = st.cls;
    inst.size = st.size;
    inst.conditional = st.conditional;
    inst.dst = st.produces ? id : 0;
    inst.addr = rec.addr;
    inst.taken = rec.taken();
    for (int k = 0; k < isa::maxSources; ++k) {
        const std::uint16_t d = rec.srcDist[k];
        inst.src[k] = d != 0 && d <= index ? id - d : 0;
    }
    return inst;
}

/**
 * A zero-copy view over a contiguous run of trace instructions —
 * the unit the sampled-simulation driver hands to the detailed
 * pipeline. Indices are view-relative (0 .. size()); baseIndex()
 * records where the window sits in the owning trace. Views never
 * own or copy records, so splitting a multi-million-instruction
 * trace into measurement windows costs nothing. Element access
 * decodes an isa::Inst by value (register ids stay trace-global);
 * the simulator's hot loops read records() and statics() directly.
 */
class TraceView
{
  public:
    /** Range-for iterator that decodes each record on
     * dereference. */
    class Iterator
    {
      public:
        Iterator(const Record *rec, const StaticInst *statics,
                 std::uint64_t index)
            : _rec(rec), _statics(statics), _index(index)
        {
        }

        isa::Inst
        operator*() const
        {
            return decode(*_rec, _statics, _index);
        }
        Iterator &
        operator++()
        {
            ++_rec;
            ++_index;
            return *this;
        }
        bool
        operator==(const Iterator &o) const
        {
            return _rec == o._rec;
        }

      private:
        const Record *_rec = nullptr;
        const StaticInst *_statics = nullptr;
        std::uint64_t _index = 0;
    };

    TraceView() = default;
    TraceView(const Record *records, const StaticInst *statics,
              std::size_t size, std::uint64_t base_index = 0)
        : _records(records), _statics(statics), _size(size),
          _baseIndex(base_index)
    {
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    /** Index of this window's first instruction in the full trace. */
    std::uint64_t baseIndex() const { return _baseIndex; }

    isa::Inst
    operator[](std::size_t i) const
    {
        return decode(_records[i], _statics, _baseIndex + i);
    }

    /** The window's first record (the owning trace's storage). */
    const Record *records() const { return _records; }
    /** The owning trace's static table. */
    const StaticInst *statics() const { return _statics; }

    Iterator begin() const { return {_records, _statics, _baseIndex}; }
    Iterator
    end() const
    {
        return {_records + _size, _statics, _baseIndex + _size};
    }

  private:
    const Record *_records = nullptr;
    const StaticInst *_statics = nullptr;
    std::size_t _size = 0;
    std::uint64_t _baseIndex = 0;
};

/**
 * A named dynamic instruction trace: the unit of work the simulator
 * consumes. Owns a static-instruction table and one Record per
 * dynamic instruction, and is immutable once built (the Tracer and
 * the trace reader are its builders).
 */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::string name) : _name(std::move(name)) {}
    /** Adopt a built trace. Every record's static index must be in
     * range and every source distance at most its own index. */
    Trace(std::string name, std::vector<StaticInst> statics,
          std::vector<Record> records)
        : _name(std::move(name)), _statics(std::move(statics)),
          _records(std::move(records))
    {
    }

    const std::string &name() const { return _name; }
    void setName(std::string name) { _name = std::move(name); }

    std::size_t size() const { return _records.size(); }
    bool empty() const { return _records.empty(); }

    /** Decode instruction @p i. */
    isa::Inst operator[](std::size_t i) const { return view()[i]; }

    const std::vector<Record> &records() const { return _records; }
    const std::vector<StaticInst> &statics() const { return _statics; }

    /** View over the whole trace. */
    TraceView
    view() const
    {
        return TraceView(_records.data(), _statics.data(),
                         _records.size(), 0);
    }

    /**
     * Zero-copy window [begin, begin + count), clamped to the
     * trace's end. A @p begin past the end yields an empty view.
     */
    TraceView
    subspan(std::size_t begin, std::size_t count) const
    {
        if (begin >= _records.size())
            return TraceView(nullptr, _statics.data(), 0, begin);
        const std::size_t n =
            std::min(count, _records.size() - begin);
        return TraceView(_records.data() + begin, _statics.data(), n,
                         begin);
    }

    /** Resident bytes: the records plus the static table. Growth
     * headroom left by tracing is never touched, so it is not
     * counted. */
    std::size_t
    memoryBytes() const
    {
        return _records.size() * sizeof(Record)
            + _statics.size() * sizeof(StaticInst);
    }

    /** Compute the per-class instruction mix. */
    InstructionMix mix() const;

    /** Number of conditional branches in the trace. */
    std::uint64_t conditionalBranches() const;

    /** Number of distinct static PCs (static code footprint). */
    std::size_t staticFootprint() const;

    TraceView::Iterator begin() const { return view().begin(); }
    TraceView::Iterator end() const { return view().end(); }

  private:
    /** Dynamic count per static-table entry. */
    std::vector<std::uint64_t> staticCounts() const;

    std::string _name;
    std::vector<StaticInst> _statics;
    std::vector<Record> _records;
};

} // namespace bioarch::trace

#endif // BIOARCH_TRACE_TRACE_HH
