/**
 * @file
 * The Tracer: an emission API that instrumented workload twins use
 * to produce dynamic instruction traces while doing the real
 * computation.
 *
 * This is our substitute for the paper's Aria/MET tracing of
 * compiled PowerPC binaries. A traced kernel mirrors each
 * conceptual machine operation of the real inner loop with one
 * Tracer call; the Tracer assigns
 *
 *   - a stable static PC per textual call site (via
 *     std::source_location), so branch predictors and the I-cache
 *     see real static instructions;
 *   - a fresh SSA register per produced value, with explicit source
 *     dependencies, so the out-of-order core sees the real
 *     dependency chains (the register id is the producer's trace
 *     index + 1, so a source is stored as a distance back);
 *   - effective addresses from a kernel-managed arena, so the cache
 *     hierarchy sees the real data layout and access pattern;
 *   - actual branch outcomes from the genuine computation, so
 *     predictor accuracy is data-driven, not synthetic.
 */

#ifndef BIOARCH_TRACE_TRACER_HH
#define BIOARCH_TRACE_TRACER_HH

#include <cstdint>
#include <initializer_list>
#include <source_location>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/inst.hh"
#include "trace.hh"

namespace bioarch::trace
{

/**
 * Handle for a value produced by a traced instruction: the
 * producer's trace index + 1. A default-constructed Reg means "no
 * dependency" (e.g. an immediate or a value that has long been
 * architecturally stable).
 */
struct Reg
{
    isa::RegId id = 0;
    bool valid() const { return id != 0; }
};

/** Shorthand for dependency lists at emission sites. */
using Deps = std::initializer_list<Reg>;

/**
 * Trace builder. One Tracer per traced kernel execution. Each
 * emission interns its static tuple (pc, class, size, conditional,
 * produces) in the trace's static table and appends one Record.
 */
class Tracer
{
  public:
    explicit Tracer(std::string name);

    /** No copies: the trace buffer is large and uniquely owned. */
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    // ---- data memory layout -------------------------------------

    /**
     * Allocate @p bytes in the traced address space (16-byte
     * aligned, as Altivec requires). The label is kept for
     * debugging / working-set reports.
     */
    isa::Addr alloc(std::size_t bytes, const char *label);

    /** Total bytes allocated so far (the static working set). */
    std::size_t allocatedBytes() const { return _arenaTop - arenaBase; }

    // ---- scalar emission ----------------------------------------

    /** Scalar integer ALU op; returns the produced register. */
    Reg alu(Deps srcs = {},
            std::source_location site = std::source_location::current());

    /** Scalar load of @p size bytes at @p addr. */
    Reg load(isa::Addr addr, unsigned size, Deps addr_srcs = {},
             std::source_location site =
                 std::source_location::current());

    /** Scalar store of @p value. */
    void store(isa::Addr addr, unsigned size, Reg value,
               Deps addr_srcs = {},
               std::source_location site =
                   std::source_location::current());

    /** Conditional branch with the given outcome. */
    void branch(bool taken, Deps srcs = {},
                std::source_location site =
                    std::source_location::current());

    /** Unconditional branch (always taken). */
    void jump(std::source_location site =
                  std::source_location::current());

    /** Anything else (system ops, moves the model lumps together). */
    Reg other(Deps srcs = {},
              std::source_location site =
                  std::source_location::current());

    // ---- vector emission ----------------------------------------

    /** Vector load (lvx). */
    Reg vload(isa::Addr addr, unsigned size, Deps addr_srcs = {},
              std::source_location site =
                  std::source_location::current());

    /** Vector store (stvx). */
    void vstore(isa::Addr addr, unsigned size, Reg value,
                Deps addr_srcs = {},
                std::source_location site =
                    std::source_location::current());

    /** Vector simple integer op (VI unit: vaddshs, vmaxsh, ...). */
    Reg vsimple(Deps srcs = {},
                std::source_location site =
                    std::source_location::current());

    /** Vector permute op (VPER unit: vperm, vsldoi, splat). */
    Reg vperm(Deps srcs = {},
              std::source_location site =
                  std::source_location::current());

    /** Vector complex integer op (VCMPLX unit). */
    Reg vcomplex(Deps srcs = {},
                 std::source_location site =
                     std::source_location::current());

    // ---- results ------------------------------------------------

    std::size_t size() const { return _records.size(); }

    /** Finalize and take the trace (Tracer is then empty). */
    Trace take();

    /** Base of the data arena (first allocation lands here). */
    static constexpr isa::Addr arenaBase = 0x10000000;

  private:
    /** What one emission records besides its sources. */
    struct Op
    {
        isa::OpClass cls = isa::OpClass::Other;
        bool produces = false;
        isa::Addr addr = 0;
        unsigned size = 0;
        bool conditional = false;
        bool taken = false;
        Reg value{}; ///< stored value, the first source of a store
    };

    /** A call site's PC and the static entry it used last. */
    struct Site
    {
        isa::Addr pc = 0;
        std::uint32_t staticIndex = noStatic;
    };
    static constexpr std::uint32_t noStatic = ~std::uint32_t{0};

    std::uint16_t staticIndex(const std::source_location &site,
                              const Op &op);
    Reg emit(const Op &op, Deps srcs,
             const std::source_location &site);

    std::string _name;
    std::vector<StaticInst> _statics;
    std::vector<Record> _records;
    isa::Addr _nextPc = 0x1000; // word PC; code starts at 16 KB
    isa::Addr _arenaTop = arenaBase;
    /** (file, line/column) -> static PC and last static entry. */
    std::unordered_map<std::uint64_t, Site> _sites;
    /** Full static tuple -> static-table index. */
    std::unordered_map<std::uint64_t, std::uint16_t> _interned;
    std::vector<std::pair<std::string, std::size_t>> _allocs;
};

} // namespace bioarch::trace

#endif // BIOARCH_TRACE_TRACER_HH
