/**
 * @file
 * One dynamic instruction as the trace-driven simulator sees it.
 *
 * A trace instruction carries exactly what Turandot-style simulation
 * needs: the static PC (for I-cache, branch predictor, and BTB
 * indexing), the op class (for functional unit routing and latency),
 * SSA register dependencies (who produced my inputs), the effective
 * memory address for loads/stores, and the branch outcome.
 *
 * Inst is the decoded value type. Traces do not store it: a
 * trace::Trace keeps a per-trace table of static instructions plus
 * one 12-byte record per dynamic instruction (trace/trace.hh), and
 * decodes an Inst by value on access.
 */

#ifndef BIOARCH_ISA_INST_HH
#define BIOARCH_ISA_INST_HH

#include <cstdint>

#include "opclass.hh"

namespace bioarch::isa
{

/**
 * SSA virtual register id. Each dynamic instruction that produces a
 * value gets a fresh id, so there are no WAW/WAR hazards in the
 * trace (the simulator models physical-register pressure through
 * its in-flight window instead). A decoded instruction's id is its
 * trace index + 1, so a source id names its producer's position.
 * Id 0 means "no register".
 */
using RegId = std::uint32_t;

/** Addresses are 32-bit: the traced kernels' working sets are far
 * below 4 GB, and the address is most of a trace record. */
using Addr = std::uint32_t;

/** Maximum register sources one instruction can name. */
constexpr int maxSources = 3;

/** One dynamic instruction, decoded. */
struct Inst
{
    Addr pc = 0;            ///< static word PC (byte address / 4)
    RegId dst = 0;          ///< produced register, 0 if none
    RegId src[maxSources] = {0, 0, 0}; ///< consumed registers
    Addr addr = 0;          ///< effective address (loads/stores)
    OpClass cls = OpClass::Other;
    std::uint8_t size = 0;  ///< access size in bytes (loads/stores)
    bool taken = false;     ///< branch outcome
    bool conditional = false; ///< branch is conditional

    bool isBranch() const { return cls == OpClass::Branch; }
    bool isLoad() const { return isa::isLoad(cls); }
    bool isStore() const { return isa::isStore(cls); }
    bool isMemory() const { return isa::isMemory(cls); }

    /** Byte address of the static instruction (4-byte words). */
    std::uint64_t
    byteAddress() const
    {
        return static_cast<std::uint64_t>(pc) * 4;
    }
};

} // namespace bioarch::isa

#endif // BIOARCH_ISA_INST_HH
