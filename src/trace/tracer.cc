#include "tracer.hh"

#include <limits>
#include <stdexcept>

namespace bioarch::trace
{

namespace
{

/** Register ids are trace index + 1 and must fit isa::RegId. */
constexpr std::size_t maxTraceInsts =
    std::numeric_limits<isa::RegId>::max() - 1;

} // namespace

Tracer::Tracer(std::string name) : _name(std::move(name))
{
}

isa::Addr
Tracer::alloc(std::size_t bytes, const char *label)
{
    const isa::Addr base = _arenaTop;
    // 16-byte alignment (Altivec vectors require it).
    _arenaTop += static_cast<isa::Addr>((bytes + 15) & ~std::size_t{15});
    _allocs.emplace_back(label, bytes);
    return base;
}

std::uint16_t
Tracer::staticIndex(const std::source_location &site, const Op &op)
{
    // One static PC per (file, line, column). The file name pointer
    // is stable per translation unit; mix it with line/column for
    // the key. Collisions across files are possible in principle but
    // harmless (two static instructions would share a PC, as with
    // code sharing).
    const std::uint64_t key =
        (reinterpret_cast<std::uint64_t>(site.file_name()) << 22)
        ^ (static_cast<std::uint64_t>(site.line()) << 10)
        ^ site.column();
    const auto [it, inserted] = _sites.try_emplace(key, Site{_nextPc});
    if (inserted)
        ++_nextPc;
    Site &s = it->second;

    StaticInst want;
    want.pc = s.pc;
    want.cls = op.cls;
    want.size = static_cast<std::uint8_t>(op.size);
    want.conditional = op.conditional;
    want.produces = op.produces;
    // A site almost always repeats its last tuple; only a change
    // (e.g. a varying access size) pays the full-tuple lookup.
    if (s.staticIndex != noStatic && _statics[s.staticIndex] == want)
        return static_cast<std::uint16_t>(s.staticIndex);

    const std::uint64_t tuple = static_cast<std::uint64_t>(want.pc)
        | static_cast<std::uint64_t>(want.cls) << 32
        | static_cast<std::uint64_t>(want.size) << 40
        | static_cast<std::uint64_t>(want.conditional) << 48
        | static_cast<std::uint64_t>(want.produces) << 49;
    const auto [jt, added] = _interned.try_emplace(
        tuple, static_cast<std::uint16_t>(_statics.size()));
    if (added) {
        if (_statics.size() >= maxStaticInsts)
            throw std::length_error(
                "trace exceeds the static-instruction table");
        _statics.push_back(want);
    }
    s.staticIndex = jt->second;
    return jt->second;
}

Reg
Tracer::emit(const Op &op, Deps srcs, const std::source_location &site)
{
    const std::size_t index = _records.size();
    if (index >= maxTraceInsts)
        throw std::length_error("trace exceeds 2^32 instructions");
    Record rec;
    rec.addr = op.addr;
    rec.info = static_cast<std::uint16_t>(
        staticIndex(site, op) | (op.taken ? Record::takenBit : 0u));
    // Sources are distances back to the producer (id = index + 1).
    // One farther than maxSourceDistance is dropped: it retired
    // long before this instruction renamed (see maxSourceDistance).
    int n = 0;
    const auto add_source = [&](const Reg &r) {
        if (!r.valid() || n >= isa::maxSources)
            return;
        const std::uint64_t dist = index + 1 - r.id;
        rec.srcDist[n++] = dist <= maxSourceDistance
            ? static_cast<std::uint16_t>(dist)
            : 0;
    };
    add_source(op.value);
    for (const Reg &r : srcs)
        add_source(r);
    _records.push_back(rec);
    Reg out;
    if (op.produces)
        out.id = static_cast<isa::RegId>(index + 1);
    return out;
}

Reg
Tracer::alu(Deps srcs, std::source_location site)
{
    return emit({.cls = isa::OpClass::IntAlu, .produces = true}, srcs,
                site);
}

Reg
Tracer::load(isa::Addr addr, unsigned size, Deps addr_srcs,
             std::source_location site)
{
    return emit({.cls = isa::OpClass::IntLoad,
                 .produces = true,
                 .addr = addr,
                 .size = size},
                addr_srcs, site);
}

void
Tracer::store(isa::Addr addr, unsigned size, Reg value, Deps addr_srcs,
              std::source_location site)
{
    emit({.cls = isa::OpClass::IntStore,
          .addr = addr,
          .size = size,
          .value = value},
         addr_srcs, site);
}

void
Tracer::branch(bool taken, Deps srcs, std::source_location site)
{
    emit({.cls = isa::OpClass::Branch,
          .conditional = true,
          .taken = taken},
         srcs, site);
}

void
Tracer::jump(std::source_location site)
{
    emit({.cls = isa::OpClass::Branch, .taken = true}, {}, site);
}

Reg
Tracer::other(Deps srcs, std::source_location site)
{
    return emit({.cls = isa::OpClass::Other, .produces = true}, srcs,
                site);
}

Reg
Tracer::vload(isa::Addr addr, unsigned size, Deps addr_srcs,
              std::source_location site)
{
    return emit({.cls = isa::OpClass::VecLoad,
                 .produces = true,
                 .addr = addr,
                 .size = size},
                addr_srcs, site);
}

void
Tracer::vstore(isa::Addr addr, unsigned size, Reg value, Deps addr_srcs,
               std::source_location site)
{
    emit({.cls = isa::OpClass::VecStore,
          .addr = addr,
          .size = size,
          .value = value},
         addr_srcs, site);
}

Reg
Tracer::vsimple(Deps srcs, std::source_location site)
{
    return emit({.cls = isa::OpClass::VecSimple, .produces = true},
                srcs, site);
}

Reg
Tracer::vperm(Deps srcs, std::source_location site)
{
    return emit({.cls = isa::OpClass::VecPerm, .produces = true}, srcs,
                site);
}

Reg
Tracer::vcomplex(Deps srcs, std::source_location site)
{
    return emit({.cls = isa::OpClass::VecComplex, .produces = true},
                srcs, site);
}

Trace
Tracer::take()
{
    // Sites keep their PCs; their cached static entries belong to
    // the trace handed out.
    for (auto &[key, site] : _sites)
        site.staticIndex = noStatic;
    _interned.clear();
    Trace out(std::move(_name), std::move(_statics),
              std::move(_records));
    _statics.clear();
    _records.clear();
    return out;
}

} // namespace bioarch::trace
