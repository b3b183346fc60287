#include "trace.hh"

#include <unordered_set>

namespace bioarch::trace
{

std::vector<std::uint64_t>
Trace::staticCounts() const
{
    std::vector<std::uint64_t> counts(_statics.size(), 0);
    for (const Record &rec : _records)
        ++counts[rec.staticIndex()];
    return counts;
}

InstructionMix
Trace::mix() const
{
    InstructionMix out;
    const std::vector<std::uint64_t> counts = staticCounts();
    for (std::size_t s = 0; s < _statics.size(); ++s)
        out.counts[static_cast<int>(_statics[s].cls)] += counts[s];
    out.total = _records.size();
    return out;
}

std::uint64_t
Trace::conditionalBranches() const
{
    const std::vector<std::uint64_t> counts = staticCounts();
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < _statics.size(); ++s)
        if (_statics[s].isBranch() && _statics[s].conditional)
            n += counts[s];
    return n;
}

std::size_t
Trace::staticFootprint() const
{
    const std::vector<std::uint64_t> counts = staticCounts();
    std::unordered_set<isa::Addr> pcs;
    for (std::size_t s = 0; s < _statics.size(); ++s)
        if (counts[s] != 0)
            pcs.insert(_statics[s].pc);
    return pcs.size();
}

} // namespace bioarch::trace
