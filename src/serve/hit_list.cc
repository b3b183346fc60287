#include "hit_list.hh"

#include <algorithm>

namespace bioarch::serve
{

namespace
{

/**
 * Heap comparator: with std::push_heap's "less-than" semantics,
 * ordering by rank puts the element that ranks *last* on top, which
 * is exactly the eviction candidate.
 */
bool
heapLess(const align::SearchHit &a, const align::SearchHit &b)
{
    return align::hitRanksBefore(a, b);
}

} // namespace

void
TopKHeap::consider(const align::SearchHit &hit)
{
    if (_k == 0)
        return;
    if (_heap.size() < _k) {
        _heap.push_back(hit);
        std::push_heap(_heap.begin(), _heap.end(), heapLess);
        return;
    }
    if (!align::hitRanksBefore(hit, _heap.front()))
        return;
    std::pop_heap(_heap.begin(), _heap.end(), heapLess);
    _heap.back() = hit;
    std::push_heap(_heap.begin(), _heap.end(), heapLess);
}

std::vector<align::SearchHit>
TopKHeap::ranked() const
{
    std::vector<align::SearchHit> out = _heap;
    std::sort(out.begin(), out.end(), align::hitRanksBefore);
    return out;
}

std::vector<align::SearchHit>
mergeRanked(const std::vector<std::vector<align::SearchHit>> &lists,
            std::size_t k)
{
    std::vector<align::SearchHit> merged;
    std::size_t total = 0;
    for (const std::vector<align::SearchHit> &list : lists)
        total += list.size();
    merged.reserve(total);
    for (const std::vector<align::SearchHit> &list : lists)
        merged.insert(merged.end(), list.begin(), list.end());
    align::rankHits(merged, k);
    return merged;
}

} // namespace bioarch::serve
