/**
 * @file
 * Bounded top-K hit ranking under align::hitRanksBefore, the total
 * order (score desc, dbIndex asc) that keeps a ranked list
 * bit-for-bit identical regardless of shard count, batch size, or
 * worker count.
 */

#ifndef BIOARCH_SERVE_HIT_LIST_HH
#define BIOARCH_SERVE_HIT_LIST_HH

#include <cstddef>
#include <vector>

#include "align/types.hh"

namespace bioarch::serve
{

/**
 * A bounded min-heap keeping the K best hits seen so far under
 * align::hitRanksBefore(). Each shard scan feeds one heap, so a
 * scan over an N-sequence shard costs O(N log K) and O(K) memory
 * however many hits score above zero.
 */
class TopKHeap
{
  public:
    explicit TopKHeap(std::size_t k) : _k(k) {}

    std::size_t k() const { return _k; }
    std::size_t size() const { return _heap.size(); }

    /** Offer one hit; kept only if it ranks in the current top K. */
    void consider(const align::SearchHit &hit);

    /** The kept hits, best first. */
    std::vector<align::SearchHit> ranked() const;

  private:
    std::size_t _k;
    /** Max-heap under hitRanksBefore: the *worst* kept hit on top. */
    std::vector<align::SearchHit> _heap;
};

/**
 * Merge per-shard ranked lists into the global top @p k. Because
 * every global top-K hit is necessarily in its own shard's top K,
 * merging the per-shard lists loses nothing; the result is exactly
 * the top K of a serial scan of the whole database.
 */
std::vector<align::SearchHit>
mergeRanked(const std::vector<std::vector<align::SearchHit>> &lists,
            std::size_t k);

} // namespace bioarch::serve

#endif // BIOARCH_SERVE_HIT_LIST_HH
