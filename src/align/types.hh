/**
 * @file
 * Result types shared by all aligners.
 */

#ifndef BIOARCH_ALIGN_TYPES_HH
#define BIOARCH_ALIGN_TYPES_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bioarch::align
{

/**
 * A local alignment score with its matrix end coordinates
 * (0-based, inclusive, positions in query/subject).
 */
struct LocalScore
{
    int score = 0;
    int queryEnd = -1;
    int subjectEnd = -1;

    bool operator==(const LocalScore &other) const = default;
};

/**
 * A full pairwise alignment: score plus the aligned strings with '-'
 * for gaps, as in the paper's introduction example.
 */
struct Alignment
{
    int score = 0;
    int queryStart = 0;   ///< 0-based inclusive
    int queryEnd = -1;    ///< 0-based inclusive
    int subjectStart = 0;
    int subjectEnd = -1;
    std::string alignedQuery;    ///< query residues and '-' gaps
    std::string alignedSubject;  ///< subject residues and '-' gaps

    /** Number of identical aligned residue pairs. */
    int identities = 0;
    /** Alignment length including gap columns. */
    int length() const
    {
        return static_cast<int>(alignedQuery.size());
    }
    /** Fraction of identical columns (0 when empty). */
    double
    identityFraction() const
    {
        return alignedQuery.empty()
            ? 0.0
            : static_cast<double>(identities) / length();
    }
};

/** One database hit produced by a search application. */
struct SearchHit
{
    std::size_t dbIndex = 0;   ///< index of subject in the database
    int score = 0;             ///< raw alignment score
    double bitScore = 0.0;     ///< normalized bit score
    double evalue = 0.0;       ///< expected chance hits at this score
    int queryEnd = -1;
    int subjectEnd = -1;
};

/**
 * The one ranking order of search hits, a strict total order: a
 * ranks before (above) b on score descending, ties broken on the
 * database index ascending. The library's *Search drivers and the
 * serving tier's top-K heaps and shard merges all rank by it, so a
 * ranked list never depends on how a sort orders equal scores.
 */
inline bool
hitRanksBefore(const SearchHit &a, const SearchHit &b)
{
    if (a.score != b.score)
        return a.score > b.score;
    return a.dbIndex < b.dbIndex;
}

/** Sort @p hits by hitRanksBefore and keep the best @p max_hits. */
inline void
rankHits(std::vector<SearchHit> &hits, std::size_t max_hits)
{
    std::sort(hits.begin(), hits.end(), hitRanksBefore);
    if (hits.size() > max_hits)
        hits.resize(max_hits);
}

/** Ranked results of searching one query against a database. */
struct SearchResults
{
    std::vector<SearchHit> hits;   ///< ranked by hitRanksBefore
    std::uint64_t cellsComputed = 0; ///< DP cells / extension steps
    std::uint64_t sequencesSearched = 0;
};

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_TYPES_HH
