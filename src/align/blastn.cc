#include "blastn.hh"

#include <cmath>

#include "bio/scoring.hh"
#include "blast_impl.hh"

namespace bioarch::align
{

namespace
{

/**
 * Karlin lambda for uniform-composition match/mismatch scoring:
 * the root of (1/4) e^{lambda*match} + (3/4) e^{lambda*mismatch} = 1.
 */
double
dnaLambda(int match, int mismatch)
{
    if (match <= 0)
        return 0.0;
    auto f = [&](double lambda) {
        return 0.25 * std::exp(lambda * match)
            + 0.75 * std::exp(lambda * mismatch) - 1.0;
    };
    double hi = 1.0;
    while (f(hi) < 0.0)
        hi *= 2.0;
    double lo = 0.0;
    for (int i = 0; i < 100; ++i) {
        const double mid = 0.5 * (lo + hi);
        (f(mid) < 0.0 ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
}

/**
 * Word codes of a base reader, read left to right: the call for j
 * returns the 2-bit word starting at j, rolling one base in (the
 * first call loads the word's first w - 1 bases).
 */
template <typename Reader>
auto
rollingWords(const Reader &bases, int w)
{
    const auto mask =
        static_cast<std::uint32_t>((std::size_t{1} << (2 * w)) - 1);
    return [&bases, w, mask, word = std::uint32_t{0}](int j) mutable {
        if (j == 0)
            for (int k = 0; k + 1 < w; ++k)
                word = (word << 2) | bases[k];
        word = ((word << 2) | bases[j + w - 1]) & mask;
        return word;
    };
}

/** blastn as the shared pipeline's knobs: one-hit seeding over
 * match/mismatch scoring. */
struct NucleotidePipeline
{
    explicit NucleotidePipeline(const BlastnParams &p)
        : matrix(bio::makeMatchMismatch(p.matchScore, p.mismatchScore)),
          gaps{p.gapOpen, p.gapExtend}
    {
        params.xDropUngapped = p.xDropUngapped;
        params.gapTrigger = p.gapTrigger;
        params.bandHalfWidth = p.bandHalfWidth;
        params.gappedWindowMargin = p.gappedWindowMargin;
        params.twoHit = false;
    }

    /** The query against a subject base reader of @p n bases. */
    template <typename Subject>
    BlastPair<const bio::PackedDna &, Subject>
    pair(const bio::PackedDna &query, Subject subject, int n) const
    {
        return {query, static_cast<int>(query.length()), subject, n,
                matrix, gaps, params};
    }

    /** blastnScan of a subject base reader of @p n bases. */
    template <typename Subject>
    BlastnScores
    score(const DnaWordIndex &index, const bio::PackedDna &query,
          const Subject &subject, int n, std::uint64_t *cells) const
    {
        const auto p = pair<const Subject &>(query, subject, n);
        return p.gappedScore(
            p.scan(index, rollingWords(subject, index.wordSize()), cells),
            cells);
    }

    bio::ScoringMatrix matrix;
    bio::GapPenalties gaps;
    BlastParams params;
};

} // namespace

int
DnaWordIndex::checkWordSize(int word_size)
{
    return WordTable::checkWordSize(word_size, maxWordSize, "blastn");
}

DnaWordIndex::DnaWordIndex(const bio::PackedDna &query, int word_size)
    : WordTable(checkWordSize(word_size), 4)
{
    const int m = static_cast<int>(query.length());
    std::vector<Entry> entries;
    auto word_at = rollingWords(query, word_size);
    for (int i = 0; i + word_size <= m; ++i)
        entries.push_back(Entry{word_at(i), i});
    fill(entries);
}

BlastnScores
blastnScan(const DnaWordIndex &index, const bio::PackedDna &query,
           const bio::PackedDna &subject, const BlastnParams &params,
           std::uint64_t *cells)
{
    return NucleotidePipeline(params).score(
        index, query, subject, static_cast<int>(subject.length()), cells);
}

BlastnScores
blastnScan(const DnaWordIndex &index, const bio::PackedDna &query,
           const bio::Residue *subject, std::size_t subject_len,
           const BlastnParams &params, std::uint64_t *cells)
{
    return NucleotidePipeline(params).score(
        index, query, subject, static_cast<int>(subject_len), cells);
}

CigarAlignment
blastnAlign(const DnaWordIndex &index, const bio::PackedDna &query,
            const bio::Residue *subject, std::size_t subject_len,
            const BlastnParams &params, TracebackStats *stats)
{
    const NucleotidePipeline pipe(params);
    const auto p =
        pipe.pair(query, subject, static_cast<int>(subject_len));
    return p.gappedAlign(
        p.scan(index, rollingWords(subject, index.wordSize()), nullptr),
        stats);
}

SearchResults
blastnSearch(const bio::PackedDna &query, const bio::DnaDatabase &db,
             const BlastnParams &params, std::size_t max_hits)
{
    SearchResults out;
    const DnaWordIndex index(query, params.wordSize);
    const NucleotidePipeline pipe(params);
    const double lambda =
        dnaLambda(params.matchScore, params.mismatchScore);
    const double k = 0.3; // standard blastn-scale constant
    const double total = static_cast<double>(db.totalBases());

    for (std::size_t idx = 0; idx < db.size(); ++idx) {
        const BlastnScores bs =
            pipe.score(index, query, db[idx],
                       static_cast<int>(db[idx].length()),
                       &out.cellsComputed);
        ++out.sequencesSearched;
        if (bs.score <= 0)
            continue;
        SearchHit hit;
        hit.dbIndex = idx;
        hit.score = bs.score;
        hit.bitScore =
            (lambda * bs.score - std::log(k)) / std::log(2.0);
        hit.evalue = k * static_cast<double>(query.length()) * total
            * std::exp(-lambda * bs.score);
        out.hits.push_back(hit);
    }
    rankHits(out.hits, max_hits);
    return out;
}

} // namespace bioarch::align
