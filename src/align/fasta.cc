#include "fasta.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "karlin.hh"

namespace bioarch::align
{

namespace
{

/** Power of the alphabet size, for direct-address table sizing. */
std::size_t
tablePower(int ktup)
{
    std::size_t size = 1;
    for (int k = 0; k < ktup; ++k)
        size *= bio::Alphabet::numSymbols;
    return size;
}

} // namespace

KtupIndex::KtupIndex(const bio::Sequence &query, int ktup)
    : _ktup(ktup), _queryLength(static_cast<int>(query.length())),
      _heads(tablePower(ktup) + 1, 0)
{
    const int num_words = _queryLength - _ktup + 1;
    if (num_words <= 0)
        return;

    // Counting pass, then prefix sums (CSR construction).
    std::vector<std::uint32_t> words(
        static_cast<std::size_t>(num_words));
    for (int i = 0; i < num_words; ++i) {
        words[static_cast<std::size_t>(i)] =
            encode(query.residues().data() + i);
        ++_heads[words[static_cast<std::size_t>(i)] + 1];
    }
    for (std::size_t w = 1; w < _heads.size(); ++w)
        _heads[w] += _heads[w - 1];

    _positions.resize(static_cast<std::size_t>(num_words));
    std::vector<std::int32_t> cursor(_heads.begin(), _heads.end() - 1);
    for (int i = 0; i < num_words; ++i) {
        const std::uint32_t w = words[static_cast<std::size_t>(i)];
        _positions[static_cast<std::size_t>(cursor[w]++)] = i;
    }
}

namespace
{

/**
 * Rescore a diagonal run with the substitution matrix: best
 * contiguous sub-segment (Kadane) over the aligned residue pairs of
 * diagonal @p diag between query rows [lo, hi].
 */
FastaRegion
rescoreRun(const bio::Sequence &query, const bio::Sequence &subject,
           const bio::ScoringMatrix &matrix, int diag, int lo, int hi)
{
    FastaRegion out;
    out.diag = diag;
    int run = 0;
    int run_start = lo;
    for (int i = lo; i <= hi; ++i) {
        const int j = i + diag;
        const int s = matrix.score(query[i], subject[j]);
        if (run <= 0) {
            run = s;
            run_start = i;
        } else {
            run += s;
        }
        if (run > out.score) {
            out.score = run;
            out.queryStart = run_start;
            out.queryEnd = i;
        }
    }
    return out;
}

} // namespace

FastaScores
fastaScan(const KtupIndex &index, const BandedProfile &profile,
          const bio::Sequence &query,
          const bio::Sequence &subject, const bio::ScoringMatrix &matrix,
          const bio::GapPenalties &gaps, const FastaParams &params,
          std::uint64_t *cells)
{
    FastaScores out;
    const int m = static_cast<int>(query.length());
    const int n = static_cast<int>(subject.length());
    const int ktup = index.ktup();
    if (m < ktup || n < ktup)
        return out;

    // Stage 2: diagonal hit accumulation. For each diagonal we track
    // the last hit and a running hit-count score; a gap between hits
    // on the same diagonal pays a distance penalty, and when the
    // running score goes negative the run is flushed as a candidate
    // region (the "savemax" of fasta's dropff.c).
    const int num_diags = m + n - 1;
    const int diag_offset = m - 1; // diag d=j-i maps to d+offset >= 0
    struct DiagState
    {
        std::int32_t lastQueryPos = -1000000;
        std::int32_t runStart = 0;
        std::int32_t runScore = 0;
        std::int32_t bestScore = 0;
        std::int32_t bestStart = 0;
        std::int32_t bestEnd = 0;
    };
    // Per-thread scratch, kept at its defaults between calls: a hit
    // marks its diagonal in `touched`, and the collection below
    // visits only the marked diagonals and resets each state as it
    // reads it, so no subject allocates or zero-fills m + n - 1
    // states.
    thread_local std::vector<DiagState> diags;
    thread_local std::vector<std::uint64_t> touched;
    const std::size_t diag_words =
        (static_cast<std::size_t>(num_diags) + 63) / 64;
    if (diags.size() < static_cast<std::size_t>(num_diags))
        diags.resize(static_cast<std::size_t>(num_diags));
    if (touched.size() < diag_words)
        touched.resize(diag_words, 0);
    DiagState *const states = diags.data();
    std::uint64_t *const marks = touched.data();

    const int hit_bonus = 4 * ktup; // nominal score per word hit
    const auto *sres = subject.residues().data();

    for (int j = 0; j + ktup <= n; ++j) {
        const std::uint32_t w = index.encode(sres + j);
        const auto [begin, end] = index.positions(w);
        for (const std::int32_t *p = begin; p != end; ++p) {
            const int i = *p;
            const auto d = static_cast<std::size_t>(j - i + diag_offset);
            DiagState &ds = states[d];
            marks[d / 64] |= std::uint64_t{1} << (d % 64);
            const int gap = i - ds.lastQueryPos - ktup;
            if (gap < 0) {
                // Overlapping word; extends the run with no penalty.
                ds.runScore += hit_bonus + 2 * gap;
            } else if (ds.runScore - gap > 0) {
                ds.runScore += hit_bonus - gap;
            } else {
                ds.runScore = hit_bonus;
                ds.runStart = i;
            }
            ds.lastQueryPos = i;
            if (ds.runScore > ds.bestScore) {
                ds.bestScore = ds.runScore;
                ds.bestStart = ds.runStart;
                ds.bestEnd = i + ktup - 1;
            }
        }
        if (cells)
            *cells += static_cast<std::uint64_t>(end - begin) + 1;
    }

    // Collect the best regions across diagonals, in diagonal order
    // (the order the sort below sees, so ties land the same way),
    // leaving the scratch at its defaults for the next subject.
    std::vector<FastaRegion> candidates;
    for (std::size_t w = 0; w < diag_words; ++w) {
        std::uint64_t bits = marks[w];
        marks[w] = 0;
        while (bits != 0) {
            const std::size_t d =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            DiagState &ds = states[d];
            if (ds.bestScore > 0) {
                FastaRegion r;
                r.diag = static_cast<int>(d) - diag_offset;
                r.queryStart = ds.bestStart;
                r.queryEnd = ds.bestEnd;
                r.score = ds.bestScore;
                candidates.push_back(r);
            }
            ds = DiagState{};
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const FastaRegion &a, const FastaRegion &b) {
                  return a.score > b.score;
              });
    if (static_cast<int>(candidates.size()) > params.maxRegions)
        candidates.resize(static_cast<std::size_t>(params.maxRegions));

    // Stage 3: matrix rescoring of each region (init1).
    for (FastaRegion &r : candidates) {
        r = rescoreRun(query, subject, matrix, r.diag,
                       std::max(0, r.queryStart),
                       std::min({r.queryEnd, m - 1,
                                 n - 1 - r.diag}));
        if (cells)
            *cells += static_cast<std::uint64_t>(
                r.queryEnd - r.queryStart + 1);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const FastaRegion &a, const FastaRegion &b) {
                  return a.score > b.score;
              });
    while (!candidates.empty() && candidates.back().score <= 0)
        candidates.pop_back();
    if (candidates.empty())
        return out;
    out.init1 = candidates.front().score;
    const int opt_diag = candidates.front().diag;

    // Stage 4: join regions (initn). Greedy chain in query order:
    // regions must not overlap in query rows; each join pays the
    // fixed gap penalty. The query-order copy is per-thread scratch
    // too.
    thread_local std::vector<FastaRegion> byQuery;
    byQuery.assign(candidates.begin(), candidates.end());
    out.regions = std::move(candidates);
    std::sort(byQuery.begin(), byQuery.end(),
              [](const FastaRegion &a, const FastaRegion &b) {
                  return a.queryStart < b.queryStart;
              });
    int chain = 0;
    int chain_end = -1;
    int chain_diag_end = -1000000;
    for (const FastaRegion &r : byQuery) {
        const int subj_start = r.queryStart + r.diag;
        if (r.queryStart > chain_end && subj_start > chain_diag_end) {
            const int joined =
                chain > 0 ? chain + r.score - params.joinGapPenalty
                          : r.score;
            chain = std::max(joined, r.score);
        } else {
            chain = std::max(chain, r.score);
        }
        chain_end = std::max(chain_end, r.queryEnd);
        chain_diag_end =
            std::max(chain_diag_end, r.queryEnd + r.diag);
    }
    out.initn = std::max(chain, out.init1);

    // Stage 5: banded optimization around the best region (opt).
    if (out.initn >= params.optThreshold) {
        const LocalScore banded = bandedSmithWaterman(
            profile, subject, gaps, opt_diag, params.bandHalfWidth);
        out.opt = banded.score;
        if (cells) {
            *cells += static_cast<std::uint64_t>(
                          2 * params.bandHalfWidth + 1)
                * static_cast<std::uint64_t>(n);
        }
    }
    return out;
}

SearchResults
fastaSearch(const bio::Sequence &query, const bio::SequenceDatabase &db,
            const bio::ScoringMatrix &matrix,
            const bio::GapPenalties &gaps, const FastaParams &params,
            std::size_t max_hits)
{
    SearchResults out;
    const KtupIndex index(query, params.ktup);
    const BandedProfile profile(query, matrix);
    const KarlinParams &ka = blosum62Karlin();
    const double total = static_cast<double>(db.totalResidues());

    for (std::size_t idx = 0; idx < db.size(); ++idx) {
        const FastaScores fs =
            fastaScan(index, profile, query, db[idx], matrix, gaps,
                      params, &out.cellsComputed);
        ++out.sequencesSearched;
        const int score = std::max(fs.opt, fs.initn);
        if (score <= 0)
            continue;
        SearchHit hit;
        hit.dbIndex = idx;
        hit.score = score;
        hit.bitScore = ka.bitScore(score);
        hit.evalue = ka.evalue(
            score, static_cast<double>(query.length()), total);
        out.hits.push_back(hit);
    }
    std::sort(out.hits.begin(), out.hits.end(),
              [](const SearchHit &a, const SearchHit &b) {
                  return a.score > b.score;
              });
    if (out.hits.size() > max_hits)
        out.hits.resize(max_hits);
    return out;
}

} // namespace bioarch::align
