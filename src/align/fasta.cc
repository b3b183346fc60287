#include "fasta.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "karlin.hh"

namespace bioarch::align
{

namespace
{

constexpr int kHitBlock = 256; ///< hits per stage-2 block (stays in L1)

/** @p a where @p mask is all ones, @p b where it is 0: no branch. */
int
select(int mask, int a, int b)
{
    return b ^ ((a ^ b) & mask);
}

} // namespace

int
KtupIndex::checkKtup(int ktup)
{
    if (ktup >= 1 && ktup <= maxKtup)
        return ktup;
    throw std::invalid_argument("FASTA ktup must be in [1, "
                                + std::to_string(maxKtup) + "], got "
                                + std::to_string(ktup));
}

KtupIndex::KtupIndex(const bio::Sequence &query, int ktup)
    : _ktup(checkKtup(ktup)),
      _queryLength(static_cast<int>(query.length()))
{
    std::size_t words = 1;
    for (int k = 0; k < _ktup; ++k)
        words *= bio::Alphabet::numSymbols;
    _heads.assign(words + 1, 0);
    const int num_words = std::max(0, _queryLength - _ktup + 1);
    const bio::Residue *res = query.residues().data();

    // Counting pass, prefix sums, then a placing pass (CSR).
    for (int i = 0; i < num_words; ++i)
        ++_heads[encode(res + i) + 1];
    for (std::size_t w = 1; w < _heads.size(); ++w)
        _heads[w] += _heads[w - 1];
    _positions.assign(static_cast<std::size_t>(num_words + positionSlack), 0);
    std::vector<std::int32_t> cursor(_heads.begin(), _heads.end() - 1);
    for (int i = 0; i < num_words; ++i)
        _positions[static_cast<std::size_t>(cursor[encode(res + i)]++)] = i;
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

    // Stage 2: diagonal hit accumulation (fasta's dropff.c savemax).
    // Per-thread scratch: six int32 arrays over d = j - i + m - 1
    // (last hit, run score and best score, reset here so a first hit
    // opens a run; run start, best start and best end, read only
    // after a hit), then a block of hits (row i, then j + m - 1).
    const auto num_diags = static_cast<std::size_t>(m + n - 1);
    const int diag_offset = m - 1;
    constexpr int slack = KtupIndex::positionSlack;
    const auto hit_cap = static_cast<std::size_t>(kHitBlock + m + slack);
    thread_local std::vector<std::int32_t> scratch;
    thread_local std::vector<std::uint64_t> keys;
    scratch.resize(std::max(scratch.size(), 6 * num_diags + 2 * hit_cap));
    keys.resize(std::max(keys.size(), num_diags));
    std::int32_t *const last_hit = scratch.data();
    std::int32_t *const run_score = last_hit + num_diags;
    std::int32_t *const best_score = run_score + num_diags;
    std::int32_t *const run_start = best_score + num_diags;
    std::int32_t *const best_start = run_start + num_diags;
    std::int32_t *const best_end = best_start + num_diags;
    std::int32_t *const hit_row = best_end + num_diags;
    std::int32_t *const hit_base = hit_row + hit_cap;
    std::fill_n(last_hit, num_diags, -ktup);
    std::fill_n(run_score, 2 * num_diags, 0);

    const int hit_bonus = 4 * ktup; // nominal score per word hit
    const auto *sres = subject.residues().data();
    // Rolling word code: append a residue, drop the one leaving.
    const auto lead = static_cast<std::uint32_t>(index.tableSize() - 1);
    std::uint32_t w = index.encode(sres) / bio::Alphabet::numSymbols;
    std::uint32_t leaving = 0;
    for (int j = 0; j + ktup <= n;) {
        // Gather a block of hits: each word copies `slack` rows (the
        // index pads its lists) and advances by its count.
        int k = 0;
        const int j0 = j;
        for (; j + ktup <= n && k < kHitBlock; ++j) {
            w = w * bio::Alphabet::numSymbols
                + (sres[j + ktup - 1] - leaving * lead);
            leaving = sres[j];
            const auto [begin, end] = index.positions(w);
            std::copy_n(begin, slack, hit_row + k);
            std::fill_n(hit_base + k, slack, j + diag_offset);
            for (int t = slack; t < end - begin; ++t) {
                hit_row[k + t] = begin[t];
                hit_base[k + t] = j + diag_offset;
            }
            k += static_cast<int>(end - begin);
        }
        if (cells)
            *cells += static_cast<std::uint64_t>(k + j - j0);

        // Apply them in order, with masked selects: a gap costs its
        // length, an overlap (gap < 0) adds 2 per shared residue.
        for (int h = 0; h < k; ++h) {
            const int i = hit_row[h];
            const auto d = static_cast<std::size_t>(hit_base[h] - i);
            const int gap = i - last_hit[d] - ktup;
            const int run = run_score[d];
            const int extend = -static_cast<int>(run - gap > 0);
            const int score = hit_bonus
                + (extend & (run + std::min(2 * gap, -gap)));
            const int start = select(extend, run_start[d], i);
            last_hit[d] = i;
            run_score[d] = score;
            run_start[d] = start;
            const int better = -static_cast<int>(score > best_score[d]);
            best_score[d] = select(better, score, best_score[d]);
            best_start[d] = select(better, start, best_start[d]);
            best_end[d] = select(better, i + ktup - 1, best_end[d]);
        }
    }

    // Collect each diagonal's best region as a (score, diagonal) key,
    // in diagonal order, and sort the keys by score alone: the same
    // comparisons as sorting the regions, so ties land the same way.
    std::size_t num_keys = 0;
    for (std::size_t d = 0; d < num_diags; ++d) {
        keys[num_keys] = static_cast<std::uint64_t>(best_score[d]) << 32 | d;
        num_keys += best_score[d] > 0 ? 1 : 0;
    }
    std::sort(keys.begin(), keys.begin() + num_keys,
              [](auto a, auto b) { return a >> 32 > b >> 32; });
    std::vector<FastaRegion> candidates(std::min<std::size_t>(
        num_keys, std::max(0, params.maxRegions)));
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        const std::size_t d = keys[k] & 0xffffffffu;
        candidates[k] = {static_cast<int>(d) - diag_offset,
                         best_start[d], best_end[d], best_score[d]};
    }

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
    rankHits(out.hits, max_hits);
    return out;
}

} // namespace bioarch::align
