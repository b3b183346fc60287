/**
 * @file
 * Reference for stages 2-4 of align::fastaScan: the branchy
 * per-diagonal "savemax" loop the library ran before its stage 2
 * became branch-free SoA state, kept as an oracle. It encodes every
 * k-tuple from scratch, keeps one 24-byte state per diagonal,
 * chooses the gap case and the best-region update with branches,
 * and collects candidates through a touched-diagonal bitmap.
 *
 * fasta_test holds the library to it field for field, and
 * bench_aligners times it as the baseline arm of the FASTA A/B
 * (fasta_reference_ms). The opt stage is not part of it: opt is
 * always 0 here, and callers that compare opt run the band
 * themselves around regions.front().diag.
 */

#ifndef BIOARCH_TESTS_FASTA_REFERENCE_HH
#define BIOARCH_TESTS_FASTA_REFERENCE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "align/fasta.hh"

namespace bioarch::reference
{

/** Best contiguous matrix-scored sub-segment of a diagonal run. */
inline align::FastaRegion
rescoreRun(const bio::Sequence &query, const bio::Sequence &subject,
           const bio::ScoringMatrix &matrix, int diag, int lo, int hi)
{
    align::FastaRegion out;
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

/**
 * Stages 2-4 of FASTA for one subject: init1, initn and the
 * surviving regions, exactly as align::fastaScan computes them; opt
 * is left 0.
 */
inline align::FastaScores
fastaStages2to4(const align::KtupIndex &index, const bio::Sequence &query,
                const bio::Sequence &subject,
                const bio::ScoringMatrix &matrix,
                const align::FastaParams &params)
{
    using align::FastaRegion;
    align::FastaScores out;
    const int m = static_cast<int>(query.length());
    const int n = static_cast<int>(subject.length());
    const int ktup = index.ktup();
    if (m < ktup || n < ktup)
        return out;

    const int num_diags = m + n - 1;
    const int diag_offset = m - 1;
    struct DiagState
    {
        std::int32_t lastQueryPos = -1000000;
        std::int32_t runStart = 0;
        std::int32_t runScore = 0;
        std::int32_t bestScore = 0;
        std::int32_t bestStart = 0;
        std::int32_t bestEnd = 0;
    };
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

    const int hit_bonus = 4 * ktup;
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
    }

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

    for (FastaRegion &r : candidates)
        r = rescoreRun(query, subject, matrix, r.diag,
                       std::max(0, r.queryStart),
                       std::min({r.queryEnd, m - 1, n - 1 - r.diag}));
    std::sort(candidates.begin(), candidates.end(),
              [](const FastaRegion &a, const FastaRegion &b) {
                  return a.score > b.score;
              });
    while (!candidates.empty() && candidates.back().score <= 0)
        candidates.pop_back();
    if (candidates.empty())
        return out;
    out.init1 = candidates.front().score;

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
        chain_diag_end = std::max(chain_diag_end, r.queryEnd + r.diag);
    }
    out.initn = std::max(chain, out.init1);
    return out;
}

} // namespace bioarch::reference

#endif // BIOARCH_TESTS_FASTA_REFERENCE_HH
