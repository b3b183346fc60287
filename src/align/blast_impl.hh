/**
 * @file
 * The BLAST seed-and-extend pipeline shared by blastp (blast.cc)
 * and blastn (blastn.cc): one HSP scan, one score-only gapped stage
 * and one traced gapped stage. Internal to the align library.
 */

#ifndef BIOARCH_ALIGN_BLAST_IMPL_HH
#define BIOARCH_ALIGN_BLAST_IMPL_HH

#include <algorithm>
#include <optional>
#include <vector>

#include "banded.hh"
#include "blast.hh"
#include "traceback/banded_extend.hh"

namespace bioarch::align
{

/** The best HSP of one subject's word scan and ungapped stage, with
 * the scan's counters. Both gapped stages derive from exactly this
 * HSP, so the alignment a hit reports is the one its score came
 * from. */
struct HspScan
{
    BlastScores scores;  ///< gapped fields still zero
    int bestDiag = 0;
    UngappedExtension bestExt;
    bool seeded = false; ///< query and subject both hold a word
};

/**
 * One query against one subject on the pipeline. Query and Subject
 * are *residue readers*: anything indexable by position that yields
 * a residue code, i.e. a residue pointer, or a `const PackedDna &`,
 * whose operator[] unpacks one 2-bit base (the paper's
 * READDB_UNPACK_BASE). Both alphabets score through
 * ScoringMatrix::score (blastn's is bio::makeMatchMismatch).
 */
template <typename Query, typename Subject>
struct BlastPair
{
    Query query;
    int m; ///< query length
    Subject subject;
    int n; ///< subject length
    const bio::ScoringMatrix &matrix;
    const bio::GapPenalties &gaps;
    const BlastParams &params;

    int
    score(int i, int j) const
    {
        return matrix.score(static_cast<bio::Residue>(query[i]),
                            static_cast<bio::Residue>(subject[j]));
    }

    /**
     * Walk up to @p limit diagonal steps from (i, j) in direction
     * Dir, keeping the best prefix; stop once the running score
     * falls more than params.xDropUngapped below the best.
     * Returns {best score, steps in the best prefix}.
     */
    template <int Dir>
    std::pair<int, int>
    xdrop(int i, int j, int limit) const
    {
        int best = 0;
        int len = 0;
        int run = 0;
        for (int k = 0; k < limit; ++k) {
            run += score(i + Dir * k, j + Dir * k);
            if (run > best) {
                best = run;
                len = k + 1;
            }
            if (run < best - params.xDropUngapped)
                break;
        }
        return {best, len};
    }

    /** ungappedExtend of the seed of @p seed_len at (qpos, spos). */
    UngappedExtension
    extend(int qpos, int spos, int seed_len) const
    {
        int seed = 0;
        for (int k = 0; k < seed_len; ++k)
            seed += score(qpos + k, spos + k);
        const auto [right, right_len] =
            xdrop<1>(qpos + seed_len, spos + seed_len,
                     std::min(m - qpos, n - spos) - seed_len);
        const auto [left, left_len] =
            xdrop<-1>(qpos - 1, spos - 1, std::min(qpos, spos));
        UngappedExtension out;
        out.score = seed + right + left;
        out.queryStart = qpos - left_len;
        out.queryEnd = qpos + seed_len - 1 + right_len;
        return out;
    }

    /**
     * The HSP scan: every subject word's table hits, seeded two-hit
     * or one-hit (params.twoHit), extended ungapped along their
     * diagonal.
     *
     * @param word_at callable: code of the subject word starting at
     *        j, called for j = 0, 1, ..., n - w in that order
     * @param[out] cells word positions plus extension extents
     */
    template <typename WordAt>
    HspScan
    scan(const WordTable &index, WordAt &&word_at,
         std::uint64_t *cells) const
    {
        // Locals, not the fields: the loop's int stores could alias
        // those and force a reload per hit.
        const int m = this->m;
        const int n = this->n;
        HspScan hsp;
        BlastScores &out = hsp.scores;
        const int w = index.wordSize();
        if (m < w || n < w)
            return hsp;
        hsp.seeded = true;

        // Per-diagonal state: subject position of the last
        // unextended hit, and the subject position up to which the
        // diagonal has already been covered by an extension
        // (suppresses re-triggering inside an extended region, as
        // NCBI BLAST's diag array does).
        struct DiagState
        {
            std::int32_t lastHit = -1000000;
            std::int32_t extendedTo = -1;
        };
        std::vector<DiagState> diag(
            static_cast<std::size_t>(m + n - 1));

        // The (single) gapped extension runs around the best HSP's
        // diagonal after the scan, mirroring how NCBI BLAST
        // gap-extends the preliminary HSP list rather than every
        // triggering seed.
        for (int j = 0; j + w <= n; ++j) {
            const auto [begin, end] = index.positions(word_at(j));
            if (cells)
                *cells += 1;
            for (const std::int32_t *p = begin; p != end; ++p) {
                const int i = *p;
                DiagState &ds =
                    diag[static_cast<std::size_t>(j - i + m - 1)];
                ++out.wordHits;
                if (j <= ds.extendedTo)
                    continue; // inside an already-extended region
                if (params.twoHit) {
                    // A hit overlapping the previous one neither
                    // triggers nor replaces it (otherwise runs of
                    // consecutive hits — e.g. a perfect match —
                    // would never put two non-overlapping hits in
                    // the window).
                    const int dist = j - ds.lastHit;
                    if (dist < w)
                        continue;
                    ds.lastHit = j;
                    if (dist > params.twoHitWindow)
                        continue;
                }

                ++out.extensionsTried;
                const UngappedExtension ext = extend(i, j, w);
                if (cells)
                    *cells += static_cast<std::uint64_t>(
                        ext.queryEnd - ext.queryStart + 1);
                ds.extendedTo = ext.queryEnd + (j - i);
                if (ext.score > out.bestUngapped) {
                    out.bestUngapped = ext.score;
                    hsp.bestDiag = j - i;
                    hsp.bestExt = ext;
                }
            }
        }
        return hsp;
    }

    /** The gapped stages' window around the best HSP; nullopt when
     * the gap trigger never fired. The band explores this window,
     * not the whole subject (the real gapped extension's X-drop
     * keeps it local). */
    std::optional<GappedWindow>
    gappedWindowOf(const HspScan &hsp) const
    {
        if (!hsp.seeded || hsp.scores.bestUngapped < params.gapTrigger)
            return std::nullopt;
        return gappedWindow(hsp.bestExt, hsp.bestDiag, m, n,
                            params.gappedWindowMargin);
    }

    /** Residues [lo, hi] of a reader, as a Sequence for the banded
     * kernels. */
    template <typename Reader>
    static bio::Sequence
    slice(const Reader &seq, int lo, int hi)
    {
        std::vector<bio::Residue> res(
            static_cast<std::size_t>(hi - lo + 1));
        for (int i = lo; i <= hi; ++i)
            res[static_cast<std::size_t>(i - lo)] =
                static_cast<bio::Residue>(seq[i]);
        return bio::Sequence("window", "", std::move(res));
    }

    /** Score-only gapped stage: the native band over the HSP's
     * window. Returns the scan's counters with the gapped fields
     * filled in; @p cells gains the band's cells. */
    BlastScores
    gappedScore(const HspScan &hsp, std::uint64_t *cells) const
    {
        BlastScores out = hsp.scores;
        const std::optional<GappedWindow> win = gappedWindowOf(hsp);
        if (!win)
            return out;
        ++out.gappedExtensions;
        const LocalScore gapped = bandedSmithWaterman(
            slice(query, win->queryLo, win->queryHi),
            slice(subject, win->subjectLo, win->subjectHi), matrix,
            gaps, win->center, params.bandHalfWidth);
        if (cells)
            *cells += static_cast<std::uint64_t>(
                          2 * params.bandHalfWidth + 1)
                * static_cast<std::uint64_t>(win->subjectHi
                                             - win->subjectLo + 1);
        out.score = std::max(gapped.score, 0);
        return out;
    }

    /** Traced gapped stage: the same window and band with traceback,
     * in absolute query/subject coordinates. Its score is
     * bit-identical to gappedScore's. */
    CigarAlignment
    gappedAlign(const HspScan &hsp, TracebackStats *stats) const
    {
        const std::optional<GappedWindow> win = gappedWindowOf(hsp);
        if (!win)
            return {};
        CigarAlignment out = bandedExtendAlign(
            slice(query, win->queryLo, win->queryHi),
            slice(subject, win->subjectLo, win->subjectHi), matrix,
            gaps, win->center, params.bandHalfWidth, stats);
        if (out.empty())
            return out;
        out.qBegin += win->queryLo;
        out.qEnd += win->queryLo;
        out.sBegin += win->subjectLo;
        out.sEnd += win->subjectLo;
        return out;
    }
};

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_BLAST_IMPL_HH
