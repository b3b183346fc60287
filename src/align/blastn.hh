/**
 * @file
 * Nucleotide BLAST (blastn) over 2-bit packed databases — the code
 * path the paper's Listing 1 (BlastNtWordFinder with
 * READDB_UNPACK_BASE) belongs to.
 *
 * Differences from the protein pipeline (blast.hh):
 *  - exact word matching (no neighborhood: DNA words only hit on
 *    identity), with a larger word size (default w = 8 over a
 *    4-letter alphabet -> a 64K-entry direct-address table);
 *  - match/mismatch scoring (+1 / -3 by default) instead of a
 *    substitution matrix;
 *  - one-hit seeding (classic blastn), ungapped X-drop extension
 *    performed directly on the packed representation (unpack per
 *    base, as Listing 1 does), then a windowed gapped extension.
 */

#ifndef BIOARCH_ALIGN_BLASTN_HH
#define BIOARCH_ALIGN_BLASTN_HH

#include <cstdint>
#include <vector>

#include "bio/nucleotide.hh"
#include "bio/sequence.hh"
#include "traceback/cigar.hh"
#include "types.hh"

namespace bioarch::align
{

/** Tunables of the blastn pipeline. */
struct BlastnParams
{
    int wordSize = 8;      ///< w: exact-match word length
    int matchScore = 1;    ///< reward per identical base
    int mismatchScore = -3;///< penalty per mismatching base
    int xDropUngapped = 12;///< ungapped extension drop-off
    int gapTrigger = 18;   ///< ungapped score starting a gapped ext
    int gapOpen = 5;       ///< gap open (blastn default 5)
    int gapExtend = 2;     ///< gap extend (blastn default 2)
    int bandHalfWidth = 16;///< gapped extension band half-width
    int gappedWindowMargin = 24; ///< slack around the HSP
};

/**
 * Exact-word query index over the 4^w word space.
 */
class DnaWordIndex
{
  public:
    DnaWordIndex(const bio::PackedDna &query, int word_size);

    int wordSize() const { return _wordSize; }
    std::size_t tableSize() const { return _heads.size() - 1; }
    std::size_t numWords() const { return _positions.size(); }

    /** Query positions where word @p w starts. */
    std::pair<const std::int32_t *, const std::int32_t *>
    positions(std::uint32_t w) const
    {
        return {_positions.data() + _heads[w],
                _positions.data() + _heads[w + 1]};
    }

  private:
    int _wordSize;
    std::vector<std::int32_t> _heads;
    std::vector<std::int32_t> _positions;
};

/** Per-subject outcome of a blastn scan. */
struct BlastnScores
{
    int wordHits = 0;
    int extensionsTried = 0;
    int bestUngapped = 0;
    int gappedExtensions = 0;
    int score = 0;
};

/**
 * Scan one packed subject against the query.
 */
BlastnScores blastnScan(const DnaWordIndex &index,
                        const bio::PackedDna &query,
                        const bio::PackedDna &subject,
                        const BlastnParams &params,
                        std::uint64_t *cells = nullptr);

/**
 * Scan one subject stored as a residue array (bases 0..3, one per
 * byte — the representation the serving tier shards). Bit-identical
 * to the packed-subject overload on equal base strings.
 */
BlastnScores blastnScan(const DnaWordIndex &index,
                        const bio::PackedDna &query,
                        const bio::Residue *subject,
                        std::size_t subject_len,
                        const BlastnParams &params,
                        std::uint64_t *cells = nullptr);

/**
 * Phase-2 reporting twin of blastnScan (see blastAlign): rerun the
 * word scan and ungapped stage, then trace the gapped extension of
 * the best HSP. With @p x_drop_gapped negative the score is
 * bit-identical to blastnScan's. Empty when the gap trigger never
 * fires.
 */
CigarAlignment blastnAlign(const DnaWordIndex &index,
                           const bio::PackedDna &query,
                           const bio::Residue *subject,
                           std::size_t subject_len,
                           const BlastnParams &params,
                           std::uint64_t *cells = nullptr,
                           int x_drop_gapped = -1,
                           TracebackStats *stats = nullptr);

/** Full database search, ranked by score / E-value. */
SearchResults blastnSearch(const bio::PackedDna &query,
                           const bio::DnaDatabase &db,
                           const BlastnParams &params = {},
                           std::size_t max_hits = 500);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_BLASTN_HH
