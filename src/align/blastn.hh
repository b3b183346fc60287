/**
 * @file
 * Nucleotide BLAST (blastn) over 2-bit packed databases — the code
 * path the paper's Listing 1 (BlastNtWordFinder with
 * READDB_UNPACK_BASE) belongs to.
 *
 * blastn is a parameterization of the protein pipeline (blast.hh),
 * not a second pipeline. It runs the same HSP scan, gapped stage and
 * traced gapped stage with:
 *  - an exact-word table (no neighborhood: DNA words only hit on
 *    identity), with a larger word size (default w = 8 over a
 *    4-letter alphabet -> a 64K-entry direct-address table);
 *  - match/mismatch scoring (+1 / -3 by default,
 *    bio::makeMatchMismatch) instead of a substitution matrix;
 *  - one-hit seeding (classic blastn, BlastParams::twoHit off), with
 *    the ungapped X-drop extension reading the packed subject base
 *    by base (unpack per base, as Listing 1 does).
 */

#ifndef BIOARCH_ALIGN_BLASTN_HH
#define BIOARCH_ALIGN_BLASTN_HH

#include <cstdint>
#include <vector>

#include "bio/nucleotide.hh"
#include "bio/sequence.hh"
#include "blast.hh"
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
 * blastn's word table: the query's exact 2-bit words over the 4^w
 * word space.
 */
class DnaWordIndex : public WordTable
{
  public:
    /** Largest word size: 4^12 heads, 64 MB. */
    static constexpr int maxWordSize = 12;

    /** @p word_size itself; throws std::invalid_argument outside
     *  [1, maxWordSize]. */
    static int checkWordSize(int word_size);

    /** Throws std::invalid_argument unless @p word_size is in
     *  [1, maxWordSize]. */
    DnaWordIndex(const bio::PackedDna &query, int word_size);

    /** Query positions indexed (one per word start). */
    std::size_t numWords() const { return numEntries(); }
};

/** Per-subject outcome of a blastn scan (the protein counters). */
using BlastnScores = BlastScores;

/**
 * Scan one packed subject against the query.
 *
 * @param[out] cells optional work counter, as blastScan's: word
 *        positions, ungapped extension extents and band cells
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
 * the best HSP; the score is bit-identical to blastnScan's. Empty
 * when the gap trigger never fires.
 */
CigarAlignment blastnAlign(const DnaWordIndex &index,
                           const bio::PackedDna &query,
                           const bio::Residue *subject,
                           std::size_t subject_len,
                           const BlastnParams &params,
                           TracebackStats *stats = nullptr);

/** Full database search, ranked by score / E-value. */
SearchResults blastnSearch(const bio::PackedDna &query,
                           const bio::DnaDatabase &db,
                           const BlastnParams &params = {},
                           std::size_t max_hits = 500);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_BLASTN_HH
