/**
 * @file
 * BLAST heuristic database search (the paper's NCBI BLAST
 * workload): the one seed-and-extend pipeline behind BLASTP and
 * blastn (blastn.hh runs it over DNA).
 *
 * Stages follow Altschul et al. (1990, 1997):
 *
 *   1. build the query's *word table* (WordTable): word ->
 *      query positions, direct-addressed over the full word space
 *      (alphabet^w entries). BLASTP enters every word scoring >= T
 *      against a query word (NeighborhoodIndex); blastn enters the
 *      query's exact words (DnaWordIndex). This table is the large,
 *      randomly indexed data structure that makes BLAST
 *      memory-bound in the paper;
 *   2. scan each database sequence word by word (the
 *      BlastWordFinder of Listing 1); on a table hit, apply the
 *      *two-hit* heuristic (two non-overlapping hits on the same
 *      diagonal within a window trigger an ungapped extension) or,
 *      with twoHit off (blastn), extend every hit at once;
 *   3. ungapped X-drop extension along the diagonal;
 *   4. if the best ungapped score passes the gap trigger, run a
 *      banded Smith-Waterman over a window around that HSP and
 *      report its score. blastAlign reruns the identical band with
 *      traceback for the reporting tier.
 */

#ifndef BIOARCH_ALIGN_BLAST_HH
#define BIOARCH_ALIGN_BLAST_HH

#include <cstdint>
#include <vector>

#include "bio/database.hh"
#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "traceback/cigar.hh"
#include "types.hh"

namespace bioarch::align
{

/** Tunables of the BLASTP pipeline (defaults match blastp). */
struct BlastParams
{
    int wordSize = 3;        ///< w: word length
    int neighborThreshold = 11; ///< T: neighborhood word score
    int twoHitWindow = 40;   ///< A: max diagonal distance of hit pair
    int xDropUngapped = 16;  ///< X: ungapped extension drop-off
    /** Ungapped score that starts a gapped extension. 38 raw is the
     * BLOSUM62 equivalent of NCBI's 22-bit gap trigger. */
    int gapTrigger = 38;
    int bandHalfWidth = 24;  ///< band half-width of gapped extension
    /** Residues of slack around the HSP explored by the gapped
     * extension (models the X-drop locality of the real gapped
     * stage — the band does not sweep the whole subject). */
    int gappedWindowMargin = 32;
    bool twoHit = true;      ///< use the two-hit heuristic
};

/**
 * The word table of the scan: word code -> CSR range of the query
 * positions the word hits, direct-addressed over all alphabet^w
 * codes. The accesses during the scan are data-dependent (indexed
 * by database content), which reproduces BLAST's large irregular
 * working set. Protein and nucleotide BLAST share this one table;
 * their indexes differ only in how they enumerate (word, query
 * position) pairs.
 */
class WordTable
{
  public:
    int wordSize() const { return _wordSize; }

    /** Total (word, query position) pairs stored. */
    std::size_t numEntries() const { return _positions.size(); }

    /** Number of direct-address table slots (alphabet^w). */
    std::size_t tableSize() const { return _heads.size() - 1; }

    /** Query positions that word @p w hits. */
    std::pair<const std::int32_t *, const std::int32_t *>
    positions(std::uint32_t w) const
    {
        const std::int32_t head = _heads[w];
        const std::int32_t tail = _heads[w + 1];
        return {_positions.data() + head, _positions.data() + tail};
    }

  protected:
    /** One (word, query position) pair of a table. */
    struct Entry
    {
        std::uint32_t word;
        std::int32_t qpos;
    };

    /**
     * @p word_size itself; throws std::invalid_argument outside
     * [1, @p max_word_size]. @p what names the table in the message.
     */
    static int checkWordSize(int word_size, int max_word_size,
                             const char *what);

    /** An empty table over @p alphabet^@p word_size codes. */
    WordTable(int word_size, int alphabet);

    /** Build the position lists from @p entries: counting pass,
     * prefix sums, placing pass (entry order within a word). */
    void fill(const std::vector<Entry> &entries);

  private:
    int _wordSize;
    std::vector<std::int32_t> _heads;     ///< CSR heads, alphabet^w + 1
    std::vector<std::int32_t> _positions; ///< query positions
};

/**
 * BLASTP's word table: each query word's T-neighborhood. For w = 3
 * over a 23-symbol alphabet the head array alone is ~48 KB.
 */
class NeighborhoodIndex : public WordTable
{
  public:
    /** Largest word size: 23^5 heads (~26 MB), the range the seed
     * index and its container accept too. */
    static constexpr int maxWordSize = 5;

    /** @p word_size itself; throws std::invalid_argument outside
     *  [1, maxWordSize]. */
    static int checkWordSize(int word_size);

    /** Throws std::invalid_argument unless params.wordSize is in
     *  [1, maxWordSize]. */
    NeighborhoodIndex(const bio::Sequence &query,
                      const bio::ScoringMatrix &matrix,
                      const BlastParams &params);

    /** Encode the word starting at @p residues. */
    std::uint32_t
    encode(const bio::Residue *residues) const
    {
        std::uint32_t w = 0;
        for (int k = 0; k < wordSize(); ++k)
            w = w * bio::Alphabet::numSymbols + residues[k];
        return w;
    }
};

/** Result of one ungapped extension. */
struct UngappedExtension
{
    int score = 0;
    int queryStart = 0;
    int queryEnd = 0; ///< inclusive

    bool operator==(const UngappedExtension &other) const = default;
};

/**
 * Ungapped X-drop extension of a seed hit along its diagonal.
 *
 * @param query query sequence
 * @param subject subject sequence
 * @param matrix substitution matrix
 * @param qpos query position of the seed's first residue
 * @param spos subject position of the seed's first residue
 * @param seed_len residues of the seed (scored as part of the hit)
 * @param x_drop stop when the running score drops this far below
 *        the best seen
 */
UngappedExtension ungappedExtend(const bio::Sequence &query,
                                 const bio::Sequence &subject,
                                 const bio::ScoringMatrix &matrix,
                                 int qpos, int spos, int seed_len,
                                 int x_drop);

/**
 * The sub-matrix a gapped extension explores: the HSP extent plus
 * margin, clipped to the sequences. Shared between the library scan
 * and the instrumented kernel twin so both run the identical gapped
 * stage.
 */
struct GappedWindow
{
    int queryLo = 0;   ///< first query row, inclusive
    int queryHi = -1;  ///< last query row, inclusive
    int subjectLo = 0; ///< first subject column, inclusive
    int subjectHi = -1;///< last subject column, inclusive
    int center = 0;    ///< band center diagonal in window coordinates
};

/**
 * Compute the gapped-extension window for an HSP.
 *
 * @param ext the ungapped HSP
 * @param diag its diagonal (subject - query)
 * @param query_len length of the query
 * @param subject_len length of the subject
 * @param margin extra residues explored on each side
 */
GappedWindow gappedWindow(const UngappedExtension &ext, int diag,
                          int query_len, int subject_len, int margin);

/** Per-subject outcome of the BLAST stages. */
struct BlastScores
{
    int wordHits = 0;          ///< lookup-table hits during the scan
    int extensionsTried = 0;   ///< ungapped extensions started
    int bestUngapped = 0;      ///< best ungapped extension score
    int gappedExtensions = 0;  ///< gapped extensions started
    int score = 0;             ///< final (gapped) score; 0 if none
};

/**
 * Run the BLAST word scan + extensions for one subject.
 *
 * @param index prebuilt neighborhood index
 * @param query query sequence
 * @param subject subject sequence
 * @param matrix substitution matrix
 * @param gaps gap penalties for the gapped stage
 * @param params pipeline tunables
 * @param[out] cells optional work counter: word positions scanned,
 *        plus ungapped extension extents, plus band cells
 */
BlastScores blastScan(const NeighborhoodIndex &index,
                      const bio::Sequence &query,
                      const bio::Sequence &subject,
                      const bio::ScoringMatrix &matrix,
                      const bio::GapPenalties &gaps,
                      const BlastParams &params,
                      std::uint64_t *cells = nullptr);

/**
 * Phase-2 reporting twin of blastScan: rerun the word scan and
 * ungapped stage, then trace the gapped extension of the best HSP
 * through the identical band and window, so the returned score is
 * bit-identical to blastScan's — the CIGAR explains exactly the
 * score the hit was ranked by. Returns an empty alignment when the
 * gap trigger never fires (blastScan would have scored 0).
 *
 * @param[out] stats traceback DP accounting (cells, peak space)
 */
CigarAlignment blastAlign(const NeighborhoodIndex &index,
                          const bio::Sequence &query,
                          const bio::Sequence &subject,
                          const bio::ScoringMatrix &matrix,
                          const bio::GapPenalties &gaps,
                          const BlastParams &params,
                          TracebackStats *stats = nullptr);

/** Full database search ranked by score / E-value. */
SearchResults blastSearch(const bio::Sequence &query,
                          const bio::SequenceDatabase &db,
                          const bio::ScoringMatrix &matrix,
                          const bio::GapPenalties &gaps,
                          const BlastParams &params = {},
                          std::size_t max_hits = 500);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_BLAST_HH
