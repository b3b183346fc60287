#include "blast.hh"

#include <stdexcept>
#include <string>

#include "blast_impl.hh"
#include "karlin.hh"

namespace bioarch::align
{

int
WordTable::checkWordSize(int word_size, int max_word_size,
                         const char *what)
{
    if (word_size >= 1 && word_size <= max_word_size)
        return word_size;
    throw std::invalid_argument(std::string(what)
                                + " word size must be in [1, "
                                + std::to_string(max_word_size)
                                + "], got " + std::to_string(word_size));
}

namespace
{

/** alphabet^word_size. */
std::size_t
wordSpace(int word_size, int alphabet)
{
    std::size_t space = 1;
    for (int k = 0; k < word_size; ++k)
        space *= static_cast<std::size_t>(alphabet);
    return space;
}

} // namespace

WordTable::WordTable(int word_size, int alphabet)
    : _wordSize(word_size), _heads(wordSpace(word_size, alphabet) + 1, 0)
{
}

void
WordTable::fill(const std::vector<Entry> &entries)
{
    for (const Entry &e : entries)
        ++_heads[e.word + 1];
    for (std::size_t w = 1; w < _heads.size(); ++w)
        _heads[w] += _heads[w - 1];
    _positions.resize(entries.size());
    std::vector<std::int32_t> cursor(_heads.begin(), _heads.end() - 1);
    for (const Entry &e : entries)
        _positions[static_cast<std::size_t>(cursor[e.word]++)] =
            e.qpos;
}

int
NeighborhoodIndex::checkWordSize(int word_size)
{
    return WordTable::checkWordSize(word_size, maxWordSize, "BLAST");
}

NeighborhoodIndex::NeighborhoodIndex(const bio::Sequence &query,
                                     const bio::ScoringMatrix &matrix,
                                     const BlastParams &params)
    : WordTable(checkWordSize(params.wordSize),
                bio::Alphabet::numSymbols)
{
    const int w = wordSize();
    const int num_words = static_cast<int>(query.length()) - w + 1;
    if (num_words <= 0)
        return;

    // Enumerate, for every query word, all words over the 20 real
    // residues whose pairwise score reaches the threshold T. The
    // candidate space is pruned with per-position "best remaining"
    // bounds so the recursion only explores viable prefixes.
    std::vector<Entry> entries;

    // bestTail[k] = max over residues of matrix row max, for the
    // remaining word positions k..w-1, given the query word.
    std::vector<int> row_max(
        static_cast<std::size_t>(bio::Alphabet::numSymbols), 0);
    for (int a = 0; a < bio::Alphabet::numSymbols; ++a) {
        int best = -1000;
        for (int b = 0; b < bio::Alphabet::numRealResidues; ++b)
            best = std::max(
                best, matrix.score(static_cast<bio::Residue>(a),
                                   static_cast<bio::Residue>(b)));
        row_max[static_cast<std::size_t>(a)] = best;
    }

    for (int i = 0; i < num_words; ++i) {
        const bio::Residue *qw = query.residues().data() + i;
        std::vector<int> tail(static_cast<std::size_t>(w) + 1, 0);
        for (int k = w - 1; k >= 0; --k)
            tail[static_cast<std::size_t>(k)] =
                tail[static_cast<std::size_t>(k) + 1]
                + row_max[qw[k]];

        // Iterative DFS over word prefixes.
        struct Frame { int residue; int score; };
        std::vector<Frame> stack(static_cast<std::size_t>(w),
                                 Frame{0, 0});
        int depth = 0;
        while (depth >= 0) {
            Frame &f = stack[static_cast<std::size_t>(depth)];
            if (f.residue >= bio::Alphabet::numRealResidues) {
                --depth;
                if (depth >= 0)
                    ++stack[static_cast<std::size_t>(depth)].residue;
                continue;
            }
            const int s = f.score
                + matrix.score(qw[depth],
                               static_cast<bio::Residue>(f.residue));
            // Prune: even perfect remaining residues cannot reach T.
            if (s + tail[static_cast<std::size_t>(depth) + 1]
                < params.neighborThreshold) {
                ++f.residue;
                continue;
            }
            if (depth == w - 1) {
                if (s >= params.neighborThreshold) {
                    std::uint32_t code = 0;
                    for (int k = 0; k < w; ++k) {
                        const int r =
                            k == depth
                                ? f.residue
                                : stack[static_cast<std::size_t>(k)]
                                      .residue;
                        code = code * bio::Alphabet::numSymbols
                            + static_cast<std::uint32_t>(r);
                    }
                    entries.push_back(
                        Entry{code, static_cast<std::int32_t>(i)});
                }
                ++f.residue;
            } else {
                ++depth;
                stack[static_cast<std::size_t>(depth)] =
                    Frame{0, s};
            }
        }
    }

    fill(entries);
}

namespace
{

using ProteinPair = BlastPair<const bio::Residue *, const bio::Residue *>;

ProteinPair
proteinPair(const bio::Sequence &query, const bio::Sequence &subject,
            const bio::ScoringMatrix &matrix,
            const bio::GapPenalties &gaps, const BlastParams &params)
{
    return {query.residues().data(), static_cast<int>(query.length()),
            subject.residues().data(),
            static_cast<int>(subject.length()), matrix, gaps, params};
}

/** blastp's HSP scan: words encoded in place from the subject. */
HspScan
proteinScan(const ProteinPair &pair, const NeighborhoodIndex &index,
            std::uint64_t *cells)
{
    return pair.scan(
        index, [&](int j) { return index.encode(pair.subject + j); },
        cells);
}

} // namespace

UngappedExtension
ungappedExtend(const bio::Sequence &query, const bio::Sequence &subject,
               const bio::ScoringMatrix &matrix, int qpos, int spos,
               int seed_len, int x_drop)
{
    BlastParams params;
    params.xDropUngapped = x_drop;
    const bio::GapPenalties gaps; // the ungapped stage reads none
    return proteinPair(query, subject, matrix, gaps, params)
        .extend(qpos, spos, seed_len);
}

GappedWindow
gappedWindow(const UngappedExtension &ext, int diag, int query_len,
             int subject_len, int margin)
{
    GappedWindow w;
    w.queryLo = std::max(0, ext.queryStart - margin);
    w.queryHi = std::min(query_len - 1, ext.queryEnd + margin);
    w.subjectLo = std::max(0, ext.queryStart + diag - margin);
    w.subjectHi =
        std::min(subject_len - 1, ext.queryEnd + diag + margin);
    w.center = diag - (w.subjectLo - w.queryLo);
    return w;
}

BlastScores
blastScan(const NeighborhoodIndex &index, const bio::Sequence &query,
          const bio::Sequence &subject, const bio::ScoringMatrix &matrix,
          const bio::GapPenalties &gaps, const BlastParams &params,
          std::uint64_t *cells)
{
    const ProteinPair pair =
        proteinPair(query, subject, matrix, gaps, params);
    return pair.gappedScore(proteinScan(pair, index, cells), cells);
}

CigarAlignment
blastAlign(const NeighborhoodIndex &index, const bio::Sequence &query,
           const bio::Sequence &subject,
           const bio::ScoringMatrix &matrix,
           const bio::GapPenalties &gaps, const BlastParams &params,
           TracebackStats *stats)
{
    const ProteinPair pair =
        proteinPair(query, subject, matrix, gaps, params);
    return pair.gappedAlign(proteinScan(pair, index, nullptr), stats);
}

SearchResults
blastSearch(const bio::Sequence &query, const bio::SequenceDatabase &db,
            const bio::ScoringMatrix &matrix,
            const bio::GapPenalties &gaps, const BlastParams &params,
            std::size_t max_hits)
{
    SearchResults out;
    const NeighborhoodIndex index(query, matrix, params);
    const KarlinParams &ka = blosum62Karlin();
    const double total = static_cast<double>(db.totalResidues());

    for (std::size_t idx = 0; idx < db.size(); ++idx) {
        const BlastScores bs =
            blastScan(index, query, db[idx], matrix, gaps, params,
                      &out.cellsComputed);
        ++out.sequencesSearched;
        const int score = std::max(bs.score, 0);
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
