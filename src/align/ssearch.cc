#include "ssearch.hh"

#include <algorithm>

#include "karlin.hh"

namespace bioarch::align
{

QueryProfile::QueryProfile(const bio::Sequence &query,
                           const bio::ScoringMatrix &matrix)
    : _queryLength(static_cast<int>(query.length())),
      _rows(static_cast<std::size_t>(bio::Alphabet::numSymbols)
                * _queryLength,
            0)
{
    for (int r = 0; r < bio::Alphabet::numSymbols; ++r) {
        std::int16_t *row =
            _rows.data() + static_cast<std::size_t>(r) * _queryLength;
        for (int i = 0; i < _queryLength; ++i) {
            row[i] = static_cast<std::int16_t>(
                matrix.score(query[i], static_cast<bio::Residue>(r)));
        }
    }
}

LocalScore
ssearchScan(const QueryProfile &profile, const bio::Sequence &subject,
            const bio::GapPenalties &gaps, std::uint64_t *cells)
{
    const int m = profile.queryLength();
    const int n = static_cast<int>(subject.length());
    const int ngap_init = gaps.openCost(); // open + first extend
    const int gap_ext = gaps.extendCost();

    LocalScore best;
    if (m == 0 || n == 0)
        return best;

    // The ss[] array of dropgsw.c: one {H, E} pair per query
    // position, reused across subject positions.
    struct Cell { int h; int e; };
    std::vector<Cell> ss(static_cast<std::size_t>(m), Cell{0, 0});

    for (int j = 0; j < n; ++j) {
        const std::int16_t *pwaa = profile.row(subject[j]);
        // p carries H[i-1][j-1] down the column; f carries F[i][j].
        int p = 0;
        int f = 0;
        for (int i = 0; i < m; ++i) {
            Cell &ssj = ss[static_cast<std::size_t>(i)];
            // h = H[i-1][j-1] + score (the `h = p + *pwaa++`).
            int h = p + pwaa[i];
            p = ssj.h;

            // F update (gap in subject, vertical). Written with the
            // same avoidance structure as E below.
            int e = ssj.e;
            if (f > 0) {
                if (h < f)
                    h = f;
                f -= gap_ext;
            }
            // E update (gap in query, horizontal).
            if (e > 0) {
                if (h < e)
                    h = e;
                e -= gap_ext;
            }
            if (h > 0) {
                if (h > best.score) {
                    best.score = h;
                    best.queryEnd = i;
                    best.subjectEnd = j;
                }
                const int open = h - ngap_init;
                if (open > e)
                    e = open;
                if (open > f)
                    f = open;
                ssj.h = h;
            } else {
                ssj.h = 0;
            }
            ssj.e = e > 0 ? e : 0;
            if (f < 0)
                f = 0;
        }
        if (cells)
            *cells += static_cast<std::uint64_t>(m);
    }
    return best;
}

SearchResults
ssearchSearch(const bio::Sequence &query, const bio::SequenceDatabase &db,
              const bio::ScoringMatrix &matrix,
              const bio::GapPenalties &gaps, std::size_t max_hits)
{
    SearchResults out;
    const QueryProfile profile(query, matrix);
    const KarlinParams &ka = blosum62Karlin();
    const double total = static_cast<double>(db.totalResidues());

    for (std::size_t idx = 0; idx < db.size(); ++idx) {
        const LocalScore ls =
            ssearchScan(profile, db[idx], gaps, &out.cellsComputed);
        ++out.sequencesSearched;
        if (ls.score <= 0)
            continue;
        SearchHit hit;
        hit.dbIndex = idx;
        hit.score = ls.score;
        hit.queryEnd = ls.queryEnd;
        hit.subjectEnd = ls.subjectEnd;
        hit.bitScore = ka.bitScore(ls.score);
        hit.evalue =
            ka.evalue(ls.score, static_cast<double>(query.length()),
                      total);
        out.hits.push_back(hit);
    }
    rankHits(out.hits, max_hits);
    return out;
}

} // namespace bioarch::align
