#include "native_align.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "align/sw_intersequence_native.hh"
#include "bio/alphabet.hh"
#include "hirschberg.hh"

namespace bioarch::align
{

namespace
{

constexpr int neg_inf = std::numeric_limits<int>::min() / 4;

/**
 * One rectangle cell's direction code: where H came from in the
 * low two bits, then whether the horizontal (E, along a row) and
 * vertical (F, down a column) gap states extended rather than
 * opened.
 */
enum : std::uint8_t
{
    hFromDiag = 0,
    hFromE = 1,
    hFromF = 2,
    hSourceMask = 3,
    eExtended = 4,
    fExtended = 8,
};

/**
 * Live DP elements of a striped pass over @p rows query rows: three
 * column arrays and the snapshot, each padded by at most 31 rows.
 */
std::uint64_t
stripedLiveCells(int rows)
{
    return 4 * (static_cast<std::uint64_t>(rows) + 31);
}

/** Live row elements of a rectangle fill @p cols wide. */
std::uint64_t
fillRowCells(std::uint64_t cols)
{
    return (5 + bio::Alphabet::numSymbols) * (cols + 1);
}

/**
 * The scalar rectangle fill, the oracle of the SIMD fills: global
 * affine alignment (terminal gaps charged) of a[0 .. rows) (the DP
 * rows) against b[0 .. cols), direction codes to
 * codes[(i - 1) * cols + j - 1]. Returns H(rows, cols). Requires
 * gaps.open >= 0.
 *
 * Each row takes three sweeps, two of them free of loop-carried
 * dependencies: F and the diagonal from the previous row; then E
 * along the row, which with open >= 0 is a running maximum —
 * E(j) = max over k < j of T(k) - open - ext * (j - k), with
 * T = max(diagonal, F) — and H = max(T, E); then the codes. Ties
 * prefer the diagonal, then E, then F, and an open over an
 * extension.
 */
int
scalarFill(const bio::Residue *a, int rows, const bio::Residue *b,
           int cols, bool swapped, const bio::ScoringMatrix &matrix,
           const bio::GapPenalties &gaps, std::uint8_t *codes)
{
    const std::size_t w1 = static_cast<std::size_t>(cols) + 1;
    const std::size_t width = static_cast<std::size_t>(cols);

    // Five row arrays, then one score row per A residue, filled on
    // first use: row x holds score(x, b[j - 1]) at j.
    constexpr int symbols = bio::Alphabet::numSymbols;
    thread_local std::vector<int> arrays;
    arrays.resize(std::max(arrays.size(), (5 + symbols) * w1));
    int *__restrict hp = arrays.data();
    int *__restrict hn = hp + w1;
    int *const __restrict fr = hn + w1;
    int *const __restrict dr = fr + w1;
    int *const __restrict er = dr + w1;
    int *const score_rows = er + w1;
    bool filled[symbols] = {};

    const int go = gaps.openCost();
    const int ge = gaps.extendCost();
    hp[0] = 0;
    for (int j = 1; j <= cols; ++j) {
        hp[j] = -gaps.cost(j);
        fr[j] = neg_inf;
    }
    er[0] = neg_inf;
    for (int i = 1; i <= rows; ++i) {
        const bio::Residue x = a[i - 1];
        int *const __restrict sc = score_rows
            + static_cast<std::size_t>(x) * w1;
        if (!filled[x]) {
            const std::int8_t *const row = matrix.row(x);
            for (int j = 1; j <= cols; ++j)
                sc[j] = swapped ? matrix.score(b[j - 1], x)
                                : row[b[j - 1]];
            filled[x] = true;
        }
        // code[j - 1] is cell (i, j), j = 1..cols.
        std::uint8_t *const __restrict code = codes
            + static_cast<std::size_t>(i - 1) * width;
        for (int j = 1; j <= cols; ++j) {
            const int f_open = hp[j] - go;
            const int f_ext = fr[j] - ge;
            fr[j] = f_ext > f_open ? f_ext : f_open;
            dr[j] = hp[j - 1] + sc[j];
            code[j - 1] = f_ext > f_open ? fExtended : 0;
        }
        const int h0 = -gaps.cost(i);
        hn[0] = h0;
        int run = h0; // max over k < j of T(k) + ext * k
        for (int j = 1; j <= cols; ++j) {
            const int e = run - go - ge * (j - 1);
            const int t = dr[j] > fr[j] ? dr[j] : fr[j];
            hn[j] = t > e ? t : e;
            er[j] = e;
            const int reach = t + ge * j;
            run = run > reach ? run : reach;
        }
        for (int j = 1; j <= cols; ++j) {
            const int h = hn[j];
            const int not_diag = h != dr[j];
            const int src = not_diag + (not_diag & (h != er[j]));
            const int e_ext = er[j - 1] - ge > hn[j - 1] - go;
            code[j - 1] = static_cast<std::uint8_t>(
                code[j - 1] | src | (e_ext * eExtended));
        }
        std::swap(hp, hn);
    }
    return hp[cols];
}

/** Bytes past rows * cols that a SIMD fill's last vector writes. */
constexpr std::size_t codeSlack = 64;

/** Identical residue pairs and columns of a query-oriented CIGAR. */
void
fillIdentityStats(CigarAlignment &aln, const bio::Residue *query,
                  const bio::Residue *subject)
{
    int qi = aln.qBegin;
    int si = aln.sBegin;
    for (const CigarOp &run : aln.cigar) {
        aln.columns += run.len;
        if (run.op == 'M') {
            for (std::int32_t k = 0; k < run.len; ++k)
                if (query[qi + k] == subject[si + k])
                    ++aln.identities;
            qi += run.len;
            si += run.len;
        } else if (run.op == 'I') {
            qi += run.len;
        } else {
            si += run.len;
        }
    }
}

} // namespace

namespace detail
{

bool
rectangleFitsI16(int rows, int cols, const bio::ScoringMatrix &matrix,
                 const bio::GapPenalties &gaps)
{
    if (gaps.open < 0 || gaps.extend < 0)
        return false;
    constexpr std::int64_t limit = 32767;
    const auto cost = [&gaps](int len) {
        return len > 0 ? gaps.open
                + static_cast<std::int64_t>(gaps.extend) * len
                       : 0;
    };
    // Every H down to -(cost(rows) + cost(cols)), and H - open cost
    // is still compared.
    if (cost(rows) + cost(cols) + gaps.openCost() > limit)
        return false;
    // H rises by at most the matrix maximum per diagonal step, and
    // the lanes (along the shorter side) add ge per column. int8
    // scores cap the maximum at 127; scan the matrix only when that
    // cap does not settle it.
    const std::int64_t steps = std::min(rows, cols);
    const std::int64_t slope = gaps.extend * steps;
    return steps * 127 + slope <= limit
        || steps * std::max(0, matrix.maxScore()) + slope <= limit;
}

void
fillRectangle(const bio::Residue *query, int q_len,
              const bio::Residue *subject, int s_len,
              const bio::ScoringMatrix &matrix,
              const bio::GapPenalties &gaps,
              const NativeKernels *kernels, RectangleFill &out)
{
    // A supplies the rows, B the columns. The rows run along the
    // longer side, so a row's arrays hold at most
    // sqrt(tracebackCodeBudget) + 1 elements.
    out.swapped = s_len > q_len;
    const bio::Residue *const a = out.swapped ? subject : query;
    const bio::Residue *const b = out.swapped ? query : subject;
    out.rows = out.swapped ? s_len : q_len;
    out.cols = out.swapped ? q_len : s_len;
    out.codes.resize(std::max(
        out.codes.size(),
        static_cast<std::size_t>(out.rows) * out.cols + codeSlack));
    out.score = kernels != nullptr
            && rectangleFitsI16(out.rows, out.cols, matrix, gaps)
        ? kernels->fillI16(a, out.rows, b, out.cols, out.swapped,
                           matrix, gaps, out.codes.data())
        : scalarFill(a, out.rows, b, out.cols, out.swapped, matrix,
                     gaps, out.codes.data());
}

void
walkRectangle(const RectangleFill &fill, Cigar &cigar)
{
    const char op_a = fill.swapped ? 'D' : 'I';
    const char op_b = fill.swapped ? 'I' : 'D';
    const std::size_t width = static_cast<std::size_t>(fill.cols);
    Cigar reversed;
    int i = fill.rows;
    int j = fill.cols;
    int layer = hFromDiag; // which of H, E, F the walk is in
    while (i > 0 && j > 0) {
        const std::uint8_t c =
            fill.codes[static_cast<std::size_t>(i - 1) * width
                       + static_cast<std::size_t>(j - 1)];
        if (layer == hFromDiag) {
            layer = c & hSourceMask;
            if (layer == hFromDiag) {
                cigarAppend(reversed, 'M', 1);
                --i;
                --j;
            }
        } else if (layer == hFromE) {
            cigarAppend(reversed, op_b, 1);
            layer = (c & eExtended) != 0 ? hFromE : hFromDiag;
            --j;
        } else {
            cigarAppend(reversed, op_a, 1);
            layer = (c & fExtended) != 0 ? hFromF : hFromDiag;
            --i;
        }
    }
    // The borders are one gap each (H(i, 0) = -cost(i)).
    cigarAppend(reversed, op_a, i);
    cigarAppend(reversed, op_b, j);
    for (auto run = reversed.rbegin(); run != reversed.rend(); ++run)
        cigarAppend(cigar, run->op, run->len);
}

} // namespace detail

namespace
{

/**
 * Whether @p end names a whole end cell with its score (the scan's
 * scalar rung reports one), so step 1 is skipped.
 */
bool
endCellKnown(const LocalScore &end, int m, int n)
{
    return end.subjectEnd >= 0 && end.subjectEnd < n && end.score > 0
        && end.queryEnd >= 0 && end.queryEnd < m;
}

/** Step 2 on the striped kernel, into out.qBegin / out.sBegin. */
void
beginStriped(const NativeQueryProfile &profile,
             const bio::Residue *subject, const bio::GapPenalties &gaps,
             CigarAlignment &out, TracebackStats &work)
{
    if (!swStripedBeginCell(profile, subject, out.qEnd, out.sEnd, gaps,
                            out.score, &out.qBegin, &out.sBegin,
                            &work.totalCells))
        throw std::logic_error(
            "nativeLocalAlign: no alignment of the located score ends "
            "at the end cell");
}

/**
 * Step 3 for an alignment whose score and corners are set in
 * @p out: fill the rectangle and walk back, or fall back to linear
 * space when its codes would exceed the budget.
 */
void
traceRectangle(const NativeQueryProfile &profile,
               const bio::Residue *subject, const bio::GapPenalties &gaps,
               CigarAlignment &out, TracebackStats &work)
{
    const int rows = out.qEnd - out.qBegin + 1;
    const int cols = out.sEnd - out.sBegin + 1;
    const std::uint64_t window = static_cast<std::uint64_t>(rows)
        * static_cast<std::uint64_t>(cols);
    const bio::Residue *query = profile.query().residues().data();
    if (window <= tracebackCodeBudget && gaps.open >= 0) {
        thread_local detail::RectangleFill fill;
        detail::fillRectangle(query + out.qBegin, rows,
                              subject + out.sBegin, cols,
                              profile.matrix(), gaps, profile.kernels(),
                              fill);
        if (fill.score != out.score)
            throw std::logic_error(
                "nativeLocalAlign: rectangle fill disagrees with the "
                "located score");
        detail::walkRectangle(fill, out.cigar);
        work.totalCells += window;
        work.peakCells = std::max(
            work.peakCells,
            window
                + fillRowCells(static_cast<std::uint64_t>(
                    std::min(rows, cols))));
    } else {
        myersMillerAlign(query, out.qBegin, rows, subject, out.sBegin,
                         cols, profile.matrix(), gaps, out.cigar, &work);
    }
    fillIdentityStats(out, query, subject);
}

/** Put the located end @p loc into @p out, ahead of steps 2 and 3. */
void
setEnd(CigarAlignment &out, const LocalScore &loc,
       TracebackStats &work)
{
    out.score = loc.score;
    out.qEnd = loc.queryEnd;
    out.sEnd = loc.subjectEnd;
    work.peakCells =
        std::max(work.peakCells, stripedLiveCells(loc.queryEnd + 1));
}

/** Whether a pass whose best reaches @p reach stays below the clip
 * band of the 8-bit lanes. */
bool
lanesHold(const NativeQueryProfile &profile, int reach)
{
    return reach < 255 - profile.bias();
}

/**
 * Run @p jobs through the anchored 8-bit lanes, longest first, when
 * there are two or more. settled[k] says whether job k's lane ended
 * below the clip band (results[k] is then its outcome); the other
 * jobs take the striped ladder.
 */
void
runLanes(const NativeQueryProfile &profile, const bio::Residue *query,
         const bio::GapPenalties &gaps,
         const std::vector<detail::InterAnchoredLane> &jobs,
         std::vector<detail::InterAnchoredResult> &results,
         std::vector<char> &settled)
{
    thread_local std::vector<std::uint32_t> order;
    thread_local std::vector<detail::InterAnchoredLane> lane_jobs;
    thread_local std::vector<detail::InterAnchoredResult> lane_out;
    results.assign(jobs.size(), {});
    settled.assign(jobs.size(), 0);
    if (jobs.size() < 2)
        return;
    detail::longestFirst(
        jobs.size(), [&](std::size_t k) { return jobs[k].length; }, order);
    lane_jobs.resize(order.size());
    for (std::size_t t = 0; t < order.size(); ++t)
        lane_jobs[t] = jobs[order[t]];
    lane_out.assign(order.size(), {});
    profile.kernels()->interAnchoredU8(
        profile.interMatrix(), query, profile.queryLength(),
        lane_jobs.data(), lane_jobs.size(), gaps.openCost(),
        gaps.extendCost(), profile.bias(), lane_out.data());
    for (std::size_t t = 0; t < order.size(); ++t) {
        if (lanesHold(profile, lane_out[t].best)) {
            results[order[t]] = lane_out[t];
            settled[order[t]] = 1;
        }
    }
}

} // namespace

CigarAlignment
nativeLocalAlign(const NativeQueryProfile &profile,
                 const bio::Residue *subject, std::size_t subject_len,
                 const bio::GapPenalties &gaps, const LocalScore &end,
                 TracebackStats *stats)
{
    const int m = profile.queryLength();
    const int n = static_cast<int>(subject_len);
    if (m == 0 || n == 0)
        return {};
    TracebackStats work;

    // (a) The end cell: known outright, or located in
    // subject[0..subjectEnd] (all of it when the end is unknown).
    LocalScore loc = end;
    if (!endCellKnown(end, m, n)) {
        const bool s_known = end.subjectEnd >= 0 && end.subjectEnd < n;
        const std::size_t cols = s_known
            ? static_cast<std::size_t>(end.subjectEnd) + 1
            : subject_len;
        loc = swStripedLocate(profile, subject, cols, gaps,
                              s_known ? end.score : 0);
        work.totalCells += static_cast<std::uint64_t>(m) * cols;
        work.peakCells = stripedLiveCells(m);
    }

    CigarAlignment out;
    if (loc.score > 0) {
        // (b) The begin cell, by the anchored reverse pass; (c) the
        // rectangle.
        setEnd(out, loc, work);
        beginStriped(profile, subject, gaps, out, work);
        traceRectangle(profile, subject, gaps, out, work);
    }
    if (stats != nullptr)
        *stats += work;
    return out;
}

bool
nativeAlignFitsLanes(const NativeQueryProfile &profile,
                     const bio::GapPenalties &gaps, int score)
{
    // The lanes read the biased byte matrix (hasU8).
    const int open_cost = gaps.openCost();
    const int ext_cost = gaps.extendCost();
    return profile.hasU8() && open_cost >= 0 && ext_cost >= 0
        && open_cost <= 255 && ext_cost <= 255
        && lanesHold(profile, score + 1);
}

void
nativeLocalAlignBatch(const NativeQueryProfile &profile,
                      const NativeAlignHit *hits, std::size_t count,
                      const bio::GapPenalties &gaps, CigarAlignment *out,
                      TracebackStats *stats)
{
    const int m = profile.queryLength();
    if (count < 2 || m == 0 || !nativeAlignFitsLanes(profile, gaps, 0)) {
        for (std::size_t i = 0; i < count; ++i)
            out[i] = nativeLocalAlign(profile, hits[i].subject,
                                      hits[i].length, gaps, hits[i].end,
                                      stats);
        return;
    }

    TracebackStats work;
    thread_local std::vector<detail::InterAnchoredLane> jobs;
    thread_local std::vector<detail::InterAnchoredResult> results;
    thread_local std::vector<char> settled;
    thread_local std::vector<std::size_t> job_hit;
    thread_local std::vector<LocalScore> loc;
    loc.assign(count, LocalScore{});
    const auto s_known = [&](std::size_t i) {
        return hits[i].end.subjectEnd >= 0
            && static_cast<std::size_t>(hits[i].end.subjectEnd)
            < hits[i].length;
    };
    const auto cols_of = [&](std::size_t i) {
        return s_known(i)
            ? static_cast<std::size_t>(hits[i].end.subjectEnd) + 1
            : hits[i].length;
    };
    // A hinted lane (end column and score known) reads only the
    // hint's prefix and takes its row from the last column; an
    // unhinted one snapshots its improvements.
    const auto hinted = [&](std::size_t i) {
        return s_known(i) && hits[i].end.score > 0;
    };
    const auto locate_striped = [&](std::size_t i) {
        return swStripedLocate(profile, hits[i].subject, cols_of(i), gaps,
                               hinted(i) ? hits[i].end.score : 0);
    };

    // (a) End cells: one lane per hit, but a hit whose hint already
    // clips the lanes goes straight to the striped ladder.
    jobs.clear();
    job_hit.clear();
    for (std::size_t i = 0; i < count; ++i) {
        const NativeAlignHit &hit = hits[i];
        out[i] = {};
        if (hit.length == 0)
            continue;
        if (endCellKnown(hit.end, m, static_cast<int>(hit.length))) {
            loc[i] = hit.end;
            continue;
        }
        const std::size_t cols = cols_of(i);
        work.totalCells += static_cast<std::uint64_t>(m) * cols;
        work.peakCells = std::max(work.peakCells, stripedLiveCells(m));
        if (hinted(i) && !lanesHold(profile, hit.end.score + 1)) {
            loc[i] = locate_striped(i);
            continue;
        }
        jobs.push_back({hit.subject, static_cast<int>(cols),
                        std::numeric_limits<int>::max(), -1, !hinted(i)});
        job_hit.push_back(i);
    }
    const bio::Residue *query = profile.query().residues().data();
    runLanes(profile, query, gaps, jobs, results, settled);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        const std::size_t i = job_hit[k];
        const detail::InterAnchoredResult &r = results[k];
        // A hit no lane settled, or whose hint its lane contradicts,
        // takes the striped ladder, which settles both.
        if (!settled[k]
            || (hinted(i)
                && (r.best != hits[i].end.score
                    || r.column != jobs[k].length - 1 || r.row < 0)))
            loc[i] = locate_striped(i);
        else
            loc[i] = {r.best, r.row, r.column};
    }

    // (b) Begin cells: the anchored reverse pass over the reversed
    // query, one lane per hit whose score + 1 fits, each over its
    // reversed subject prefix with the seed at its end row.
    thread_local std::vector<bio::Residue> rev_query;
    thread_local std::vector<bio::Residue> rev_subjects;
    rev_query.assign(query, query + m);
    std::reverse(rev_query.begin(), rev_query.end());
    const auto reverse_lane = [&](std::size_t i) {
        return loc[i].score > 0 && lanesHold(profile, loc[i].score + 1);
    };
    std::size_t rev_total = 0;
    for (std::size_t i = 0; i < count; ++i)
        if (reverse_lane(i))
            rev_total += static_cast<std::size_t>(loc[i].subjectEnd) + 1;
    rev_subjects.resize(rev_total);
    jobs.clear();
    job_hit.clear();
    std::size_t rev_at = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (loc[i].score <= 0)
            continue;
        setEnd(out[i], loc[i], work);
        if (!reverse_lane(i)) {
            beginStriped(profile, hits[i].subject, gaps, out[i], work);
            continue;
        }
        const int cols = loc[i].subjectEnd + 1;
        bio::Residue *rev = rev_subjects.data() + rev_at;
        std::reverse_copy(hits[i].subject, hits[i].subject + cols, rev);
        rev_at += static_cast<std::size_t>(cols);
        jobs.push_back({rev, cols, loc[i].score + 1,
                        m - 1 - loc[i].queryEnd, false});
        job_hit.push_back(i);
    }
    runLanes(profile, rev_query.data(), gaps, jobs, results, settled);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        CigarAlignment &aln = out[job_hit[k]];
        const detail::InterAnchoredResult &r = results[k];
        if (!settled[k] || r.best != jobs[k].stopAt || r.row < 0) {
            beginStriped(profile, hits[job_hit[k]].subject, gaps, aln,
                         work);
            continue;
        }
        aln.qBegin = m - 1 - r.row;
        aln.sBegin = aln.sEnd - r.column;
        work.totalCells += static_cast<std::uint64_t>(aln.qEnd + 1)
            * static_cast<std::uint64_t>(r.column + 1);
    }

    // (c) Fill and walk back each rectangle.
    for (std::size_t i = 0; i < count; ++i)
        if (loc[i].score > 0)
            traceRectangle(profile, hits[i].subject, gaps, out[i], work);
    if (stats != nullptr)
        *stats += work;
}

CigarAlignment
nativeLocalAlign(const NativeQueryProfile &profile,
                 const bio::Sequence &subject,
                 const bio::GapPenalties &gaps, const LocalScore &end,
                 TracebackStats *stats)
{
    return nativeLocalAlign(profile, subject.residues().data(),
                            subject.length(), gaps, end, stats);
}

} // namespace bioarch::align
