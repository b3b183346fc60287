#include "request.hh"

#include <algorithm>
#include <stdexcept>

#include "align/traceback/native_align.hh"
#include "bio/dna_workload.hh"
#include "bio/random.hh"

namespace bioarch::serve
{

PreparedQuery::PreparedQuery(const Request &request,
                             const bio::ScoringMatrix &matrix,
                             const bio::GapPenalties &gaps,
                             const align::FastaParams &fasta,
                             const align::BlastParams &blast,
                             align::SimdBackend backend,
                             const align::BlastnParams &blastn)
    : _kind(request.kind),
      _query(&request.query),
      _matrix(&matrix),
      _gaps(gaps),
      _fasta(fasta),
      _blast(blast),
      _blastn(blastn)
{
    switch (_kind) {
    case kernels::Workload::Ssearch34:
    case kernels::Workload::SwVmx128:
    case kernels::Workload::SwVmx256:
        // All three Smith-Waterman kinds rank by the exact SW
        // score, so they share the native striped kernel.
        _native = std::make_unique<align::NativeQueryProfile>(
            *_query, matrix, backend);
        break;
    case kernels::Workload::Fasta34:
        _ktup = std::make_unique<align::KtupIndex>(*_query,
                                                   _fasta.ktup);
        _banded = std::make_unique<align::BandedProfile>(
            *_query, matrix, backend);
        // FASTA reports the optimal SW alignment; only reporting
        // requests pay for the profile its traceback locates with.
        if (request.reportAlignments)
            _native = std::make_unique<align::NativeQueryProfile>(
                *_query, matrix, backend);
        break;
    case kernels::Workload::Blast:
        _neighborhood = std::make_unique<align::NeighborhoodIndex>(
            *_query, matrix, _blast);
        break;
    case kernels::Workload::Blastn:
        // The query rides in as a residue Sequence (bases 0..3);
        // blastn's word machinery wants the 2-bit packing.
        _dnaQuery = std::make_unique<bio::PackedDna>(
            bio::packDnaSequence(*_query));
        _dnaIndex = std::make_unique<align::DnaWordIndex>(
            *_dnaQuery, _blastn.wordSize);
        break;
    default:
        throw std::invalid_argument("unknown workload kind");
    }
}

align::LocalScore
PreparedQuery::scan(const bio::Sequence &subject,
                    std::uint64_t *cells,
                    align::NativeScanStats *stats) const
{
    align::LocalScore ls;
    if (usesNativeScan())
        return align::swStripedNativeScan(*_native, subject, _gaps,
                                          cells, stats);
    switch (_kind) {
    case kernels::Workload::Fasta34: {
        const align::FastaScores fs = align::fastaScan(
            *_ktup, *_banded, *_query, subject, *_matrix, _gaps,
            _fasta, cells);
        ls.score = std::max(fs.opt, fs.initn);
        return ls;
    }
    case kernels::Workload::Blast: {
        const align::BlastScores bs = align::blastScan(
            *_neighborhood, *_query, subject, *_matrix, _gaps,
            _blast, cells);
        ls.score = std::max(bs.score, 0);
        return ls;
    }
    case kernels::Workload::Blastn: {
        const align::BlastnScores bs = align::blastnScan(
            *_dnaIndex, *_dnaQuery, subject.residues().data(),
            subject.length(), _blastn, cells);
        ls.score = std::max(bs.score, 0);
        return ls;
    }
    default:
        return ls;
    }
}

bool
PreparedQuery::tracesInLanes(const align::SearchHit &hit) const
{
    return _native != nullptr
        && align::nativeAlignFitsLanes(*_native, _gaps, hit.score);
}

std::size_t
PreparedQuery::tracebackLanes() const
{
    return _native != nullptr && _native->hasU8()
        ? static_cast<std::size_t>(_native->kernels()->lanesU8)
        : 0;
}

void
PreparedQuery::traceback(const bio::SequenceDatabase &db,
                         const align::SearchHit *hits,
                         std::size_t count, align::CigarAlignment *out,
                         align::TracebackStats *stats) const
{
    switch (_kind) {
    case kernels::Workload::Blast:
        for (std::size_t i = 0; i < count; ++i)
            out[i] = align::blastAlign(*_neighborhood, *_query,
                                       db[hits[i].dbIndex], *_matrix,
                                       _gaps, _blast, stats);
        return;
    case kernels::Workload::Blastn:
        for (std::size_t i = 0; i < count; ++i) {
            const bio::Sequence &subject = db[hits[i].dbIndex];
            out[i] = align::blastnAlign(*_dnaIndex, *_dnaQuery,
                                        subject.residues().data(),
                                        subject.length(), _blastn,
                                        stats);
        }
        return;
    default:
        break;
    }
    if (!_native)
        throw std::logic_error(
            "FASTA traceback needs a reporting request");
    thread_local std::vector<align::NativeAlignHit> batch;
    batch.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        const bio::Sequence &subject = db[hits[i].dbIndex];
        align::NativeAlignHit &job = batch[i];
        job.subject = subject.residues().data();
        job.length = subject.length();
        if (_kind == kernels::Workload::Fasta34) {
            // The ranked endpoint belongs to the heuristic band
            // scan, not an exact SW argmax: locate the optimum
            // afresh.
            job.end = {};
        } else if (hits[i].score > 0) {
            // The Smith-Waterman kinds: the scan already found the
            // score and its end column (and the row, on the scalar
            // rung), so the locate pass stops there.
            job.end = {hits[i].score, hits[i].queryEnd,
                       hits[i].subjectEnd};
        } else {
            job.length = 0; // nothing to align: an empty alignment
        }
    }
    align::nativeLocalAlignBatch(*_native, batch.data(), count, _gaps,
                                 out, stats);
}

align::LocalScore
PreparedQuery::scanPacked(const bio::Residue *subject,
                          std::size_t n, std::uint64_t *cells,
                          align::NativeScanStats *stats) const
{
    return align::swStripedNativeScan(*_native, subject, n, _gaps,
                                      cells, stats);
}

void
PreparedQuery::scanPackedBatch(const align::SubjectSpan *subjects,
                               std::size_t count,
                               align::LocalScore *out,
                               std::uint64_t *cells,
                               align::NativeScanStats *stats) const
{
    align::swInterSequenceScan(*_native, subjects, count, _gaps,
                               out, cells, stats);
}

std::vector<Request>
makeRequestStream(const StreamSpec &spec,
                  const std::vector<bio::Sequence> &query_pool)
{
    if (query_pool.empty())
        throw std::invalid_argument(
            "makeRequestStream: empty query pool");
    if (spec.kinds.empty())
        throw std::invalid_argument(
            "makeRequestStream: empty workload mix");

    bio::Rng rng(spec.seed);
    std::vector<Request> stream;
    stream.reserve(spec.requests);
    for (std::size_t i = 0; i < spec.requests; ++i) {
        Request r;
        r.id = i;
        r.kind = spec.kinds[rng.below(spec.kinds.size())];
        r.query = query_pool[rng.below(query_pool.size())];
        r.topK = spec.topK;
        r.reportAlignments = spec.reportAlignments;
        stream.push_back(std::move(r));
    }
    return stream;
}

} // namespace bioarch::serve
