#include "shard.hh"

#include <algorithm>

namespace bioarch::serve
{

ShardedDatabase::ShardedDatabase(const bio::SequenceDatabase &db,
                                 std::size_t num_shards)
    : _db(&db)
{
    if (num_shards == 0)
        num_shards = 1;
    const std::uint64_t total = db.totalResidues();
    const std::size_t n = db.size();

    _shards.reserve(num_shards);
    std::size_t next = 0;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < num_shards; ++i) {
        Shard s;
        s.index = i;
        s.begin = next;
        // Advance to the residue-prefix target of this shard's
        // right edge; the last shard always absorbs the remainder.
        const std::uint64_t target =
            total * static_cast<std::uint64_t>(i + 1)
            / static_cast<std::uint64_t>(num_shards);
        while (next < n
               && (acc < target || i + 1 == num_shards)) {
            acc += db[next].length();
            s.residues += db[next].length();
            ++next;
        }
        s.end = next;
        _shards.push_back(s);
    }
}

ShardScan
scanShard(const PreparedQuery &query,
          const bio::SequenceDatabase &db, const Shard &shard,
          std::size_t top_k, const align::KarlinParams &karlin,
          double total_residues, const ScanRoute &route)
{
    ShardScan out;
    TopKHeap heap(top_k);
    const double m = static_cast<double>(query.query().length());
    const std::vector<std::uint64_t> &offsets = db.packedOffsets();

    // Every route below yields (db index, local score) here, the
    // one place a score becomes a candidate hit. The heap's order
    // is total, so the ranked list never depends on the order a
    // route feeds it.
    const auto feed = [&heap](std::size_t idx,
                              const align::LocalScore &ls) {
        if (ls.score <= 0)
            return;
        align::SearchHit hit;
        hit.dbIndex = idx;
        hit.score = ls.score;
        hit.queryEnd = ls.queryEnd;
        hit.subjectEnd = ls.subjectEnd;
        heap.consider(hit);
    };

    if (route.indexCandidates != nullptr) {
        // Indexed BLAST route: the engine probed the seed index
        // once for this request; align only the candidates that
        // fall in this shard. The candidate set provably contains
        // every sequence blastScan would score above 0 (see
        // index/seed_index.hh), so the heap sees exactly the hits
        // a full scan would feed it and the ranked list is
        // bit-identical.
        const std::vector<std::uint32_t> &cand =
            *route.indexCandidates;
        const auto lo = std::lower_bound(
            cand.begin(), cand.end(),
            static_cast<std::uint32_t>(shard.begin));
        const auto hi = std::lower_bound(
            lo, cand.end(),
            static_cast<std::uint32_t>(shard.end));
        out.prefilterSkipped = lo == hi;
        for (auto it = lo; it != hi; ++it) {
            const std::size_t idx = *it;
            feed(idx, query.scan(db[idx], &out.cells, &out.native));
            ++out.sequences;
            out.residues += offsets[idx + 1] - offsets[idx];
        }
    } else if (query.usesNativeScan()) {
        // Native Smith-Waterman scans walk the database's packed
        // residue arena (one contiguous stream per shard). Kernel
        // choice per subject: lengths under the cutover go to the
        // inter-sequence kernel (one subject per lane), the rest
        // through the striped kernel. Scores land in a per-subject
        // slot and are fed in ascending db index afterwards, so
        // the lane schedule never shows in the hit list.
        out.residues = shard.residues;
        const bio::Residue *arena = db.packedResidues();
        const std::size_t n_subjects = shard.end - shard.begin;
        std::vector<align::LocalScore> scores(n_subjects);
        std::vector<align::SubjectSpan> batch;
        std::vector<std::uint32_t> batch_slot;
        batch.reserve(n_subjects);
        batch_slot.reserve(n_subjects);
        for (std::size_t idx = shard.begin; idx < shard.end;
             ++idx) {
            const std::size_t slot = idx - shard.begin;
            const std::size_t len = static_cast<std::size_t>(
                offsets[idx + 1] - offsets[idx]);
            if (len > 0 && len < route.interseqCutover) {
                batch.push_back(align::SubjectSpan{
                    arena + offsets[idx], len});
                batch_slot.push_back(
                    static_cast<std::uint32_t>(slot));
            } else {
                scores[slot] = query.scanPacked(
                    arena + offsets[idx], len, &out.cells,
                    &out.native);
            }
        }
        // Batch-occupancy floor: the inter-sequence kernel's edge
        // comes from keeping all lanes busy, and a near-empty batch
        // leaves most of them idling on the pad row. Too few
        // subjects to fill even a quarter of the widest lane set
        // scan striped instead — scores are bit-identical either
        // way, this is purely a throughput choice.
        constexpr std::size_t min_batch_occupancy = 8;
        if (batch.size() > 0
            && batch.size() < min_batch_occupancy) {
            for (std::size_t k = 0; k < batch.size(); ++k)
                scores[batch_slot[k]] = query.scanPacked(
                    batch[k].data, batch[k].length, &out.cells,
                    &out.native);
        } else if (!batch.empty()) {
            std::vector<align::LocalScore> batch_scores(
                batch.size());
            query.scanPackedBatch(batch.data(), batch.size(),
                                  batch_scores.data(), &out.cells,
                                  &out.native);
            for (std::size_t k = 0; k < batch.size(); ++k)
                scores[batch_slot[k]] = batch_scores[k];
        }
        out.sequences = n_subjects;
        for (std::size_t slot = 0; slot < n_subjects; ++slot)
            feed(shard.begin + slot, scores[slot]);
    } else {
        // The heuristics (FASTA, BLAST, blastn) take the
        // Sequence path.
        out.residues = shard.residues;
        for (std::size_t idx = shard.begin; idx < shard.end;
             ++idx) {
            feed(idx, query.scan(db[idx], &out.cells, &out.native));
            ++out.sequences;
        }
    }
    // Hit statistics are pure functions of the score, so they can
    // wait until the heap has discarded everything below the top K
    // (ranking never looks at them: (score desc, dbIndex asc)).
    out.hits = heap.ranked();
    out.karlinFills =
        static_cast<std::uint64_t>(out.hits.size());
    for (align::SearchHit &hit : out.hits) {
        hit.bitScore = karlin.bitScore(hit.score);
        hit.evalue = karlin.evalue(hit.score, m, total_residues);
    }
    return out;
}

} // namespace bioarch::serve
