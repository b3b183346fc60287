#include "dna_workload.hh"

#include <algorithm>
#include <string>
#include <utility>

namespace bioarch::bio
{

namespace
{

std::vector<Residue>
randomBases(Rng &rng, std::size_t length)
{
    std::vector<Residue> bases(length);
    for (Residue &b : bases)
        b = static_cast<Residue>(rng.below(4));
    return bases;
}

/** Substitutions plus occasional 1-3 base indels, long-read style. */
std::vector<Residue>
mutateBases(Rng &rng, const std::vector<Residue> &src,
            double identity)
{
    std::vector<Residue> out;
    out.reserve(src.size() + src.size() / 8);
    const std::uint64_t keep =
        static_cast<std::uint64_t>(identity * 1000.0);
    for (const Residue b : src) {
        const std::uint64_t roll = rng.below(1000);
        if (roll < keep) {
            out.push_back(b);
            continue;
        }
        switch (rng.below(3)) {
        case 0: // substitution to a different base
            out.push_back(static_cast<Residue>(
                (b + 1 + rng.below(3)) % 4));
            break;
        case 1: // deletion of 1-3 bases (this one and the skip run)
            break;
        default: { // insertion of 1-3 random bases, then the base
            const std::uint64_t run = 1 + rng.below(3);
            for (std::uint64_t k = 0; k < run; ++k)
                out.push_back(
                    static_cast<Residue>(rng.below(4)));
            out.push_back(b);
            break;
        }
        }
    }
    if (out.empty())
        out.push_back(0);
    return out;
}

} // namespace

std::vector<Sequence>
makeDnaQueryPool(std::size_t count, std::size_t length,
                 std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Sequence> pool;
    pool.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        pool.emplace_back("DNAQ" + std::to_string(i),
                          "synthetic DNA read",
                          randomBases(rng, length));
    return pool;
}

SequenceDatabase
makeDnaReadDatabase(const DnaWorkloadSpec &spec,
                    const std::vector<Sequence> &queries)
{
    Rng rng(spec.seed);
    const std::size_t lo = std::max<std::size_t>(1, spec.minLength);
    const std::size_t hi = std::max(lo, spec.maxLength);

    // Homolog slots first, spread deterministically through the
    // database so every shard layout sees some hits.
    const std::size_t homologs = queries.empty()
        ? 0
        : queries.size()
            * static_cast<std::size_t>(
                  std::max(0, spec.homologsPerQuery));
    std::vector<Sequence> reads;
    reads.reserve(spec.numReads);
    for (std::size_t i = 0; i < spec.numReads; ++i) {
        const bool plant = homologs != 0 && spec.numReads != 0
            && i % std::max<std::size_t>(1,
                                         spec.numReads / homologs)
                == 0
            && i / std::max<std::size_t>(1,
                                         spec.numReads / homologs)
                < homologs;
        if (plant) {
            const std::size_t q =
                (i / std::max<std::size_t>(
                         1, spec.numReads / homologs))
                % queries.size();
            reads.emplace_back(
                "READH" + std::to_string(i),
                "homolog of " + queries[q].id(),
                mutateBases(rng, queries[q].residues(),
                            spec.identity));
        } else {
            const std::size_t len = lo + rng.below(hi - lo + 1);
            reads.emplace_back("READ" + std::to_string(i),
                               "background DNA read",
                               randomBases(rng, len));
        }
    }

    SequenceDatabase db;
    for (Sequence &r : reads)
        db.add(std::move(r));
    return db;
}

PackedDna
packDnaSequence(const Sequence &seq)
{
    std::vector<Base> bases(seq.residues().begin(),
                            seq.residues().end());
    for (Base &b : bases)
        b = static_cast<Base>(b & 3);
    return PackedDna(seq.id(), bases);
}

} // namespace bioarch::bio
