/**
 * @file
 * The long-read nucleotide serving workload: synthetic DNA reads
 * stored as residue Sequences (bases 0..3, one per byte) so the
 * generic serving tier — ShardedDatabase, the engines, the result
 * cache — can shard and scan them exactly like protein databases,
 * while align/blastn.hh re-packs the query side to 2 bits for its
 * word index.
 *
 * The shape mimics a long-read mapping service: reads a few
 * kilobases long with planted homologs of the queries at
 * long-read-ish identity, so blastn's banded gapped extension (not
 * just the ungapped stage) carries the work.
 */

#ifndef BIOARCH_BIO_DNA_WORKLOAD_HH
#define BIOARCH_BIO_DNA_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "database.hh"
#include "nucleotide.hh"
#include "sequence.hh"

namespace bioarch::bio
{

/** Knobs of the synthetic long-read nucleotide workload. */
struct DnaWorkloadSpec
{
    /** Reads in the served database. */
    std::size_t numReads = 200;
    std::size_t minLength = 600;  ///< shortest read (bases)
    std::size_t maxLength = 2400; ///< longest read (bases)
    /** Planted homologous reads per query sequence. */
    int homologsPerQuery = 4;
    /** Base identity of the planted homologs (indels included). */
    double identity = 0.85;
    std::uint64_t seed = 0xD7AD8A5Eu;
};

/** Deterministic pool of @p count DNA queries (for streams). */
std::vector<Sequence> makeDnaQueryPool(std::size_t count,
                                       std::size_t length,
                                       std::uint64_t seed);

/**
 * Synthetic long-read database: background reads with
 * spec.homologsPerQuery mutated copies of every query planted at
 * deterministic positions. Residue values are all < 4, so the
 * database round-trips losslessly through PackedDna.
 */
SequenceDatabase makeDnaReadDatabase(
    const DnaWorkloadSpec &spec,
    const std::vector<Sequence> &queries);

/** Re-pack a residue DNA sequence to the 2-bit representation. */
PackedDna packDnaSequence(const Sequence &seq);

} // namespace bioarch::bio

#endif // BIOARCH_BIO_DNA_WORKLOAD_HH
