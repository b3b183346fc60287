/**
 * @file
 * Epoch handles: an immutable (database, seed index) pair stamped
 * with a monotonically increasing epoch number. A serving tier
 * holds a shared_ptr<const DbEpoch>; hot reload publishes a new
 * epoch and in-flight work keeps the old one alive until its last
 * batch drains (Engine::reload in serve/engine.hh builds on this).
 */

#ifndef BIOARCH_INDEX_EPOCH_HH
#define BIOARCH_INDEX_EPOCH_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "bio/database.hh"
#include "container.hh"
#include "seed_index.hh"

namespace bioarch::index
{

/**
 * One immutable database generation. When the epoch was loaded
 * from a container file, @p file keeps the mapping alive and
 * @p index (if present) is a zero-copy view into it; when built
 * in-process, @p index owns its storage and @p file is null.
 */
struct DbEpoch
{
    std::uint64_t epoch = 0;
    bio::SequenceDatabase db;
    std::optional<SeedIndex> index;
    std::shared_ptr<DatabaseFile> file; ///< mapping owner, or null
};

/**
 * Load epoch @p epoch from the container at @p path (mmap +
 * verify + materialize). Carries the file's seed index when one is
 * present. Throws like DatabaseFile::load on corruption.
 */
std::shared_ptr<const DbEpoch> loadEpoch(const std::string &path,
                                         std::uint64_t epoch = 0);

/**
 * Wrap an in-process database as epoch @p epoch, building a fresh
 * seed index when @p build_index is set.
 */
std::shared_ptr<const DbEpoch>
makeEpoch(bio::SequenceDatabase db, bool build_index,
          std::uint64_t epoch = 0, const IndexParams &params = {});

} // namespace bioarch::index

#endif // BIOARCH_INDEX_EPOCH_HH
