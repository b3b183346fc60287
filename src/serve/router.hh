/**
 * @file
 * The result-cache front of the serving tier: a BatchServer that
 * answers repeated requests from the epoch-keyed result cache
 * (cache.hh) and serves every miss of a batch as one batch on a
 * single hot-reloadable Engine.
 *
 * One engine is enough: its (request x shard) fan-out over one
 * work-stealing pool already saturates the cores, so splitting a
 * batch across several engines measured no faster (EXPERIMENTS.md,
 * fleet section).
 *
 * Determinism: the misses go through the engine exactly as a lone
 * engine would serve them, and a hit is bit-for-bit the stored
 * scan result, so the ranked hit lists equal a serial
 * single-engine scan with the cache on or off
 * (tests/router_test.cc asserts the cache x jobs matrix).
 *
 * Epochs: lookups are keyed by the epoch published at batch start,
 * and inserts by the epoch the engine actually pinned for the
 * misses (Engine::serveBatchPinned), so a hot reload landing
 * mid-batch can never poison the cache with stale hits under a
 * fresh epoch key. Deadline-truncated responses are never cached.
 *
 * Observability: serve_cache_hit_us for cache-served requests, the
 * cache's own hit/miss/eviction/bytes series, and everything the
 * engine reports (db_epoch included).
 */

#ifndef BIOARCH_SERVE_ROUTER_HH
#define BIOARCH_SERVE_ROUTER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "batch_server.hh"
#include "cache.hh"
#include "engine.hh"
#include "index/epoch.hh"

namespace bioarch::serve
{

/** Router tunables. */
struct RouterConfig
{
    /**
     * Engines behind the router. Must be 1: the constructor throws
     * std::invalid_argument for any other value.
     */
    std::size_t replicas = 1;
    /** Engine knobs; a null metrics gets the engine's own registry. */
    EngineConfig engine;
    /** Result cache; capacityBytes 0 serves every request live. */
    CacheConfig cache;
};

/**
 * BatchServer over one reloadable engine + a result cache.
 * serveBatch follows the one-dispatcher-at-a-time contract;
 * reload() may be called from any thread while serving.
 */
class ReplicaRouter final : public BatchServer
{
  public:
    ReplicaRouter(std::shared_ptr<const index::DbEpoch> epoch,
                  RouterConfig config = {});

    /** Publish @p epoch; in-flight batches finish on their own. */
    void reload(std::shared_ptr<const index::DbEpoch> epoch)
    {
        _engine.reload(std::move(epoch));
    }

    std::uint64_t epochNumber() const
    {
        return _engine.epochNumber();
    }
    const RouterConfig &config() const { return _cfg; }
    const ResultCache &cache() const { return _cache; }

    std::vector<Response>
    serveBatch(const std::vector<Request> &requests,
               const BatchControl &control) override;

    obs::Registry &metrics() override { return _engine.metrics(); }
    std::size_t defaultBatch() const override
    {
        return _engine.defaultBatch();
    }
    void refreshPoolMetrics() override
    {
        _engine.refreshPoolMetrics();
    }

  private:
    RouterConfig _cfg;
    Engine _engine;
    ResultCache _cache;
    obs::Histogram *_mCacheHitUs;
};

} // namespace bioarch::serve

#endif // BIOARCH_SERVE_ROUTER_HH
