/**
 * @file
 * Transitional aliases for code written against the retired cache
 * router; the cache is EngineConfig::cache now. Use Engine.
 */
#ifndef BIOARCH_SERVE_ROUTER_HH
#define BIOARCH_SERVE_ROUTER_HH
#include <stdexcept>
#include "engine.hh"
namespace bioarch::serve
{
using BatchServer = Engine;
using ReplicaRouter = Engine;
/** The old router knobs; converts to the one EngineConfig. */
struct RouterConfig
{
    std::size_t replicas = 1; ///< must be 1
    EngineConfig engine;
    CacheConfig cache;
    operator EngineConfig() const
    {
        if (replicas != 1)
            throw std::invalid_argument("RouterConfig: replicas must be 1");
        EngineConfig cfg = engine;
        cfg.cache = cache;
        return cfg;
    }
};
} // namespace bioarch::serve
#endif // BIOARCH_SERVE_ROUTER_HH
