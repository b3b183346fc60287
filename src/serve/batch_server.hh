/**
 * @file
 * The batch-serving interface ServeLoop dispatches into. Engine
 * implements it directly (its reload() slides a new database
 * epoch under a running loop without the loop noticing);
 * ReplicaRouter (router.hh) implements it by answering repeats
 * from the result cache and passing the misses to one Engine.
 */

#ifndef BIOARCH_SERVE_BATCH_SERVER_HH
#define BIOARCH_SERVE_BATCH_SERVER_HH

#include <cstddef>
#include <vector>

#include "clock.hh"
#include "obs/metrics.hh"
#include "request.hh"

namespace bioarch::serve
{

/**
 * Per-request cancellation plumbed into a batch: request r's
 * shard-scan tasks check deadlinesUs[r] (absolute, in @p clock's
 * time base; <= 0 means no deadline) immediately before scanning
 * and skip the scan once the deadline has passed — cancellation at
 * shard-scan granularity. Skipped shards are reported in
 * Response::shardsSkipped.
 */
struct BatchControl
{
    /** Per-request absolute deadlines (may be nullptr). */
    const double *deadlinesUs = nullptr;
    /** Clock the deadlines are expressed in. */
    const Clock *clock = nullptr;

    bool
    expired(std::size_t r) const
    {
        return deadlinesUs != nullptr && clock != nullptr
            && deadlinesUs[r] > 0.0
            && clock->nowUs() >= deadlinesUs[r];
    }
};

/**
 * Anything that can serve a batch of requests and report metrics.
 * Implementations must tolerate serveBatch() from one dispatcher
 * thread at a time (ServeLoop's contract).
 */
class BatchServer
{
  public:
    virtual ~BatchServer() = default;

    /** Serve one batch with per-request deadline cancellation. */
    virtual std::vector<Response>
    serveBatch(const std::vector<Request> &requests,
               const BatchControl &control) = 0;

    /** Registry the server reports into (stable reference). */
    virtual obs::Registry &metrics() = 0;

    /** Batch size ServeLoop uses when LoopConfig::batch is 0. */
    virtual std::size_t defaultBatch() const = 0;

    /** Mirror worker-pool counters into the registry. */
    virtual void refreshPoolMetrics() = 0;
};

} // namespace bioarch::serve

#endif // BIOARCH_SERVE_BATCH_SERVER_HH
