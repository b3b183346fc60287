#include "router.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace bioarch::serve
{

namespace
{

double
nowSteadyUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

} // namespace

ReplicaRouter::ReplicaRouter(
    std::shared_ptr<const index::DbEpoch> epoch,
    RouterConfig config)
    : _cfg(config)
{
    if (epoch == nullptr)
        throw std::invalid_argument("ReplicaRouter: null epoch");
    if (_cfg.replicas == 0)
        _cfg.replicas = 1;
    if (_cfg.minChunk == 0)
        _cfg.minChunk = 1;
    if (_cfg.engine.metrics == nullptr) {
        _ownedMetrics = std::make_unique<obs::Registry>();
        _metrics = _ownedMetrics.get();
    } else {
        _metrics = _cfg.engine.metrics;
    }
    _cfg.engine.metrics = _metrics;
    _cache = std::make_unique<ResultCache>(_cfg.cache, *_metrics);
    _mCacheHitUs = &_metrics->histogram("serve_cache_hit_us");

    _replicas.resize(_cfg.replicas);
    for (std::size_t i = 0; i < _cfg.replicas; ++i) {
        Replica &r = _replicas[i];
        r.engine = std::make_unique<ReloadableEngine>(
            epoch, _cfg.engine);
        const std::string label =
            "replica=\"" + std::to_string(i) + "\"";
        r.mDepth =
            &_metrics->gauge("serve_replica_depth", label);
        r.mRequests = &_metrics->counter(
            "serve_replica_requests_total", label);
        r.mBatches = &_metrics->counter(
            "serve_replica_batches_total", label);
        r.mDepth->set(0.0);
    }
    // Adopt replica 0's normalized knobs so cache keys use the
    // same effective top-K the engines resolve to.
    _cfg.engine = _replicas[0].engine->config();
}

void
ReplicaRouter::reload(
    std::shared_ptr<const index::DbEpoch> epoch)
{
    if (epoch == nullptr)
        throw std::invalid_argument("ReplicaRouter: null epoch");
    // Serialize reloads so every replica sees the same epoch
    // sequence; each replica's swap is individually atomic and
    // in-flight chunks finish on the epoch they pinned.
    std::lock_guard lock(_mutex);
    for (Replica &r : _replicas)
        r.engine->reload(epoch);
}

std::uint64_t
ReplicaRouter::epochNumber() const
{
    return _replicas.front().engine->epochNumber();
}

std::size_t
ReplicaRouter::defaultBatch() const
{
    return _replicas.front().engine->defaultBatch();
}

void
ReplicaRouter::refreshPoolMetrics()
{
    // pool_* counters are mirrored as deltas, so summing every
    // replica's pool into the shared registry stays monotone.
    for (const Replica &r : _replicas)
        r.engine->refreshPoolMetrics();
}

void
ReplicaRouter::serveChunk(Chunk &chunk,
                          const BatchControl &control)
{
    Replica &replica = _replicas[chunk.replica];
    BatchControl chunk_control;
    chunk_control.clock = control.clock;
    chunk_control.deadlinesUs = control.deadlinesUs != nullptr
        ? chunk.deadlinesUs.data()
        : nullptr;
    chunk.responses = replica.engine->serveBatchPinned(
        chunk.requests, chunk_control, &chunk.epoch);
}

std::vector<Response>
ReplicaRouter::serveBatch(const std::vector<Request> &requests,
                          const BatchControl &control)
{
    const std::size_t n = requests.size();
    std::vector<Response> out(n);

    // Phase 1: consult the cache under the currently published
    // epoch; hits are complete ranked answers by construction.
    const bool cached = _cache->enabled();
    const std::uint64_t epoch = epochNumber();
    std::vector<ResultCache::Key> keys(cached ? n : 0);
    std::vector<std::uint64_t> digests(cached ? n : 0);
    std::vector<std::size_t> misses;
    misses.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (!cached) {
            misses.push_back(i);
            continue;
        }
        const Request &req = requests[i];
        ResultCache::Key &key = keys[i];
        key.kind = static_cast<std::uint16_t>(req.kind);
        key.topK = static_cast<std::uint32_t>(
            req.topK != 0 ? req.topK : _cfg.engine.topK);
        key.report = req.reportAlignments ? 1 : 0;
        key.epoch = epoch;
        key.query = req.query.residues();
        digests[i] = ResultCache::digest(key);
        const double t0 = nowSteadyUs();
        const std::shared_ptr<const ResultCache::Result> hit =
            _cache->lookup(key, digests[i]);
        if (hit == nullptr) {
            misses.push_back(i);
            continue;
        }
        const double hitUs = nowSteadyUs() - t0;
        Response &resp = out[i];
        resp.id = req.id;
        resp.kind = req.kind;
        resp.hits = hit->hits;
        resp.alignments = hit->alignments;
        resp.cellsComputed = hit->cells;
        resp.tracebackCells = hit->tracebackCells;
        resp.sequencesSearched = hit->sequences;
        resp.residuesScanned = hit->residues;
        resp.serviceUs = hitUs;
        resp.fromCache = true;
        _mCacheHitUs->record(hitUs);
    }
    if (misses.empty())
        return out;

    // Phase 2: split the misses into contiguous chunks and bind
    // each to the least-loaded replica.
    const std::size_t nmiss = misses.size();
    const std::size_t nchunks = std::clamp<std::size_t>(
        (nmiss + _cfg.minChunk - 1) / _cfg.minChunk, 1,
        _replicas.size());
    std::vector<Chunk> chunks(nchunks);
    {
        const std::size_t base = nmiss / nchunks;
        const std::size_t rem = nmiss % nchunks;
        std::size_t next = 0;
        for (std::size_t c = 0; c < nchunks; ++c) {
            Chunk &chunk = chunks[c];
            const std::size_t size = base + (c < rem ? 1 : 0);
            for (std::size_t j = 0; j < size; ++j, ++next) {
                const std::size_t slot = misses[next];
                chunk.slots.push_back(slot);
                chunk.requests.push_back(requests[slot]);
                chunk.deadlinesUs.push_back(
                    control.deadlinesUs != nullptr
                        ? control.deadlinesUs[slot]
                        : 0.0);
            }
        }
    }
    {
        std::lock_guard lock(_mutex);
        std::vector<std::size_t> order(_replicas.size());
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(
            order.begin(), order.end(),
            [this](std::size_t a, std::size_t b) {
                const Replica &ra = _replicas[a];
                const Replica &rb = _replicas[b];
                if (ra.inFlight != rb.inFlight)
                    return ra.inFlight < rb.inFlight;
                return ra.assigned < rb.assigned;
            });
        for (std::size_t c = 0; c < nchunks; ++c) {
            Chunk &chunk = chunks[c];
            chunk.replica = order[c];
            Replica &r = _replicas[chunk.replica];
            r.inFlight += chunk.requests.size();
            r.assigned += chunk.requests.size();
            r.mDepth->set(static_cast<double>(r.inFlight));
            r.mRequests->inc(chunk.requests.size());
            r.mBatches->inc();
        }
    }

    // Phase 3: scatter. Extra chunks run on gather threads, the
    // first on the calling thread; exceptions are rethrown after
    // every chunk has been joined and accounted.
    std::vector<std::exception_ptr> errors(nchunks);
    const auto runChunk = [this, &control, &chunks,
                           &errors](std::size_t c) {
        try {
            serveChunk(chunks[c], control);
        } catch (...) {
            errors[c] = std::current_exception();
        }
        std::lock_guard lock(_mutex);
        Replica &r = _replicas[chunks[c].replica];
        r.inFlight -= chunks[c].requests.size();
        r.mDepth->set(static_cast<double>(r.inFlight));
    };
    {
        std::vector<std::thread> gatherers;
        gatherers.reserve(nchunks - 1);
        for (std::size_t c = 1; c < nchunks; ++c)
            gatherers.emplace_back(runChunk, c);
        runChunk(0);
        for (std::thread &t : gatherers)
            t.join();
    }
    for (std::exception_ptr &e : errors)
        if (e != nullptr)
            std::rethrow_exception(e);

    // Phase 4: gather in request order and populate the cache
    // under the epoch each chunk actually ran against. Partial
    // (deadline-truncated) answers are never cached.
    for (Chunk &chunk : chunks) {
        for (std::size_t j = 0; j < chunk.slots.size(); ++j) {
            const std::size_t slot = chunk.slots[j];
            Response &resp = chunk.responses[j];
            // Deadline-truncated answers — including a partial
            // traceback phase — are never cached.
            if (cached && !resp.deadlineExpired()) {
                ResultCache::Key key = keys[slot];
                std::uint64_t dig = digests[slot];
                if (key.epoch != chunk.epoch) {
                    key.epoch = chunk.epoch;
                    dig = ResultCache::digest(key);
                }
                auto result =
                    std::make_shared<ResultCache::Result>();
                result->hits = resp.hits;
                result->alignments = resp.alignments;
                result->cells = resp.cellsComputed;
                result->tracebackCells = resp.tracebackCells;
                result->sequences = resp.sequencesSearched;
                result->residues = resp.residuesScanned;
                _cache->insert(std::move(key), dig,
                               std::move(result));
            }
            out[slot] = std::move(resp);
        }
    }
    return out;
}

} // namespace bioarch::serve
