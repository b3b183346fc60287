#include "router.hh"

#include <chrono>
#include <stdexcept>
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

const RouterConfig &
checked(const RouterConfig &config)
{
    if (config.replicas != 1)
        throw std::invalid_argument(
            "ReplicaRouter: replicas must be 1");
    return config;
}

} // namespace

ReplicaRouter::ReplicaRouter(
    std::shared_ptr<const index::DbEpoch> epoch,
    RouterConfig config)
    : _cfg(checked(config)),
      _engine(std::move(epoch), _cfg.engine),
      _cache(_cfg.cache, _engine.metrics()),
      _mCacheHitUs(
          &_engine.metrics().histogram("serve_cache_hit_us"))
{
    // Adopt the engine's normalized knobs so cache keys use the
    // same effective top-K the engine resolves to.
    _cfg.engine = _engine.config();
}

std::vector<Response>
ReplicaRouter::serveBatch(const std::vector<Request> &requests,
                          const BatchControl &control)
{
    const std::size_t n = requests.size();
    std::vector<Response> out(n);

    // Phase 1: consult the cache under the currently published
    // epoch; hits are complete ranked answers by construction.
    const bool cached = _cache.enabled();
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
            _cache.lookup(key, digests[i]);
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

    // Phase 2: serve the misses as one batch on the engine, with
    // their deadlines remapped to the miss order.
    std::vector<Request> miss_requests;
    std::vector<double> miss_deadlines;
    miss_requests.reserve(misses.size());
    for (const std::size_t slot : misses) {
        miss_requests.push_back(requests[slot]);
        if (control.deadlinesUs != nullptr)
            miss_deadlines.push_back(control.deadlinesUs[slot]);
    }
    BatchControl miss_control;
    miss_control.clock = control.clock;
    miss_control.deadlinesUs = control.deadlinesUs != nullptr
        ? miss_deadlines.data()
        : nullptr;
    std::uint64_t served_epoch = 0;
    std::vector<Response> served = _engine.serveBatchPinned(
        miss_requests, miss_control, &served_epoch);

    // Phase 3: stitch in request order and populate the cache
    // under the epoch the batch actually ran against.
    // Deadline-truncated answers — including a partial traceback
    // phase — are never cached.
    for (std::size_t j = 0; j < misses.size(); ++j) {
        const std::size_t slot = misses[j];
        Response &resp = served[j];
        if (cached && !resp.deadlineExpired()) {
            ResultCache::Key key = keys[slot];
            std::uint64_t dig = digests[slot];
            if (key.epoch != served_epoch) {
                key.epoch = served_epoch;
                dig = ResultCache::digest(key);
            }
            auto result = std::make_shared<ResultCache::Result>();
            result->hits = resp.hits;
            result->alignments = resp.alignments;
            result->cells = resp.cellsComputed;
            result->tracebackCells = resp.tracebackCells;
            result->sequences = resp.sequencesSearched;
            result->residues = resp.residuesScanned;
            _cache.insert(std::move(key), dig, std::move(result));
        }
        out[slot] = std::move(resp);
    }
    return out;
}

} // namespace bioarch::serve
