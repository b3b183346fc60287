#include "loop.hh"

#include <algorithm>
#include <string>
#include <utility>

namespace bioarch::serve
{

std::string_view
priorityName(Priority p)
{
    switch (p) {
    case Priority::Interactive:
        return "interactive";
    case Priority::Normal:
        return "normal";
    case Priority::Bulk:
        return "bulk";
    }
    return "unknown";
}

std::string_view
loopStatusName(LoopStatus s)
{
    switch (s) {
    case LoopStatus::Pending:
        return "pending";
    case LoopStatus::Served:
        return "served";
    case LoopStatus::RetryAfter:
        return "retry_after";
    case LoopStatus::Deadline:
        return "deadline";
    case LoopStatus::Dropped:
        return "dropped";
    }
    return "unknown";
}

ServeLoop::ServeLoop(Engine &engine, LoopConfig config,
                     const Clock *clock)
    : _engine(&engine),
      _cfg(config),
      _clock(clock != nullptr ? clock : &_ownedClock)
{
    if (_cfg.queueCapacity == 0)
        _cfg.queueCapacity = 1;
    if (_cfg.batch == 0)
        _cfg.batch = _engine->config().batch;

    obs::Registry &m = _engine->metrics();
    _mOffered = &m.counter("loop_offered_total");
    _mAdmitted = &m.counter("loop_admitted_total");
    _mServed = &m.counter("loop_served_total");
    _mShedQueueFull = &m.counter("loop_shed_queue_full_total");
    _mShedDeadline = &m.counter("loop_shed_deadline_total");
    _mShedQuota = &m.counter("loop_shed_quota_total");
    _mShedShutdown = &m.counter("loop_shed_shutdown_total");
    _mDeadlineExpired = &m.counter("loop_deadline_expired_total");
    _mDropped = &m.counter("loop_dropped_total");
    _mQueueDepth = &m.gauge("loop_queue_depth");
    _mQueueWaitUs = &m.histogram("serve_queue_wait_us");
    _mLatencyUs = &m.histogram("serve_latency_us");
}

ServeLoop::~ServeLoop()
{
    stop();
}

double
ServeLoop::estimatedWaitUsLocked(Priority priority) const
{
    // Work that completes before a fresh arrival of this class:
    // the in-flight batch plus everything queued at the same or a
    // better class.
    std::size_t ahead = _inFlight;
    for (std::size_t c = 0;
         c <= static_cast<std::size_t>(priority); ++c)
        ahead += _classDepth[c];
    return _ewmaServiceUs * static_cast<double>(ahead);
}

ServeLoop::TenantState &
ServeLoop::tenantLocked(std::uint32_t tenant, double now)
{
    const auto found = _tenants.find(tenant);
    if (found != _tenants.end())
        return found->second;
    TenantState &t = _tenants[tenant];
    for (const TenantQuota &quota : _cfg.tenants) {
        if (quota.tenant != tenant)
            continue;
        t.rateQps = quota.rateQps;
        t.burst = std::max(quota.burst, 1.0);
        t.weight = std::max(quota.weight, 0.01);
        break;
    }
    t.tokens = t.burst; // a fresh tenant may burst immediately
    t.lastRefillUs = now;
    obs::Registry &m = _engine->metrics();
    const std::string label =
        "tenant=\"" + std::to_string(tenant) + "\"";
    t.mOffered = &m.counter("serve_tenant_offered_total", label);
    t.mAdmitted = &m.counter("serve_tenant_admitted_total", label);
    t.mServed = &m.counter("serve_tenant_served_total", label);
    t.mShed = &m.counter("serve_tenant_shed_total", label);
    t.mDeadlineExpired =
        &m.counter("serve_tenant_deadline_expired_total", label);
    t.mDropped = &m.counter("serve_tenant_dropped_total", label);
    return t;
}

Submission
ServeLoop::submit(Request request, Priority priority,
                  double deadlineUs)
{
    Submission out;
    std::lock_guard lock(_mutex);
    _mOffered->inc();
    const double now = _clock->nowUs();
    const std::uint32_t tenantId = request.tenant;
    TenantState &tenant = tenantLocked(tenantId, now);
    tenant.mOffered->inc();
    const double deadline = deadlineUs >= 0.0
        ? deadlineUs
        : (_cfg.defaultDeadlineUs > 0.0
               ? now + _cfg.defaultDeadlineUs
               : 0.0);

    out.ticket = static_cast<std::uint64_t>(_results.size());
    LoopResult result;
    result.id = request.id;
    result.priority = priority;
    result.tenant = tenantId;
    result.arrivalUs = now;

    const auto shed = [&](obs::Counter *reason,
                          double retry_after) {
        reason->inc();
        tenant.mShed->inc();
        out.admitted = false;
        out.retryAfterUs =
            std::max(retry_after, _cfg.minRetryAfterUs);
        result.status = LoopStatus::RetryAfter;
        result.doneUs = now;
        _results.push_back(std::move(result));
    };

    if (!_admitting) {
        shed(_mShedShutdown, _cfg.minRetryAfterUs);
        return out;
    }
    if (tenant.rateQps > 0.0) {
        // Lazy bucket refill on the loop clock (deterministic
        // under a ManualClock).
        tenant.tokens = std::min(
            tenant.burst,
            tenant.tokens
                + (now - tenant.lastRefillUs) * tenant.rateQps
                    / 1e6);
        tenant.lastRefillUs = now;
        if (tenant.tokens < 1.0) {
            // The hint must cover the *bucket's* recovery, not
            // the engine's service time: retrying any sooner is
            // guaranteed another quota shed.
            shed(_mShedQuota,
                 (1.0 - tenant.tokens) / tenant.rateQps * 1e6);
            return out;
        }
    }
    if (_depth >= _cfg.queueCapacity) {
        // Hint: roughly the time for the backlog to drain.
        shed(_mShedQueueFull,
             _ewmaServiceUs
                 * static_cast<double>(_depth + _inFlight));
        return out;
    }
    if (deadline > 0.0
        && now + estimatedWaitUsLocked(priority) >= deadline) {
        // Unmeetable: already expired, or the queue ahead is
        // (by the service-time EWMA) longer than the slack.
        shed(_mShedDeadline, _cfg.minRetryAfterUs);
        return out;
    }

    out.admitted = true;
    if (tenant.rateQps > 0.0)
        tenant.tokens -= 1.0; // charge only on admission
    _results.push_back(std::move(result));
    const std::size_t c = static_cast<std::size_t>(priority);
    Queued q;
    q.request = std::move(request);
    q.priority = priority;
    q.ticket = out.ticket;
    q.deadlineUs = deadline;
    tenant.queues[c].push_back(std::move(q));
    if (!tenant.inRing[c]) {
        _ring[c].push_back(tenantId);
        tenant.inRing[c] = true;
    }
    ++_depth;
    ++_classDepth[c];
    _mAdmitted->inc();
    tenant.mAdmitted->inc();
    _mQueueDepth->set(static_cast<double>(_depth));
    _work.notify_one();
    return out;
}

std::vector<ServeLoop::Queued>
ServeLoop::popBatchLocked()
{
    std::vector<Queued> batch;
    const double now = _clock->nowUs();
    for (std::size_t c = 0;
         c < numPriorities && batch.size() < _cfg.batch; ++c) {
        // Weighted deficit round-robin over the class's active
        // tenants: the head tenant spends 1 deficit per popped
        // request; when broke, it earns `weight` and rotates to
        // the back. Over a backlogged window each tenant gets
        // dispatch slots in proportion to its weight; a lone
        // tenant degenerates to plain FIFO.
        std::deque<std::uint32_t> &ring = _ring[c];
        while (!ring.empty() && batch.size() < _cfg.batch) {
            TenantState &t = _tenants.at(ring.front());
            std::deque<Queued> &q = t.queues[c];
            if (t.deficit[c] < 1.0) {
                t.deficit[c] += t.weight;
                ring.push_back(ring.front());
                ring.pop_front();
                continue;
            }
            t.deficit[c] -= 1.0;
            Queued item = std::move(q.front());
            q.pop_front();
            --_depth;
            --_classDepth[c];
            LoopResult &r = _results[item.ticket];
            r.dispatchUs = now;
            r.dispatchOrder = _dispatchSeq++;
            batch.push_back(std::move(item));
            if (q.empty()) {
                t.inRing[c] = false;
                t.deficit[c] = 0.0; // no credit hoarding while idle
                ring.pop_front();
            }
        }
    }
    _inFlight += batch.size();
    _mQueueDepth->set(static_cast<double>(_depth));
    return batch;
}

std::size_t
ServeLoop::processBatch(std::vector<Queued> batch)
{
    if (batch.empty())
        return 0;
    const double dispatched = _clock->nowUs();

    // Dispatch-time deadline check: an already-expired request
    // never reaches the engine at all.
    std::vector<Queued> run;
    run.reserve(batch.size());
    {
        std::lock_guard lock(_mutex);
        for (Queued &q : batch) {
            LoopResult &r = _results[q.ticket];
            _mQueueWaitUs->record(r.queueWaitUs());
            if (q.deadlineUs > 0.0
                && dispatched >= q.deadlineUs) {
                r.status = LoopStatus::Deadline;
                r.doneUs = dispatched;
                _mDeadlineExpired->inc();
                _tenants.at(r.tenant).mDeadlineExpired->inc();
                --_inFlight;
                continue;
            }
            run.push_back(std::move(q));
        }
    }
    if (run.empty())
        return batch.size();

    std::vector<Request> requests;
    std::vector<double> deadlines;
    requests.reserve(run.size());
    deadlines.reserve(run.size());
    for (Queued &q : run) {
        requests.push_back(std::move(q.request));
        deadlines.push_back(q.deadlineUs);
    }
    BatchControl control;
    control.deadlinesUs = deadlines.data();
    control.clock = _clock;
    std::vector<Response> responses =
        _engine->serveBatch(requests, control);

    const double done = _clock->nowUs();
    const double per_request = (done - dispatched)
        / static_cast<double>(run.size());
    {
        std::lock_guard lock(_mutex);
        _inFlight -= run.size();
        _ewmaServiceUs = _ewmaServiceUs <= 0.0
            ? per_request
            : 0.75 * _ewmaServiceUs + 0.25 * per_request;
        for (std::size_t i = 0; i < run.size(); ++i) {
            LoopResult &r = _results[run[i].ticket];
            TenantState &t = _tenants.at(r.tenant);
            r.doneUs = done;
            r.response = std::move(responses[i]);
            // A miss is a miss whether the engine cancelled shard
            // scans or the batch simply finished too late: Served
            // means delivered within the deadline.
            if (r.response.deadlineExpired()
                || (run[i].deadlineUs > 0.0
                    && done >= run[i].deadlineUs)) {
                r.status = LoopStatus::Deadline;
                _mDeadlineExpired->inc();
                t.mDeadlineExpired->inc();
            } else {
                r.status = LoopStatus::Served;
                _mServed->inc();
                t.mServed->inc();
                _mLatencyUs->record(r.latencyUs());
            }
        }
    }
    return batch.size();
}

std::size_t
ServeLoop::pumpOne()
{
    std::vector<Queued> batch;
    {
        std::lock_guard lock(_mutex);
        if (_depth == 0)
            return 0;
        batch = popBatchLocked();
    }
    return processBatch(std::move(batch));
}

std::size_t
ServeLoop::pumpAll()
{
    std::size_t total = 0;
    for (;;) {
        const std::size_t n = pumpOne();
        if (n == 0)
            return total;
        total += n;
    }
}

void
ServeLoop::dispatcherLoop()
{
    for (;;) {
        std::vector<Queued> batch;
        {
            std::unique_lock lock(_mutex);
            _work.wait(lock, [this] {
                return _stopRequested || _depth > 0;
            });
            if (_stopRequested) {
                if (_dropQueued) {
                    dropQueuedLocked();
                    return;
                }
                if (_depth == 0)
                    return;
            }
            batch = popBatchLocked();
        }
        processBatch(std::move(batch));
    }
}

void
ServeLoop::dropQueuedLocked()
{
    const double now = _clock->nowUs();
    for (auto &[id, t] : _tenants) {
        for (std::size_t c = 0; c < numPriorities; ++c) {
            for (Queued &item : t.queues[c]) {
                LoopResult &r = _results[item.ticket];
                r.status = LoopStatus::Dropped;
                r.doneUs = now;
                _mDropped->inc();
                t.mDropped->inc();
            }
            t.queues[c].clear();
            t.deficit[c] = 0.0;
            t.inRing[c] = false;
        }
    }
    for (std::deque<std::uint32_t> &ring : _ring)
        ring.clear();
    _classDepth.fill(0);
    _depth = 0;
    _mQueueDepth->set(0.0);
}

void
ServeLoop::start()
{
    std::lock_guard lock(_mutex);
    if (_started)
        return;
    _started = true;
    _stopRequested = false;
    _dispatcher = std::thread([this] { dispatcherLoop(); });
}

void
ServeLoop::drain()
{
    {
        std::lock_guard lock(_mutex);
        _admitting = false;
        _stopRequested = true;
        _dropQueued = false;
    }
    _work.notify_all();
    if (_dispatcher.joinable()) {
        _dispatcher.join();
        std::lock_guard lock(_mutex);
        _started = false;
        _stopRequested = false;
    } else {
        pumpAll();
        std::lock_guard lock(_mutex);
        _stopRequested = false;
    }
}

void
ServeLoop::stop()
{
    {
        std::lock_guard lock(_mutex);
        _admitting = false;
        _stopRequested = true;
        _dropQueued = true;
    }
    _work.notify_all();
    if (_dispatcher.joinable()) {
        _dispatcher.join();
        std::lock_guard lock(_mutex);
        _started = false;
        _stopRequested = false;
        _dropQueued = false;
    } else {
        std::lock_guard lock(_mutex);
        dropQueuedLocked();
        _stopRequested = false;
        _dropQueued = false;
    }
}

bool
ServeLoop::running() const
{
    std::lock_guard lock(_mutex);
    return _started;
}

std::size_t
ServeLoop::queueDepth() const
{
    std::lock_guard lock(_mutex);
    return _depth;
}

std::vector<LoopResult>
ServeLoop::results() const
{
    std::lock_guard lock(_mutex);
    return _results;
}

} // namespace bioarch::serve
