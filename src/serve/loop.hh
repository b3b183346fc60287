/**
 * @file
 * The serving loop in front of serve::Engine: the request
 * lifecycle layer that turns the engine's one entry point
 * (Engine::serveBatch) into a service with admission control,
 * deadlines, load shedding, and graceful shutdown. bioarch-serve
 * reaches the engine only through it: the open loop with the
 * dispatcher thread, the closed-loop replay by queueing the whole
 * stream and pumping it (pumpAll) in FIFO batches.
 *
 * Lifecycle of one request:
 *
 *   submit() ── admission ──> queued ── dispatch ──> engine batch
 *      │            │                        │
 *      │            ├─ queue full ─────────> RetryAfter (shed)
 *      │            └─ deadline unmeetable ─> RetryAfter (shed)
 *      │                                     │
 *      │              deadline passed before/while scanning
 *      │                                     └──> Deadline
 *      └─ after stop()/drain() began ──────────> RetryAfter
 *
 * Admission is a bounded multi-producer queue with three priority
 * classes (Interactive > Normal > Bulk); dispatch pops strictly by
 * class and groups up to the engine batch size per engine call.
 * Deadlines are absolute timestamps on the loop's Clock and are
 * enforced twice: at dispatch (an expired request never reaches
 * the engine) and at shard-scan granularity inside the engine
 * (serve::BatchControl), so a request that expires mid-batch
 * stops consuming scan time at the next shard boundary.
 *
 * Multi-tenancy. Every request is billed to Request::tenant:
 *  - Admission charges the tenant's token bucket (TenantQuota:
 *    rateQps tokens/s up to burst). An empty bucket sheds with
 *    loop_shed_quota_total and a retry-after hint equal to the
 *    bucket's actual refill time — not the EWMA service time,
 *    which says nothing about when the quota recovers.
 *  - Within each priority class, dequeue is weighted deficit
 *    round-robin across the tenants with queued work: a tenant
 *    earns `weight` deficit per round and spends 1 per dispatched
 *    request, so over any backlogged window tenants split the
 *    class's dispatch slots in weight ratio and no tenant is
 *    starved by another's offered load. FIFO within a tenant.
 *  - Tenants not named in LoopConfig::tenants get the default
 *    quota (unlimited rate, weight 1); with a single tenant the
 *    schedule degenerates to exactly the old strict-priority FIFO.
 *  - Per-tenant serve_tenant_* counters satisfy the same identity
 *    as the global loop_* family, per tenant.
 *
 * Determinism: the loop itself never reads the wall clock — all
 * timing goes through the Clock — so under a ManualClock every
 * admission, shed, deadline, and drop decision is a pure function
 * of (submission order, clock values), bit-for-bit reproducible
 * across engine worker counts. Tests drive the loop synchronously
 * with pumpOne()/pumpAll(); production runs start() and lets the
 * dispatcher thread drain the queue.
 *
 * Counter identity (asserted by tests and the CI smoke step):
 *   loop_served_total + loop_shed_* + loop_deadline_expired_total
 *     + loop_dropped_total == loop_offered_total
 * once the loop has drained or stopped.
 */

#ifndef BIOARCH_SERVE_LOOP_HH
#define BIOARCH_SERVE_LOOP_HH

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "clock.hh"
#include "engine.hh"
#include "obs/metrics.hh"
#include "request.hh"

namespace bioarch::serve
{

/** Admission classes, dispatched strictly in this order. */
enum class Priority : std::uint8_t
{
    Interactive = 0,
    Normal = 1,
    Bulk = 2,
};
inline constexpr std::size_t numPriorities = 3;

std::string_view priorityName(Priority p);

/** Terminal state of one submitted request. */
enum class LoopStatus : std::uint8_t
{
    Pending,    ///< admitted, not yet dispatched/completed
    Served,     ///< full ranked hit list delivered in time
    RetryAfter, ///< shed at admission; retry after the hint
    Deadline,   ///< deadline expired before/while scanning
    Dropped,    ///< queued at shutdown and dropped
};

std::string_view loopStatusName(LoopStatus s);

/**
 * Admission quota and fair-share weight of one tenant. Tenants
 * without an entry get the defaults below: unlimited rate,
 * weight 1 — i.e. multi-tenancy is opt-in per tenant.
 */
struct TenantQuota
{
    std::uint32_t tenant = 0;
    /** Sustained admissions/s; <= 0 = unlimited (no bucket). */
    double rateQps = 0.0;
    /** Bucket capacity: admissions that may burst at once. */
    double burst = 1.0;
    /** Relative WDRR share within each priority class (> 0). */
    double weight = 1.0;
};

/** Loop tunables. */
struct LoopConfig
{
    /** Queued-request bound across all priority classes. */
    std::size_t queueCapacity = 64;
    /** Requests per engine call; 0 = the engine's batch size. */
    std::size_t batch = 0;
    /**
     * Deadline applied by submit() when the caller passes a
     * negative deadline: now + defaultDeadlineUs (0 = none).
     */
    double defaultDeadlineUs = 0.0;
    /** Floor of the retry-after hint returned with a shed. */
    double minRetryAfterUs = 1000.0;
    /** Per-tenant quotas/weights (absent tenants: defaults). */
    std::vector<TenantQuota> tenants;
};

/** Outcome of submit(): admitted with a ticket, or shed. */
struct Submission
{
    bool admitted = false;
    /** Index into results(); valid for shed submissions too. */
    std::uint64_t ticket = 0;
    /** When not admitted: suggested client back-off (us). */
    double retryAfterUs = 0.0;
};

/** Terminal record of one submission (indexed by ticket). */
struct LoopResult
{
    std::uint64_t id = 0; ///< Request::id
    LoopStatus status = LoopStatus::Pending;
    Priority priority = Priority::Normal;
    std::uint32_t tenant = 0; ///< Request::tenant
    double arrivalUs = 0.0;  ///< loop-clock submit time
    double dispatchUs = 0.0; ///< loop-clock dispatch time
    double doneUs = 0.0;     ///< loop-clock completion time
    /** Dispatch sequence number (0-based; shed/dropped get none). */
    std::uint64_t dispatchOrder = 0;
    /** The engine's answer (Served; partial under Deadline). */
    Response response;

    double queueWaitUs() const { return dispatchUs - arrivalUs; }
    double latencyUs() const { return doneUs - arrivalUs; }
};

/**
 * The loop. One ServeLoop fronts one Engine, whose database epoch
 * can be hot-swapped mid-run and whose result cache (when on)
 * answers repeats without a scan. Submissions may come from
 * any number of threads; dispatch happens either on the caller's
 * thread (pumpOne/pumpAll — deterministic mode) or on the loop's
 * own dispatcher thread (start/drain/stop). Do not mix pump calls
 * with a started dispatcher.
 */
class ServeLoop
{
  public:
    /**
     * @param clock time source for arrivals/deadlines; nullptr =
     *        an internal SteadyClock. Must outlive the loop.
     */
    explicit ServeLoop(Engine &engine, LoopConfig config = {},
                       const Clock *clock = nullptr);
    /** Stops as stop() does when the dispatcher is running. */
    ~ServeLoop();

    ServeLoop(const ServeLoop &) = delete;
    ServeLoop &operator=(const ServeLoop &) = delete;

    const LoopConfig &config() const { return _cfg; }
    const Clock &clock() const { return *_clock; }
    obs::Registry &metrics() { return _engine->metrics(); }

    /**
     * Admission control. Sheds (status RetryAfter, with a
     * retry-after hint) when the queue is at capacity, when the
     * deadline is unmeetable — already expired, or closer than
     * the EWMA of recent per-request service time while work is
     * queued ahead — or after shutdown began.
     *
     * @param deadlineUs absolute loop-clock deadline; negative =
     *        config default; 0 = no deadline
     */
    Submission submit(Request request,
                      Priority priority = Priority::Normal,
                      double deadlineUs = -1.0);

    /**
     * Synchronously dispatch one batch on the calling thread.
     * Returns the number of requests taken off the queue (served
     * or deadline-expired); 0 when the queue is empty.
     */
    std::size_t pumpOne();
    /** pumpOne() until the queue is empty; returns total taken. */
    std::size_t pumpAll();

    /** Start the background dispatcher thread. */
    void start();
    /**
     * Graceful drain: stop admitting, serve everything already
     * queued, then stop the dispatcher. Callable with or without
     * a running dispatcher (without one, pumps on this thread).
     */
    void drain();
    /**
     * Graceful shutdown: stop admitting, let the in-flight batch
     * finish (its requests are served, never cancelled), drop
     * every still-queued request with status Dropped — in ticket
     * order, deterministically — and stop the dispatcher.
     */
    void stop();

    bool running() const;
    std::size_t queueDepth() const;

    /**
     * Terminal per-ticket records. Stable to read after drain(),
     * stop(), or — in pump mode — whenever no pump is executing.
     */
    std::vector<LoopResult> results() const;

  private:
    struct Queued
    {
        Request request;
        Priority priority = Priority::Normal;
        std::uint64_t ticket = 0;
        double deadlineUs = 0.0;
    };
    /** One tenant's bucket, per-class queues, and counters. */
    struct TenantState
    {
        double rateQps = 0.0; ///< <= 0: no bucket
        double burst = 1.0;
        double weight = 1.0;
        double tokens = 0.0;
        double lastRefillUs = 0.0;
        std::array<std::deque<Queued>, numPriorities> queues;
        /** WDRR credit per class: earn weight, spend 1/request. */
        std::array<double, numPriorities> deficit{};
        /** Whether the tenant sits in _ring[c]. */
        std::array<bool, numPriorities> inRing{};
        obs::Counter *mOffered = nullptr;
        obs::Counter *mAdmitted = nullptr;
        obs::Counter *mServed = nullptr;
        obs::Counter *mShed = nullptr;
        obs::Counter *mDeadlineExpired = nullptr;
        obs::Counter *mDropped = nullptr;
    };

    void dispatcherLoop();
    /** Pop up to one batch: strict priority across classes, WDRR
     * across tenants within a class. Lock must be held. */
    std::vector<Queued> popBatchLocked();
    std::size_t processBatch(std::vector<Queued> batch);
    void dropQueuedLocked();
    double estimatedWaitUsLocked(Priority priority) const;
    /** Find-or-create the tenant's state (registers counters and
     * fills the bucket on first sight). Lock must be held. */
    TenantState &tenantLocked(std::uint32_t tenant, double now);

    Engine *_engine;
    LoopConfig _cfg;
    SteadyClock _ownedClock;
    const Clock *_clock;

    mutable std::mutex _mutex;
    std::condition_variable _work;
    /** Tenant states; ordered so drops walk a stable order. */
    std::map<std::uint32_t, TenantState> _tenants;
    /** Per class: tenants with queued work, activation order. */
    std::array<std::deque<std::uint32_t>, numPriorities> _ring;
    std::array<std::size_t, numPriorities> _classDepth{};
    std::size_t _depth = 0;
    /** Requests dispatched but not yet completed. */
    std::size_t _inFlight = 0;
    bool _admitting = true;
    bool _stopRequested = false;
    bool _dropQueued = false;
    std::thread _dispatcher;
    bool _started = false;
    std::vector<LoopResult> _results;
    std::uint64_t _dispatchSeq = 0;
    /** EWMA of per-request engine service time (loop-clock us). */
    double _ewmaServiceUs = 0.0;

    // Counter handles (registered in the engine's registry).
    obs::Counter *_mOffered;
    obs::Counter *_mAdmitted;
    obs::Counter *_mServed;
    obs::Counter *_mShedQueueFull;
    obs::Counter *_mShedDeadline;
    obs::Counter *_mShedQuota;
    obs::Counter *_mShedShutdown;
    obs::Counter *_mDeadlineExpired;
    obs::Counter *_mDropped;
    obs::Gauge *_mQueueDepth;
    obs::Histogram *_mQueueWaitUs;
    obs::Histogram *_mLatencyUs;
};

} // namespace bioarch::serve

#endif // BIOARCH_SERVE_LOOP_HH
