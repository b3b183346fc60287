/**
 * @file
 * The observability subsystem's metric primitives: a lock-sharded
 * registry of named counters, gauges, and histograms, plus scoped
 * trace spans that time a region into a histogram.
 *
 * Design rules:
 *  - Registration (name -> metric) takes a shard lock once; the
 *    returned reference is stable for the registry's lifetime, so
 *    hot paths touch only their own metric (atomics for counters
 *    and gauges, a short mutex for histograms).
 *  - Counters are monotone; gauges are set-to-current; histograms
 *    keep every sample (request streams are bounded), so the
 *    percentile summary is exact (core/percentile.hh), and bucket
 *    the samples into power-of-two latency bands whose boundaries
 *    are computed once at construction — never per query.
 *  - Snapshots (snapshot.hh) read a consistent copy of every metric
 *    while writers keep running; exported order is sorted by
 *    (name, labels) so two snapshots of the same registry diff
 *    cleanly.
 *
 * Metric names use underscores (serve_latency_us), not dots, so the
 * same name is valid in the JSON snapshot, the Prometheus text
 * exposition, and the checked-in schema
 * (scripts/metrics_schema.json).
 */

#ifndef BIOARCH_OBS_METRICS_HH
#define BIOARCH_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bioarch::obs
{

/** Monotone event count. Thread-safe; relaxed atomics. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/** Last-write-wins instantaneous value. Thread-safe. */
class Gauge
{
  public:
    void
    set(double v)
    {
        _value.store(v, std::memory_order_relaxed);
    }
    double
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> _value{0.0};
};

/** Exact percentile summary of one histogram's samples. */
struct HistogramSummary
{
    std::size_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/**
 * Sample distribution: exact samples for percentiles plus
 * power-of-two bucket counts for the bar-chart/Prometheus views.
 *
 * Bucket i spans [2^i, 2^(i+1)); bucket 0 additionally collects
 * sub-unit samples, so its effective range is [0, 2). The bucket
 * boundaries are computed exactly once (first construction), not
 * per histogram() call — see bucketBounds().
 */
class Histogram
{
  public:
    /** Power-of-two buckets: [0,2), [2,4), ... [2^63, inf). */
    static constexpr int numBuckets = 64;

    /**
     * Upper bucket edges, hoisted to construction: bounds()[i] is
     * the exclusive upper edge 2^(i+1) of bucket i. Computed once
     * per process and shared by every histogram.
     */
    static const std::array<double, numBuckets> &bucketBounds();

    /** Index of the bucket that collects @p v. */
    static int bucketOf(double v);

    Histogram() = default;
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void record(double v);

    std::size_t count() const;
    HistogramSummary summary() const;
    /** Copy of the raw samples (for exact external percentiles). */
    std::vector<double> samples() const;
    /** Per-bucket sample counts (not cumulative). */
    std::array<std::uint64_t, numBuckets> bucketCounts() const;

  private:
    mutable std::mutex _mutex;
    std::vector<double> _samples;
    double _sum = 0.0;
    double _max = 0.0;
    std::array<std::uint64_t, numBuckets> _counts{};
};

/** What kind of metric a registry entry is. */
enum class MetricType
{
    Counter,
    Gauge,
    Histogram,
};

std::string_view metricTypeName(MetricType type);

/** One metric's consistent point-in-time copy (see snapshot.hh). */
struct MetricSnapshot
{
    std::string name;
    /** Prometheus-style label body, e.g. `backend="avx2"` (may be
     * empty). */
    std::string labels;
    MetricType type = MetricType::Counter;
    /** Counter / gauge value (counters are integral). */
    double value = 0.0;
    /** Histogram-only fields. */
    HistogramSummary summary;
    std::array<std::uint64_t, Histogram::numBuckets> buckets{};
};

/**
 * Lock-sharded name -> metric registry. Lookup/registration hashes
 * the name to one of a fixed set of shards and locks only that
 * shard, so concurrent registration from worker threads does not
 * serialize on one mutex; after registration, updates go straight
 * to the metric and take no registry lock at all.
 *
 * Re-registering a name returns the same metric; re-registering a
 * name as a different type throws std::logic_error.
 */
class Registry
{
  public:
    Counter &counter(std::string_view name,
                     std::string_view labels = {});
    Gauge &gauge(std::string_view name,
                 std::string_view labels = {});
    Histogram &histogram(std::string_view name,
                         std::string_view labels = {});

    /**
     * Point-in-time copy of every registered metric, sorted by
     * (name, labels). Writers may keep recording while a snapshot
     * is taken; each metric is copied consistently.
     */
    std::vector<MetricSnapshot> snapshot() const;

    /**
     * Current value of a registered counter, 0 when @p name is not
     * registered (convenience for tests and report footers).
     */
    std::uint64_t counterValue(std::string_view name,
                               std::string_view labels = {}) const;

    /**
     * Current value of a registered gauge, 0.0 when @p name is not
     * registered (convenience for tests and report footers).
     */
    double gaugeValue(std::string_view name,
                      std::string_view labels = {}) const;

  private:
    struct Entry
    {
        MetricType type;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };
    /** Key = name + '\x1f' + labels. */
    struct Shard
    {
        mutable std::mutex mutex;
        std::map<std::string, Entry> entries;
    };

    static constexpr std::size_t numShards = 16;

    Shard &shardFor(std::string_view name, std::string_view labels);
    const Shard &shardFor(std::string_view name,
                          std::string_view labels) const;
    Entry &findOrCreate(std::string_view name,
                        std::string_view labels, MetricType type);

    std::array<Shard, numShards> _shards;
};

/**
 * RAII trace span: times the enclosing scope and records the
 * elapsed microseconds into a histogram on destruction. Feeds
 * observability only — never the deterministic result path.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(Histogram &sink)
        : _sink(&sink), _start(std::chrono::steady_clock::now())
    {
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    ~ScopedSpan()
    {
        if (_sink)
            _sink->record(elapsedUs());
    }

    /** Microseconds since construction. */
    double
    elapsedUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - _start)
            .count();
    }

    /** Detach: destruction records nothing. */
    void cancel() { _sink = nullptr; }

  private:
    Histogram *_sink;
    std::chrono::steady_clock::time_point _start;
};

} // namespace bioarch::obs

#endif // BIOARCH_OBS_METRICS_HH
