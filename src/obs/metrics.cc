#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/digest.hh"
#include "core/percentile.hh"

namespace bioarch::obs
{

const std::array<double, Histogram::numBuckets> &
Histogram::bucketBounds()
{
    // Hoisted to (one-time) construction: the exp2 table is built
    // exactly once per process, never per histogram() call.
    static const std::array<double, numBuckets> bounds = [] {
        std::array<double, numBuckets> b{};
        for (int i = 0; i < numBuckets; ++i)
            b[static_cast<std::size_t>(i)] = std::exp2(i + 1);
        return b;
    }();
    return bounds;
}

int
Histogram::bucketOf(double v)
{
    if (!(v >= 1.0)) // also catches NaN and negatives
        return 0;
    const int b = static_cast<int>(std::floor(std::log2(v)));
    return std::min(b, numBuckets - 1);
}

void
Histogram::record(double v)
{
    const int b = bucketOf(v);
    std::lock_guard lock(_mutex);
    _samples.push_back(v);
    _sum += v;
    _max = _samples.size() == 1 ? v : std::max(_max, v);
    ++_counts[static_cast<std::size_t>(b)];
}

std::size_t
Histogram::count() const
{
    std::lock_guard lock(_mutex);
    return _samples.size();
}

HistogramSummary
Histogram::summary() const
{
    std::vector<double> samples;
    HistogramSummary s;
    {
        std::lock_guard lock(_mutex);
        samples = _samples;
        s.sum = _sum;
        s.max = _max;
    }
    s.count = samples.size();
    if (samples.empty())
        return HistogramSummary{};
    s.mean = s.sum / static_cast<double>(s.count);
    s.p50 = core::percentile(samples, 50.0);
    s.p95 = core::percentile(samples, 95.0);
    s.p99 = core::percentile(samples, 99.0);
    return s;
}

std::vector<double>
Histogram::samples() const
{
    std::lock_guard lock(_mutex);
    return _samples;
}

std::array<std::uint64_t, Histogram::numBuckets>
Histogram::bucketCounts() const
{
    std::lock_guard lock(_mutex);
    return _counts;
}

std::string_view
metricTypeName(MetricType type)
{
    switch (type) {
    case MetricType::Counter:
        return "counter";
    case MetricType::Gauge:
        return "gauge";
    case MetricType::Histogram:
        return "histogram";
    }
    return "unknown";
}

namespace
{

std::string
entryKey(std::string_view name, std::string_view labels)
{
    std::string key(name);
    key.push_back('\x1f');
    key.append(labels);
    return key;
}

/** FNV-1a (core/digest.hh); cheap, stable shard choice. */
std::size_t
hashName(std::string_view name)
{
    return static_cast<std::size_t>(
        core::fnv1a64(name.data(), name.size()));
}

} // namespace

Registry::Shard &
Registry::shardFor(std::string_view name, std::string_view labels)
{
    (void)labels; // shard on the name only: cheap and sufficient
    return _shards[hashName(name) % numShards];
}

const Registry::Shard &
Registry::shardFor(std::string_view name,
                   std::string_view labels) const
{
    (void)labels;
    return _shards[hashName(name) % numShards];
}

Registry::Entry &
Registry::findOrCreate(std::string_view name,
                       std::string_view labels, MetricType type)
{
    Shard &shard = shardFor(name, labels);
    std::lock_guard lock(shard.mutex);
    auto [it, inserted] =
        shard.entries.try_emplace(entryKey(name, labels));
    Entry &entry = it->second;
    if (inserted) {
        entry.type = type;
        switch (type) {
        case MetricType::Counter:
            entry.counter = std::make_unique<Counter>();
            break;
        case MetricType::Gauge:
            entry.gauge = std::make_unique<Gauge>();
            break;
        case MetricType::Histogram:
            entry.histogram = std::make_unique<Histogram>();
            break;
        }
    } else if (entry.type != type) {
        throw std::logic_error(
            "obs::Registry: metric '" + std::string(name)
            + "' re-registered as "
            + std::string(metricTypeName(type)) + " (is "
            + std::string(metricTypeName(entry.type)) + ")");
    }
    return entry;
}

Counter &
Registry::counter(std::string_view name, std::string_view labels)
{
    return *findOrCreate(name, labels, MetricType::Counter).counter;
}

Gauge &
Registry::gauge(std::string_view name, std::string_view labels)
{
    return *findOrCreate(name, labels, MetricType::Gauge).gauge;
}

Histogram &
Registry::histogram(std::string_view name, std::string_view labels)
{
    return *findOrCreate(name, labels, MetricType::Histogram)
                .histogram;
}

std::vector<MetricSnapshot>
Registry::snapshot() const
{
    std::vector<MetricSnapshot> out;
    for (const Shard &shard : _shards) {
        std::lock_guard lock(shard.mutex);
        for (const auto &[key, entry] : shard.entries) {
            MetricSnapshot snap;
            const std::size_t sep = key.find('\x1f');
            snap.name = key.substr(0, sep);
            snap.labels = key.substr(sep + 1);
            snap.type = entry.type;
            switch (entry.type) {
            case MetricType::Counter:
                snap.value = static_cast<double>(
                    entry.counter->value());
                break;
            case MetricType::Gauge:
                snap.value = entry.gauge->value();
                break;
            case MetricType::Histogram:
                snap.summary = entry.histogram->summary();
                snap.buckets = entry.histogram->bucketCounts();
                break;
            }
            out.push_back(std::move(snap));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const MetricSnapshot &a, const MetricSnapshot &b) {
                  return a.name != b.name ? a.name < b.name
                                          : a.labels < b.labels;
              });
    return out;
}

std::uint64_t
Registry::counterValue(std::string_view name,
                       std::string_view labels) const
{
    const Shard &shard = shardFor(name, labels);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.entries.find(entryKey(name, labels));
    if (it == shard.entries.end()
        || it->second.type != MetricType::Counter)
        return 0;
    return it->second.counter->value();
}

double
Registry::gaugeValue(std::string_view name,
                     std::string_view labels) const
{
    const Shard &shard = shardFor(name, labels);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.entries.find(entryKey(name, labels));
    if (it == shard.entries.end()
        || it->second.type != MetricType::Gauge)
        return 0.0;
    return it->second.gauge->value();
}

} // namespace bioarch::obs
