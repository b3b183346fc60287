/**
 * @file
 * Span tracer and statistics helpers (bench.hh).
 */

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <string>
#include <thread>

#include "bench.hh"
#include "core/percentile.hh"

namespace perfbench
{

void
setEndToEnd(Metrics &metrics, double setup_s, double throughput,
            double p50_ms, double p90_ms)
{
    metrics.set("setup_s", setup_s);
    metrics.set("throughput_qps", throughput);
    metrics.set("latency_p50_ms", p50_ms);
    metrics.set("latency_p90_ms", p90_ms);
    metrics.set("peak_rss_mb", peakRssMb());
}

double
tracingOverheadPct(const std::vector<std::pair<double, bool>> &rounds)
{
    std::vector<double> on;
    std::vector<double> off;
    for (const auto &[cost, traced] : rounds)
        (traced ? on : off).push_back(cost);
    if (on.empty() || off.empty())
        return 0.0;
    return 100.0 * (median(on) / median(off) - 1.0);
}

std::int64_t
Tracer::record(const char *name, double start_us, double end_us,
               std::int64_t parent, std::uint64_t request_id)
{
    if (!_enabled)
        return -1;
    _spans.push_back(Span{name, start_us, end_us, parent, request_id});
    return static_cast<std::int64_t>(_spans.size()) - 1;
}

std::int64_t
Tracer::open(const char *name, std::int64_t parent,
             std::uint64_t request_id)
{
    const double now = nowUs();
    return record(name, now, now, parent, request_id);
}

void
Tracer::close(std::int64_t span)
{
    if (span >= 0)
        _spans[static_cast<std::size_t>(span)].endUs = nowUs();
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : _spans)
        if (name == s.name)
            out.push_back(s.durationUs());
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    out << std::setprecision(12) << "{\"spans\":[";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        out << (i ? ",\n" : "\n") << "{\"id\":" << i
            << ",\"name\":\"" << s.name << "\",\"start_us\":"
            << s.startUs << ",\"end_us\":" << s.endUs
            << ",\"parent\":" << s.parent
            << ",\"request\":" << s.requestId << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

double
quantile(std::vector<double> samples, double q)
{
    return bioarch::core::quantile(std::move(samples), q);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

double
stealTicks()
{
    // cpu  user nice system idle iowait irq softirq steal ...
    std::ifstream in("/proc/stat");
    std::string cpu;
    double fields[8] = {};
    in >> cpu;
    for (double &f : fields)
        in >> f;
    return in && cpu == "cpu" ? fields[7] : 0.0;
}

std::vector<std::size_t>
quietRounds(const std::vector<double> &steal_rate)
{
    const double cut = median(steal_rate);
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < steal_rate.size(); ++i)
        if (steal_rate[i] <= cut)
            out.push_back(i);
    return out;
}

double
quietMedian(const std::vector<double> &values,
            const std::vector<double> &steal_rate)
{
    std::vector<double> quiet;
    for (const std::size_t i : quietRounds(steal_rate))
        quiet.push_back(values[i]);
    return median(quiet);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
hostJobs()
{
    return std::max(1u, hostThreads() - 1);
}

} // namespace perfbench
