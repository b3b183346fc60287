/**
 * @file
 * The metric table: every metric the benchmark prints, with its
 * unit. It lists what BENCHMARK.json declares; the self-test
 * (run.py --smoke) checks the two against each other.
 */

#include <stdexcept>
#include <string>

#include "bench.hh"

namespace perfbench
{
namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
    bool perLayer;
};

constexpr MetricDef metricTable[] = {
    {"setup_s", "s", false},
    {"throughput_qps", "1/s", false},
    {"latency_p50_ms", "ms", false},
    {"latency_p90_ms", "ms", false},
    {"peak_rss_mb", "MB", false},
    {"align.scan_gcups", "GCUPS", true},
    {"align.scan_cells_per_request", "cells", true},
    {"align.native_rescan_ratio", "ratio", true},
    {"align.traceback_mcells_per_s", "Mcells/s", true},
    {"align.traceback_cells_per_alignment", "cells", true},
    {"index.candidate_fraction", "ratio", true},
    {"index.fallback_ratio", "ratio", true},
    {"index.load_ms", "ms", true},
    {"serve.engine.service_ms_p50", "ms", true},
    {"serve.engine.service_ms_p90", "ms", true},
    {"serve.engine.scan_busy_share", "ratio", true},
    {"serve.engine.traceback_busy_share", "ratio", true},
    {"serve.engine.other_share", "ratio", true},
    {"serve.engine.dedup_saved", "1/request", true},
    {"core.pool.tasks", "1/batch", true},
    {"core.pool.steals_per_task", "ratio", true},
    {"serve.loop.overhead_us_p50", "us", true},
    {"serve.loop.retained_results", "count", true},
    {"serve.loop.shed_or_expired", "count", true},
    {"serve.cache.hit_ratio", "ratio", true},
    {"serve.cache.hit_us_p50", "us", true},
    {"serve.cache.misses_per_reload", "count", true},
    {"serve.reload.swap_ms", "ms", true},
    {"serve.batch_accounted_share", "ratio", true},
    {"obs.snapshot_bytes", "bytes", true},
    {"obs.tracing_overhead_pct", "%", true},
    {"kernels.trace_gen_ms", "ms", true},
    {"kernels.trace_instructions", "count", true},
    {"sim.sample.warm_fraction", "ratio", true},
    {"sim.sample.detailed_fraction", "ratio", true},
    {"sim.sample.speedup", "x", true},
    {"sim.sample.ipc_error_pct_max", "%", true},
    {"sim.pipeline.detailed_minst_per_s", "Minst/s", true},
};

const MetricDef &
find(const std::string &name)
{
    for (const MetricDef &d : metricTable)
        if (name == d.name)
            return d;
    throw std::logic_error("unknown metric " + name);
}

} // namespace

void
Metrics::set(const std::string &name, double value)
{
    (void)find(name);
    _values[name] = value;
}

void
Metrics::fillPerLayer()
{
    for (const MetricDef &d : metricTable)
        if (d.perLayer)
            _values.try_emplace(d.name, 0.0);
}

const std::string &
Metrics::unit(const std::string &name)
{
    static const std::map<std::string, std::string> units = [] {
        std::map<std::string, std::string> out;
        for (const MetricDef &d : metricTable)
            out.emplace(d.name, d.unit);
        return out;
    }();
    (void)find(name);
    return units.at(name);
}

} // namespace perfbench
