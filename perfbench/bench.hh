/**
 * @file
 * Shared pieces of the benchmark binary: command-line options, the
 * metrics a run reports, the span tracer, and a few statistics
 * helpers.
 *
 * The benchmark drives the library from outside, through its
 * public API, from one single-threaded load generator. Every call
 * it makes into a layer can be wrapped in a span; spans are kept in
 * memory and written out when the run ends (trace.cc).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serve/clock.hh"

namespace perfbench
{

/** Parsed command line (main.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Per-layer run: record spans, print the per-layer metrics. */
    bool trace = false;
    /** Tiny inputs, for the self-test. */
    bool smoke = false;
    /** Where the traced run writes its spans (empty: nowhere). */
    std::string spansPath;
    /** Scratch directory for database containers. */
    std::string workDir = ".";
};

/**
 * Metric name -> value. Every name and its unit come from one table
 * (metrics.cc), the same list BENCHMARK.json declares.
 */
class Metrics
{
  public:
    /** Throws std::logic_error for a name the table lacks. */
    void set(const std::string &name, double value);
    /** Set every per-layer metric not set yet to 0: the workload
     * does not exercise that layer. */
    void fillPerLayer();
    const std::map<std::string, double> &all() const { return _values; }
    static const std::string &unit(const std::string &name);

  private:
    std::map<std::string, double> _values;
};

/** What one workload run reports. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics metrics;
};

/** Set the five end-to-end metrics; peak RSS is read here. */
void setEndToEnd(Metrics &metrics, double setup_s, double throughput,
                 double p50_ms, double p90_ms);

/** One recorded span. Times are tracer-clock microseconds. */
struct Span
{
    const char *name = "";
    double startUs = 0.0;
    double endUs = 0.0;
    /** Index of the parent span in record order, or -1. */
    std::int64_t parent = -1;
    /** Request (or operation) the span belongs to, or 0. */
    std::uint64_t requestId = 0;

    double durationUs() const { return endUs - startUs; }
};

/**
 * In-memory span recorder. Disabled, every call is a no-op that
 * returns -1; the clock is always live, since the serving loop
 * stamps its results with it.
 */
class Tracer
{
  public:
    const bioarch::serve::Clock &clock() const { return _clock; }
    double nowUs() const { return _clock.nowUs(); }

    bool enabled() const { return _enabled; }
    void setEnabled(bool on) { _enabled = on; }

    /** Record a finished span; returns its index (or -1). */
    std::int64_t record(const char *name, double start_us,
                        double end_us, std::int64_t parent = -1,
                        std::uint64_t request_id = 0);
    /** Open a span now; close() sets its end. */
    std::int64_t open(const char *name, std::int64_t parent = -1,
                      std::uint64_t request_id = 0);
    void close(std::int64_t span);

    /** Durations (us) of every span called @p name. */
    std::vector<double> durationsUs(const std::string &name) const;
    /** Write every span as one JSON document; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    bioarch::serve::SteadyClock _clock;
    bool _enabled = false;
    std::vector<Span> _spans;
};

/** Median and other exact quantiles (0 for an empty sample). */
double quantile(std::vector<double> samples, double q);
inline double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The traced run alternates untraced and traced rounds; given each
 * round's cost per operation and whether it was traced, the traced
 * median's excess over the untraced one, in percent.
 */
double
tracingOverheadPct(const std::vector<std::pair<double, bool>> &rounds);

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/**
 * Time the hypervisor has taken from this host's CPUs so far ("steal"
 * in /proc/stat), in clock ticks summed over CPUs; 0 where the
 * kernel does not report it.
 */
double stealTicks();

/**
 * The quieter half of a run's rounds: the indices of the rounds whose
 * steal rate (ticks per second) is at most the median rate. Every
 * round when no steal was seen.
 */
std::vector<std::size_t> quietRounds(const std::vector<double> &steal_rate);

/** Median of @p values over the quiet rounds of @p steal_rate. */
double quietMedian(const std::vector<double> &values,
                   const std::vector<double> &steal_rate);

/** splitmix64: derive independent sub-seeds from the run seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Hardware threads of the host (nproc). */
unsigned hostThreads();

/**
 * Worker threads the engines and the sampler use: nproc - 1 (at
 * least 1). The spare hardware thread runs the load generator, the
 * wrapper script and whatever else the host schedules, so none of
 * them preempts a worker that a whole batch waits for.
 */
unsigned hostJobs();

/** Workload entry points. */
Outcome runServing(const Options &options);
Outcome runSimSweep(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
