/**
 * @file
 * Benchmark entry point.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--smoke] [--spans <file>] [--work-dir <dir>]
 *             [--source-id <id>]
 *
 * Workloads: search_scan, search_report, cache_reload, sim_sweep
 * (see README.md for why each exists). Prints a host fingerprint
 * line, then, as the last line, one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end ones; with
 * --trace 1 they are the per-layer ones, every one of them on every
 * workload (0 where the workload does not exercise the layer).
 */

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>

#include "align/sw_striped_native.hh"
#include "bench.hh"

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <search_scan|"
                 "search_report|cache_reload|sim_sweep> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke] "
                 "[--spans <file>] [--work-dir <dir>] "
                 "[--source-id <id>]\n";
    std::exit(2);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
printFingerprint(const std::string &source_id)
{
    __builtin_cpu_init();
    std::cout << "# host {\"nproc\":" << hostThreads()
              << ",\"jobs\":" << hostJobs()
              << ",\"avx2\":" << (__builtin_cpu_supports("avx2") ? 1 : 0)
              << ",\"avx512bw\":"
              << (__builtin_cpu_supports("avx512bw") ? 1 : 0)
              << ",\"compiler\":" << jsonString(PERFBENCH_COMPILER)
              << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
              << ",\"simd_backend\":"
              << jsonString(std::string(bioarch::align::backendName(
                     bioarch::align::defaultScanBackend())))
              << ",\"source\":" << jsonString(source_id) << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string source_id = "unknown";
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload")
            o.workload = value;
        else if (arg == "--seed")
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(value.c_str());
        else if (arg == "--trace") {
            o.trace = value == "1";
            have_trace = value == "0" || value == "1";
        } else if (arg == "--spans")
            o.spansPath = value;
        else if (arg == "--work-dir")
            o.workDir = value;
        else if (arg == "--source-id")
            source_id = value;
        else
            usage("unknown argument " + arg);
    }
    const bool serving = o.workload == "search_scan"
        || o.workload == "search_report" || o.workload == "cache_reload";
    if (!serving && o.workload != "sim_sweep")
        usage("unknown workload '" + o.workload + "'");
    if (!have_trace)
        usage("--trace must be 0 or 1");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");

    printFingerprint(source_id);
    Outcome out;
    try {
        out = serving ? runServing(o) : runSimSweep(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << o.workload << " failed: "
                  << e.what() << "\n";
        return 1;
    }
    if (o.trace)
        out.metrics.fillPerLayer();

    std::cout << std::setprecision(
        std::numeric_limits<double>::max_digits10);
    std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : out.metrics.all()) {
        std::cout << (first ? "" : ", ") << jsonString(name)
                  << ": {\"value\": " << (std::isfinite(value) ? value : 0.0)
                  << ", \"unit\": " << jsonString(Metrics::unit(name))
                  << "}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return 0;
}
