/**
 * @file
 * bioarch-serve: load generator for the batched query-serving
 * engine (src/serve). Replays a deterministic synthetic request
 * stream — queries drawn from the Table II set, application kinds
 * from the paper's five workloads — against a synthetic SwissProt
 * stand-in, and prints a latency/throughput report.
 *
 * Both modes serve one reloadable epoch Engine through a
 * ServeLoop, the tool's only way into the engine:
 *  - closed loop (default): queue all --requests at once and pump
 *    them in FIFO batches of --batch; exits 1 unless every request
 *    is served and the latency histogram accounts for each;
 *  - open loop (--qps): a seeded deterministic arrival schedule
 *    (exponential inter-arrivals) drives the loop's dispatcher
 *    with per-request deadlines, admission control and load
 *    shedding, and the run ends with a machine-readable counter
 *    footer.
 *
 * Examples:
 *   bioarch-serve --requests 64 --jobs 8
 *   bioarch-serve --requests 128 --batch 16 --shards 8 --top-k 5
 *   bioarch-serve --workload blast --db-seqs 500 --csv
 *   bioarch-serve --qps 200 --duration-s 2 --deadline-ms 50
 *   bioarch-serve --qps 400 --metrics-out /tmp/metrics.json
 */

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "bio/dna_workload.hh"
#include "bio/random.hh"
#include "bio/synthetic.hh"
#include "core/percentile.hh"
#include "core/report.hh"
#include "index/epoch.hh"
#include "obs/snapshot.hh"
#include "serve/engine.hh"
#include "serve/loop.hh"

using namespace bioarch;

namespace
{

/** The names --backend accepts on this host: "auto | avx2 | ...". */
std::string
backendChoices()
{
    std::string out = "auto";
    for (const align::SimdBackend b : align::runnableBackends())
        out += " | " + std::string(align::backendName(b));
    return out;
}

void
usage(std::ostream &out)
{
    out << "usage: bioarch-serve [options]\n"
           "\n"
           "stream:\n"
           "  --requests N      requests to replay (default 64)\n"
           "  --workload NAME   restrict the stream to one\n"
           "                    application: ssearch34 | sw_vmx128\n"
           "                    | sw_vmx256 | fasta34 | blast |\n"
           "                    blastn (default: uniform mix of\n"
           "                    the five protein workloads; blastn\n"
           "                    swaps in the synthetic long-read\n"
           "                    nucleotide database)\n"
           "  --report-alignments\n"
           "                    two-phase serving: after the\n"
           "                    ranked scan, trace back a CIGAR\n"
           "                    alignment for every reported hit\n"
           "  --seed S          stream RNG seed\n"
           "\n"
           "engine:\n"
           "  --batch N         requests per batch (default 8)\n"
           "  --shards N        database shards (default 4)\n"
           "  --jobs N          worker threads (default:\n"
           "                    BIOARCH_JOBS, else all hardware\n"
           "                    threads)\n"
           "  --top-k K         hits per response (default 10)\n"
           "  --backend NAME    native Smith-Waterman kernel\n"
           "                    backend (default auto: the\n"
           "                    widest); this host runs\n"
           "                    "
        << backendChoices()
        << "\n"
           "\n"
           "working set:\n"
           "  --db-seqs N       database sequences (default 200)\n"
           "  --zipf            Zipf (power-law) background\n"
           "                    lengths instead of the\n"
           "                    SwissProt-like bell\n"
           "\n"
           "indexed serving:\n"
           "  --index           build a seed index over the\n"
           "                    database and route blast-kind\n"
           "                    requests through probe ->\n"
           "                    candidate rescore\n"
           "  --blast-t T       BLAST neighborhood threshold\n"
           "                    (default 11; the indexed tier's\n"
           "                    reference configuration is 16 —\n"
           "                    lower values mark most of the\n"
           "                    synthetic database as candidates\n"
           "                    and the probe falls back to full\n"
           "                    scans)\n"
           "  --hot-reload      (open loop) swap in a fresh\n"
           "                    database epoch halfway through the\n"
           "                    arrivals, while serving\n"
           "\n"
           "open loop (online serving):\n"
           "  --qps Q           offered load (requests/sec);\n"
           "                    enables the online ServeLoop with\n"
           "                    seeded exponential arrivals\n"
           "  --duration-s S    arrival window (default 2)\n"
           "  --deadline-ms D   per-request deadline, counted from\n"
           "                    the scheduled arrival (default 0 =\n"
           "                    none)\n"
           "  --queue-cap N     admission queue bound (default 64)\n"
           "\n"
           "fleet (open loop):\n"
           "  --cache-mb M      result-cache capacity in MiB\n"
           "                    (default 0 = cache off)\n"
           "  --tenants SPEC    comma-separated per-tenant specs\n"
           "                    qps:burst:weight:share — token-\n"
           "                    bucket rate (0 = unlimited) and\n"
           "                    burst, WDRR weight, and the\n"
           "                    fraction of offered arrivals this\n"
           "                    tenant generates (shares are\n"
           "                    normalized). Tenant ids are the\n"
           "                    list positions. Example:\n"
           "                    --tenants 100:10:3:0.5,50:5:1:0.25,\n"
           "                    50:5:1:0.25\n"
           "\n"
           "output:\n"
           "  --csv             machine-readable output\n"
           "  --metrics-out F   write the JSON metrics snapshot to\n"
           "                    F (open loop also writes F.mid\n"
           "                    halfway through the arrivals)\n"
           "  --metrics-prom F  write the Prometheus text\n"
           "                    exposition to F\n"
           "  --help            this text\n";
}

std::optional<kernels::Workload>
parseWorkload(const std::string &name)
{
    for (const kernels::Workload w : kernels::allWorkloads) {
        std::string n(kernels::workloadName(w));
        for (char &c : n)
            c = static_cast<char>(std::tolower(c));
        if (n == name)
            return w;
    }
    // Served-only kind: not in allWorkloads (the simulator's five)
    // but a first-class request kind for the serving tier.
    if (name == "blastn")
        return kernels::Workload::Blastn;
    return std::nullopt;
}

/** Refresh pool mirrors, then dump the requested snapshot files. */
void
writeMetricsFiles(serve::Engine &engine,
                  const std::string &json, const std::string &prom)
{
    engine.refreshPoolMetrics();
    if (!json.empty()) {
        std::ofstream out(json);
        obs::writeJson(engine.metrics(), out);
    }
    if (!prom.empty()) {
        std::ofstream out(prom);
        obs::writePrometheus(engine.metrics(), out);
    }
}

/** One --tenants entry: quota spec + offered-traffic share. */
struct TenantSpec
{
    double qps = 0.0;
    double burst = 1.0;
    double weight = 1.0;
    double share = 1.0;
};

/** Parse "qps:burst:weight:share,..." (exit 2 on malformed). */
std::vector<TenantSpec>
parseTenants(const std::string &spec)
{
    std::vector<TenantSpec> tenants;
    std::istringstream list(spec);
    std::string item;
    while (std::getline(list, item, ',')) {
        TenantSpec t;
        double *fields[4] = {&t.qps, &t.burst, &t.weight,
                             &t.share};
        std::istringstream parts(item);
        std::string field;
        std::size_t k = 0;
        while (std::getline(parts, field, ':') && k < 4)
            *fields[k++] = std::atof(field.c_str());
        if (k != 4 || t.burst <= 0.0 || t.weight <= 0.0
            || t.share <= 0.0) {
            std::cerr << "bad --tenants entry '" << item
                      << "' (want qps:burst:weight:share)\n";
            std::exit(2);
        }
        tenants.push_back(t);
    }
    if (tenants.empty()) {
        std::cerr << "--tenants: empty spec\n";
        std::exit(2);
    }
    return tenants;
}

/**
 * The deterministic part of the open-loop run: arrival offsets (us
 * from run start) with exponential inter-arrival gaps at @p qps,
 * derived only from the seed — never from the wall clock.
 */
std::vector<double>
arrivalSchedule(double qps, double duration_s, std::uint64_t seed)
{
    bio::Rng rng(seed ^ 0xA2217E9D5EedULL);
    std::vector<double> arrivals;
    const double mean_gap_us = 1e6 / qps;
    const double end_us = duration_s * 1e6;
    double t = 0.0;
    for (;;) {
        // Inverse-CDF exponential; uniform() < 1 keeps log finite.
        t += -std::log(1.0 - rng.uniform()) * mean_gap_us;
        if (t >= end_us)
            return arrivals;
        arrivals.push_back(t);
    }
}

int
runOpenLoop(serve::Engine &engine,
            const std::vector<bio::Sequence> &pool,
            const serve::StreamSpec &stream_spec, double qps,
            double duration_s, double deadline_ms,
            std::size_t queue_cap, const std::string &metrics_out,
            const std::string &metrics_prom, bool use_index,
            bool hot_reload, int db_seqs, bool zipf,
            std::size_t cache_mb,
            const std::vector<TenantSpec> &tenants)
{
    const std::vector<double> arrivals =
        arrivalSchedule(qps, duration_s, stream_spec.seed);
    serve::StreamSpec spec = stream_spec;
    spec.requests = arrivals.size();
    std::vector<serve::Request> requests =
        serve::makeRequestStream(spec, pool);

    // Bill each arrival to a tenant by a seeded weighted draw over
    // the configured shares (deterministic, like the schedule).
    if (!tenants.empty()) {
        double total_share = 0.0;
        for (const TenantSpec &t : tenants)
            total_share += t.share;
        bio::Rng rng(stream_spec.seed ^ 0x7E2A27ULL);
        for (serve::Request &r : requests) {
            double draw = rng.uniform() * total_share;
            std::uint32_t id = 0;
            for (const TenantSpec &t : tenants) {
                draw -= t.share;
                if (draw < 0.0)
                    break;
                ++id;
            }
            r.tenant = std::min(
                id,
                static_cast<std::uint32_t>(tenants.size() - 1));
        }
    }

    // --hot-reload slides a second epoch in mid-run while the loop
    // keeps dispatching.
    serve::LoopConfig lcfg;
    lcfg.queueCapacity = queue_cap;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        serve::TenantQuota quota;
        quota.tenant = static_cast<std::uint32_t>(i);
        quota.rateQps = tenants[i].qps;
        quota.burst = tenants[i].burst;
        quota.weight = tenants[i].weight;
        lcfg.tenants.push_back(quota);
    }
    serve::ServeLoop loop(engine, lcfg);
    const serve::Clock &clock = loop.clock();
    loop.start();

    // Replay the schedule against the wall clock. A deadline is
    // counted from the *scheduled* arrival, so falling behind the
    // schedule (overload) eats into the slack — that is what makes
    // the loop shed instead of building unbounded queues.
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        while (clock.nowUs() < arrivals[i])
            std::this_thread::sleep_for(
                std::chrono::microseconds(100));
        const double deadline = deadline_ms > 0.0
            ? arrivals[i] + deadline_ms * 1000.0
            : 0.0;
        const serve::Priority priority =
            static_cast<serve::Priority>(i % 3);
        (void)loop.submit(std::move(requests[i]), priority, deadline);
        if (i + 1 == arrivals.size() / 2) {
            if (!metrics_out.empty())
                writeMetricsFiles(engine, metrics_out + ".mid",
                                  "");
            if (hot_reload) {
                const bool dna = stream_spec.kinds.size() == 1
                    && stream_spec.kinds.front()
                        == kernels::Workload::Blastn;
                bio::SequenceDatabase next;
                if (dna) {
                    bio::DnaWorkloadSpec dspec;
                    dspec.numReads =
                        static_cast<std::size_t>(db_seqs);
                    dspec.seed = 0xDBDBDBDC;
                    next = bio::makeDnaReadDatabase(dspec, pool);
                } else {
                    next = zipf ? bio::makeZipfDatabase(
                                      db_seqs, 0xDBDBDBDC)
                                : bio::makeDefaultDatabase(
                                      db_seqs, 0xDBDBDBDC);
                }
                engine.reload(
                    index::makeEpoch(std::move(next), use_index,
                                     2));
            }
        }
    }
    loop.drain();
    writeMetricsFiles(engine, metrics_out, metrics_prom);

    obs::Registry &m = engine.metrics();
    const auto counter = [&m](std::string_view name) {
        return m.counterValue(name);
    };
    const std::uint64_t offered = counter("loop_offered_total");
    const std::uint64_t served = counter("loop_served_total");
    const std::uint64_t shed_queue_full =
        counter("loop_shed_queue_full_total");
    const std::uint64_t shed_deadline =
        counter("loop_shed_deadline_total");
    const std::uint64_t shed_quota =
        counter("loop_shed_quota_total");
    const std::uint64_t shed_shutdown =
        counter("loop_shed_shutdown_total");
    const std::uint64_t deadline_expired =
        counter("loop_deadline_expired_total");
    const std::uint64_t dropped = counter("loop_dropped_total");

    std::vector<double> latencies;
    std::vector<double> queue_waits;
    std::vector<double> cached_latencies;
    for (const serve::LoopResult &r : loop.results()) {
        if (r.status != serve::LoopStatus::Served)
            continue;
        latencies.push_back(r.latencyUs());
        queue_waits.push_back(r.queueWaitUs());
        if (r.response.fromCache)
            cached_latencies.push_back(r.latencyUs());
    }
    const obs::HistogramSummary cache_hit_us =
        m.histogram("serve_cache_hit_us").summary();

    std::ostringstream footer;
    footer.setf(std::ios::fixed);
    footer.precision(3);
    footer << "{\"mode\":\"open_loop\",\"qps\":" << qps
           << ",\"duration_s\":" << duration_s
           << ",\"deadline_ms\":" << deadline_ms
           << ",\"queue_cap\":" << queue_cap
           << ",\"jobs\":" << engine.config().jobs
           << ",\"offered\":" << offered
           << ",\"admitted\":" << counter("loop_admitted_total")
           << ",\"served\":" << served
           << ",\"shed_queue_full\":" << shed_queue_full
           << ",\"shed_deadline\":" << shed_deadline
           << ",\"shed_quota\":" << shed_quota
           << ",\"shed_shutdown\":" << shed_shutdown
           << ",\"shed_total\":"
           << shed_queue_full + shed_deadline + shed_quota
                  + shed_shutdown
           << ",\"deadline_expired\":" << deadline_expired
           << ",\"dropped\":" << dropped
           << ",\"cache_mb\":" << cache_mb
           << ",\"cache_hits\":"
           << counter("serve_cache_hits_total")
           << ",\"cache_misses\":"
           << counter("serve_cache_misses_total")
           << ",\"cache_evictions\":"
           << counter("serve_cache_evictions_total")
           << ",\"cache_bytes\":"
           << m.gaugeValue("serve_cache_bytes")
           << ",\"cache_hit_p99_us\":" << cache_hit_us.p99
           << ",\"cached_served\":" << cached_latencies.size()
           << ",\"cached_p99_ms\":"
           << core::percentile(cached_latencies, 99.0) / 1000.0
           << ",\"index\":" << (use_index ? "true" : "false")
           << ",\"hot_reload\":"
           << (hot_reload ? "true" : "false")
           << ",\"db_epoch\":" << m.gaugeValue("db_epoch")
           << ",\"index_probes\":"
           << counter("index_probe_total")
           << ",\"index_candidates\":"
           << counter("index_candidates_total")
           << ",\"index_fallbacks\":"
           << counter("index_fallback_scan_total")
           << ",\"report_alignments\":"
           << (stream_spec.reportAlignments ? "true" : "false")
           << ",\"alignments\":"
           << counter("serve_alignments_total")
           << ",\"traceback_cells\":"
           << counter("traceback_cells_total")
           << ",\"tracebacks_skipped\":"
           << counter("serve_tracebacks_skipped_total")
           << ",\"traceback_p99_us\":"
           << m.histogram("serve_traceback_us").summary().p99
           << ",\"p50_ms\":"
           << core::percentile(latencies, 50.0) / 1000.0
           << ",\"p99_ms\":"
           << core::percentile(latencies, 99.0) / 1000.0
           << ",\"queue_wait_p50_ms\":"
           << core::percentile(queue_waits, 50.0) / 1000.0
           << ",\"queue_wait_p99_ms\":"
           << core::percentile(queue_waits, 99.0) / 1000.0;

    // Per-tenant slice + identity: the books must balance for
    // every tenant, not just in aggregate.
    bool tenant_identity_ok = true;
    const std::size_t num_tenants =
        tenants.empty() ? 1 : tenants.size();
    footer << ",\"tenants\":[";
    for (std::size_t t = 0; t < num_tenants; ++t) {
        const std::string label =
            "tenant=\"" + std::to_string(t) + "\"";
        const auto tcounter = [&m, &label](std::string_view name) {
            return m.counterValue(name, label);
        };
        const std::uint64_t t_offered =
            tcounter("serve_tenant_offered_total");
        const std::uint64_t t_served =
            tcounter("serve_tenant_served_total");
        const std::uint64_t t_shed =
            tcounter("serve_tenant_shed_total");
        const std::uint64_t t_deadline =
            tcounter("serve_tenant_deadline_expired_total");
        const std::uint64_t t_dropped =
            tcounter("serve_tenant_dropped_total");
        if (t_served + t_shed + t_deadline + t_dropped
            != t_offered)
            tenant_identity_ok = false;
        footer << (t == 0 ? "" : ",") << "{\"tenant\":" << t
               << ",\"offered\":" << t_offered
               << ",\"admitted\":"
               << tcounter("serve_tenant_admitted_total")
               << ",\"served\":" << t_served
               << ",\"shed\":" << t_shed
               << ",\"deadline_expired\":" << t_deadline
               << ",\"dropped\":" << t_dropped << "}";
    }
    footer << "],\"tenant_identity_ok\":"
           << (tenant_identity_ok ? "true" : "false") << "}";
    std::cout << footer.str() << "\n";

    // The loop's books must balance: every offered request ends in
    // exactly one terminal state — globally and per tenant.
    if (served + shed_queue_full + shed_deadline + shed_quota
            + shed_shutdown + deadline_expired + dropped
        != offered) {
        std::cerr << "counter identity violated\n";
        return 1;
    }
    if (!tenant_identity_ok) {
        std::cerr << "per-tenant counter identity violated\n";
        return 1;
    }
    return 0;
}

/**
 * Closed-loop replay: queue the whole stream at once, then pump it
 * through the loop in FIFO batches of the engine's batch size, so
 * a request's latency includes its wait behind earlier batches.
 * Prints the summary, per-application and latency-histogram
 * tables; returns 1 unless every request was served and the
 * histogram accounts for each of them.
 */
int
runClosedLoop(serve::Engine &engine,
              const std::vector<bio::Sequence> &pool,
              const serve::StreamSpec &stream, bool csv,
              const std::string &metrics_out,
              const std::string &metrics_prom)
{
    std::vector<serve::Request> requests =
        serve::makeRequestStream(stream, pool);
    serve::LoopConfig lcfg;
    lcfg.queueCapacity = requests.size();
    serve::ServeLoop loop(engine, lcfg);
    const double start_us = loop.clock().nowUs();
    for (serve::Request &r : requests)
        (void)loop.submit(std::move(r));
    loop.pumpAll();
    const double wall_ms = (loop.clock().nowUs() - start_us) / 1000.0;
    writeMetricsFiles(engine, metrics_out, metrics_prom);

    const std::vector<serve::LoopResult> results = loop.results();
    obs::Registry &m = engine.metrics();
    const obs::Histogram &latency = m.histogram("serve_latency_us");
    const obs::HistogramSummary lat = latency.summary();
    const serve::EngineConfig &cfg = engine.config();
    std::size_t served = 0;
    double cpu_ms = 0.0;
    std::uint64_t cells = 0;
    std::uint64_t alignments = 0;
    std::uint64_t traceback_cells = 0;
    for (const serve::LoopResult &r : results) {
        served += r.status == serve::LoopStatus::Served ? 1 : 0;
        cpu_ms += (r.response.scanUs + r.response.tracebackUs) / 1000.0;
        cells += r.response.cellsComputed;
        alignments += r.response.alignments.size();
        traceback_cells += r.response.tracebackCells;
    }

    if (!csv) {
        const bio::SequenceDatabase &db = engine.sharded().db();
        std::cout << "# bioarch-serve: " << results.size()
                  << " requests vs " << db.size()
                  << " sequences / " << db.totalResidues()
                  << " residues\n";
    }

    core::Table summary({"metric", "value"});
    summary.row().add("requests").add(
        static_cast<std::uint64_t>(results.size()));
    summary.row().add("batches").add(
        m.counterValue("serve_batches_total"));
    summary.row().add("batch size").add(
        static_cast<std::uint64_t>(loop.config().batch));
    summary.row().add("shards").add(
        static_cast<std::uint64_t>(cfg.shards));
    summary.row().add("jobs").add(static_cast<int>(cfg.jobs));
    summary.row().add("backend").add(
        std::string(align::backendName(cfg.backend)));
    summary.row().add("wall ms").add(wall_ms, 2);
    summary.row().add("requests/sec").add(
        wall_ms <= 0.0
            ? 0.0
            : 1000.0 * static_cast<double>(results.size()) / wall_ms,
        1);
    summary.row().add("p50 latency ms").add(lat.p50 / 1000.0, 3);
    summary.row().add("p95 latency ms").add(lat.p95 / 1000.0, 3);
    summary.row().add("p99 latency ms").add(lat.p99 / 1000.0, 3);
    summary.row().add("max latency ms").add(lat.max / 1000.0, 3);
    summary.row().add("mean latency ms").add(lat.mean / 1000.0, 3);
    summary.row().add("scan cpu ms").add(cpu_ms, 2);
    summary.row().add("parallel efficiency").add(
        wall_ms <= 0.0
            ? 0.0
            : cpu_ms / (wall_ms * static_cast<double>(cfg.jobs)),
        2);
    summary.row().add("total cells").add(cells);
    if (stream.reportAlignments) {
        summary.row().add("alignments").add(alignments);
        summary.row().add("traceback cells").add(traceback_cells);
    }

    // Per-application slice of the stream (the five simulator
    // workloads plus the served-only blastn kind).
    std::vector<kernels::Workload> kinds(
        std::begin(kernels::allWorkloads),
        std::end(kernels::allWorkloads));
    kinds.push_back(kernels::Workload::Blastn);
    core::Table mix({"workload", "requests", "mean latency ms",
                     "mean hits"});
    for (const kernels::Workload w : kinds) {
        std::uint64_t n = 0;
        std::uint64_t hits = 0;
        double latency_us = 0.0;
        for (const serve::LoopResult &r : results) {
            if (r.response.kind != w)
                continue;
            ++n;
            hits += r.response.hits.size();
            latency_us += r.latencyUs();
        }
        if (n == 0)
            continue;
        mix.row()
            .add(std::string(kernels::workloadName(w)))
            .add(n)
            .add(latency_us / static_cast<double>(n) / 1000.0, 3)
            .add(static_cast<double>(hits)
                     / static_cast<double>(n),
                 1);
    }

    // serve_latency_us's power-of-two buckets, empty ones at either
    // end trimmed; bucket i spans [2^i, 2^(i+1)) us, bucket 0 also
    // collects sub-microsecond samples.
    const auto counts = latency.bucketCounts();
    const auto &bounds = obs::Histogram::bucketBounds();
    std::size_t lo = 0;
    std::size_t hi = counts.size();
    while (lo < hi && counts[lo] == 0)
        ++lo;
    while (hi > lo && counts[hi - 1] == 0)
        --hi;
    core::Table hist({"latency bucket", "requests"});
    std::uint64_t histogram_total = 0;
    for (std::size_t b = lo; b < hi; ++b) {
        std::ostringstream label;
        label.setf(std::ios::fixed);
        label.precision(3);
        label << "[" << (b == 0 ? 0.0 : bounds[b - 1]) / 1000.0
              << ", " << bounds[b] / 1000.0 << ") ms";
        hist.row().add(label.str()).add(counts[b]);
        histogram_total += counts[b];
    }

    if (csv) {
        summary.printCsv(std::cout);
        mix.printCsv(std::cout);
        hist.printCsv(std::cout);
    } else {
        summary.print(std::cout);
        std::cout << "\nper-application mix:\n";
        mix.print(std::cout);
        std::cout << "\nlatency histogram:\n";
        hist.print(std::cout);
    }

    // Every request of a closed loop must come back served, and
    // each one's latency must be in the histogram.
    if (served != stream.requests
        || histogram_total != stream.requests) {
        std::cerr << "closed loop: " << served << " served, "
                  << histogram_total << " in the latency histogram, of "
                  << stream.requests << " requests\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    serve::StreamSpec stream;
    serve::EngineConfig cfg;
    int db_seqs = 200;
    bool csv = false;
    bool zipf = false;
    bool use_index = false;
    bool hot_reload = false;
    double qps = 0.0;
    double duration_s = 2.0;
    double deadline_ms = 0.0;
    std::size_t queue_cap = 64;
    std::size_t cache_mb = 0;
    std::vector<TenantSpec> tenants;
    std::string metrics_out;
    std::string metrics_prom;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        auto positive = [&](const std::string &v) -> int {
            const int n = std::atoi(v.c_str());
            if (n <= 0) {
                std::cerr << arg << " must be positive\n";
                std::exit(2);
            }
            return n;
        };
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (arg == "--requests") {
            stream.requests =
                static_cast<std::size_t>(positive(value()));
        } else if (arg == "--workload") {
            const auto w = parseWorkload(value());
            if (!w) {
                std::cerr << "unknown workload (--help)\n";
                return 2;
            }
            stream.kinds = {*w};
        } else if (arg == "--report-alignments") {
            stream.reportAlignments = true;
        } else if (arg == "--seed") {
            stream.seed = std::strtoull(value().c_str(), nullptr, 0);
        } else if (arg == "--batch") {
            cfg.batch = static_cast<std::size_t>(positive(value()));
        } else if (arg == "--shards") {
            cfg.shards = static_cast<std::size_t>(positive(value()));
        } else if (arg == "--jobs") {
            cfg.jobs = static_cast<unsigned>(positive(value()));
        } else if (arg == "--top-k") {
            cfg.topK = static_cast<std::size_t>(positive(value()));
        } else if (arg == "--backend") {
            const std::string name = value();
            const auto b = align::parseBackend(name);
            if (!b) {
                std::cerr << "backend '" << name
                          << "' is unknown or does not run on this "
                             "host (runnable: "
                          << backendChoices() << ")\n";
                return 2;
            }
            cfg.backend = *b;
        } else if (arg == "--db-seqs") {
            db_seqs = positive(value());
        } else if (arg == "--zipf") {
            zipf = true;
        } else if (arg == "--index") {
            use_index = true;
        } else if (arg == "--blast-t") {
            cfg.blast.neighborThreshold = positive(value());
        } else if (arg == "--hot-reload") {
            hot_reload = true;
        } else if (arg == "--qps") {
            qps = std::atof(value().c_str());
            if (qps <= 0.0) {
                std::cerr << "--qps must be positive\n";
                return 2;
            }
        } else if (arg == "--duration-s") {
            duration_s = std::atof(value().c_str());
            if (duration_s <= 0.0) {
                std::cerr << "--duration-s must be positive\n";
                return 2;
            }
        } else if (arg == "--deadline-ms") {
            deadline_ms = std::atof(value().c_str());
            if (deadline_ms <= 0.0) {
                std::cerr << "--deadline-ms must be positive\n";
                return 2;
            }
        } else if (arg == "--queue-cap") {
            queue_cap =
                static_cast<std::size_t>(positive(value()));
        } else if (arg == "--cache-mb") {
            cache_mb =
                static_cast<std::size_t>(positive(value()));
        } else if (arg == "--tenants") {
            tenants = parseTenants(value());
        } else if (arg == "--metrics-out") {
            metrics_out = value();
        } else if (arg == "--metrics-prom") {
            metrics_prom = value();
        } else if (arg == "--csv") {
            csv = true;
        } else {
            std::cerr << "unknown option " << arg << " (--help)\n";
            return 2;
        }
    }

    if (qps <= 0.0
        && (hot_reload || cache_mb > 0 || !tenants.empty())) {
        std::cerr << "--hot-reload/--cache-mb/--tenants need the "
                     "open loop (--qps)\n";
        return 2;
    }

    // The blastn kind serves the synthetic long-read nucleotide
    // workload instead of the SwissProt stand-in.
    const bool dna = stream.kinds.size() == 1
        && stream.kinds.front() == kernels::Workload::Blastn;
    std::vector<bio::Sequence> pool;
    bio::SequenceDatabase db;
    if (dna) {
        if (use_index) {
            std::cerr << "--index is protein-only (not blastn)\n";
            return 2;
        }
        pool = bio::makeDnaQueryPool(8, 800, stream.seed);
        bio::DnaWorkloadSpec spec;
        spec.numReads = static_cast<std::size_t>(db_seqs);
        db = bio::makeDnaReadDatabase(spec, pool);
    } else {
        pool = bio::makeQuerySet();
        db = zipf ? bio::makeZipfDatabase(db_seqs)
                  : bio::makeDefaultDatabase(db_seqs);
    }

    // Both modes serve one reloadable epoch engine (its own seed
    // index under --index, the result cache on under --cache-mb).
    cfg.cache.capacityBytes = cache_mb * (1u << 20);
    serve::Engine engine(index::makeEpoch(std::move(db), use_index, 1),
                         cfg);
    if (qps > 0.0)
        return runOpenLoop(engine, pool, stream, qps, duration_s,
                           deadline_ms, queue_cap, metrics_out,
                           metrics_prom, use_index, hot_reload,
                           db_seqs, zipf, cache_mb, tenants);
    return runClosedLoop(engine, pool, stream, csv, metrics_out,
                         metrics_prom);
}
