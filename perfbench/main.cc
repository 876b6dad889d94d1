/**
 * @file
 * Benchmark runner: runs one named workload for a fixed host-time
 * budget, checks its outputs, and prints every metric by name with its
 * unit. The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * with the end-to-end metrics (untraced run) or, with --trace 1, the
 * per-layer metrics of a traced run. README.md defines every metric.
 *
 *   opac_perfbench --workload stream|hostbound|lu|serve|serve_crash
 *                  --seed N --seconds S --trace 0|1 --out-dir DIR
 *                  [--size full|small] [--git-sha SHA]
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "coproc/coprocessor.hh"
#include "perfbench.hh"

using namespace perfbench;

namespace
{

/**
 * Host time is reported in reference seconds: host core clock cycles
 * divided by this rate. On a shared host the cores' clock moves with
 * the other tenants' load, and a wall-clock rate moves with it, by 2x
 * and more between runs of the same code; a count of clock cycles does
 * not (README.md, "Host time").
 */
constexpr double referenceGHz = 2.0;

/** Process CPU seconds between two samples of the core clock. */
constexpr double clockSampleInterval = 0.01;

/** Re-express a pass's wall-clock figures in reference seconds. */
void
toReference(PassResult &r)
{
    const double k = r.clockGHz / referenceGHz; // reference s per wall s
    r.simRate /= k;
    r.jobsPerS /= k;
    r.setupS *= k;
}

/** One pass after another until the host-time budget is spent. */
struct Phase
{
    std::vector<PassResult> passes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /**
     * The samples of a host-time pass figure. The first pass is a
     * warm-up (cold caches, first page faults) and is left out once
     * there are others.
     */
    std::vector<double>
    samples(double PassResult::*field) const
    {
        std::vector<double> v;
        for (std::size_t i = passes.size() > 1 ? 1 : 0; i < passes.size();
             ++i)
            v.push_back(passes[i].*field);
        return v;
    }

    /**
     * The host-time statistic of a pass figure: the median over the
     * run's passes, which a few passes disturbed by other tenants do
     * not move (README.md, "Noise").
     */
    double
    median(double PassResult::*field) const
    {
        return perfbench::median(samples(field));
    }
};

bool
sameSimulated(const PassResult &a, const PassResult &b)
{
    return a.simCycles == b.simCycles && a.usefulMas == b.usefulMas
           && a.latencies == b.latencies && a.counts == b.counts;
}

/** At least one round of passes, then more until @p seconds are spent. */
Phase
runPhase(const Workload &w, double seconds, SpanLog &log,
         const char *label)
{
    Phase ph;
    const double t0 = nowSeconds();
    do {
        const std::size_t i = ph.passes.size();
        const double start = nowSeconds();
        PassResult r = w.pass(log, std::uint32_t(i));
        // The core clock over the pass: the median of the clock
        // samples taken during it, or a probe now if it was too short
        // to be sampled.
        std::size_t n = 0;
        r.clockGHz = sampledClockGHz(start, nowSeconds(), n);
        if (n < 3)
            r.clockGHz = hostClockGHz();
        // Simulated results are deterministic: every pass must
        // reproduce the same pass of the first round exactly.
        if (i >= w.round && !sameSimulated(ph.passes[i % w.round], r)) {
            std::printf("FAIL %s pass %zu: simulated results differ "
                        "from pass %zu\n", label, i, i % w.round);
            r.failed = r.attempted;
        }
        std::printf("%s pass %zu: clock %.3f GHz, unscaled sim_rate "
                    "%.3f Mcycles/s, jobs_per_s %.3f, setup_s %.6f\n",
                    label, i, r.clockGHz, r.simRate, r.jobsPerS,
                    r.setupS);
        toReference(r);
        ph.attempted += r.attempted;
        ph.failed += r.failed;
        ph.passes.push_back(std::move(r));
    } while (ph.passes.size() < w.round || nowSeconds() - t0 < seconds);
    return ph;
}

/**
 * The simulated figures of the first round of @p ph. Latency
 * percentiles are taken per pass and averaged over the round: serve's
 * passes are independent replications of the same traffic process,
 * and the mean of their tails is far steadier than any one tail.
 */
struct RoundTotals
{
    double simCycles = 0.0;
    double usefulMas = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    std::size_t samples = 0;
};

RoundTotals
roundTotals(const Phase &ph, unsigned round)
{
    RoundTotals t;
    for (unsigned i = 0; i < round; ++i) {
        const PassResult &p = ph.passes[i];
        t.simCycles += p.simCycles;
        t.usefulMas += p.usefulMas;
        t.p50 += percentile(p.latencies, 50.0) / round;
        t.p99 += percentile(p.latencies, 99.0) / round;
        t.samples += p.latencies.size();
    }
    return t;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
};

/** Per-layer metrics, in print order. @c span names the span layer
 *  whose self time per pass the metric is; null for counts. */
struct LayerDef
{
    const char *name;
    const char *unit;
    const char *span;
};

const LayerDef layerDefs[] = {
    {"coproc.build_s", "s", "coproc.build"},
    {"kernels.install_s", "s", "kernels.install"},
    {"planner.plan_s", "s", "planner.plan"},
    {"planner.kernel_calls", "count", nullptr},
    {"sim.run_s", "s", "sim.run"},
    {"sim.idle_cycles", "cycles", nullptr},
    {"sim.skipped_cycles", "cycles", nullptr},
    {"sim.burst_attempts", "count", nullptr},
    {"sim.burst_hit", "fraction", nullptr},
    {"cell.cycles", "cycles", nullptr},
    {"cell.issued", "count", nullptr},
    {"cell.calls", "count", nullptr},
    {"cell.busy_frac", "fraction", nullptr},
    {"cell.idle_frac", "fraction", nullptr},
    {"cell.stall_src_empty_frac", "fraction", nullptr},
    {"cell.stall_dst_full_frac", "fraction", nullptr},
    {"cell.stall_reg_frac", "fraction", nullptr},
    {"cell.burst_frac", "fraction", nullptr},
    {"cell.turbo_frac", "fraction", nullptr},
    {"cell.fallback_body", "count", nullptr},
    {"cell.fallback_inflight", "count", nullptr},
    {"fifo.ops", "count", nullptr},
    {"fifo.ops_per_cell_cycle", "ops/cell-cycle", nullptr},
    {"host.words", "count", nullptr},
    {"host.ops", "count", nullptr},
    {"host.stall_full_frac", "fraction", nullptr},
    {"host.stall_empty_frac", "fraction", nullptr},
    {"softfloat.ops", "count", nullptr},
    {"softfloat.share", "fraction", nullptr},
    {"serve.ctor_s", "s", "serve.ctor"},
    {"serve.submit_s", "s", "serve.submit"},
    {"serve.drain_s", "s", "serve.drain"},
    {"serve.batches", "count", nullptr},
    {"serve.jobs_per_batch", "jobs/batch", nullptr},
    {"serve.shard_busy_cycles", "cycles", nullptr},
    {"serve.utilization", "fraction", nullptr},
    {"serve.queue_wait_p99_cycles", "cycles", nullptr},
    {"serve.service_p99_cycles", "cycles", nullptr},
    {"serve.rejected", "count", nullptr},
    {"serve.failed", "count", nullptr},
    {"serve.redelivered", "count", nullptr},
    {"snap.resume_s", "s", "snap.resume"},
    {"snap.checkpoint_bytes", "bytes", nullptr},
    {"snap.journal_bytes", "bytes", nullptr},
    {"check.self_s", "s", "check"},
    {"bench.self_s", "s", "bench"},
    {"trace_overhead.sim_rate", "Mcycles/s", nullptr},
    {"trace_overhead.jobs_per_s", "jobs/s", nullptr},
    {"trace_overhead.setup_s", "s", nullptr},
};

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::vector<Metric>
endToEnd(const Phase &ph, unsigned round)
{
    const RoundTotals t = roundTotals(ph, round);
    const std::size_t n = ph.samples(&PassResult::simRate).size();
    return {
        {"sim_rate", ph.median(&PassResult::simRate), "Mcycles/s", n},
        {"jobs_per_s", ph.median(&PassResult::jobsPerS), "jobs/s", n},
        {"setup_s", ph.median(&PassResult::setupS), "s", n},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
        {"sim_cycles", t.simCycles, "cycles", round},
        {"ma_per_cycle", t.simCycles > 0.0 ? t.usefulMas / t.simCycles : 0.0,
         "MA/cycle", round},
        {"job_p50_cycles", t.p50, "cycles", t.samples},
        {"job_p99_cycles", t.p99, "cycles", t.samples},
    };
}

std::vector<Metric>
perLayer(const Workload &w, const Phase &untraced, const Phase &traced,
         const SpanLog &log, std::uint64_t &attempted,
         std::uint64_t &failed)
{
    const double passes = double(traced.passes.size());
    std::map<std::string, double> self = log.selfSeconds();
    for (auto &[layer, s] : self)
        s /= passes;
    std::map<std::string, double> v = traced.passes.front().counts;
    if (w.tracedExtras)
        for (const auto &[k, x] :
             w.tracedExtras(self, attempted, failed))
            v[k] = x;
    // Self times in reference seconds, like the end-to-end metrics.
    const double scale =
        traced.median(&PassResult::clockGHz) / referenceGHz;
    for (auto &[layer, s] : self)
        s *= scale;
    // Tracing adds only span bookkeeping; what it costs shows as the
    // traced-minus-untraced difference of each host-time metric.
    auto overhead = [&](double PassResult::*field) {
        return traced.median(field) - untraced.median(field);
    };
    v["trace_overhead.sim_rate"] = overhead(&PassResult::simRate);
    v["trace_overhead.jobs_per_s"] = overhead(&PassResult::jobsPerS);
    v["trace_overhead.setup_s"] = overhead(&PassResult::setupS);
    std::vector<Metric> out;
    for (const LayerDef &d : layerDefs) {
        double x = 0.0;
        if (d.span) {
            auto it = self.find(d.span);
            x = it == self.end() ? 0.0 : it->second;
        } else if (auto it = v.find(d.name); it != v.end()) {
            x = it->second;
        }
        out.push_back({d.name, x, d.unit, traced.passes.size()});
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &ms, bool with_samples)
{
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const Metric &m = ms[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": "
             + jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"";
        if (with_samples)
            s += ", \"samples\": " + std::to_string(m.samples);
        s += "}";
    }
    return s + "}";
}

/** Refuse builds that measure a different program. */
const char *
buildRefusal()
{
    if (std::strcmp(OPAC_PERFBENCH_BUILD_TYPE, "Debug") == 0)
        return "a Debug build";
#ifndef __OPTIMIZE__
    return "an unoptimized build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "a sanitized build";
#endif
    if (OPAC_PERFBENCH_SANITIZED)
        return "a sanitized build";
    return nullptr;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "opac_perfbench: %s\nusage: opac_perfbench --workload "
                 "stream|hostbound|lu|serve|serve_crash --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR "
                 "[--size full|small] [--git-sha SHA]\n", msg);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), &end, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(v.c_str(), &end);
        else if (a == "--trace" && (v == "0" || v == "1"))
            opt.trace = v == "1";
        else if (a == "--size" && (v == "full" || v == "small"))
            opt.small = v == "small";
        else if (a == "--out-dir")
            opt.outDir = v;
        else if (a == "--git-sha")
            opt.gitSha = v;
        else
            return usage(("bad argument " + a + " " + v).c_str());
        if (end && *end)
            return usage(("not a number: " + v).c_str());
    }
    if (opt.workload != "stream" && opt.workload != "hostbound"
        && opt.workload != "lu" && opt.workload != "serve"
        && opt.workload != "serve_crash")
        return usage("unknown --workload");
    if (!(opt.seconds > 0.0) || !std::isfinite(opt.seconds)
        || opt.outDir.empty())
        return usage("need a finite --seconds > 0 and --out-dir");
    if (const char *why = buildRefusal()) {
        std::fprintf(stderr, "opac_perfbench: refusing to measure %s "
                     "(build type %s); use an optimized, unsanitized "
                     "build such as RelWithDebInfo\n", why,
                     OPAC_PERFBENCH_BUILD_TYPE);
        return 2;
    }
    std::filesystem::create_directories(opt.outDir);
    startClockSampler(clockSampleInterval);

    // The defaults users get: no engine or fast-tier override.
    const opac::copro::CoprocConfig defaults;
    char meta[512];
    std::snprintf(
        meta, sizeof meta,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"size\": \"%s\", \"git_sha\": \"%s\", "
        "\"build_type\": \"%s\", \"lto\": %s, \"nproc\": %u, "
        "\"engine\": \"%s\", \"fast_tier\": \"%s\", "
        "\"reference_ghz\": %g}",
        opt.workload.c_str(), (unsigned long long)opt.seed, opt.seconds,
        int(opt.trace), opt.small ? "small" : "full", opt.gitSha.c_str(),
        OPAC_PERFBENCH_BUILD_TYPE, OPAC_PERFBENCH_IPO ? "true" : "false",
        std::thread::hardware_concurrency(),
        opac::sim::engineModeName(defaults.engineMode),
        defaults.fastTier ? "on" : "off", referenceGHz);
    std::printf("meta %s\n", meta);

    std::vector<Metric> metrics;
    std::uint64_t attempted = 0, failed = 0;
    double clockMedian = 0.0;
    try {
        const Workload w = opt.workload.rfind("serve", 0) == 0
                               ? makeServeWorkload(opt)
                               : makeTableWorkload(opt);
        SpanLog off(false);
        if (!opt.trace) {
            Phase ph = runPhase(w, opt.seconds, off, "untraced");
            attempted = ph.attempted;
            failed = ph.failed;
            metrics = endToEnd(ph, w.round);
            clockMedian = ph.median(&PassResult::clockGHz);
        } else {
            // Half the budget untraced, half traced: the difference
            // is the tracing overhead.
            SpanLog on(true);
            Phase u = runPhase(w, opt.seconds / 2, off, "untraced");
            Phase t = runPhase(w, opt.seconds / 2, on, "traced");
            attempted = u.attempted + t.attempted;
            failed = u.failed + t.failed;
            for (unsigned i = 0; i < w.round; ++i)
                if (!sameSimulated(u.passes[i], t.passes[i])) {
                    std::printf("FAIL traced and untraced simulated "
                                "results differ on pass %u\n", i);
                    failed = attempted;
                }
            metrics = perLayer(w, u, t, on, attempted, failed);
            clockMedian = t.median(&PassResult::clockGHz);
            const std::string path =
                opt.outDir + "/spans-" + opt.workload + ".json";
            std::ofstream(path) << on.json();
            std::printf("spans: %zu written to %s\n", on.records().size(),
                        path.c_str());
        }
    } catch (const std::exception &e) {
        std::printf("FAIL %s: %s\n", opt.workload.c_str(), e.what());
        return 1;
    }

    for (const Metric &m : metrics)
        std::printf("metric %-28s %.10g %s (samples %zu)\n",
                    m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    std::printf("host clock: median %.4g GHz over the passes; host-time "
                "metrics are in seconds of a %.1f GHz reference clock\n",
                clockMedian, referenceGHz);
    std::printf("fail_rate %.10g (%llu of %llu operations)\n",
                attempted ? double(failed) / double(attempted) : 1.0,
                (unsigned long long)failed,
                (unsigned long long)attempted);

    const bool correct = failed == 0 && attempted > 0;
    const std::string result =
        std::string("{\"correct\": ") + (correct ? "true" : "false")
        + ", \"attempted\": " + std::to_string(attempted)
        + ", \"failed\": " + std::to_string(failed)
        + ", \"metrics\": " + metricsJson(metrics, false) + "}";
    std::ofstream(opt.outDir + "/result-" + opt.workload + "-trace"
                  + (opt.trace ? "1" : "0") + ".json")
        << "{\"meta\": " << meta << ", \"correct\": "
        << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed
        << ", \"metrics\": " << metricsJson(metrics, true) << "}\n";
    std::printf("%s\n", result.c_str());
    return correct ? 0 : 1;
}
