/**
 * @file
 * Open-loop load bench for the coprocessor job server
 * (docs/SERVING.md): arrival rate x shard count x fault plan.
 *
 * Each case replays a Poisson arrival process (exponential
 * interarrivals at a fixed rate in jobs per simulated megacycle) of
 * mixed kernels — GEMM, LU, conv2d, batched FFT — from three tenants
 * with occasional high-priority submissions, then drains the server
 * and reports end-to-end numbers: jobs per megacycle, p50/p99 latency,
 * shard utilization, failovers and dead cells. The load is open-loop:
 * arrivals do not wait for completions, so queueing delay shows up
 * directly in the latency percentiles as the rate approaches pool
 * capacity.
 *
 * The faulted cases are the point of the bench. "flips" soaks the
 * pool in random bit flips that SECDED parity absorbs; "shardkill"
 * hangs both cells of shard 0 mid-traffic so its uncommitted jobs
 * fail over to the survivor. In both, completion_rate must hold at
 * 1.0 and every completed job must match the blasref oracle — faults
 * degrade throughput and latency, never correctness — and bench_diff
 * gates on exactly that against bench/baselines/BENCH_serve_load.json.
 *
 * Everything reported is simulated-time deterministic: reruns (and
 * --engine= changes, which this bench honors via initSimFlags) are
 * byte-identical, so the committed baseline pins
 * scheduler behavior, not just speed. --smoke shrinks the grid for
 * the sanitizer legs.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "serve/server.hh"

using namespace opac;
using namespace opac::bench;
using namespace opac::serve;

namespace
{

struct LoadCase
{
    const char *name;
    unsigned shards;
    double rate; //!< arrivals per simulated megacycle
    unsigned njobs;
    std::string faults;    //!< base plan, seed-mixed into every shard
    std::string killShard0; //!< targeted plan for shard 0 only
};

struct CaseOut
{
    Cycle makespan = 0;
    unsigned accepted = 0;
    unsigned completed = 0;
    unsigned failed = 0;
    unsigned rejected = 0;
    bool correct = true;
    double p50 = 0.0, p99 = 0.0;
    double utilization = 0.0;
    unsigned failovers = 0;
    unsigned deadCells = 0;
    unsigned batches = 0;
    double flopsDone = 0.0;
    /** Simulated cycles per wall second, aggregated over all shards
     *  (each shard simulates its own machine on its own worker). */
    double simRate = 0.0;
    // Fairness / SLO extras (informational, never gated).
    unsigned deadlineMiss = 0;
    unsigned tenantAccepted[3] = {0, 0, 0};
    unsigned tenantCompleted[3] = {0, 0, 0};
};

/** Observability artifact paths for one case ("" = don't write). */
struct ObsOut
{
    std::string metrics;   //!< Server::metricsJson()
    std::string spans;     //!< Server::spansJson()
    std::string spanTrace; //!< chrome://tracing span rendering
    std::string prom;      //!< Prometheus text exposition
    std::string flightDir; //!< flight-recorder postmortems
};

/** Crash-durability knobs (--checkpoint-dir and friends). */
struct DurOpts
{
    std::string dir;          //!< per-case subdirs created under this
    unsigned every = 1;       //!< batches between shard checkpoints
    unsigned crashAfter = 0;  //!< crash+restart after N deliveries
    bool resume = false;      //!< resume from the directory up front
};

void
writeText(const std::string &path, const std::string &text,
          const char *what)
{
    snap::ensureParentDir(path);
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "serve_load: cannot write %s to '%s'\n",
                      what, path.c_str());
        return;
    }
    out << text;
    std::printf("serve_load: wrote %s to %s\n", what, path.c_str());
}

/** Draw the next request of the mixed-kind multi-tenant workload. */
JobRequest
drawRequest(Rng &rng)
{
    JobRequest r;
    r.seed = rng.next() | 1;
    r.tenant = std::uint32_t(rng.range(0, 2));
    r.priority = rng.uniform() < 0.125f ? 4u : 0u;
    switch (rng.range(0, 3)) {
    case 0:
        r.kind = KernelKind::Gemm;
        r.m = r.k = r.n = 16;
        break;
    case 1:
        r.kind = KernelKind::Lu;
        r.n = 16;
        break;
    case 2:
        r.kind = KernelKind::Conv2d;
        r.n = 12;
        r.m = 16;
        r.p = r.q = 3;
        break;
    default:
        r.kind = KernelKind::Fft;
        r.n = 64;
        r.batch = 2;
        break;
    }
    return r;
}

CaseOut
runCase(const LoadCase &lc, const ObsOut &obs, const DurOpts &dur)
{
    ServeConfig cfg;
    cfg.shards = lc.shards;
    cfg.shard.cells = 2;
    cfg.shard.tf = 512;
    cfg.shard.memoryWords = 1 << 20;
    cfg.shard.engineMode = engineDefault();
    cfg.shard.fastTier = fastTierDefault();
    cfg.sched.batchMax = 2;
    if (!lc.faults.empty())
        cfg.faults = fault::parseFaultSpec(lc.faults);
    if (!lc.killShard0.empty()) {
        // A permanent hang should exhaust recovery quickly, not
        // grind through the default retry budget first.
        cfg.shard.retryBudget = 1;
        cfg.shardFaults.emplace_back(
            0u, fault::parseFaultSpec(lc.killShard0));
    }
    // Open-loop Poisson arrivals: exponential interarrival times at
    // lc.rate jobs per megacycle, from a per-case deterministic
    // stream. Drawn up front so a crash-restarted server can re-submit
    // the identical workload.
    Rng rng(17);
    double t = 0.0;
    std::vector<JobRequest> reqs;
    for (unsigned i = 0; i < lc.njobs; ++i) {
        t += -std::log(1.0 - double(rng.uniform())) * 1e6 / lc.rate;
        JobRequest r = drawRequest(rng);
        r.arrival = Cycle(t);
        // Every 4th job carries an SLO deadline. Index-based (no rng
        // draw) and generous enough that deadline admission never
        // rejects, so the committed baseline's scheduling is
        // untouched; misses are observability-only.
        if (i % 4 == 3)
            r.deadline = 8000;
        reqs.push_back(r);
    }

    auto makeServer = [&cfg, &lc, &dur](bool resume,
                                        unsigned crash_after) {
        ServeConfig c = cfg;
        if (!dur.dir.empty())
            c.checkpointDir = dur.dir + "/" + lc.name;
        c.checkpointEvery = dur.every;
        c.resume = resume;
        c.crashAfterDeliveries = crash_after;
        return std::make_unique<Server>(c);
    };
    auto submitAll = [&reqs](Server &s) {
        std::vector<std::future<JobResult>> f;
        f.reserve(reqs.size());
        for (const JobRequest &r : reqs)
            f.push_back(s.submit(r));
        return f;
    };

    auto srvp = makeServer(dur.resume, dur.crashAfter);
    double wall0 = wallSeconds();
    std::vector<std::future<JobResult>> futs = submitAll(*srvp);
    try {
        srvp->drain();
    } catch (const Error &e) {
        // The --crash-after hook fired mid-drain. Model a process
        // restart: throw the wounded server away and bring up a fresh
        // one over the same checkpoint directory — journaled results
        // are re-delivered without re-execution, everything else runs
        // from the last shard checkpoints.
        std::printf("serve_load: %s; restarting with --resume\n",
                    e.what());
        srvp.reset();
        srvp = makeServer(true, 0);
        futs = submitAll(*srvp);
        srvp->drain();
    }
    Server &srv = *srvp;
    const double wall = wallSeconds() - wall0;

    CaseOut out;
    std::vector<double> lat;
    for (unsigned i = 0; i < lc.njobs; ++i) {
        JobResult r = futs[i].get();
        const unsigned tenant = std::min(reqs[i].tenant, 2u);
        switch (r.status) {
        case JobStatus::Completed:
            ++out.accepted;
            ++out.completed;
            ++out.tenantAccepted[tenant];
            ++out.tenantCompleted[tenant];
            out.correct = out.correct && r.correct;
            out.flopsDone += estimatedFlops(reqs[i]);
            lat.push_back(double(r.latency()));
            if (r.missedDeadline())
                ++out.deadlineMiss;
            break;
        case JobStatus::Failed:
            ++out.accepted;
            ++out.failed;
            ++out.tenantAccepted[tenant];
            break;
        case JobStatus::Rejected:
            ++out.rejected;
            break;
        }
    }
    std::sort(lat.begin(), lat.end());
    auto pct = [&lat](double p) {
        if (lat.empty())
            return 0.0;
        return lat[std::size_t(double(lat.size() - 1) * p / 100.0)];
    };
    out.p50 = pct(50.0);
    out.p99 = pct(99.0);
    out.makespan = srv.makespan();
    out.utilization = srv.utilization();
    out.failovers = srv.failovers();
    out.batches = srv.batches();
    for (unsigned s = 0; s < srv.numShards(); ++s)
        out.deadCells += cfg.shard.cells - srv.shard(s).aliveCells();
    // Simulator throughput: cycles actually simulated across the
    // shard pool per wall second of this case (submit through drain).
    std::uint64_t simCycles = 0;
    for (unsigned s = 0; s < srv.numShards(); ++s)
        simCycles += srv.shard(s).busyCycles();
    out.simRate = wall > 0.0 ? double(simCycles) / wall : 0.0;

    // Observability artifacts for this case, if requested. All of
    // these are virtual-time deterministic (spansJson omits wall
    // clocks), so CI can golden-compare them across engine modes.
    if (!obs.metrics.empty())
        writeText(obs.metrics, srv.metricsJson(), "metrics json");
    if (!obs.spans.empty())
        writeText(obs.spans, srv.spansJson(), "span json");
    if (!obs.prom.empty())
        writeText(obs.prom, srv.metricsProm(), "prometheus metrics");
    if (!obs.spanTrace.empty()) {
        snap::ensureParentDir(obs.spanTrace);
        std::ofstream tf(obs.spanTrace);
        if (tf) {
            srv.writeSpanChromeTrace(tf);
            std::printf("serve_load: wrote span trace to %s\n",
                        obs.spanTrace.c_str());
        } else {
            std::fprintf(stderr,
                          "serve_load: cannot write span trace to "
                          "'%s'\n", obs.spanTrace.c_str());
        }
    }
    if (!obs.flightDir.empty()) {
        const auto &dumps = srv.flightDumps();
        for (std::size_t i = 0; i < dumps.size(); ++i)
            writeText(obs.flightDir + "/flight_" + lc.name + "_"
                          + std::to_string(i) + ".json",
                      dumps[i].second, "flight dump");
        std::printf("serve_load: %llu flight trigger(s), %zu dump(s) "
                    "retained\n",
                    (unsigned long long)srv.flightTriggers(),
                    dumps.size());
    }
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    initSimFlags(argc, argv);
    const bool smoke = argFlag(argc, argv, "--smoke");

    // Observability artifacts: dump the selected case's spans,
    // metrics, prometheus exposition, span trace, and flight-recorder
    // postmortems. Defaults to s2_shardkill — the case where the
    // flight recorder actually fires.
    ObsOut obs;
    obs.metrics = argText(argc, argv, "--metrics");
    obs.spans = argText(argc, argv, "--spans");
    obs.spanTrace = argText(argc, argv, "--span-trace");
    obs.prom = argText(argc, argv, "--prom");
    obs.flightDir = argText(argc, argv, "--flight-dir");
    if (!obs.flightDir.empty())
        snap::ensureDirectories(obs.flightDir);
    std::string obsCase = argText(argc, argv, "--obs-case");
    if (obsCase.empty())
        obsCase = "s2_shardkill";

    // Crash durability (docs/RESILIENCE.md, "Checkpoint & replay"):
    //   --checkpoint-dir=DIR    journal + per-shard checkpoints under
    //                           DIR/<case>/ (directories are created)
    //   --checkpoint-every=N    batches between shard checkpoints
    //   --crash-after=N         simulate a crash after N deliveries,
    //                           then restart the server with resume
    //                           (requires --checkpoint-dir)
    //   --resume                resume from --checkpoint-dir up front
    DurOpts dur;
    dur.dir = argText(argc, argv, "--checkpoint-dir");
    const long long uintMax = std::numeric_limits<unsigned>::max();
    dur.every = unsigned(
        argNumber(argc, argv, "--checkpoint-every", 1, 1, uintMax));
    dur.crashAfter = unsigned(
        argNumber(argc, argv, "--crash-after", 0, 0, uintMax));
    dur.resume = argFlag(argc, argv, "--resume");
    if (dur.crashAfter != 0 && dur.dir.empty()) {
        std::fprintf(stderr, "serve_load: --crash-after needs "
                             "--checkpoint-dir\n");
        return 2;
    }

    // Random flips everywhere vs a targeted mid-traffic shard kill.
    const std::string flips =
        "seed=5,rate=40,horizon=400000,kinds=flip";
    const std::string kill = "at=30000/hang/0/0,at=30100/hang/1/0";

    std::vector<LoadCase> grid;
    if (smoke) {
        grid.push_back({"s2_light", 2, 50.0, 8, "", ""});
        grid.push_back({"s2_flips", 2, 100.0, 8, flips, ""});
        grid.push_back({"s2_shardkill", 2, 100.0, 8, "", kill});
    } else {
        grid.push_back({"s1_light", 1, 50.0, 24, "", ""});
        grid.push_back({"s2_light", 2, 50.0, 24, "", ""});
        grid.push_back({"s2_heavy", 2, 400.0, 32, "", ""});
        grid.push_back({"s4_heavy", 4, 400.0, 32, "", ""});
        grid.push_back({"s2_flips", 2, 100.0, 32, flips, ""});
        grid.push_back({"s2_shardkill", 2, 100.0, 32, "", kill});
    }

    BenchJsonWriter json("serve_load");
    json.config("cells_per_shard", 2);
    json.config("tf", 512);
    json.config("batch_max", 2);
    json.config("engine", sim::engineModeName(engineDefault()));
    json.config("fast_tier", fastTierDefault() ? "on" : "off");
    json.config("smoke", smoke ? "yes" : "no");

    TextTable t("serve_load: open-loop Poisson load on the job server "
                "(2-cell shards, mixed kernels, three tenants)");
    t.header({"case", "jobs", "done", "rej", "makespan", "jobs/Mcyc",
              "p50", "p99", "util", "fovr", "dead"});

    for (const LoadCase &lc : grid) {
        CaseOut r =
            runCase(lc, lc.name == obsCase ? obs : ObsOut(), dur);
        double mcyc = double(r.makespan) / 1e6;
        double served = mcyc > 0.0 ? double(r.completed) / mcyc : 0.0;
        double completion =
            r.accepted ? double(r.completed) / double(r.accepted) : 0.0;
        double fpc = r.makespan
                         ? r.flopsDone / double(r.makespan)
                         : 0.0;
        // Peak: 2 cells/shard x one multiply-add (2 flops) per cycle.
        double peak = 4.0 * double(lc.shards);
        t.row({lc.name, strfmt("%u", lc.njobs),
               strfmt("%u", r.completed), strfmt("%u", r.rejected),
               strfmt("%llu", (unsigned long long)r.makespan),
               strfmt("%.1f", served), strfmt("%.0f", r.p50),
               strfmt("%.0f", r.p99), strfmt("%.2f", r.utilization),
               strfmt("%u", r.failovers), strfmt("%u", r.deadCells)});
        json.record(lc.name, r.makespan, fpc, fpc / peak,
                    {{"completion_rate", completion},
                     {"correct", r.correct ? 1.0 : 0.0},
                     {"accepted", double(r.accepted)},
                     {"rejected", double(r.rejected)},
                     {"p50_latency", r.p50},
                     {"p99_latency", r.p99},
                     {"utilization", r.utilization},
                     {"failovers", double(r.failovers)},
                     {"dead_cells", double(r.deadCells)},
                     {"batches", double(r.batches)},
                     {"sim_rate", r.simRate},
                     {"deadline_miss", double(r.deadlineMiss)},
                     {"t0_completion_rate",
                      r.tenantAccepted[0]
                          ? double(r.tenantCompleted[0])
                                / double(r.tenantAccepted[0])
                          : 1.0},
                     {"t1_completion_rate",
                      r.tenantAccepted[1]
                          ? double(r.tenantCompleted[1])
                                / double(r.tenantAccepted[1])
                          : 1.0},
                     {"t2_completion_rate",
                      r.tenantAccepted[2]
                          ? double(r.tenantCompleted[2])
                                / double(r.tenantAccepted[2])
                          : 1.0}});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf(
        "Open-loop arrivals: queueing delay lands in p99 as the rate "
        "approaches pool capacity. Under the\nfaulted cases the pool "
        "keeps completing every accepted job correctly — bit flips "
        "cost retries, a\ndead shard costs failovers and throughput, "
        "neither costs correctness.\n");
    return 0;
}
