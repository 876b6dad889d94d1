/**
 * @file
 * The serve workloads: an open-loop Poisson stream of small mixed
 * kernel jobs (GEMM, LU, conv2d, FFT) from three tenants on a durable
 * two-shard job server that journals every submission and delivery
 * and checkpoints every shard after every batch.
 *
 * Why: serve is the only workload that exercises admission, batching,
 * dispatch, the shard worker threads, per-job oracle checks and the
 * journal and checkpoint writes. Arrivals are stamped in simulated
 * time (the serve_load s2_heavy rate, 400 jobs per megacycle), so each
 * job's latency counts from its due time and the generator can never
 * run late.
 *
 * serve_crash runs the same traffic but crashes the server at the
 * midpoint and resumes it from the journal and checkpoints, which adds
 * the snapshot-read path. It is kept out of BENCHMARK.json because
 * FFT jobs run on a restored shard fail their oracle check (see
 * README.md, "Known defect").
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "common/error.hh"
#include "common/random.hh"
#include "perfbench.hh"
#include "serve/server.hh"

using namespace opac;
using namespace opac::serve;

namespace perfbench
{

namespace
{

/** Arrival rate in jobs per simulated megacycle (s2_heavy). */
constexpr double arrivalRate = 400.0;
constexpr unsigned numTenants = 3;

/** Draw one request of the mixed-kind, multi-tenant traffic. */
JobRequest
drawRequest(Rng &rng)
{
    JobRequest r;
    r.seed = rng.next() | 1;
    r.tenant = std::uint32_t(rng.range(0, numTenants - 1));
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

std::vector<JobRequest>
makeTraffic(std::uint64_t seed, unsigned njobs)
{
    Rng rng(seed);
    std::vector<JobRequest> reqs;
    double t = 0.0;
    for (unsigned i = 0; i < njobs; ++i) {
        t += -std::log(1.0 - double(rng.uniform())) * 1e6 / arrivalRate;
        JobRequest r = drawRequest(rng);
        r.arrival = Cycle(t);
        reqs.push_back(r);
    }
    return reqs;
}

double
fileBytes(const std::filesystem::path &p)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(p, ec);
    return ec ? 0.0 : double(n);
}

} // anonymous namespace

Workload
makeServeWorkload(const Options &opt)
{
    // A round serves several independent traffic streams, one server
    // lifecycle each. A stream's p99 latency rests on a few arrival
    // bursts; averaged over the round's streams it repeats across
    // seeds, and each pass stays short enough to give the host-time
    // figures many samples. 1000 jobs leave ten beyond each p99.
    const unsigned streams = opt.small ? 2 : 8;
    const unsigned njobs = opt.small ? 32 : 1000;
    auto traffic =
        std::make_shared<std::vector<std::vector<JobRequest>>>();
    Rng seeds(opt.seed);
    for (unsigned i = 0; i < streams; ++i)
        traffic->push_back(makeTraffic(seeds.next(), njobs));
    const std::filesystem::path dir =
        std::filesystem::path(opt.outDir) / "serve-checkpoints";

    ServeConfig cfg;
    cfg.shards = 2;
    cfg.shard.cells = 2;
    cfg.shard.tf = 512;
    cfg.sched.batchMax = 2;
    cfg.checkpointDir = dir.string();
    cfg.checkpointEvery = 1;
    const bool crash = opt.workload == "serve_crash";
    if (crash)
        cfg.crashAfterDeliveries = njobs / 2;
    const char *name = crash ? "serve_crash" : "serve";

    Workload w;
    w.round = streams;
    w.pass = [traffic, cfg, dir, crash, name](SpanLog &log,
                                              std::uint32_t group) {
        PassResult r;
        const std::vector<JobRequest> &jobs =
            (*traffic)[group % traffic->size()];
        Span pass(log, "bench", group);
        std::filesystem::remove_all(dir);

        auto submitAll = [&](Server &srv) {
            Span s(log, "serve.submit", group);
            std::vector<std::future<JobResult>> futs;
            futs.reserve(jobs.size());
            for (const JobRequest &req : jobs)
                futs.push_back(srv.submit(req));
            return futs;
        };

        Span ctor(log, "serve.ctor", group);
        auto srv = std::make_unique<Server>(cfg);
        r.setupS = ctor.close();

        // First submit to last drain return, the restart included, in
        // CPU seconds of all the process's threads: on a shared host
        // the wall-clock span of the same pass swings 2x with steal
        // time and thread wake-ups (README.md, "Host time").
        const double t0 = processCpuSeconds();
        auto futs = submitAll(*srv);
        std::vector<JobResult> before; // delivered by the crashed server
        unsigned batches = 0;
        bool crashed = false;
        if (crash) {
            {
                Span drain(log, "serve.drain", group);
                try {
                    srv->drain();
                } catch (const opac::Error &e) {
                    if (e.site() != "serve.crash-test")
                        throw;
                    crashed = true;
                }
                // Tearing the crashed server down is part of what the
                // crash costs, so it stays inside the drain span.
                before = srv->results();
                batches += srv->batches();
                srv.reset();
            }
            ServeConfig again = cfg;
            again.resume = true;
            again.crashAfterDeliveries = 0;
            {
                Span resume(log, "snap.resume", group);
                srv = std::make_unique<Server>(again);
            }
            futs = submitAll(*srv);
        }
        {
            Span drain(log, "serve.drain", group);
            srv->drain();
        }
        const double cpu = processCpuSeconds() - t0;

        Span check(log, "check", group);
        std::vector<double> wait, service;
        std::uint64_t bad = 0, rejected = 0, failed = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            JobResult res = futs[i].get();
            rejected += res.status == JobStatus::Rejected;
            failed += res.status == JobStatus::Failed;
            if (res.status != JobStatus::Completed || !res.correct) {
                ++bad;
                continue;
            }
            r.latencies.push_back(double(res.latency()));
            wait.push_back(double(res.queueWait()));
            service.push_back(double(res.serviceTime()));
        }
        // Exactly once: every ticket delivered once by the last server.
        // Across a restart, everything the crashed server delivered is
        // re-delivered first, unchanged, from the journal.
        const std::vector<JobResult> &after = srv->results();
        std::map<std::uint32_t, const JobResult *> byTicket;
        for (const JobResult &res : after)
            byTicket[res.ticket] = &res;
        bool once = byTicket.size() == jobs.size()
                    && after.size() == jobs.size()
                    && crashed == crash && before.size() <= after.size();
        for (std::size_t i = 0; once && i < before.size(); ++i) {
            auto it = byTicket.find(before[i].ticket);
            once = it != byTicket.end()
                   && it->second < after.data() + before.size()
                   && it->second->checksum == before[i].checksum
                   && it->second->finished == before[i].finished;
        }
        if (!once) {
            std::printf("FAIL %s: %s (%zu delivered before the crash, "
                        "%zu after, %zu distinct tickets)\n", name,
                        crash && !crashed
                            ? "the midpoint crash never fired"
                            : "not delivered exactly once",
                        before.size(), after.size(), byTicket.size());
            bad = std::max<std::uint64_t>(bad, 1);
        }
        if (bad)
            std::printf("FAIL %s: %llu of %zu jobs not completed, "
                        "correct and delivered exactly once\n", name,
                        (unsigned long long)bad, jobs.size());

        double busy = 0.0, ma = 0.0;
        for (unsigned s = 0; s < srv->numShards(); ++s)
            busy += double(srv->shard(s).busyCycles());
        if (const auto *tg = srv->stats().findChild("tenants"))
            for (unsigned t = 0; t < numTenants; ++t)
                if (const auto *g =
                        tg->findChild("tenant" + std::to_string(t)))
                    ma += double(g->counterValue("ma_ops"));
        batches += srv->batches();

        std::map<std::string, double> sums;
        for (unsigned s = 0; s < srv->numShards(); ++s)
            // The counters are read-only here; system() is const only
            // because the worker thread owns the machine mid-batch.
            addMachineCounters(const_cast<copro::Coprocessor &>(
                                   srv->shard(s).system()),
                               sums);
        r.counts = layerMetrics(sums);
        r.counts["serve.batches"] = double(batches);
        r.counts["serve.jobs_per_batch"] =
            batches ? double(jobs.size()) / double(batches) : 0.0;
        r.counts["serve.shard_busy_cycles"] = busy;
        r.counts["serve.utilization"] = srv->utilization();
        r.counts["serve.queue_wait_p99_cycles"] = percentile(wait, 99.0);
        r.counts["serve.service_p99_cycles"] = percentile(service, 99.0);
        r.counts["serve.rejected"] = double(rejected);
        r.counts["serve.failed"] = double(failed);
        r.counts["serve.redelivered"] = double(before.size());
        for (unsigned s = 0; s < srv->numShards(); ++s)
            r.counts["snap.checkpoint_bytes"] +=
                fileBytes(dir / ("shard" + std::to_string(s) + ".snap"));
        r.counts["snap.journal_bytes"] = fileBytes(dir / "journal.log");

        r.simCycles = busy;
        r.usefulMas = ma;
        r.simRate = busy / cpu / 1e6;
        r.jobsPerS = double(r.latencies.size()) / cpu;
        r.attempted = jobs.size();
        r.failed = bad;
        check.close();
        srv.reset();
        return r;
    };
    return w;
}

} // namespace perfbench
