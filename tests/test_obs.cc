/**
 * @file
 * Tests of the request-level observability stack
 * (docs/OBSERVABILITY.md): job spans, SLO metrics exports, the
 * Prometheus exposition, the flight recorder ring, and — the property
 * everything else leans on — byte-identical observability output
 * across every engine mode, because spans and metrics are recorded in
 * virtual time only.
 */

#include <gtest/gtest.h>

#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "serve/server.hh"
#include "trace/json.hh"

using namespace opac;
using namespace opac::serve;

namespace
{

ShardConfig
smallShard(sim::EngineMode mode)
{
    ShardConfig sc;
    sc.cells = 2;
    sc.tf = 512;
    sc.memoryWords = 1 << 20;
    sc.engineMode = mode;
    return sc;
}

JobRequest
gemmReq(std::size_t m, std::uint64_t seed, Cycle arrival,
        unsigned pri = 0, std::uint32_t tenant = 0)
{
    JobRequest r;
    r.kind = KernelKind::Gemm;
    r.m = r.k = r.n = m;
    r.seed = seed;
    r.arrival = arrival;
    r.priority = pri;
    r.tenant = tenant;
    return r;
}

/** All three exports of a faulted mixed workload under one engine. */
struct ObsExports
{
    std::string metrics;
    std::string spans;
    std::string prom;
};

ObsExports
runObservedWorkload(sim::EngineMode mode)
{
    ServeConfig cfg;
    cfg.shards = 2;
    cfg.shard = smallShard(mode);
    cfg.sched.batchMax = 2;
    cfg.faults = fault::parseFaultSpec(
        "seed=3,rate=40,horizon=200000,kinds=flip");
    Server srv(cfg);

    std::vector<std::future<JobResult>> futs;
    futs.push_back(srv.submit(gemmReq(16, 11, 0, 0, /*tenant=*/0)));
    futs.push_back(srv.submit(gemmReq(20, 12, 500, 1, 1)));
    JobRequest lu;
    lu.kind = KernelKind::Lu;
    lu.n = 16;
    lu.seed = 13;
    lu.arrival = 800;
    lu.tenant = 0;
    lu.deadline = 100000; // generous: miss counters stay zero
    futs.push_back(srv.submit(lu));
    JobRequest fft;
    fft.kind = KernelKind::Fft;
    fft.n = 64;
    fft.batch = 2;
    fft.seed = 15;
    fft.arrival = 1500;
    fft.tenant = 2;
    futs.push_back(srv.submit(fft));
    futs.push_back(srv.submit(gemmReq(16, 16, 9000, 0, 1)));
    srv.drain();
    for (auto &f : futs)
        f.get();

    ObsExports out;
    out.metrics = srv.metricsJson();
    out.spans = srv.spansJson();
    out.prom = srv.metricsProm();
    return out;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Determinism: the acceptance criterion of docs/OBSERVABILITY.md
// ---------------------------------------------------------------------

TEST(ObsDeterminism, ExportsByteIdenticalAcrossEngineModes)
{
    ObsExports ref = runObservedWorkload(sim::EngineMode::Spin);
    EXPECT_FALSE(ref.metrics.empty());
    EXPECT_FALSE(ref.spans.empty());

    ObsExports got = runObservedWorkload(sim::EngineMode::Skip);
    EXPECT_EQ(ref.metrics, got.metrics)
        << "metrics json diverged under --engine=skip";
    EXPECT_EQ(ref.spans, got.spans)
        << "span stream diverged under --engine=skip";
    EXPECT_EQ(ref.prom, got.prom)
        << "prometheus exposition diverged under --engine=skip";
}

// ---------------------------------------------------------------------
// Span structure
// ---------------------------------------------------------------------

TEST(ObsSpans, CompletedJobWalksTheFullLifecycle)
{
    ServeConfig cfg;
    cfg.shards = 1;
    cfg.shard = smallShard(sim::EngineMode::Skip);
    cfg.sched.batchMax = 1;
    Server srv(cfg);
    auto fut = srv.submit(gemmReq(12, 7, /*arrival=*/25));
    srv.drain();
    JobResult r = fut.get();
    ASSERT_EQ(r.status, JobStatus::Completed);

    ASSERT_EQ(srv.spans().size(), 1u);
    const obs::JobSpan &s = srv.spans().at(r.ticket);
    EXPECT_TRUE(s.terminal());
    EXPECT_EQ(s.shard, 0);
    EXPECT_EQ(s.batch, 1u);
    using obs::Phase;
    const Phase order[] = {Phase::Submit, Phase::Admit, Phase::Batch,
                           Phase::Dispatch, Phase::Execute,
                           Phase::Verify, Phase::Commit};
    Cycle prev = 0;
    for (Phase ph : order) {
        Cycle at = s.edgeAt(ph);
        ASSERT_NE(at, obs::JobSpan::noEdge)
            << "missing edge " << obs::phaseName(ph);
        EXPECT_GE(at, prev) << obs::phaseName(ph);
        prev = at;
    }
    EXPECT_EQ(s.edgeAt(Phase::Submit), Cycle(25));
    EXPECT_EQ(s.edgeAt(Phase::Commit), r.finished);
    EXPECT_EQ(s.edgeAt(Phase::Fail), obs::JobSpan::noEdge);
}

TEST(ObsSpans, RejectedJobGetsARejectEdgeAndNote)
{
    ServeConfig cfg;
    cfg.shards = 1;
    cfg.shard = smallShard(sim::EngineMode::Skip);
    Server srv(cfg);
    JobRequest dl = gemmReq(32, 1, 0);
    dl.deadline = 10; // provably unmeetable
    auto fut = srv.submit(dl);
    srv.drain();
    JobResult r = fut.get();
    ASSERT_EQ(r.status, JobStatus::Rejected);

    const obs::JobSpan &s = srv.spans().at(r.ticket);
    EXPECT_TRUE(s.terminal());
    EXPECT_NE(s.edgeAt(obs::Phase::Reject), obs::JobSpan::noEdge);
    EXPECT_EQ(s.edgeAt(obs::Phase::Admit), obs::JobSpan::noEdge);
    EXPECT_EQ(s.note, "deadline unmeetable");
    EXPECT_EQ(s.deadline, Cycle(10));
}

TEST(ObsSpans, JsonAndChromeTraceParse)
{
    ServeConfig cfg;
    cfg.shards = 2;
    cfg.shard = smallShard(sim::EngineMode::Skip);
    cfg.sched.batchMax = 2;
    Server srv(cfg);
    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(srv.submit(
            gemmReq(16, 30u + unsigned(i), Cycle(i) * 400,
                    0, std::uint32_t(i % 3))));
    srv.drain();
    for (auto &f : futs)
        f.get();

    // The span stream is versioned, schema-tagged JSON.
    std::string err;
    trace::json::Value doc;
    ASSERT_TRUE(trace::json::parse(srv.spansJson(), doc, &err)) << err;
    EXPECT_EQ(doc.find("schema")->str, "opac.serve.spans.v1");
    const trace::json::Value *spans = doc.find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_EQ(spans->array.size(), 6u);
    for (const auto &sp : spans->array) {
        const trace::json::Value *edges = sp.find("edges");
        ASSERT_NE(edges, nullptr);
        ASSERT_FALSE(edges->array.empty());
        EXPECT_EQ(edges->array.front().find("ph")->str, "submit");
    }

    // The chrome rendering is a well-formed trace with one process
    // per shard and one per tenant.
    std::ostringstream chrome;
    srv.writeSpanChromeTrace(chrome);
    trace::json::Value tr;
    ASSERT_TRUE(trace::json::parse(chrome.str(), tr, &err)) << err;
    const trace::json::Value *events = tr.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_FALSE(events->array.empty());
    std::string names;
    for (const auto &ev : events->array) {
        const trace::json::Value *ph = ev.find("ph");
        if (ph != nullptr && ph->str == "M") {
            if (const trace::json::Value *args = ev.find("args"))
                if (const auto *n = args->find("name"))
                    names += n->str + "\n";
        }
    }
    EXPECT_NE(names.find("shard0"), std::string::npos);
    EXPECT_NE(names.find("shard1"), std::string::npos);
    EXPECT_NE(names.find("tenant0"), std::string::npos);
    EXPECT_NE(names.find("tenant2"), std::string::npos);
}

// ---------------------------------------------------------------------
// Metrics exports
// ---------------------------------------------------------------------

TEST(ObsMetrics, JsonCarriesSchemaSloQuantilesAndShardGauges)
{
    ServeConfig cfg;
    cfg.shards = 2;
    cfg.shard = smallShard(sim::EngineMode::Skip);
    cfg.sched.batchMax = 2;
    Server srv(cfg);
    // All jobs arrive at once so the second wave queues behind the
    // first. Odd jobs carry a deadline that clears admission (it
    // exceeds the service estimate) but not the queueing delay, so
    // they complete late: a deadline *miss*, not a rejection.
    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 8; ++i) {
        JobRequest r = gemmReq(16, 50u + unsigned(i), 0, 0,
                               std::uint32_t(i % 2));
        if (i % 2 == 1)
            r.deadline = 6100;
        futs.push_back(srv.submit(r));
    }
    srv.drain();
    unsigned misses = 0;
    for (auto &f : futs)
        misses += f.get().missedDeadline();
    ASSERT_GE(misses, 1u);

    std::string err;
    trace::json::Value doc;
    ASSERT_TRUE(trace::json::parse(srv.metricsJson(), doc, &err))
        << err;
    EXPECT_EQ(doc.find("schema")->str, "opac.serve.metrics.v1");
    EXPECT_EQ(doc.find("shards")->number, 2.0);
    const trace::json::Value *m = doc.find("metrics");
    ASSERT_NE(m, nullptr);

    auto num = [&](const char *key) {
        const trace::json::Value *v = m->find(key);
        EXPECT_NE(v, nullptr) << key;
        return v != nullptr ? v->number : -1.0;
    };
    EXPECT_EQ(num("serve.completed"), 8.0);
    EXPECT_EQ(num("serve.deadline_missed"), double(misses));
    EXPECT_EQ(num("serve.shards.shard0.jobs")
                  + num("serve.shards.shard1.jobs"),
              8.0);
    // SLO quantiles render as objects with exact percentiles.
    const trace::json::Value *e2e = m->find("serve.e2e_pct");
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->find("count")->number, 8.0);
    EXPECT_GT(e2e->find("p50")->number, 0.0);
    EXPECT_GE(e2e->find("p99")->number, e2e->find("p50")->number);
    // Per-tenant breakdowns exist for both active tenants.
    EXPECT_EQ(num("serve.tenants.tenant0.completed"), 4.0);
    EXPECT_EQ(num("serve.tenants.tenant1.completed"), 4.0);
    // Per-kind latency tracking.
    const trace::json::Value *kind =
        m->find("serve.kinds.gemm.service_pct");
    ASSERT_NE(kind, nullptr);
    EXPECT_EQ(kind->find("count")->number, 8.0);
    // Shard occupancy gauge is a fraction of the makespan.
    EXPECT_GT(num("serve.shards.shard0.occupancy"), 0.0);
    EXPECT_LE(num("serve.shards.shard0.occupancy"), 1.0);
}

TEST(ObsMetrics, PromExpositionLabelsTenantsAndShards)
{
    ServeConfig cfg;
    cfg.shards = 2;
    cfg.shard = smallShard(sim::EngineMode::Skip);
    Server srv(cfg);
    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 4; ++i)
        futs.push_back(srv.submit(gemmReq(12, 70u + unsigned(i),
                                          Cycle(i) * 200, 0,
                                          std::uint32_t(i % 2))));
    srv.drain();
    for (auto &f : futs)
        f.get();

    const std::string prom = srv.metricsProm();
    EXPECT_NE(prom.find("# TYPE opac_serve_completed gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("opac_serve_completed 4"), std::string::npos);
    // Tenant subtrees become labels, not name segments.
    EXPECT_NE(prom.find("{tenant=\"0\"}"), std::string::npos);
    EXPECT_NE(prom.find("{shard=\"1\"}"), std::string::npos);
    // Quantiles render as summaries.
    EXPECT_NE(prom.find("# TYPE opac_serve_e2e_pct summary"),
              std::string::npos);
    EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
    EXPECT_NE(prom.find("opac_serve_e2e_pct_count 4"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(ObsFlight, RingIsBoundedAndKeepsTheNewest)
{
    obs::FlightRecorder fr(4);
    EXPECT_EQ(fr.capacity(), 4u);
    for (unsigned i = 0; i < 10; ++i)
        fr.note(Cycle(i) * 100, i + 1, obs::Phase::Execute, i, "x");
    EXPECT_EQ(fr.total(), 10u);
    std::vector<obs::FlightEvent> got = fr.recent();
    ASSERT_EQ(got.size(), 4u);
    // Oldest retained first: events 6..9 survive, in order.
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(got[i].ticket, 7u + i);
        EXPECT_EQ(got[i].at, Cycle(6 + i) * 100);
    }
}

TEST(ObsFlight, DumpJsonIsVersionedAndCarriesTheFaultPlan)
{
    obs::FlightRecorders recs(2, 8);
    recs.shard(0).note(100, 1, obs::Phase::Dispatch, 1, "gemm");
    recs.shard(1).note(200, 2, obs::Phase::Commit, 1, "");
    std::vector<std::vector<std::string>> plans = {
        {"cycle 30000: hang cell 0"}, {}};
    std::string dump =
        recs.dumpJson("test reason", 1234, 99, plans);

    std::string err;
    trace::json::Value doc;
    ASSERT_TRUE(trace::json::parse(dump, doc, &err)) << err;
    EXPECT_EQ(doc.find("schema")->str, "opac.serve.flight.v1");
    EXPECT_EQ(doc.find("reason")->str, "test reason");
    EXPECT_EQ(doc.find("cycle")->number, 1234.0);
    EXPECT_EQ(doc.find("seed")->number, 99.0);
    const trace::json::Value *shards = doc.find("shards");
    ASSERT_NE(shards, nullptr);
    ASSERT_EQ(shards->array.size(), 2u);
    const trace::json::Value &s0 = shards->array[0];
    EXPECT_EQ(s0.find("fault_plan")->array.size(), 1u);
    const trace::json::Value *evs = s0.find("events");
    ASSERT_NE(evs, nullptr);
    ASSERT_EQ(evs->array.size(), 1u);
    EXPECT_EQ(evs->array[0].find("ph")->str, "dispatch");
}

// ---------------------------------------------------------------------
// Interval sampling through the serve stack (the sampler series must
// be byte-identical between the spin and skip engines)
// ---------------------------------------------------------------------

namespace
{

std::vector<std::string>
runSampledShards(sim::EngineMode mode)
{
    ServeConfig cfg;
    cfg.shards = 2;
    cfg.shard = smallShard(mode);
    cfg.shard.statsSampleInterval = 512;
    cfg.sched.batchMax = 2;
    Server srv(cfg);
    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(srv.submit(
            gemmReq(16, 90u + unsigned(i), Cycle(i) * 500)));
    srv.drain();
    for (auto &f : futs)
        f.get();
    std::vector<std::string> out;
    for (unsigned s = 0; s < srv.numShards(); ++s)
        out.push_back(srv.shard(s).system().statsJson());
    return out;
}

} // anonymous namespace

TEST(ObsSampler, ShardSeriesByteIdenticalSpinVsSkip)
{
    std::vector<std::string> spin =
        runSampledShards(sim::EngineMode::Spin);
    std::vector<std::string> skip =
        runSampledShards(sim::EngineMode::Skip);
    ASSERT_EQ(spin.size(), skip.size());
    for (std::size_t s = 0; s < spin.size(); ++s) {
        EXPECT_FALSE(spin[s].empty());
        // The series must actually contain samples, not just stats.
        EXPECT_NE(spin[s].find("\"samples\""), std::string::npos);
        EXPECT_EQ(spin[s], skip[s])
            << "shard " << s
            << " sample series diverged between spin and skip";
    }
}
