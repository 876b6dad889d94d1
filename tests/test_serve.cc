/**
 * @file
 * Tests of the coprocessor job server (docs/SERVING.md): FIFO order
 * within a tenant, priority dispatch across tenants, admission
 * rejections, byte-identical results across engine modes with faults
 * enabled, and graceful degradation when fault injection kills shards
 * mid-traffic (completion rate drops, correctness never does).
 */

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "fault/fault.hh"
#include "serve/server.hh"
#include "trace/json.hh"

using namespace opac;
using namespace opac::serve;

namespace
{

ShardConfig
smallShard(unsigned cells = 2)
{
    ShardConfig sc;
    sc.cells = cells;
    sc.tf = 512;
    sc.memoryWords = 1 << 20;
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

} // anonymous namespace

// ---------------------------------------------------------------------
// Ordering and fairness
// ---------------------------------------------------------------------

TEST(Serve, FifoWithinTenant)
{
    ServeConfig cfg;
    cfg.shards = 1;
    cfg.shard = smallShard();
    cfg.sched.batchMax = 1;
    Server srv(cfg);

    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 5; ++i)
        futs.push_back(srv.submit(gemmReq(12, 100u + unsigned(i),
                                          Cycle(i))));
    srv.drain();

    Cycle prev = 0;
    for (int i = 0; i < 5; ++i) {
        JobResult r = futs[std::size_t(i)].get();
        EXPECT_EQ(r.status, JobStatus::Completed) << r.note;
        EXPECT_TRUE(r.correct);
        if (i > 0) {
            EXPECT_GT(r.started, prev)
                << "job " << i << " served out of order";
        }
        prev = r.started;
    }
    // Same-tenant same-priority jobs deliver in submission order.
    ASSERT_EQ(srv.results().size(), 5u);
    for (std::size_t i = 0; i < srv.results().size(); ++i)
        EXPECT_EQ(srv.results()[i].ticket, std::uint32_t(i + 1));
    EXPECT_EQ(srv.stats().counterValue("completed"), 5u);
    EXPECT_EQ(srv.stats().counterValue("incorrect"), 0u);
}

TEST(Serve, PriorityJumpsTheQueue)
{
    ServeConfig cfg;
    cfg.shards = 1;
    cfg.shard = smallShard();
    cfg.sched.batchMax = 1;
    Server srv(cfg);

    // Four low-priority tenant-0 jobs queued at time 0; one
    // high-priority tenant-1 job arrives while the first is being
    // served and must be dispatched before the remaining three.
    std::vector<std::future<JobResult>> low;
    for (int i = 0; i < 4; ++i)
        low.push_back(srv.submit(gemmReq(12, 10u + unsigned(i), 0)));
    auto high = srv.submit(gemmReq(12, 99, /*arrival=*/1,
                                   /*pri=*/5, /*tenant=*/1));
    srv.drain();

    JobResult rh = high.get();
    EXPECT_EQ(rh.status, JobStatus::Completed);
    JobResult r0 = low[0].get();
    EXPECT_LT(r0.started, rh.started); // already in service
    for (int i = 1; i < 4; ++i) {
        JobResult rl = low[std::size_t(i)].get();
        EXPECT_GT(rl.started, rh.started)
            << "low-priority job " << i
            << " dispatched before the high-priority one";
    }
}

// ---------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------

TEST(Serve, AdmissionRejections)
{
    ServeConfig cfg;
    cfg.shards = 1;
    cfg.shard = smallShard();
    cfg.sched.batchMax = 1;
    cfg.sched.queueLimit = 2;
    Server srv(cfg);

    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(srv.submit(gemmReq(12, 7u + unsigned(i), 0)));

    // Provably unmeetable deadline.
    JobRequest dl = gemmReq(32, 1, 0);
    dl.deadline = 10;
    auto fdl = srv.submit(dl);

    // Malformed FFT (not a power of two).
    JobRequest bad;
    bad.kind = KernelKind::Fft;
    bad.n = 6;
    auto fbad = srv.submit(bad);

    srv.drain();

    unsigned completed = 0, rejected = 0;
    for (auto &f : futs) {
        JobResult r = f.get();
        if (r.status == JobStatus::Completed)
            ++completed;
        else if (r.status == JobStatus::Rejected) {
            ++rejected;
            EXPECT_EQ(r.note, "queue full");
        }
    }
    // The queue holds two beyond the one in service; the rest bounce.
    EXPECT_GE(completed, 2u);
    EXPECT_GE(rejected, 1u);
    EXPECT_EQ(completed + rejected, 6u);

    JobResult rdl = fdl.get();
    EXPECT_EQ(rdl.status, JobStatus::Rejected);
    EXPECT_EQ(rdl.note, "deadline unmeetable");
    JobResult rbad = fbad.get();
    EXPECT_EQ(rbad.status, JobStatus::Rejected);
    EXPECT_EQ(rbad.note, "fft size must be a power of two >= 4");
    EXPECT_EQ(srv.stats().counterValue("rejected"),
              std::uint64_t(rejected) + 2);
}

// ---------------------------------------------------------------------
// Determinism across engine modes, with faults enabled
// ---------------------------------------------------------------------

namespace
{

/** A mixed-kind multi-tenant workload; returns results by ticket. */
std::vector<JobResult>
runMixedWorkload(sim::EngineMode mode)
{
    ServeConfig cfg;
    cfg.shards = 2;
    cfg.shard = smallShard(2);
    cfg.shard.engineMode = mode;
    cfg.sched.batchMax = 2;
    // Random bit flips throughout; SECDED parity absorbs them, so
    // the service keeps completing jobs while retries tick up.
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
    futs.push_back(srv.submit(lu));
    JobRequest conv;
    conv.kind = KernelKind::Conv2d;
    conv.n = 12;
    conv.m = 16;
    conv.p = conv.q = 3;
    conv.seed = 14;
    conv.arrival = 1200;
    conv.tenant = 2;
    futs.push_back(srv.submit(conv));
    JobRequest fft;
    fft.kind = KernelKind::Fft;
    fft.n = 64;
    fft.batch = 2;
    fft.seed = 15;
    fft.arrival = 1500;
    fft.tenant = 1;
    fft.priority = 3;
    futs.push_back(srv.submit(fft));
    futs.push_back(srv.submit(gemmReq(16, 16, 9000, 0, 2)));

    srv.drain();
    std::vector<JobResult> out;
    for (auto &f : futs)
        out.push_back(f.get());
    return out;
}

} // anonymous namespace

TEST(Serve, DeterministicAcrossEngineModes)
{
    auto skip = runMixedWorkload(sim::EngineMode::Skip);
    auto spin = runMixedWorkload(sim::EngineMode::Spin);

    ASSERT_EQ(skip.size(), spin.size());
    for (std::size_t i = 0; i < skip.size(); ++i) {
        EXPECT_EQ(skip[i].status, JobStatus::Completed)
            << "job " << i << ": " << skip[i].note;
        EXPECT_TRUE(skip[i].correct) << "job " << i;
        const JobResult &o = spin[i];
        EXPECT_EQ(skip[i].status, o.status) << "job " << i;
        EXPECT_EQ(skip[i].checksum, o.checksum)
            << "job " << i << " result bits differ across engines";
        EXPECT_EQ(skip[i].started, o.started) << "job " << i;
        EXPECT_EQ(skip[i].finished, o.finished) << "job " << i;
        EXPECT_EQ(skip[i].shard, o.shard) << "job " << i;
    }
}

// ---------------------------------------------------------------------
// Degradation under shard death
// ---------------------------------------------------------------------

TEST(Serve, ShardDeathDegradesThroughputNotCorrectness)
{
    ServeConfig cfg;
    cfg.shards = 1;
    cfg.shard = smallShard(2);
    cfg.shard.retryBudget = 1;
    // Both cells hang for good mid-traffic: recovery exhausts every
    // retry, the machine dies, uncommitted jobs fail.
    cfg.faults = fault::parseFaultSpec(
        "at=30000/hang/0/0,at=30100/hang/1/0");
    cfg.sched.batchMax = 2;
    Server srv(cfg);

    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 10; ++i)
        futs.push_back(srv.submit(gemmReq(20, 40u + unsigned(i), 0)));
    srv.drain();

    unsigned completed = 0, failed = 0;
    for (auto &f : futs) {
        JobResult r = f.get();
        if (r.status == JobStatus::Completed) {
            ++completed;
            EXPECT_TRUE(r.correct)
                << "a completed job must stay bit-correct";
        } else {
            EXPECT_EQ(r.status, JobStatus::Failed);
            ++failed;
        }
    }
    EXPECT_EQ(completed + failed, 10u);
    EXPECT_GE(completed, 1u) << "the kill should land mid-traffic";
    EXPECT_GE(failed, 1u) << "a dead pool cannot complete everything";
    EXPECT_EQ(srv.aliveShards(), 0u);
    EXPECT_EQ(srv.stats().counterValue("incorrect"), 0u);
}

TEST(Serve, FailoverToSurvivingShard)
{
    ServeConfig cfg;
    cfg.shards = 2;
    cfg.shard = smallShard(2);
    cfg.shard.retryBudget = 1;
    // Kill shard 0 only; shard 1 picks up its uncommitted jobs.
    cfg.shardFaults.emplace_back(
        0u, fault::parseFaultSpec("at=30000/hang/0/0,at=30100/hang/1/0"));
    cfg.sched.batchMax = 2;
    Server srv(cfg);

    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 12; ++i)
        futs.push_back(srv.submit(gemmReq(20, 60u + unsigned(i), 0)));
    srv.drain();

    unsigned failovers = 0;
    for (auto &f : futs) {
        JobResult r = f.get();
        EXPECT_EQ(r.status, JobStatus::Completed) << r.note;
        EXPECT_TRUE(r.correct);
        failovers += r.failovers;
    }
    EXPECT_EQ(srv.aliveShards(), 1u);
    EXPECT_GE(failovers, 1u)
        << "shard 0 should die holding uncommitted work";
    EXPECT_EQ(srv.stats().counterValue("completed"), 12u);
    EXPECT_EQ(srv.stats().counterValue("failed"), 0u);
}

// ---------------------------------------------------------------------
// Flight-recorder postmortem
// ---------------------------------------------------------------------

TEST(Serve, ShardDeathDumpsAFlightPostmortem)
{
    ServeConfig cfg;
    cfg.shards = 2;
    cfg.shard = smallShard(2);
    cfg.shard.retryBudget = 1;
    cfg.obs.flightDepth = 16;
    // Kill shard 0 mid-traffic; the death must trigger a postmortem
    // carrying shard 0's recent span events and its fault plan.
    cfg.shardFaults.emplace_back(
        0u, fault::parseFaultSpec("at=30000/hang/0/0,at=30100/hang/1/0"));
    cfg.sched.batchMax = 2;
    Server srv(cfg);

    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 12; ++i)
        futs.push_back(srv.submit(gemmReq(20, 80u + unsigned(i), 0)));
    srv.drain();
    for (auto &f : futs)
        EXPECT_EQ(f.get().status, JobStatus::Completed);

    ASSERT_GE(srv.flightTriggers(), 1u)
        << "a dying shard must trigger the flight recorder";
    ASSERT_FALSE(srv.flightDumps().empty());
    EXPECT_NE(srv.flightDumps().front().first.find("shard 0 died"),
              std::string::npos)
        << srv.flightDumps().front().first;

    std::string err;
    trace::json::Value doc;
    ASSERT_TRUE(
        trace::json::parse(srv.lastFlightDump(), doc, &err)) << err;
    EXPECT_EQ(doc.find("schema")->str, "opac.serve.flight.v1");
    const trace::json::Value *shards = doc.find("shards");
    ASSERT_NE(shards, nullptr);
    ASSERT_EQ(shards->array.size(), 2u);

    // The dead shard's ring holds its last span events — the work it
    // was executing when it died — and the fault plan that killed it.
    const trace::json::Value &dead = shards->array[0];
    const trace::json::Value *events = dead.find("events");
    ASSERT_NE(events, nullptr);
    EXPECT_FALSE(events->array.empty())
        << "no span events retained for the dead shard";
    bool executed = false, died = false;
    for (const auto &ev : events->array) {
        const std::string &ph = ev.find("ph")->str;
        executed = executed || ph == "execute";
        died = died || ph == "shard_dead";
    }
    EXPECT_TRUE(executed) << "ring lost the in-flight batch events";
    EXPECT_TRUE(died) << "ring lost the death event itself";
    const trace::json::Value *plan = dead.find("fault_plan");
    ASSERT_NE(plan, nullptr);
    ASSERT_EQ(plan->array.size(), 2u) << "two targeted hangs expected";
    EXPECT_NE(plan->array[0].str.find("hang"), std::string::npos);
}
