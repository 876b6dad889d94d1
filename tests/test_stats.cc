/**
 * @file
 * The stats/PMU observability layer: stat-kind arithmetic, the state
 * clock behind time-in-state counters, hierarchical naming and lookup,
 * interval-sampling boundary behaviour, JSON round-trips, architectural
 * PMU readback over tpi, and the bench_diff regression classifier.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analytic/models.hh"
#include "common/logging.hh"
#include "coproc/coprocessor.hh"
#include "kernels/kernel_set.hh"
#include "planner/linalg_plan.hh"
#include "planner/signal_plan.hh"
#include "stats/benchcmp.hh"
#include "stats/sampler.hh"
#include "stats/stats.hh"
#include "trace/json.hh"

using namespace opac;
using namespace opac::planner;
using copro::CoprocConfig;
using copro::Coprocessor;

namespace
{

CoprocConfig
tokenConfig(unsigned cells, std::size_t tf, unsigned tau)
{
    CoprocConfig cfg;
    cfg.cells = cells;
    cfg.cell.tf = tf;
    cfg.cell.fp = cell::FpKind::Token;
    cfg.host.tau = tau;
    cfg.watchdogCycles = 500000;
    return cfg;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Stat-kind arithmetic
// ---------------------------------------------------------------------

TEST(StatMath, CounterAndWatermark)
{
    stats::Counter c;
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);

    stats::Watermark w;
    w.observe(3);
    w.observe(7);
    w.observe(5);
    EXPECT_EQ(w.value(), 7u);
}

TEST(StatMath, Distribution)
{
    stats::Distribution d;
    d.sample(2.0);
    d.sample(8.0);
    d.sample(5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 8.0);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_EQ(d.count(), 3u);
}

TEST(StateClock, StateHeldForZeroCyclesCreditsNothing)
{
    stats::Counter busy, idle;
    stats::StateClock clock;
    clock.settle(10);
    clock.enter(&idle, nullptr, 10);
    clock.enter(&busy, nullptr, 10); // idle held for no cycle
    clock.enter(&idle, nullptr, 13);
    clock.enter(&busy, nullptr, 13); // nor here
    clock.enter(&busy, nullptr, 14); // same state: no change
    clock.settle(20);
    EXPECT_EQ(busy.value(), 10u);
    EXPECT_EQ(idle.value(), 0u);
}

TEST(StateClock, SettlingTwiceAtOneCycleCreditsOnce)
{
    stats::Counter busy;
    stats::StateClock clock;
    clock.settle(0);
    clock.enter(&busy, nullptr, 0);
    clock.settle(5);
    clock.settle(5);
    EXPECT_EQ(busy.value(), 5u);
    // A PMU readback settles through its own cycle; the run's exit
    // settle at that cycle must not count it again.
    clock.settle(8);
    clock.settle(7);
    clock.settle(8);
    EXPECT_EQ(busy.value(), 8u);
}

TEST(StateClock, TwoCounterStateCreditsBoth)
{
    stats::Counter busy, stall;
    stats::StateClock clock;
    clock.settle(2);
    clock.enter(&busy, &stall, 2);
    clock.enter(&busy, nullptr, 6);
    clock.settle(9);
    EXPECT_EQ(busy.value(), 7u);
    EXPECT_EQ(stall.value(), 4u);
}

TEST(StateClock, StoppedClockCreditsNothingUntilSettled)
{
    stats::Counter busy;
    stats::StateClock clock;
    clock.enter(&busy, nullptr, 3); // a new state starts the clock
    clock.settle(5);
    EXPECT_EQ(busy.value(), 2u);
    clock.stop();
    clock.settle(40); // restarts here: the stopped span is not credited
    EXPECT_EQ(busy.value(), 2u);
    clock.settle(44);
    EXPECT_EQ(busy.value(), 6u);
}

TEST(StatMath, FormulaEvaluatesAtReadTime)
{
    stats::Counter c;
    stats::Formula f;
    f.define([&] { return double(c.value()) / 2.0; });
    EXPECT_DOUBLE_EQ(f.value(), 0.0);
    c += 10;
    EXPECT_DOUBLE_EQ(f.value(), 5.0);
}

// ---------------------------------------------------------------------
// Hierarchy: naming, lookup, reset
// ---------------------------------------------------------------------

TEST(StatHierarchy, QualifiedNamesAndLookup)
{
    stats::StatGroup root("coproc");
    stats::StatGroup cell0("cell0", &root);
    stats::Counter fma;
    stats::Watermark high;
    cell0.addCounter("fma", &fma, "chained multiply-adds");
    // Dotted leaf names (the FIFO convention) must resolve before any
    // descent into child groups.
    cell0.addWatermark("fifo.sum.highWater", &high, "");

    fma += 9;
    high.observe(17);

    EXPECT_EQ(root.counterValue("cell0.fma"), 9u);
    EXPECT_DOUBLE_EQ(root.scalarValue("cell0.fifo.sum.highWater"), 17.0);
    EXPECT_EQ(root.findChild("cell0"), &cell0);
    EXPECT_EQ(root.findChild("cell9"), nullptr);

    std::string out;
    root.dump(out);
    EXPECT_NE(out.find("coproc.cell0.fma"), std::string::npos);
    EXPECT_NE(out.find("coproc.cell0.fifo.sum.highWater"),
              std::string::npos);

    EXPECT_THROW((void)root.counterValue("cell0.nonexistent"),
                 std::logic_error);
}

TEST(StatHierarchy, ResetAllClearsSubtree)
{
    stats::StatGroup root("r");
    stats::StatGroup child("c", &root);
    stats::Counter a, b;
    root.addCounter("a", &a);
    child.addCounter("b", &b);
    a += 5;
    b += 7;
    root.resetAll();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

TEST(StatHierarchy, ForEachScalarIsDeterministic)
{
    stats::StatGroup root("r");
    stats::Counter z, a;
    root.addCounter("zeta", &z);
    root.addCounter("alpha", &a);
    std::vector<std::string> names1, names2;
    root.forEachScalar([&](const std::string &n, double) {
        names1.push_back(n);
    });
    root.forEachScalar([&](const std::string &n, double) {
        names2.push_back(n);
    });
    EXPECT_EQ(names1, names2);
    ASSERT_EQ(names1.size(), 2u);
    EXPECT_EQ(names1[0], "r.alpha"); // sorted within a group
}

// ---------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------

TEST(StatJson, RoundTripThroughParser)
{
    stats::StatGroup root("sys");
    stats::Counter c;
    stats::Distribution d;
    stats::Formula f([&] { return double(c.value()) * 0.5; });
    root.addCounter("events", &c, "raw events");
    root.addDistribution("depth", &d, "queue depth");
    root.addFormula("half", &f, "events / 2");
    c += 12;
    d.sample(3.0);
    d.sample(0.0, 3);

    trace::json::Value doc;
    std::string err;
    ASSERT_TRUE(trace::json::parse(root.json(), doc, &err)) << err;

    const auto *events = doc.find("sys.events");
    ASSERT_NE(events, nullptr);
    EXPECT_DOUBLE_EQ(events->number, 12.0);

    const auto *half = doc.find("sys.half");
    ASSERT_NE(half, nullptr);
    EXPECT_DOUBLE_EQ(half->number, 6.0);

    const auto *depth = doc.find("sys.depth");
    ASSERT_NE(depth, nullptr);
    const auto *count = depth->find("count");
    ASSERT_NE(count, nullptr);
    EXPECT_DOUBLE_EQ(count->number, 4.0);
    const auto *max = depth->find("max");
    ASSERT_NE(max, nullptr);
    EXPECT_DOUBLE_EQ(max->number, 3.0);
}

// ---------------------------------------------------------------------
// Interval sampling boundaries
// ---------------------------------------------------------------------

namespace
{

/** Ticks for a fixed number of cycles, bumping a counter. */
class CountdownComponent : public sim::Component
{
  public:
    CountdownComponent(unsigned cycles, stats::Counter &ticks)
        : sim::Component("countdown"), left(cycles), ticks(ticks)
    {}

    void
    tick(sim::Engine &engine) override
    {
        if (left > 0) {
            --left;
            ++ticks;
            engine.noteProgress();
        }
    }

    bool done() const override { return left == 0; }

  private:
    unsigned left;
    stats::Counter &ticks;
};

} // anonymous namespace

TEST(SamplerTest, IntervalOneSamplesEveryCycle)
{
    stats::StatGroup root("sys");
    stats::Counter ticks;
    root.addCounter("ticks", &ticks);
    sim::Engine eng(1000);
    CountdownComponent comp(5, ticks);
    stats::Sampler sampler("sampler", root, 1);
    eng.add(&sampler); // samplers register first: see sampler.hh
    eng.add(&comp);
    Cycle cycles = eng.run();
    sampler.snapshot(eng.now()); // the harness end-of-run snapshot
    EXPECT_EQ(cycles, 5u);
    // Cycles 0..4 during the run plus the final state at cycle 5.
    ASSERT_EQ(sampler.samples().size(), 6u);
    EXPECT_EQ(sampler.samples().front().cycle, 0u);
    EXPECT_EQ(sampler.samples().back().cycle, 5u);
    EXPECT_DOUBLE_EQ(sampler.value(0, "sys.ticks"), 0.0);
    EXPECT_DOUBLE_EQ(sampler.value(5, "sys.ticks"), 5.0);
}

TEST(SamplerTest, IntervalLongerThanRunKeepsEndpoints)
{
    stats::StatGroup root("sys");
    stats::Counter ticks;
    root.addCounter("ticks", &ticks);
    sim::Engine eng(1000);
    CountdownComponent comp(5, ticks);
    stats::Sampler sampler("sampler", root, 1000000);
    eng.add(&sampler);
    eng.add(&comp);
    eng.run();
    sampler.snapshot(eng.now());
    ASSERT_EQ(sampler.samples().size(), 2u); // cycle 0 + final state
    EXPECT_EQ(sampler.samples().front().cycle, 0u);
    EXPECT_EQ(sampler.samples().back().cycle, 5u);
    EXPECT_DOUBLE_EQ(sampler.value(1, "sys.ticks"), 5.0);
}

TEST(SamplerTest, FinalSnapshotIsIdempotent)
{
    stats::StatGroup root("sys");
    stats::Counter ticks;
    root.addCounter("ticks", &ticks);
    stats::Sampler sampler("sampler", root, 10);
    sampler.snapshot(42);
    sampler.snapshot(42);
    EXPECT_EQ(sampler.samples().size(), 1u);
}

TEST(SamplerTest, JsonHasColumnarShape)
{
    stats::StatGroup root("sys");
    stats::Counter ticks;
    root.addCounter("ticks", &ticks);
    stats::Sampler sampler("sampler", root, 10);
    sampler.snapshot(0);
    ticks += 3;
    sampler.snapshot(10);

    trace::json::Value doc;
    std::string err;
    ASSERT_TRUE(trace::json::parse(sampler.json(), doc, &err)) << err;
    const auto *names = doc.find("names");
    const auto *samples = doc.find("samples");
    ASSERT_TRUE(names && names->isArray());
    ASSERT_TRUE(samples && samples->isArray());
    ASSERT_EQ(samples->array.size(), 2u);
    // Each row is [cycle, values...].
    ASSERT_EQ(samples->array[1].array.size(), 1 + names->array.size());
    EXPECT_DOUBLE_EQ(samples->array[1].array[0].number, 10.0);
}

// ---------------------------------------------------------------------
// Whole-system integration: registry, formulas, PMU readback
// ---------------------------------------------------------------------

TEST(SystemStats, GemvMaPerCycleMatchesAnalyticModel)
{
    const std::size_t m = 256, n = 512;
    const unsigned tau = 2;
    Coprocessor sys(tokenConfig(1, 2048, tau));
    kernels::installStandardKernels(sys);
    SignalPlanner plan(sys);
    MatRef a = allocMat(sys.memory(), m, n);
    std::size_t x = sys.memory().alloc(n);
    std::size_t y = sys.memory().alloc(m);
    plan.gemv(a, x, y);
    plan.commit();
    Cycle cycles = sys.run();

    // The datapath performs exactly one multiply-add per matrix element.
    EXPECT_EQ(sys.cell(0).fmaOps(), m * n);

    // The registered formula agrees with the counters it derives from.
    double ma = sys.stats().scalarValue("maPerCycle");
    EXPECT_NEAR(ma, double(m * n) / double(cycles), 1e-12);

    // Section 4.1 host model: the run is bandwidth-bound at MAs over
    // tau times the words the host must move. Within 0.1%.
    double predicted = double(m * n)
                       / (double(tau) * double(m * n + n + 2 * m));
    EXPECT_NEAR(ma, predicted, predicted * 1e-3);
}

TEST(SystemStats, MatUpdateFmaMatchesAnalyticCount)
{
    const std::size_t n = 40, k = 100;
    Coprocessor sys(tokenConfig(1, 2048, 2));
    kernels::installStandardKernels(sys);
    LinalgPlanner plan(sys);
    MatRef c = allocMat(sys.memory(), n, n);
    MatRef a = allocMat(sys.memory(), n, k);
    MatRef b = allocMat(sys.memory(), k, n);
    plan.matUpdate(c, a, b);
    plan.commit();
    Cycle cycles = sys.run();

    double mas = analytic::matUpdateMultiplyAdds(n, k);
    EXPECT_EQ(double(sys.cell(0).fmaOps()), mas);
    EXPECT_NEAR(sys.stats().scalarValue("maPerCycle"),
                mas / double(cycles), mas / double(cycles) * 1e-3);
}

TEST(SystemStats, EngineCountsCycles)
{
    Coprocessor sys(tokenConfig(1, 512, 2));
    kernels::installStandardKernels(sys);
    LinalgPlanner plan(sys);
    const std::size_t n = 10, k = 8;
    MatRef c = allocMat(sys.memory(), n, n);
    MatRef a = allocMat(sys.memory(), n, k);
    MatRef b = allocMat(sys.memory(), k, n);
    plan.matUpdate(c, a, b);
    plan.commit();
    Cycle cycles = sys.run();
    EXPECT_EQ(sys.stats().counterValue("engine.cycles"), cycles);
}

TEST(SystemStats, SamplerTracksWholeRun)
{
    auto cfg = tokenConfig(1, 2048, 2);
    cfg.statsSampleInterval = 100;
    Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);
    LinalgPlanner plan(sys);
    const std::size_t n = 20, k = 30;
    MatRef c = allocMat(sys.memory(), n, n);
    MatRef a = allocMat(sys.memory(), n, k);
    MatRef b = allocMat(sys.memory(), k, n);
    plan.matUpdate(c, a, b);
    plan.commit();
    Cycle cycles = sys.run();

    ASSERT_NE(sys.sampler(), nullptr);
    const auto &samples = sys.sampler()->samples();
    ASSERT_GE(samples.size(), 2u);
    EXPECT_EQ(samples.front().cycle, 0u);
    EXPECT_EQ(samples.back().cycle, cycles);
    // The fma series is monotone and ends at the final counter value.
    const std::string key = "system.cell0.fma";
    double prev = -1.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        double v = sys.sampler()->value(i, key);
        EXPECT_GE(v, prev);
        prev = v;
    }
    EXPECT_DOUBLE_EQ(prev, double(sys.cell(0).fmaOps()));

    // statsJson carries both the registry and the series.
    trace::json::Value doc;
    std::string err;
    ASSERT_TRUE(trace::json::parse(sys.statsJson(), doc, &err)) << err;
    EXPECT_NE(doc.find("stats"), nullptr);
    EXPECT_NE(doc.find("samples"), nullptr);
}

TEST(SystemStats, PmuReadbackOverTpiMatchesRegistry)
{
    const std::size_t n = 20, k = 15;
    Coprocessor sys(tokenConfig(1, 2048, 2));
    kernels::installStandardKernels(sys);
    LinalgPlanner plan(sys);
    MatRef c = allocMat(sys.memory(), n, n);
    MatRef a = allocMat(sys.memory(), n, k);
    MatRef b = allocMat(sys.memory(), k, n);
    plan.matUpdate(c, a, b);
    plan.commit();
    sys.run();

    // Registers whose value cannot change while the PMU call itself
    // executes (busy/idle keep advancing, so they are excluded).
    const cell::PmuReg regs[] = {
        cell::PmuReg::Issued,        cell::PmuReg::Fma,
        cell::PmuReg::MulOnly,       cell::PmuReg::AddOnly,
        cell::PmuReg::Moves,         cell::PmuReg::Calls,
        cell::PmuReg::StallSrcEmpty, cell::PmuReg::HighWaterSum,
        cell::PmuReg::HighWaterRet,  cell::PmuReg::HighWaterReby,
        cell::PmuReg::HighWaterTpx,
    };
    std::size_t dst = sys.memory().alloc(2 * std::size(regs));
    for (std::size_t i = 0; i < std::size(regs); ++i) {
        sys.host().enqueue(
            host::pmuReadProgram(0, regs[i], dst + 2 * i));
    }
    sys.run();

    for (std::size_t i = 0; i < std::size(regs); ++i) {
        std::uint64_t lo = sys.memory().load(dst + 2 * i);
        std::uint64_t hi = sys.memory().load(dst + 2 * i + 1);
        std::uint64_t over_tpi = lo | (hi << 32);
        EXPECT_EQ(over_tpi, sys.cell(0).pmuRead(regs[i]))
            << "PMU register " << unsigned(regs[i]);
    }

    // Cross-check a few against the harness registry by name.
    EXPECT_EQ(sys.cell(0).pmuRead(cell::PmuReg::Fma),
              sys.stats().counterValue("cell0.fma"));
    EXPECT_EQ(sys.cell(0).pmuRead(cell::PmuReg::HighWaterSum),
              std::uint64_t(
                  sys.stats().scalarValue("cell0.sum.highWater")));

    // A PMU status call is not a kernel call.
    EXPECT_EQ(sys.cell(0).pmuRead(cell::PmuReg::Calls),
              sys.stats().counterValue("cell0.calls"));

    // Out-of-range registers read as zero (and warn once).
    EXPECT_EQ(sys.cell(0).pmuRead(cell::PmuReg::NumRegs), 0u);
}

TEST(SystemStats, FpuCountersMatchIssueCounters)
{
    const std::size_t n = 16, k = 10;
    Coprocessor sys(tokenConfig(1, 2048, 2));
    kernels::installStandardKernels(sys);
    LinalgPlanner plan(sys);
    MatRef c = allocMat(sys.memory(), n, n);
    MatRef a = allocMat(sys.memory(), n, k);
    MatRef b = allocMat(sys.memory(), k, n);
    plan.matUpdate(c, a, b);
    plan.commit();
    sys.run();
    // Every fma invokes the multiplier and the adder once.
    std::uint64_t fma = sys.stats().counterValue("cell0.fma");
    std::uint64_t mul_only = sys.stats().counterValue("cell0.mulOnly");
    std::uint64_t add_only = sys.stats().counterValue("cell0.addOnly");
    EXPECT_EQ(sys.stats().counterValue("cell0.fpu.muls"),
              fma + mul_only);
    EXPECT_EQ(sys.stats().counterValue("cell0.fpu.adds"),
              fma + add_only);
}

// ---------------------------------------------------------------------
// bench_diff classifier
// ---------------------------------------------------------------------

namespace
{

const char *kBaselineJson = R"({
  "bench": "demo", "git_sha": "abc1234",
  "timestamp": "2026-01-01T00:00:00Z", "build_type": "Release",
  "config": {"tau": "2"},
  "results": [
    {"name": "case_a", "cycles": 1000, "flops_per_cycle": 1.5,
     "efficiency": 0.75},
    {"name": "case_b", "cycles": 2000, "flops_per_cycle": 0.8,
     "efficiency": 0.40}
  ]
})";

} // anonymous namespace

TEST(BenchCmp, ParsesObjectAndLegacyForms)
{
    stats::BenchFile f;
    std::string err;
    ASSERT_TRUE(stats::parseBenchJson(kBaselineJson, f, &err)) << err;
    EXPECT_EQ(f.bench, "demo");
    EXPECT_EQ(f.gitSha, "abc1234");
    EXPECT_EQ(f.buildType, "Release");
    EXPECT_EQ(f.config.at("tau"), "2");
    ASSERT_EQ(f.records.size(), 2u);
    EXPECT_EQ(f.records[0].name, "case_a");
    EXPECT_DOUBLE_EQ(f.records[0].cycles, 1000.0);

    const char *legacy =
        R"([{"name": "x", "cycles": 10, "flops_per_cycle": 1.0,)"
        R"( "efficiency": 0.5}])";
    stats::BenchFile g;
    ASSERT_TRUE(stats::parseBenchJson(legacy, g, &err)) << err;
    ASSERT_EQ(g.records.size(), 1u);
    EXPECT_EQ(g.records[0].name, "x");
}

TEST(BenchCmp, DetectsTenPercentRegression)
{
    stats::BenchFile base, cur;
    std::string err;
    ASSERT_TRUE(stats::parseBenchJson(kBaselineJson, base, &err));
    ASSERT_TRUE(stats::parseBenchJson(kBaselineJson, cur, &err));
    cur.records[0].cycles = 1100.0; // +10% cycles on case_a

    stats::BenchDiff diff = stats::compareBench(base, cur, 5.0);
    ASSERT_EQ(diff.deltas.size(), 2u);
    EXPECT_TRUE(diff.anyRegression());
    EXPECT_TRUE(diff.deltas[0].regressed);
    EXPECT_NEAR(diff.deltas[0].cyclesPct, 10.0, 1e-9);
    EXPECT_FALSE(diff.deltas[1].regressed);

    // A 15% threshold tolerates it.
    EXPECT_FALSE(stats::compareBench(base, cur, 15.0).anyRegression());

    // Throughput loss regresses too, independent of cycles.
    cur.records[0].cycles = 1000.0;
    cur.records[0].flopsPerCycle = 1.2; // -20%
    EXPECT_TRUE(stats::compareBench(base, cur, 5.0).anyRegression());
}

TEST(BenchCmp, IdenticalFilesPass)
{
    stats::BenchFile base, cur;
    std::string err;
    ASSERT_TRUE(stats::parseBenchJson(kBaselineJson, base, &err));
    ASSERT_TRUE(stats::parseBenchJson(kBaselineJson, cur, &err));
    stats::BenchDiff diff = stats::compareBench(base, cur, 5.0);
    EXPECT_FALSE(diff.anyRegression());
    EXPECT_TRUE(diff.missing.empty());
    EXPECT_TRUE(diff.added.empty());
    EXPECT_FALSE(stats::renderBenchDiff(diff).empty());
}

TEST(BenchCmp, TracksMissingAndAddedCases)
{
    stats::BenchFile base, cur;
    std::string err;
    ASSERT_TRUE(stats::parseBenchJson(kBaselineJson, base, &err));
    ASSERT_TRUE(stats::parseBenchJson(kBaselineJson, cur, &err));
    cur.records.erase(cur.records.begin()); // drop case_a
    cur.records.push_back(cur.records[0]);
    cur.records.back().name = "case_new";

    stats::BenchDiff diff = stats::compareBench(base, cur, 5.0);
    ASSERT_EQ(diff.missing.size(), 1u);
    EXPECT_EQ(diff.missing[0], "case_a");
    ASSERT_EQ(diff.added.size(), 1u);
    EXPECT_EQ(diff.added[0], "case_new");
}

TEST(BenchCmp, FlagsBaselineExtrasAbsentFromCurrent)
{
    const char *with_extras = R"({
      "bench": "demo", "results": [
        {"name": "case_a", "cycles": 1000, "flops_per_cycle": 1.5,
         "efficiency": 0.75, "completion_rate": 1.0, "correct": 1.0}
      ]
    })";
    const char *without_extras = R"({
      "bench": "demo", "results": [
        {"name": "case_a", "cycles": 1000, "flops_per_cycle": 1.5,
         "efficiency": 0.75, "correct": 1.0}
      ]
    })";
    stats::BenchFile base, cur;
    std::string err;
    ASSERT_TRUE(stats::parseBenchJson(with_extras, base, &err)) << err;
    ASSERT_TRUE(stats::parseBenchJson(without_extras, cur, &err))
        << err;

    // The candidate dropped completion_rate: the baseline names a
    // gate the current record cannot answer. That must surface as a
    // schema mismatch, not slip through as "no delta".
    stats::BenchDiff diff = stats::compareBench(base, cur, 5.0);
    ASSERT_EQ(diff.missingExtras.size(), 1u);
    EXPECT_EQ(diff.missingExtras[0], "case_a.completion_rate");

    // The reverse direction (current carries more than the baseline)
    // is fine — new stats appear before baselines are refreshed.
    stats::BenchDiff rev = stats::compareBench(cur, base, 5.0);
    EXPECT_TRUE(rev.missingExtras.empty());

    // Identical extras: nothing to flag.
    stats::BenchDiff same = stats::compareBench(base, base, 5.0);
    EXPECT_TRUE(same.missingExtras.empty());
}

// ---------------------------------------------------------------------
// warn-once
// ---------------------------------------------------------------------

TEST(WarnOnce, PrintsOncePerCallsite)
{
    testing::internal::CaptureStderr();
    for (int i = 0; i < 3; ++i)
        opac_warn_once("warn-once test message %d", i);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("warn-once test message 0"), std::string::npos);
    EXPECT_EQ(err.find("warn-once test message 1"), std::string::npos);
    EXPECT_NE(err.find("suppressed"), std::string::npos);
}

// ---------------------------------------------------------------------
// Quantile — the exact-percentile SLO stat kind
// ---------------------------------------------------------------------

TEST(Quantile, NearestRankPercentilesAreExact)
{
    stats::Quantile q;
    EXPECT_EQ(q.count(), 0u);
    EXPECT_EQ(q.p50(), 0.0); // no samples yet

    // Insert 1..100 in a scrambled order; nearest-rank percentiles
    // over the retained samples must be the exact values, not bucket
    // interpolations.
    for (int i = 0; i < 100; ++i)
        q.sample(double((i * 37) % 100 + 1));
    EXPECT_EQ(q.count(), 100u);
    EXPECT_EQ(q.min(), 1.0);
    EXPECT_EQ(q.max(), 100.0);
    EXPECT_DOUBLE_EQ(q.mean(), 50.5);
    EXPECT_EQ(q.p50(), 50.0);
    EXPECT_EQ(q.p95(), 95.0);
    EXPECT_EQ(q.p99(), 99.0);
    EXPECT_EQ(q.percentile(0.0), 1.0);
    EXPECT_EQ(q.percentile(100.0), 100.0);

    // Reads don't perturb later samples (lazy sort is transparent).
    q.sample(1000.0);
    EXPECT_EQ(q.max(), 1000.0);
    EXPECT_EQ(q.count(), 101u);

    q.reset();
    EXPECT_EQ(q.count(), 0u);
    EXPECT_EQ(q.p99(), 0.0);
}

TEST(Quantile, SingleSampleAnswersEveryPercentile)
{
    stats::Quantile q;
    q.sample(42.0);
    EXPECT_EQ(q.percentile(0.0), 42.0);
    EXPECT_EQ(q.p50(), 42.0);
    EXPECT_EQ(q.p99(), 42.0);
    EXPECT_EQ(q.min(), 42.0);
    EXPECT_EQ(q.max(), 42.0);
}

TEST(Quantile, RegistersInTheStatTreeWithoutJoiningScalars)
{
    stats::StatGroup root("svc");
    stats::Quantile q;
    root.addQuantile("lat_pct", &q, "request latency percentiles");
    q.sample(10.0);
    q.sample(20.0);
    q.sample(30.0);

    // json renders the quantile as an object...
    std::string js = root.json();
    EXPECT_NE(js.find("\"svc.lat_pct\""), std::string::npos);
    EXPECT_NE(js.find("\"p50\""), std::string::npos);
    EXPECT_NE(js.find("\"count\": 3"), std::string::npos);

    // ...but forEachScalar never sees it: the sampler's columnar
    // series (and every golden stream built on it) is unchanged by
    // registering quantiles.
    bool sawQuantile = false;
    root.forEachScalar([&](const std::string &name, double) {
        sawQuantile = sawQuantile
                      || name.find("lat_pct") != std::string::npos;
    });
    EXPECT_FALSE(sawQuantile);

    unsigned quants = 0;
    root.forEachQuantile(
        [&](const std::string &name, const stats::Quantile &qq) {
            ++quants;
            EXPECT_EQ(name, "svc.lat_pct");
            EXPECT_EQ(qq.count(), 3u);
        });
    EXPECT_EQ(quants, 1u);
}
