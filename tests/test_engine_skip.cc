/**
 * @file
 * Golden-equivalence suite for the engine's two run loops: for every
 * workload and configuration, a skip-mode run must be bit-identical to
 * the spin-mode reference — same cycle count, same statistics JSON
 * (including the sampled time series), same trace event stream — with
 * and without active fault injection, with the superop fast tier on
 * and off. Also covers engine-mode parsing and the benches' strict
 * flag parsing. The parallel sweep runner has its own suite,
 * test_engine_parallel.cc, on the same harness (engine_golden.hh).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.hh"
#include "engine_golden.hh"

using namespace opac;
using namespace opac::test;
using sim::EngineMode;

// ---------------------------------------------------------------------
// Skip-mode golden equivalence
// ---------------------------------------------------------------------

TEST(EngineSkip, EveryWorkloadMatchesSpinExactly)
{
    const Shape shapes[] = {{1, 512, 2}, kOneCell, kFourCells,
                            {2, 512, 4}};
    for (Workload w : kAllLoads) {
        for (const Shape &s : shapes) {
            std::string what = label(workloadName(w), s);
            RunOut spin = runWorkload(w, s, EngineMode::Spin, false);
            RunOut fast = runWorkload(w, s, EngineMode::Skip, false);
            EXPECT_EQ(spin.cycles, fast.cycles) << what;
            EXPECT_EQ(spin.statsJson, fast.statsJson) << what;
            EXPECT_EQ(spin.fastForwards, 0u) << what;
            EXPECT_EQ(spin.bursts, 0u) << what;
        }
    }
}

TEST(EngineSkip, TraceStreamIsIdenticalUnderSkipping)
{
    // Cycle-major replay must reproduce the spin-mode event ORDER, not
    // just the same multiset of events.
    const Shape shapes[] = {kOneCell, {2, 256, 4}, kFourCells};
    for (Workload w : {Workload::MatUpdate, Workload::Lu}) {
        for (const Shape &s : shapes) {
            std::string what = label(workloadName(w), s);
            RunOut spin = runWorkload(w, s, EngineMode::Spin, true);
            RunOut fast = runWorkload(w, s, EngineMode::Skip, true);
            EXPECT_EQ(spin.cycles, fast.cycles) << what;
            expectSameEvents(spin.events, fast.events, what.c_str());
        }
    }
}

TEST(EngineSkip, FaultedRunsMatchSpin)
{
    // Injected flips, hangs and memory-latency spikes: the injector's
    // hint must stop every jump short of an injection, and the stats
    // JSON (fault counters, recovery actions, sampled series) and the
    // event stream must not depend on the mode.
    for (const Shape &s : kGoldenShapes) {
        std::string what = label("faulted", s);
        RunOut spin = runWorkload(Workload::MatUpdate, s,
                                  EngineMode::Spin, true, true);
        RunOut fast = runWorkload(Workload::MatUpdate, s,
                                  EngineMode::Skip, true, true);
        EXPECT_EQ(spin.cycles, fast.cycles) << what;
        EXPECT_EQ(spin.statsJson, fast.statsJson) << what;
        expectSameEvents(spin.events, fast.events, what.c_str());
    }
}

TEST(EngineSkip, SamplerSeriesIsPresentAndModeIndependent)
{
    // The periodic sampler's hint is its next boundary, so neither a
    // skip jump nor a burst window crosses a sample: the sampled
    // series is part of the byte-identical contract.
    const Shape shapes[] = {kOneCell, {2, 256, 2}, kFourCells};
    for (const Shape &s : shapes) {
        std::string what = label("lu", s);
        RunOut spin = runWorkload(Workload::Lu, s, EngineMode::Spin,
                                  false);
        ASSERT_NE(spin.statsJson.find("\"samples\""), std::string::npos)
            << what;
        RunOut fast = runWorkload(Workload::Lu, s, EngineMode::Skip,
                                  false);
        EXPECT_EQ(spin.statsJson, fast.statsJson) << what;
    }
}

TEST(EngineSkip, SkippingActuallyHappensOnStallHeavyRuns)
{
    // LU's pivot recurrence serializes a scale pass behind the FP
    // pipeline drain, quiescing the whole system for several cycles at
    // every step; if the engine never fast-forwards there, the feature
    // is dead code and this suite proves nothing. (Streaming updates
    // like matupdate keep the cell busy every cycle — those runs skip
    // nothing, by design.)
    RunOut fast = runWorkload(Workload::Lu, {1, 512, 4}, EngineMode::Skip,
                              false);
    EXPECT_GT(fast.fastForwards, 0u);
    EXPECT_GT(fast.skippedCycles, 0u);
}

TEST(EngineSkip, SkipDiagnosticsStayOutOfStatsJson)
{
    RunOut fast = runWorkload(Workload::MatUpdate, {1, 512, 4},
                              EngineMode::Skip, false);
    EXPECT_EQ(fast.statsJson.find("fastForward"), std::string::npos);
    EXPECT_EQ(fast.statsJson.find("skippedCycles"), std::string::npos);
}

// ---------------------------------------------------------------------
// Superop fast tier: on vs off byte-identity
// ---------------------------------------------------------------------
//
// The fast tier is a pure wall-clock optimization: with it on or off,
// cycles, stats JSON (sampled series included) and trace streams must
// be byte-identical in both engine modes. fastForwards/skippedCycles
// are engine diagnostics and legitimately differ — never compare them
// across tier settings.

TEST(FastTier, OnMatchesOffInEveryModeEveryWorkload)
{
    for (Workload w : kAllLoads) {
        for (const Shape &s : kGoldenShapes) {
            for (EngineMode m : kModes) {
                std::string what = label(workloadName(w), s) + " mode="
                                   + sim::engineModeName(m);
                RunOut off = runWorkload(w, s, m, false, false, false);
                RunOut on = runWorkload(w, s, m, false, false, true);
                EXPECT_EQ(off.cycles, on.cycles) << what;
                EXPECT_EQ(off.statsJson, on.statsJson) << what;
            }
        }
    }
}

TEST(FastTier, TracedRunsMatchOnVsOffInEveryMode)
{
    // With a tracer attached the tier refuses every burst (observers
    // need per-cycle event edges), but the flag must still be inert:
    // identical cycles, stats and event ORDER either way.
    for (const Shape &s : kGoldenShapes) {
        for (EngineMode m : kModes) {
            std::string what = label("traced tier", s) + " mode="
                               + sim::engineModeName(m);
            RunOut off = runWorkload(Workload::MatUpdate, s, m, true,
                                     false, false);
            RunOut on = runWorkload(Workload::MatUpdate, s, m, true,
                                    false, true);
            EXPECT_EQ(off.cycles, on.cycles) << what;
            EXPECT_EQ(off.statsJson, on.statsJson) << what;
            expectSameEvents(off.events, on.events, what.c_str());
        }
    }
}

TEST(FastTier, FaultedRunsMatchOnVsOffInEveryMode)
{
    // Active fault plans are the hard case: the injector's event
    // horizon must clamp every burst window, armed faults must refuse
    // streaming, and recovery hangs must freeze the fallback path —
    // or the faulted timeline diverges between tier settings.
    for (const Shape &s : kGoldenShapes) {
        for (EngineMode m : kModes) {
            std::string what = label("faulted tier", s) + " mode="
                               + sim::engineModeName(m);
            RunOut off = runWorkload(Workload::MatUpdate, s, m, false,
                                     true, false);
            RunOut on = runWorkload(Workload::MatUpdate, s, m, false,
                                    true, true);
            EXPECT_EQ(off.cycles, on.cycles) << what;
            EXPECT_EQ(off.statsJson, on.statsJson) << what;
        }
    }
}

TEST(FastTier, FaultedTracedRunsMatchOnVsOff)
{
    // Tracing plus faults: the tier stays refused under the tracer
    // while the fault machinery runs — stats, cycles and the full
    // event stream must be identical on vs off.
    RunOut off = runWorkload(Workload::MatUpdate, kFourCells,
                             EngineMode::Skip, true, true, false);
    RunOut on = runWorkload(Workload::MatUpdate, kFourCells,
                            EngineMode::Skip, true, true, true);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.statsJson, on.statsJson);
    expectSameEvents(off.events, on.events, "faulted traced tier");
}

TEST(FastTier, BurstsEngageOnSteadyStreamingLoops)
{
    // The tier must actually fire on its target workload (untraced
    // streaming matrix update) or the whole fast path is dead code.
    for (const Shape &s : kGoldenShapes) {
        std::string what = label("matupdate", s);
        RunOut on = runWorkload(Workload::MatUpdate, s, EngineMode::Skip,
                                false, false, true);
        EXPECT_GT(on.bursts, 0u) << what;
        if (s.p == kFourCells.p) {
            // Neither window executor may go dead silently: turbo runs
            // the steady chained-fma stretches, interpreted window
            // cycles warm the FP pipeline and let a not-yet-steady
            // cell join a shared window.
            EXPECT_GT(on.turboCycles, 0u) << what;
            EXPECT_GT(on.burstCycles, on.turboCycles) << what;
        }
        RunOut off = runWorkload(Workload::MatUpdate, s,
                                 EngineMode::Skip, false, false, false);
        EXPECT_EQ(off.bursts, 0u) << what;
    }
}

TEST(EngineModes, ParseAndNameRoundTrip)
{
    for (EngineMode m : kModes) {
        EngineMode back;
        ASSERT_TRUE(sim::parseEngineMode(sim::engineModeName(m), back));
        EXPECT_EQ(m, back);
    }
    EngineMode out;
    EXPECT_FALSE(sim::parseEngineMode("warp", out));
    EXPECT_FALSE(sim::parseEngineMode("", out));
    // The per-component sleep scheduler and the parallel cell
    // executor are gone; their names must not parse.
    EXPECT_FALSE(sim::parseEngineMode("event", out));
    EXPECT_FALSE(sim::parseEngineMode("parallel", out));
}

// ---------------------------------------------------------------------
// Bench flag parsing
// ---------------------------------------------------------------------

namespace
{

/** Run @p parse over a mutable argv built from @p args. */
template <typename Parse>
auto
withArgv(std::vector<std::string> args, Parse parse)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return parse(int(argv.size()), argv.data());
}

long long
rowsFlag(std::vector<std::string> args)
{
    return withArgv(std::move(args), [](int argc, char **argv) {
        return bench::argNumber(argc, argv, "--rows", 256, 1, 1024);
    });
}

} // anonymous namespace

TEST(BenchFlags, NumericFlagAcceptsBothForms)
{
    EXPECT_EQ(rowsFlag({"bench", "--rows", "128"}), 128);
    EXPECT_EQ(rowsFlag({"bench", "--rows=128"}), 128);
    EXPECT_EQ(rowsFlag({"bench", "--rows=1024"}), 1024);
    EXPECT_EQ(rowsFlag({"bench", "--cols=64"}), 256); // absent: fallback
    EXPECT_EQ(rowsFlag({"bench", "--rowsx=64"}), 256);
    EXPECT_EQ(withArgv({"bench", "--jobs=3"}, bench::initSimFlags), 3u);
    EXPECT_EQ(withArgv({"bench", "--jobs", "2"}, bench::initSimFlags), 2u);
}

TEST(BenchFlagsDeathTest, BadNumericValuesExitTwo)
{
    const char *bad[] = {"abc", "-4", "+4", "12x", "", "0", "1025",
                         "99999999999999999999"};
    for (const char *v : bad) {
        EXPECT_EXIT(rowsFlag({"bench", std::string("--rows=") + v}),
                    ::testing::ExitedWithCode(2), "bad --rows value")
            << "value '" << v << "'";
    }
    EXPECT_EXIT(rowsFlag({"bench", "--rows", "abc"}),
                ::testing::ExitedWithCode(2), "bad --rows value");
    EXPECT_EXIT(rowsFlag({"bench", "--rows"}),
                ::testing::ExitedWithCode(2), "bad --rows value");
    EXPECT_EXIT(withArgv({"bench", "--jobs=abc"}, bench::initSimFlags),
                ::testing::ExitedWithCode(2), "bad --jobs value");
    EXPECT_EXIT(withArgv({"bench", "--jobs=-1"}, bench::initSimFlags),
                ::testing::ExitedWithCode(2), "bad --jobs value");
}

TEST(BenchFlagsDeathTest, RemovedEngineModesExitTwo)
{
    for (const char *m : {"event", "parallel"}) {
        EXPECT_EXIT(withArgv({"bench", std::string("--engine=") + m},
                             bench::initSimFlags),
                    ::testing::ExitedWithCode(2), "bad --engine value")
            << m;
    }
}
