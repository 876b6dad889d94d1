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

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/error.hh"
#include "engine_golden.hh"
#include "isa/builder.hh"
#include "snap/snapshot.hh"
#include "trace/trace.hh"

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

TEST(EngineSkip, TracedSkipRunNeverJumpsAndMatchesSpin)
{
    // A traced cell or host hints `now`, so a traced skip run ticks
    // every round: it emits the spin-mode event stream, in the same
    // ORDER, itself, and jumps nothing.
    const Shape shapes[] = {kOneCell, {2, 256, 4}, kFourCells};
    for (Workload w : {Workload::MatUpdate, Workload::Lu}) {
        for (const Shape &s : shapes) {
            std::string what = label(workloadName(w), s);
            RunOut spin = runWorkload(w, s, EngineMode::Spin, true);
            RunOut fast = runWorkload(w, s, EngineMode::Skip, true);
            EXPECT_EQ(spin.cycles, fast.cycles) << what;
            EXPECT_EQ(fast.fastForwards, 0u) << what;
            expectSameEvents(spin.events, fast.events, what.c_str());
        }
    }
}

TEST(EngineSkip, TracedHostAloneStillTicksEveryRound)
{
    // Only the host is traced: its own hint must keep the skip loop
    // off the rounds in which it stalls on LU's pivot recurrence.
    auto run = [](EngineMode mode) {
        copro::Coprocessor sys(goldenConfig({1, 512, 4}, mode));
        kernels::installStandardKernels(sys);
        trace::Tracer tracer;
        trace::VectorSink sink;
        tracer.addSink(&sink);
        sys.host().attachTracer(&tracer);
        sys.host().enqueue(planWorkload(sys, Workload::Lu));
        RunOut out;
        out.cycles = sys.run();
        collectRun(sys, out);
        out.events = std::move(sink.events);
        return out;
    };
    const RunOut spin = run(EngineMode::Spin);
    const RunOut fast = run(EngineMode::Skip);
    EXPECT_EQ(spin.cycles, fast.cycles);
    EXPECT_EQ(fast.fastForwards, 0u);
    expectSameEvents(spin.events, fast.events, "host traced");
}

TEST(EngineSkip, FaultedRunsMatchSpin)
{
    // Injected flips, hangs and memory-latency spikes: the injector's
    // hint must stop every jump short of an injection, and the stats
    // JSON (fault counters, recovery actions, sampled series), the
    // results and the event stream must not depend on the mode. Only
    // the untraced skip runs jump; the traced ones tick every round.
    for (Workload w : {Workload::MatUpdate, Workload::Lu}) {
        for (const Shape &s : kGoldenShapes) {
            for (bool traced : {false, true}) {
                std::string what =
                    label(workloadName(w), s)
                    + (traced ? " faulted traced" : " faulted");
                RunOut spin = runWorkload(w, s, EngineMode::Spin, traced,
                                          true);
                RunOut fast = runWorkload(w, s, EngineMode::Skip, traced,
                                          true);
                EXPECT_EQ(spin.cycles, fast.cycles) << what;
                EXPECT_EQ(spin.statsJson, fast.statsJson) << what;
                EXPECT_EQ(spin.memHash, fast.memHash) << what;
                expectSameEvents(spin.events, fast.events, what.c_str());
                if (traced) {
                    EXPECT_EQ(fast.fastForwards, 0u) << what;
                } else {
                    EXPECT_GT(fast.fastForwards, 0u) << what;
                }
            }
        }
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
        // Coverage floor: windows carry more than 2/5 of all
        // cell-cycles (about 45% at P=1 and 50% at P=4). A change
        // that stops windows opening in some phase of the stream
        // falls below it.
        EXPECT_GT(5 * on.burstCycles, 2 * s.p * on.cycles) << what;
        if (s.p == kFourCells.p) {
            // Neither window executor may go dead silently: turbo runs
            // the steady chained-fma stretches, interpreted window
            // cycles warm the FP pipeline until turbo can take over.
            EXPECT_GT(on.turboCycles, 0u) << what;
            EXPECT_GT(on.burstCycles, on.turboCycles) << what;
        }
        RunOut off = runWorkload(Workload::MatUpdate, s,
                                 EngineMode::Skip, false, false, false);
        EXPECT_EQ(off.bursts, 0u) << what;
    }
}

// ---------------------------------------------------------------------
// Cell-local burst windows
// ---------------------------------------------------------------------
//
// Each cell streams its local loop in a window of its own while the
// host and the other cells keep ticking; on a host-paced bus the host
// never goes quiet. Each source that could reach into a cell
// mid-window must bound or refuse it: the tests below drive each one
// and require spin's result exactly.

TEST(LocalWindows, HostPacedRunsMatchSpinAndTierOff)
{
    for (Workload w : {Workload::Conv2dWide, Workload::MatUpdate}) {
        std::string what = label(workloadName(w), kHostPaced);
        RunOut spin = runWorkload(w, kHostPaced, EngineMode::Spin, false);
        RunOut off = runWorkload(w, kHostPaced, EngineMode::Skip, false,
                                 false, false);
        RunOut on = runWorkload(w, kHostPaced, EngineMode::Skip, false);
        EXPECT_EQ(spin.cycles, on.cycles) << what;
        EXPECT_EQ(spin.statsJson, on.statsJson) << what;
        EXPECT_EQ(spin.memHash, on.memHash) << what;
        EXPECT_EQ(off.cycles, on.cycles) << what;
        EXPECT_EQ(off.statsJson, on.statsJson) << what;
        EXPECT_EQ(off.memHash, on.memHash) << what;
        // The windows open while the host is live.
        EXPECT_GT(on.burstCycles, on.cycles / 4) << what;
    }
}

namespace
{

using Tweak = std::function<void(copro::CoprocConfig &)>;
using Edit = std::function<void(std::vector<host::HostOp> &)>;

/**
 * Run @p w at @p s with the golden configuration changed by @p tweak
 * and its host program by @p edit. A run that deadlocks (a fault or a
 * reset can strand the host) ends at the watchdog: cycles and stats
 * are compared there.
 */
RunOut
runTweaked(EngineMode mode, const Tweak &tweak, const Edit &edit = {},
           Workload w = Workload::Conv2dWide, Shape s = kHostPaced)
{
    copro::CoprocConfig cfg = goldenConfig(s, mode);
    cfg.watchdogCycles = 20000;
    tweak(cfg);
    copro::Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);
    std::vector<host::HostOp> ops = planWorkload(sys, w);
    if (edit)
        edit(ops);
    sys.host().enqueue(ops);
    RunOut out;
    try {
        sys.run();
    } catch (const DeadlockError &) {
        out.deadlocked = true;
    }
    out.cycles = sys.engine().now();
    collectRun(sys, out);
    return out;
}

/** Skip with the fast tier must reproduce spin; returns the skip run. */
RunOut
expectSpinExact(const std::string &what, const Tweak &tweak,
                const Edit &edit = {}, Workload w = Workload::Conv2dWide,
                Shape s = kHostPaced)
{
    RunOut spin = runTweaked(EngineMode::Spin, tweak, edit, w, s);
    RunOut skip = runTweaked(EngineMode::Skip, tweak, edit, w, s);
    EXPECT_EQ(spin.deadlocked, skip.deadlocked) << what;
    EXPECT_EQ(spin.cycles, skip.cycles) << what;
    EXPECT_EQ(spin.statsJson, skip.statsJson) << what;
    EXPECT_EQ(spin.memHash, skip.memHash) << what;
    return skip;
}

/**
 * When the cells of one run stream their local loops, read off the
 * event stream of a traced spin run (which a skip run reproduces up
 * to the first intrusion a test adds).
 */
struct Timeline
{
    /** Per cell: [first, last] issue cycles of each run of at least
     *  12 back-to-back multiply-adds at one pc (a local loop). */
    std::vector<std::vector<std::pair<Cycle, Cycle>>> loops;
    /** Per cell: (cycle, depth after) of every push into its tpx. */
    std::vector<std::vector<std::pair<Cycle, std::uint32_t>>> tpxPushes;
    /** Per cell: the cycle of every pop from its tpo. */
    std::vector<std::vector<Cycle>> tpoPops;
    /** The cycle each host descriptor completed, in program order. */
    std::vector<Cycle> opEnds;

    /** True when cell @p c streams a local loop over [from, to]. */
    bool
    streaming(unsigned c, Cycle from, Cycle to) const
    {
        for (const auto &[first, last] : loops[c]) {
            if (first <= from && to <= last)
                return true;
        }
        return false;
    }
};

Timeline
traceTimeline(Workload w, const Tweak &tweak, const Edit &edit = {},
              Shape s = kHostPaced)
{
    copro::CoprocConfig cfg = goldenConfig(s, EngineMode::Spin);
    tweak(cfg);
    copro::Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);
    trace::Tracer tracer;
    trace::VectorSink sink;
    tracer.addSink(&sink);
    sys.attachTracer(&tracer);
    std::vector<host::HostOp> ops = planWorkload(sys, w);
    if (edit)
        edit(ops);
    sys.host().enqueue(ops);
    sys.run();

    Timeline t;
    t.loops.resize(sys.numCells());
    t.tpxPushes.resize(sys.numCells());
    t.tpoPops.resize(sys.numCells());
    std::vector<std::uint16_t> comp, tpx, tpo;
    for (unsigned c = 0; c < sys.numCells(); ++c) {
        comp.push_back(tracer.internComponent(sys.cell(c).name()));
        tpx.push_back(tracer.internTrack(comp.back(), "tpx"));
        tpo.push_back(tracer.internTrack(comp.back(), "tpo"));
    }
    const std::uint16_t host = tracer.internComponent(sys.host().name());
    std::vector<std::pair<Cycle, Cycle>> open(sys.numCells(), {1, 0});
    std::vector<std::uint32_t> pc(sys.numCells(), 0);
    for (const trace::Event &e : sink.events) {
        if (e.comp == host && e.kind == trace::EventKind::BusEnd)
            t.opEnds.push_back(e.cycle);
        for (unsigned c = 0; c < sys.numCells(); ++c) {
            if (e.comp != comp[c])
                continue;
            if (e.kind == trace::EventKind::FifoPush && e.track == tpx[c])
                t.tpxPushes[c].push_back({e.cycle, e.a});
            if (e.kind == trace::EventKind::FifoPop && e.track == tpo[c])
                t.tpoPops[c].push_back(e.cycle);
            if (e.kind != trace::EventKind::Issue
                || e.arg != std::uint8_t(trace::OpClass::Fma))
                continue;
            auto &[first, last] = open[c];
            if (first <= last && e.cycle == last + 1 && e.a == pc[c]) {
                last = e.cycle;
                continue;
            }
            if (first <= last && last - first + 1 >= 12)
                t.loops[c].push_back(open[c]);
            open[c] = {e.cycle, e.cycle};
            pc[c] = e.a;
        }
    }
    return t;
}

/** Fault-spec entries for a fault of @p kind three cycles before the
 *  end of the first long local loop after cycle 2000 on each of a few
 *  cells, inside the window streaming it. */
std::string
midLoopFaults(const Timeline &t, const std::string &kind)
{
    std::string spec = "seed=1";
    for (unsigned c : {2u, 7u, 11u}) {
        for (const auto &[first, last] : t.loops[c]) {
            if (first > 2000 && last - first >= 15) {
                spec += ",at=" + std::to_string(last - 3) + "/" + kind
                        + "/" + std::to_string(c);
                if (kind == "hang")
                    spec += "/5";
                if (kind == "flip")
                    spec += "/sum/4194304"; // top mantissa bit
                break;
            }
        }
    }
    return spec;
}

} // anonymous namespace

TEST(LocalWindows, SamplerBoundaryBoundsEveryWindow)
{
    // Boundaries every 7 cycles cut nearly every window: each sample
    // (and the settle before it) must see the cells at its own cycle.
    RunOut skip = expectSpinExact(
        "sampler",
        [](copro::CoprocConfig &c) { c.statsSampleInterval = 7; }, {},
        Workload::MatUpdate);
    EXPECT_GT(skip.burstCycles, 0u);
}

TEST(LocalWindows, InjectedFaultsOnTheWindowsCellBoundIt)
{
    // No protection and no recovery: a hang, a spurious halt or a bit
    // flip lands straight in the cell, which must be at the fault's
    // own cycle when it does.
    const Timeline t =
        traceTimeline(Workload::MatUpdate, [](copro::CoprocConfig &) {});
    for (const char *kind : {"hang", "halt", "flip"}) {
        const std::string spec = midLoopFaults(t, kind);
        ASSERT_NE(spec, "seed=1") << kind;
        RunOut skip = expectSpinExact(
            spec,
            [&](copro::CoprocConfig &c) {
                c.faults = fault::parseFaultSpec(spec);
            },
            {}, Workload::MatUpdate);
        EXPECT_GT(skip.burstCycles, 0u) << spec;
    }
}

TEST(LocalWindows, QueuedResetRefusesWindows)
{
    // A Reset pulses a cell's reset line the cycle the host reaches
    // it, so while one is queued no cell may run ahead. Each reset is
    // placed after a descriptor that completes while its cell streams
    // a local loop; it strands the cell's kernel, and the run ends at
    // the watchdog.
    const Timeline t =
        traceTimeline(Workload::MatUpdate, [](copro::CoprocConfig &) {});
    std::vector<std::pair<std::size_t, unsigned>> resets;
    for (unsigned c : {3u, 9u}) {
        for (std::size_t i = 0; i < t.opEnds.size(); ++i) {
            if (t.opEnds[i] > 2000
                && t.streaming(c, t.opEnds[i], t.opEnds[i] + 8)) {
                resets.push_back({i + 1, c});
                break;
            }
        }
    }
    ASSERT_EQ(resets.size(), 2u);
    RunOut skip = expectSpinExact(
        "reset", [](copro::CoprocConfig &) {},
        [&](std::vector<host::HostOp> &ops) {
            // Back to front, so earlier positions stay put.
            for (auto it = resets.rbegin(); it != resets.rend(); ++it)
                ops.insert(ops.begin() + std::ptrdiff_t(it->first),
                           host::resetOp(1u << it->second));
        },
        Workload::MatUpdate);
    EXPECT_TRUE(skip.deadlocked);
}

TEST(LocalWindows, ArmedBusFaultOnAProtectedLinkRefusesWindows)
{
    // With parity on, a dropped or duplicated transfer faults the
    // receiving cell at the host's push. At P=4 the next broadcast
    // reaches the cells while they still stream the previous column
    // update; each cell's fault is armed just after one broadcast word
    // and consumed by the next, twelve or more cycles into its loop.
    const Shape shape = {4, 512, 4};
    auto protect = [](copro::CoprocConfig &c) {
        c.cell.parity = fault::ParityMode::Detect;
        c.statsSampleInterval = 0;
    };
    const Timeline t = traceTimeline(Workload::MatUpdate, protect, {},
                                     shape);
    for (const char *kind : {"drop", "dup"}) {
        std::string spec = "seed=1";
        for (unsigned c = 0; c < shape.p; ++c) {
            const auto &pushes = t.tpxPushes[c];
            for (std::size_t i = 1; i < pushes.size(); ++i) {
                const Cycle prev = pushes[i - 1].first;
                const Cycle at = pushes[i].first;
                if (prev > 2000 && t.streaming(c, at - 12, at + 4)) {
                    spec += ",at=" + std::to_string(prev + 1) + "/" + kind
                            + "/" + std::to_string(c);
                    break;
                }
            }
        }
        ASSERT_NE(spec, "seed=1") << kind;
        expectSpinExact(
            spec,
            [&](copro::CoprocConfig &c) {
                protect(c);
                c.faults = fault::parseFaultSpec(spec);
            },
            {}, Workload::MatUpdate, shape);
    }
}

TEST(LocalWindows, ArmedReorderOnAProtectedQueueRefusesWindows)
{
    // A reorder armed on an empty tpx waits for the host's next two
    // pushes; with parity on, applying it faults the cell right then.
    // Each is armed before a broadcast whose second word reaches a
    // cell streaming a local loop.
    auto protect = [](copro::CoprocConfig &c) {
        c.cell.parity = fault::ParityMode::Detect;
    };
    const Timeline t = traceTimeline(Workload::MatUpdate, protect);
    std::string spec = "seed=1";
    for (unsigned c : {5u, 12u}) {
        const auto &pushes = t.tpxPushes[c];
        for (std::size_t i = 1; i < pushes.size(); ++i) {
            if (pushes[i].first > 2000 && pushes[i - 1].second == 1
                && pushes[i].second == 2
                && t.streaming(c, pushes[i - 1].first - 2,
                               pushes[i].first + 1)) {
                spec += ",at=" + std::to_string(pushes[i - 1].first - 1)
                        + "/reorder/" + std::to_string(c) + "/tpx";
                break;
            }
        }
    }
    ASSERT_NE(spec, "seed=1");
    RunOut skip = expectSpinExact(
        spec,
        [&](copro::CoprocConfig &c) {
            protect(c);
            c.faults = fault::parseFaultSpec(spec);
        },
        {}, Workload::MatUpdate);
    EXPECT_GT(skip.burstCycles, 0u);
}

TEST(LocalWindows, RecoveryOnOpensNoWindow)
{
    // With recovery on, any tpo word the host pops may trip parity and
    // reset every cell of the transaction, and the deadline may expire
    // too: no cell may run ahead, so no window opens and skip jumps
    // alone must reproduce spin. On the host-paced conv2d the cells
    // stream while the host collects finished rows, so a flipped
    // result word resets streaming cells.
    auto recover = [](copro::CoprocConfig &c, const char *spec) {
        c.faults = fault::parseFaultSpec(spec);
        c.cell.parity = fault::ParityMode::Detect;
        c.host.recovery.enabled = true;
        c.host.recovery.timeoutCycles = 3000;
        c.statsSampleInterval = 0;
    };
    auto txn = [](std::uint32_t mask) {
        return [mask](std::vector<host::HostOp> &ops) {
            ops.insert(ops.begin(), host::txnBeginOp(1, mask));
            ops.push_back(host::txnEndOp(1));
        };
    };
    // The first result word of a row, flipped while its tpo is empty
    // so the flip waits for it, trips parity when the host pops it
    // while another cell is ten cycles into a local loop.
    const Timeline t = traceTimeline(
        Workload::Conv2dWide,
        [&](copro::CoprocConfig &c) { recover(c, ""); }, txn(0xffffu));
    std::string flip;
    for (unsigned c = 0; c < kHostPaced.p && flip.empty(); ++c) {
        const std::vector<Cycle> &pops = t.tpoPops[c];
        for (std::size_t i = 1; i < pops.size() && flip.empty(); ++i) {
            if (pops[i - 1] < 2000 || pops[i - 1] + 100 > pops[i])
                continue;
            for (unsigned d = 0; d < kHostPaced.p && flip.empty(); ++d) {
                if (d != c && t.streaming(d, pops[i] - 10, pops[i] + 2))
                    flip = "seed=1,at=" + std::to_string(pops[i - 1] + 1)
                           + "/flip/" + std::to_string(c) + "/tpo/1";
            }
        }
    }
    ASSERT_FALSE(flip.empty());
    RunOut flipped = expectSpinExact(
        flip, [&](copro::CoprocConfig &c) { recover(c, flip.c_str()); },
        txn(0xffffu));
    EXPECT_EQ(flipped.bursts, 0u);
    for (const char *spec :
         {"seed=2,n=6,horizon=6000,kinds=flip+hang",
          "seed=9,n=6,horizon=6000,kinds=flip+hang"}) {
        RunOut skip = expectSpinExact(
            spec, [&](copro::CoprocConfig &c) { recover(c, spec); },
            txn(0xfu), Workload::Lu, kFourCells);
        EXPECT_EQ(skip.bursts, 0u) << spec;
    }
}

TEST(LocalWindows, TpoWordStillFallingThroughRefusesWindows)
{
    // With a three-cycle fall-through, the word the kernel sends to
    // tpo between two local loops becomes poppable two cycles into the
    // second. Only the cell's own hint announces it to the host
    // blocked on the Recv, and a cell in a window gives none, so
    // burstQuantum refuses until it has fallen through. (Probe
    // back-off keeps probes off that short gap in every shape tried,
    // so this checks exactness at a longer fall-through; it does not
    // catch the refusal's removal.)
    using namespace isa;
    ProgramBuilder b("tpo_between_loops");
    b.loopImm(8, [&] { b.mov(Src::TpX, DstSum); });
    b.mov(Src::TpX, DstRet);
    auto loop = [&](std::uint32_t n) {
        b.loopImm(n, [&] {
            b.fma(src(Src::RetR), src(Src::RegAy), src(Src::Sum),
                  DstSum);
        });
    };
    loop(32);
    b.mov(Src::Sum, DstTpO);
    loop(64);
    const isa::Program prog = b.finish();
    auto run = [&](EngineMode mode) {
        copro::CoprocConfig cfg = goldenConfig({1, 256, 2}, mode);
        cfg.cell.fifoLatency = 3;
        cfg.statsSampleInterval = 0;
        copro::Coprocessor sys(cfg);
        sys.loadMicrocode(7, prog, 0);
        const std::size_t in = sys.memory().alloc(9);
        const std::size_t out = sys.memory().alloc(1);
        for (std::size_t i = 0; i < 9; ++i)
            sys.memory().storeF(in + i, 0.5f + float(i));
        sys.host().enqueue(host::callOp(1, 7, {}));
        sys.host().enqueue(host::sendOp(1, host::Region::vec(in, 9)));
        sys.host().enqueue(host::recvOp(0, host::Region::vec(out, 1)));
        RunOut o;
        o.cycles = sys.run();
        collectRun(sys, o);
        return o;
    };
    RunOut spin = run(EngineMode::Spin);
    RunOut skip = run(EngineMode::Skip);
    EXPECT_EQ(spin.cycles, skip.cycles);
    EXPECT_EQ(spin.statsJson, skip.statsJson);
    EXPECT_GT(skip.burstCycles, 0u);
}

TEST(LocalWindows, RunUntilStopsMidWindowAndResumesByteIdentical)
{
    // Without a sampler the windows run as long as the loops. Stops
    // scattered over the run land inside some of them: the machine
    // left at each stop must continue, in place or restored into a
    // fresh one, exactly as the uninterrupted spin run.
    copro::CoprocConfig cfg = goldenConfig(kHostPaced, EngineMode::Spin);
    cfg.statsSampleInterval = 0;
    auto build = [](const copro::CoprocConfig &c) {
        auto sys = std::make_unique<copro::Coprocessor>(c);
        kernels::installStandardKernels(*sys);
        sys->host().enqueue(planWorkload(*sys, Workload::Conv2dWide));
        return sys;
    };
    auto finish = [](copro::Coprocessor &sys) {
        RunOut out;
        sys.run();
        out.cycles = sys.engine().now();
        collectRun(sys, out);
        return out;
    };
    RunOut ref = finish(*build(cfg));
    cfg.engineMode = EngineMode::Skip;
    std::uint64_t burstCycles = 0;
    for (unsigned k = 1; k < 8; ++k) {
        const Cycle stop = ref.cycles * k / 8 + 3 * k;
        const std::string what = "stop " + std::to_string(stop);
        auto a = build(cfg);
        a->runUntil(stop);
        ASSERT_EQ(a->engine().now(), stop) << what;
        snap::Snapshot snap = a->takeSnapshot();
        RunOut cont = finish(*a);
        burstCycles += cont.burstCycles;
        auto b = build(cfg);
        b->restoreSnapshot(snap);
        RunOut resumed = finish(*b);
        for (const RunOut *got : {&cont, &resumed}) {
            EXPECT_EQ(ref.cycles, got->cycles) << what;
            EXPECT_EQ(ref.statsJson, got->statsJson) << what;
            EXPECT_EQ(ref.memHash, got->memHash) << what;
        }
    }
    EXPECT_GT(burstCycles, 0u);
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
