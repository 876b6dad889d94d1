/**
 * @file
 * Shared harness for the engine suites: runs one planner workload on a
 * small machine under a chosen engine mode (optionally traced, faulted
 * or with the fast tier off) and collects everything the golden checks
 * compare — cycles, statistics JSON, the trace event stream and the
 * engine's skip/burst diagnostics.
 */

#ifndef OPAC_TESTS_ENGINE_GOLDEN_HH
#define OPAC_TESTS_ENGINE_GOLDEN_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coproc/coprocessor.hh"
#include "fault/fault.hh"
#include "host/host.hh"
#include "kernels/kernel_set.hh"
#include "common/random.hh"
#include "planner/linalg_plan.hh"
#include "planner/signal_plan.hh"
#include "trace/trace.hh"

namespace opac::test
{

enum class Workload
{
    MatUpdate,
    Lu,
    Trmm,
    Syrk,
    Conv2d,
    Fft,
    /** conv2d over 256 columns: 16 per cell at P=16, the width of
     *  perfbench's hostbound cases, so every pass is a local loop long
     *  enough to burst. */
    Conv2dWide,
};

inline constexpr Workload kAllLoads[] = {Workload::MatUpdate, Workload::Lu,
                                         Workload::Trmm, Workload::Syrk};

inline const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::MatUpdate:
        return "matupdate";
      case Workload::Lu:
        return "lu";
      case Workload::Trmm:
        return "trmm";
      case Workload::Syrk:
        return "syrk";
      case Workload::Conv2d:
        return "conv2d";
      case Workload::Fft:
        return "fft";
      case Workload::Conv2dWide:
        return "conv2d_wide";
    }
    return "?";
}

/** Machine shape of one run. */
struct Shape
{
    unsigned p;
    std::size_t tf;
    unsigned tau;
};

struct RunOut
{
    Cycle cycles = 0;
    std::string statsJson;
    std::vector<trace::Event> events;
    std::uint64_t fastForwards = 0;
    std::uint64_t skippedCycles = 0;
    std::uint64_t bursts = 0;
    /** Summed over the cells' fast-tier counters. */
    std::uint64_t burstCycles = 0;
    std::uint64_t turboCycles = 0;
    /**
     * PMU readbacks over tpi, two words per register (low half first),
     * cell-major in the order runWorkload() was asked for them.
     */
    std::vector<Word> pmuWords;
    /** memoryHash() after the run. */
    std::uint64_t memHash = 0;
    /** The run ended in a DeadlockError (only where a test allows it). */
    bool deadlocked = false;
};

/**
 * Active faults shared by every faulted run: correctable FIFO flips,
 * transient hangs and memory-latency spikes, dense enough (rate is
 * per Mcycle over the horizon) that several land inside even the
 * smallest workload here.
 */
inline constexpr const char *kFaultSpec =
    "seed=7,rate=500,horizon=20000,kinds=flip+hang+mem,bits=1";

/** The machine every run of runWorkload() uses. */
inline copro::CoprocConfig
goldenConfig(Shape s, sim::EngineMode mode, bool faulted = false,
             bool fast_tier = true)
{
    copro::CoprocConfig cfg;
    cfg.cells = s.p;
    cfg.cell.tf = s.tf;
    cfg.host.tau = s.tau;
    cfg.watchdogCycles = 500000;
    cfg.statsSampleInterval = 64;
    cfg.engineMode = mode;
    cfg.fastTier = fast_tier;
    if (faulted) {
        cfg.faults = fault::parseFaultSpec(kFaultSpec);
        cfg.cell.parity = fault::ParityMode::Correct;
    }
    return cfg;
}

/**
 * Allocate and fill workload @p w's operands in @p sys and return its
 * host program, not yet enqueued.
 */
inline std::vector<host::HostOp>
planWorkload(copro::Coprocessor &sys, Workload w)
{
    using namespace planner;

    LinalgPlanner plan(sys);
    const std::size_t n = 24, k = 40;
    switch (w) {
      case Workload::MatUpdate: {
        MatRef c = allocMat(sys.memory(), n, n);
        MatRef a = allocMat(sys.memory(), n, k);
        MatRef b = allocMat(sys.memory(), k, n);
        plan.matUpdate(c, a, b);
        break;
      }
      case Workload::Lu: {
        MatRef a = allocMat(sys.memory(), n, n);
        for (std::size_t i = 0; i < n; ++i)
            sys.memory().storeF(a.addrOf(i, i), 2.0f);
        plan.lu(a);
        break;
      }
      case Workload::Trmm: {
        MatRef u = allocMat(sys.memory(), n, n);
        MatRef b = allocMat(sys.memory(), n, 16);
        MatRef out = allocMat(sys.memory(), n, 16);
        plan.trmmLeftUpper(out, u, b);
        break;
      }
      case Workload::Syrk: {
        MatRef c = allocMat(sys.memory(), n, n);
        MatRef a = allocMat(sys.memory(), n, 16);
        plan.syrkLower(c, a);
        break;
      }
      case Workload::Conv2d:
      case Workload::Conv2dWide: {
        // A 3x3 correlation of an n-row image, stored transposed and
        // padded as the conv2d planner requires.
        const std::size_t p = 3, q = 3;
        const std::size_t m = w == Workload::Conv2d ? n : 256;
        Rng rng(11);
        MatRef img_t = allocMat(sys.memory(), m + q - 1, n + p);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < m; ++c)
                sys.memory().storeF(img_t.addrOf(c, r), rng.element());
        MatRef wr = allocMat(sys.memory(), p, q);
        for (std::size_t i = 0; i < p; ++i)
            for (std::size_t j = 0; j < q; ++j)
                sys.memory().storeF(wr.addrOf(i, j), rng.element());
        MatRef out_t = allocMat(sys.memory(), m, n);
        SignalPlanner sig(sys);
        sig.conv2d(img_t, wr, out_t, n, m);
        return sig.takeOps();
      }
      case Workload::Fft: {
        // Four 64-point transforms, one per cell at P=4.
        const std::size_t points = 64, batch = 4;
        Rng rng(13);
        const std::size_t in = sys.memory().alloc(2 * points * batch);
        for (std::size_t i = 0; i < 2 * points * batch; ++i)
            sys.memory().storeF(in + i, rng.element());
        const std::size_t fft_out = sys.memory().alloc(2 * points * batch);
        SignalPlanner sig(sys);
        sig.fft(in, fft_out, points, batch);
        return sig.takeOps();
      }
    }
    return plan.takeOps();
}

/** FNV-1a over the host memory in use: the run's results. */
inline std::uint64_t
memoryHash(copro::Coprocessor &sys)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < sys.memory().mark(); ++i)
        h = (h ^ sys.memory().load(i)) * 1099511628211ull;
    return h;
}

/** Everything but the cycle count and events of a finished run. */
inline void
collectRun(copro::Coprocessor &sys, RunOut &out)
{
    out.statsJson = sys.statsJson();
    out.memHash = memoryHash(sys);
    out.fastForwards = sys.engine().fastForwards();
    out.skippedCycles = sys.engine().skippedCycles();
    out.bursts = sys.engine().bursts();
    for (unsigned i = 0; i < sys.numCells(); ++i) {
        const stats::StatGroup &ft = sys.cell(i).fastTierStats();
        out.burstCycles += ft.counterValue("burstCycles");
        out.turboCycles += ft.counterValue("turboCycles");
    }
}

/**
 * Run workload @p w. Every cell's registers in @p pmu are read back
 * over tpi by host programs appended after the workload's own, so the
 * readbacks see the machine's final counters.
 */
inline RunOut
runWorkload(Workload w, Shape s, sim::EngineMode mode, bool traced,
            bool faulted = false, bool fast_tier = true,
            const std::vector<cell::PmuReg> &pmu = {})
{
    copro::Coprocessor sys(goldenConfig(s, mode, faulted, fast_tier));
    kernels::installStandardKernels(sys);

    trace::Tracer tracer;
    trace::VectorSink sink;
    if (traced) {
        tracer.addSink(&sink);
        sys.attachTracer(&tracer);
    }

    sys.host().enqueue(planWorkload(sys, w));

    const std::size_t pmu_words = 2 * pmu.size() * s.p;
    const std::size_t pmu_at = sys.memory().alloc(pmu_words);
    for (unsigned c = 0; c < s.p; ++c) {
        for (std::size_t i = 0; i < pmu.size(); ++i) {
            sys.host().enqueue(host::pmuReadProgram(
                c, pmu[i], pmu_at + 2 * (c * pmu.size() + i)));
        }
    }

    RunOut out;
    out.cycles = sys.run();
    for (std::size_t i = 0; i < pmu_words; ++i)
        out.pmuWords.push_back(sys.memory().load(pmu_at + i));
    collectRun(sys, out);
    out.events = std::move(sink.events);
    return out;
}

inline void
expectSameEvents(const std::vector<trace::Event> &ref,
                 const std::vector<trace::Event> &got, const char *what)
{
    ASSERT_EQ(ref.size(), got.size()) << what;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const trace::Event &a = ref[i];
        const trace::Event &b = got[i];
        ASSERT_TRUE(a.cycle == b.cycle && a.kind == b.kind &&
                    a.arg == b.arg && a.comp == b.comp &&
                    a.track == b.track && a.a == b.a && a.b == b.b)
            << what << ": event " << i << " differs (cycle "
            << a.cycle << " vs " << b.cycle << ")";
    }
}

inline std::string
label(const char *what, Shape s)
{
    return std::string(what) + " P=" + std::to_string(s.p)
           + " tf=" + std::to_string(s.tf) + " tau="
           + std::to_string(s.tau);
}

// The P=1 and P=4 shapes every spin-vs-skip property is checked at.
inline constexpr Shape kOneCell = {1, 256, 2};
inline constexpr Shape kFourCells = {4, 256, 2};
/**
 * The paper's host-bound corner (section 6): 16 cells on a bus paced
 * at tau = 4. The host stays live through most of the run while cells
 * stream their local loops, so burst windows open cell by cell.
 */
inline constexpr Shape kHostPaced = {16, 512, 4};
inline constexpr Shape kGoldenShapes[] = {kOneCell, kFourCells};
inline constexpr sim::EngineMode kModes[] = {sim::EngineMode::Spin,
                                             sim::EngineMode::Skip};

} // namespace opac::test

#endif // OPAC_TESTS_ENGINE_GOLDEN_HH
