/**
 * @file
 * Pins the machine's statistics to committed values. Every other
 * byte-identity suite compares one engine mode or fidelity tier with
 * another, so a change that moves all of them the same way (a cycle
 * charged to the wrong bucket, a sample taken one cycle late) passes
 * there. Here each run's stats JSON — the whole tree plus the sampled
 * series at interval 64 — and its PMU readbacks are hashed and
 * compared with a hash of the reference model's output.
 *
 * The clean runs are also traced, and each event stream (cycle, kind,
 * arg, component, track and both payload words of every event) is
 * hashed into kTraceGolden: that pins the order of Retire events and
 * every per-cycle Stall event, which the counters only sum up.
 *
 * Those workloads run on zero or diagonal-only inputs, whose products
 * are exact, so they leave soft-float rounding unpinned. A seeded dense
 * LU and matrix update on FpKind::Soft are hashed into kResultGolden:
 * host memory (memoryHash) plus every cell's accumulated IEEE flags.
 *
 * After a deliberate model change, run this test: each mismatching
 * case prints its new hash as a source line for kGolden, kTraceGolden
 * or kResultGolden. The first two also write what they hashed to the
 * working directory for review: the stats JSON (golden_<case>.json) or
 * the event stream, one event per line (golden_<case>.events.txt).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "blasref/matrix.hh"
#include "common/random.hh"
#include "engine_golden.hh"
#include "planner/jobs.hh"
#include "snap/snapshot.hh"
#include "trace/json.hh"

using namespace opac;
using namespace opac::test;

namespace
{

/** The PMU registers every clean run reads back from every cell. */
const std::vector<cell::PmuReg> kPmuRegs = {
    cell::PmuReg::BusyCycles,    cell::PmuReg::IdleCycles,
    cell::PmuReg::StallSrcEmpty, cell::PmuReg::StallDstFull,
    cell::PmuReg::StallRegPending,
};

struct Golden
{
    const char *name;
    std::uint64_t hash;
};

// clang-format off
const Golden kGolden[] = {
    {"matupdate_p1_clean", 0x2b5085b9c87fa9c9ull},
    {"matupdate_p1_faulted", 0x29cf99f282ecf28full},
    {"matupdate_p4_clean", 0x4a3f37b314e2caeeull},
    {"matupdate_p4_faulted", 0xf149b8db9d0dc959ull},
    {"lu_p1_clean", 0x997343e9aa48dacbull},
    {"lu_p1_faulted", 0x39783e5473e6f187ull},
    {"lu_p4_clean", 0xf1a984fb20f73c58ull},
    {"lu_p4_faulted", 0x7b28b68f567c26ebull},
    {"trmm_p1_clean", 0x8b42611c92dec982ull},
    {"trmm_p1_faulted", 0xcb658e5d92ae50d9ull},
    {"trmm_p4_clean", 0x6c8d7be189ab4959ull},
    {"trmm_p4_faulted", 0xd8e03f9d6626b1abull},
    {"syrk_p1_clean", 0xd01558f37a47ba37ull},
    {"syrk_p1_faulted", 0x40401b60e0662a17ull},
    {"syrk_p4_clean", 0x825d5a24faed1e42ull},
    {"syrk_p4_faulted", 0x761a6b52b9b7d363ull},
    {"conv2d_p1_clean", 0x7a76674758d24c34ull},
    {"conv2d_p1_faulted", 0xb0ac1b0a2d87297aull},
    {"conv2d_p4_clean", 0x97f9c437bfc98db0ull},
    {"conv2d_p4_faulted", 0x442129a003c29a35ull},
    {"fft_p1_clean", 0x7e6e2d9d73baff9dull},
    {"fft_p1_faulted", 0x4a8e573a5dde1c7aull},
    {"fft_p4_clean", 0x40f197d01bb9104cull},
    {"fft_p4_faulted", 0x235847ae27fdae3aull},
    {"recovery_dead_cell", 0x496d0d6b6de906f6ull},
};

/** Hashes of the clean runs' traced event streams (eventsHash). */
const Golden kTraceGolden[] = {
    {"matupdate_p1", 0x386044ef56160ea1ull},
    {"matupdate_p4", 0xea7ec674b012054eull},
    {"lu_p1", 0xbaf908b271ba44e0ull},
    {"lu_p4", 0x233123ed2782a6ebull},
    {"trmm_p1", 0x9a66d9c8da79953dull},
    {"trmm_p4", 0x77de75c7fd2fd74bull},
    {"syrk_p1", 0xbd71c9ddf1a839b7ull},
    {"syrk_p4", 0xb4e9b28c84970349ull},
    {"conv2d_p1", 0x20bef1523f9dbe1eull},
    {"conv2d_p4", 0xb67f424df750127bull},
    {"fft_p1", 0x825d67c3ed026920ull},
    {"fft_p4", 0x18cc1fdb428ba6a0ull},
};

/** Hashes of the seeded dense soft-float runs: memory, then flags. */
const Golden kResultGolden[] = {
    {"lu_dense_p1", 0xfbac90058772fda1ull},
    {"lu_dense_p4", 0xc39e75ef9d2c27c0ull},
    {"matupdate_dense_p1", 0x5bbbbfb0cc5b9bb0ull},
    {"matupdate_dense_p4", 0xbf171c59ab78f9f1ull},
};
// clang-format on

/**
 * Every load the golden hashes cover. conv2d's reload pass issues
 * `fma -> sum` together with `move tpx -> reby`, so results land out
 * of issue order, and the FFT's register butterflies stall on pending
 * register writes.
 */
const Workload kGoldenLoads[] = {
    Workload::MatUpdate, Workload::Lu,     Workload::Trmm,
    Workload::Syrk,      Workload::Conv2d, Workload::Fft,
};

std::uint64_t
goldenHash(const std::string &json, const std::vector<Word> &pmu)
{
    std::uint64_t h = snap::fnv1a(json.data(), json.size());
    for (Word w : pmu)
        h = snap::fnvMix(h, w);
    return h;
}

/** Every field of every event, in stream order. */
std::uint64_t
eventsHash(const std::vector<trace::Event> &events)
{
    std::uint64_t h = snap::fnv1a(nullptr, 0);
    for (const trace::Event &e : events) {
        h = snap::fnvMix(h, e.cycle);
        h = snap::fnvMix(h, std::uint64_t(e.kind)
                                | std::uint64_t(e.arg) << 8
                                | std::uint64_t(e.comp) << 16
                                | std::uint64_t(e.track) << 32);
        h = snap::fnvMix(h, std::uint64_t(e.a) | std::uint64_t(e.b) << 32);
    }
    return h;
}

/**
 * Compare @p got with the hash committed for case @p name in @p table.
 * On a mismatch, print the replacement line and return false.
 */
template <std::size_t N>
bool
expectHash(const Golden (&table)[N], const char *table_name,
           const std::string &name, std::uint64_t got)
{
    const Golden *want = nullptr;
    for (const Golden &g : table) {
        if (name == g.name)
            want = &g;
    }
    if (!want) {
        ADD_FAILURE() << "no " << table_name << " hash for " << name;
        return false;
    }
    if (got == want->hash)
        return true;
    char line[96];
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxull},",
                  name.c_str(), (unsigned long long)got);
    ADD_FAILURE() << name << ": differs from the reference in "
                  << table_name << "; if the change is deliberate:\n"
                  << line;
    return false;
}

/** Compare a run's stats and PMU readbacks with kGolden. */
void
expectGolden(const std::string &name, const std::string &json,
             const std::vector<Word> &pmu)
{
    if (expectHash(kGolden, "kGolden", name, goldenHash(json, pmu)))
        return;
    const std::string path = "golden_" + name + ".json";
    std::ofstream(path) << json;
    ADD_FAILURE() << name << ": stats JSON written to " << path;
}

/** One named value of a stats JSON document ("stats" object). */
const trace::json::Value *
statOf(const trace::json::Value &doc, const std::string &name)
{
    const trace::json::Value *stats = doc.find("stats");
    return stats ? stats->find(name) : nullptr;
}

} // anonymous namespace

TEST(StatsGolden, WorkloadsMatchTheReferenceModel)
{
    for (Workload w : kGoldenLoads) {
        for (Shape s : kGoldenShapes) {
            for (bool faulted : {false, true}) {
                const std::string name =
                    std::string(workloadName(w)) + "_p"
                    + std::to_string(s.p)
                    + (faulted ? "_faulted" : "_clean");
                RunOut out = runWorkload(
                    w, s, sim::EngineMode::Spin, false, faulted, true,
                    faulted ? std::vector<cell::PmuReg>{} : kPmuRegs);
                expectGolden(name, out.statsJson, out.pmuWords);
            }
        }
    }
}

TEST(StatsGolden, TracedEventsMatchTheReferenceModel)
{
    for (Workload w : kGoldenLoads) {
        for (Shape s : kGoldenShapes) {
            const std::string name = std::string(workloadName(w)) + "_p"
                                     + std::to_string(s.p);
            RunOut out = runWorkload(w, s, sim::EngineMode::Spin, true);
            ASSERT_FALSE(out.events.empty()) << name;
            if (expectHash(kTraceGolden, "kTraceGolden", name,
                           eventsHash(out.events)))
                continue;
            const std::string path = "golden_" + name + ".events.txt";
            std::ofstream f(path);
            for (const trace::Event &e : out.events)
                f << e.cycle << ' ' << trace::eventKindName(e.kind) << ' '
                  << unsigned(e.arg) << ' ' << e.comp << ' ' << e.track
                  << ' ' << e.a << ' ' << e.b << '\n';
            ADD_FAILURE() << name << ": event stream written to " << path;
        }
    }
}

TEST(StatsGolden, SoftFloatResultsMatchTheReferenceModel)
{
    // perfbench's lu input: seeded random elements, made diagonally
    // dominant so the unpivoted factorization is stable.
    for (Workload w : {Workload::Lu, Workload::MatUpdate}) {
        for (Shape s : kGoldenShapes) {
            const std::string name = std::string(workloadName(w))
                                     + "_dense_p" + std::to_string(s.p);
            copro::Coprocessor sys(goldenConfig(s, sim::EngineMode::Spin));
            ASSERT_EQ(sys.config().cell.fp, cell::FpKind::Soft) << name;
            kernels::installStandardKernels(sys);
            Rng rng(1);
            auto stage = [&](std::size_t rows, std::size_t cols) {
                blasref::Matrix m(rows, cols);
                m.randomize(rng);
                if (w == Workload::Lu)
                    m.makeDiagonallyDominant();
                planner::MatRef r =
                    planner::allocMat(sys.memory(), rows, cols);
                planner::storeMat(sys.memory(), r, m);
                return r;
            };
            const std::size_t n = 24, k = 40;
            planner::LinalgPlanner plan(sys);
            if (w == Workload::Lu) {
                plan.lu(stage(n, n));
            } else {
                const planner::MatRef c = stage(n, n);
                const planner::MatRef a = stage(n, k);
                const planner::MatRef b = stage(k, n);
                plan.matUpdate(c, a, b);
            }
            plan.commit();
            sys.run();
            std::uint64_t h = memoryHash(sys);
            for (unsigned i = 0; i < sys.numCells(); ++i)
                h = snap::fnvMix(h, sys.cell(i).fpFlags());
            expectHash(kResultGolden, "kResultGolden", name, h);
        }
    }
}

TEST(StatsGolden, DeadCellStopsCounting)
{
    // The Recovery.DeadCellDegradesOntoSurvivors machine: cell 1 hangs
    // for good at cycle 2500, two retries fail, and the host retires
    // it and re-plans the three GEMMs onto cells 0, 2 and 3.
    auto run = [](sim::EngineMode mode) {
        copro::CoprocConfig cfg;
        cfg.cells = 4;
        cfg.cell.tf = 512;
        cfg.cell.interfaceDepth = 2048;
        cfg.host.tau = 2;
        cfg.watchdogCycles = 500000;
        cfg.statsSampleInterval = 64;
        cfg.engineMode = mode;
        cfg.faults = fault::parseFaultSpec("at=2500/hang/1/0");
        cfg.cell.parity = fault::ParityMode::Correct;
        cfg.host.recovery.enabled = true;
        cfg.host.recovery.timeoutCycles = 3000;
        cfg.host.recovery.retryBudget = 2;
        copro::Coprocessor sys(cfg);
        kernels::installStandardKernels(sys);
        Rng rng(7);
        planner::JobRunner jobs(sys);
        for (unsigned j = 0; j < 3; ++j) {
            blasref::Matrix c(20, 20), a(20, 12), b(12, 20);
            c.randomize(rng);
            a.randomize(rng);
            b.randomize(rng);
            planner::MatRef cr = planner::allocMat(sys.memory(), 20, 20);
            planner::MatRef ar = planner::allocMat(sys.memory(), 20, 12);
            planner::MatRef br = planner::allocMat(sys.memory(), 12, 20);
            planner::storeMat(sys.memory(), cr, c);
            planner::storeMat(sys.memory(), ar, a);
            planner::storeMat(sys.memory(), br, b);
            jobs.add("gemm" + std::to_string(j),
                     [&sys, cr, ar, br](std::uint32_t alive) {
                         planner::LinalgPlanner plan(sys, alive);
                         plan.matUpdate(cr, ar, br);
                         return plan.takeOps();
                     });
        }
        jobs.dispatch();
        sys.run();
        EXPECT_TRUE(sys.cell(1).dead());
        return sys.statsJson();
    };
    const std::string spin = run(sim::EngineMode::Spin);
    expectGolden("recovery_dead_cell", spin, {});
    EXPECT_EQ(run(sim::EngineMode::Skip), spin);

    // The dead cell's occupancy samples end where it died.
    trace::json::Value doc;
    std::string err;
    ASSERT_TRUE(trace::json::parse(spin, doc, &err)) << err;
    const auto *cycles = statOf(doc, "system.engine.cycles");
    const auto *occ = statOf(doc, "system.cell1.sum.occupancy");
    ASSERT_TRUE(cycles && occ && occ->find("count"));
    EXPECT_LT(occ->find("count")->number, cycles->number);
}
