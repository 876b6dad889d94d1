/**
 * @file
 * Resilience sweep (docs/RESILIENCE.md): fault rate x protection mode.
 *
 * Each case runs the same three-job GEMM workload on a 4-cell system
 * under a deterministic fault plan and reports whether the run
 * completed, whether every result still matches the blasref oracle,
 * and what the surviving took: retries, dead cells, and extra cycles
 * per injected fault. The unprotected rows are the control group —
 * faults land silently and the numbers show corrupted results or
 * outright deadlock — while the detect/correct rows run with the full
 * recovery stack (SECDED parity, transaction timeout, retry + replay,
 * dead-cell degradation) and are expected to complete correctly.
 *
 * A forced dead-cell case (explicit permanent hang) exercises the last
 * line of defense: the cell exhausts its retry budget, is marked dead,
 * and the remaining jobs are re-planned onto the survivors.
 *
 * --smoke cuts the matrix to the protected rows and smaller problems
 * (the CI soak leg); --faults= and --parity= are intentionally NOT
 * honored here (every case pins its own plan), but the engine-side
 * flags (--engine=, --fast-tier=) are — both modes reproduce the
 * table bit-identically, and the chosen engine is stamped into the
 * BENCH json config.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "blasref/blas3.hh"
#include "common/error.hh"
#include "common/random.hh"
#include "planner/jobs.hh"
#include "planner/linalg_plan.hh"

using namespace opac;
using namespace opac::bench;
using namespace opac::planner;

namespace
{

struct CaseResult
{
    Cycle cycles = 0;
    bool survived = false;   //!< run() returned (no deadlock)
    double completion = 0.0; //!< committed jobs / planned jobs
    bool correct = false;    //!< every output matches the oracle
    std::uint64_t injected = 0;
    std::uint64_t retries = 0;
    std::uint64_t deadCells = 0;
    std::string note;
};

struct SweepCase
{
    const char *name;
    fault::ParityMode parity;
    bool recovery;
    std::string spec;
};

CaseResult
runCase(const SweepCase &sc, bool smoke)
{
    const unsigned cells = 4;
    const std::size_t m = smoke ? 12 : 24;
    const std::size_t k = smoke ? 8 : 16;
    const std::size_t n = smoke ? 12 : 24;
    const unsigned njobs = 3;

    auto cfg = timingConfig(cells, 1024, 2, std::size_t(1) << 20);
    // Real arithmetic, so silent corruption is observable in the
    // results (the timing-only token mode would hide it).
    cfg.cell.fp = cell::FpKind::Native;
    cfg.cell.parity = sc.parity;
    cfg.faults = fault::parseFaultSpec(sc.spec);
    cfg.host.recovery.enabled = sc.recovery;
    cfg.host.recovery.timeoutCycles = 4000;
    cfg.host.recovery.retryBudget = 3;
    // An unrecoverable run should fail fast, not spin out the default
    // two-million-cycle watchdog.
    cfg.watchdogCycles = 100000;
    copro::Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);

    Rng rng(9);
    std::vector<blasref::Matrix> want(njobs);
    std::vector<MatRef> cr(njobs), ar(njobs), br(njobs);
    for (unsigned j = 0; j < njobs; ++j) {
        blasref::Matrix c(m, n), a(m, k), b(k, n);
        c.randomize(rng);
        a.randomize(rng);
        b.randomize(rng);
        want[j] = c;
        blasref::gemm(want[j], a, b);
        cr[j] = allocMat(sys.memory(), m, n);
        ar[j] = allocMat(sys.memory(), m, k);
        br[j] = allocMat(sys.memory(), k, n);
        storeMat(sys.memory(), cr[j], c);
        storeMat(sys.memory(), ar[j], a);
        storeMat(sys.memory(), br[j], b);
    }

    JobRunner jobs(sys);
    for (unsigned j = 0; j < njobs; ++j) {
        jobs.add(strfmt("gemm%u", j),
                 [&sys, c = cr[j], a = ar[j], b = br[j]](
                     std::uint32_t alive) {
                     LinalgPlanner plan(sys, alive);
                     plan.matUpdate(c, a, b);
                     return plan.takeOps();
                 });
    }
    jobs.dispatch();

    CaseResult r;
    try {
        r.cycles = sys.run();
        r.survived = true;
    } catch (const Error &e) {
        r.cycles = sys.engine().now();
        r.note = e.what();
    }
    if (sc.recovery)
        r.completion =
            double(sys.host().completedJobs().size()) / njobs;
    else
        r.completion = r.survived ? 1.0 : 0.0;
    if (r.survived) {
        bool ok = true;
        for (unsigned j = 0; j < njobs; ++j) {
            float d = loadMat(sys.memory(), cr[j]).maxAbsDiff(want[j]);
            if (std::getenv("OPAC_FAULT_SWEEP_DEBUG"))
                std::fprintf(stderr, "  job %u maxAbsDiff %g\n", j, d);
            ok = ok && d < 1e-3f;
        }
        r.correct = ok;
    }
    if (const fault::Injector *inj = sys.injector())
        r.injected = inj->injected();
    r.retries = sys.host().retries();
    r.deadCells = sys.host().deadCells();
    return r;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    initSimFlags(argc, argv);
    const bool smoke = argFlag(argc, argv, "--smoke");

    // Random plans draw from every recoverable kind; the horizon is
    // sized to the fault-free run so rates translate directly to
    // expected fault counts (~3 at "low", ~12 at "high").
    const unsigned horizon = smoke ? 2500 : 12000;
    const std::string lowSpec = strfmt(
        "seed=7,rate=%u,horizon=%u,kinds=flip+drop+hang+halt+mem",
        3000000u / horizon, horizon);
    const std::string highSpec = strfmt(
        "seed=7,rate=%u,horizon=%u,kinds=flip+drop+hang+halt+mem",
        12000000u / horizon, horizon);

    std::vector<SweepCase> sweep;
    if (!smoke) {
        sweep.push_back({"off_none", fault::ParityMode::Off, false, ""});
        sweep.push_back(
            {"off_low", fault::ParityMode::Off, false, lowSpec});
        sweep.push_back(
            {"off_high", fault::ParityMode::Off, false, highSpec});
        sweep.push_back(
            {"detect_none", fault::ParityMode::Detect, true, ""});
        sweep.push_back(
            {"detect_low", fault::ParityMode::Detect, true, lowSpec});
        sweep.push_back(
            {"detect_high", fault::ParityMode::Detect, true, highSpec});
    }
    sweep.push_back(
        {"correct_none", fault::ParityMode::Correct, true, ""});
    sweep.push_back(
        {"correct_low", fault::ParityMode::Correct, true, lowSpec});
    if (!smoke)
        sweep.push_back(
            {"correct_high", fault::ParityMode::Correct, true, highSpec});
    // The degradation case: cell 1 hangs permanently at cycle 2500,
    // exhausts the retry budget, is marked dead, and the uncommitted
    // jobs are re-planned onto the three survivors.
    sweep.push_back({"correct_deadcell", fault::ParityMode::Correct,
                     true, "at=2500/hang/1/0"});

    BenchJsonWriter json("fault_sweep");
    json.config("cells", 4);
    json.config("tf", 1024);
    json.config("tau", 2);
    json.config("fp", "native");
    json.config("jobs", 3);
    json.config("engine", sim::engineModeName(engineDefault()));
    json.config("smoke", smoke ? "yes" : "no");

    TextTable t("fault sweep: 3-job GEMM workload, 4 cells "
                "(completion and correctness vs the blasref oracle)");
    t.header({"case", "cycles", "done", "complete", "correct", "faults",
              "retries", "dead", "ovh/fault"});

    const std::size_t m = smoke ? 12 : 24;
    const std::size_t k = smoke ? 8 : 16;
    const std::size_t n = smoke ? 12 : 24;
    double flops = 3.0 * 2.0 * double(m) * double(k) * double(n);

    // Fault-free cycles per parity mode, for the overhead column.
    std::vector<std::pair<fault::ParityMode, Cycle>> base;
    for (const SweepCase &sc : sweep) {
        CaseResult r = runCase(sc, smoke);
        double overhead = 0.0;
        if (r.injected == 0) {
            base.emplace_back(sc.parity, r.cycles);
        } else {
            for (auto &[p, cy] : base)
                if (p == sc.parity && r.survived && r.cycles > cy)
                    overhead =
                        double(r.cycles - cy) / double(r.injected);
        }
        t.row({sc.name, strfmt("%llu", (unsigned long long)r.cycles),
               r.survived ? "yes" : "DEADLOCK",
               strfmt("%.2f", r.completion), r.correct ? "yes" : "NO",
               strfmt("%llu", (unsigned long long)r.injected),
               strfmt("%llu", (unsigned long long)r.retries),
               strfmt("%llu", (unsigned long long)r.deadCells),
               strfmt("%.0f", overhead)});
        json.record(sc.name, r.cycles,
                    r.survived ? flops / double(r.cycles) : 0.0,
                    r.survived ? flops / double(r.cycles) / 8.0 : 0.0,
                    {{"completion_rate", r.completion},
                     {"correct", r.correct ? 1.0 : 0.0},
                     {"faults_injected", double(r.injected)},
                     {"retries", double(r.retries)},
                     {"dead_cells", double(r.deadCells)},
                     {"overhead_per_fault", overhead}});
        if (!r.note.empty())
            std::printf("  %s: %s\n", sc.name, r.note.c_str());
    }
    std::printf("%s\n", t.render().c_str());
    std::printf(
        "Unprotected rows corrupt silently or deadlock; with SECDED "
        "parity plus transactional retry every case\ncompletes with "
        "oracle-identical results, including the forced dead-cell "
        "degradation.\n");
    return 0;
}
