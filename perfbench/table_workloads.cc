/**
 * @file
 * The table workloads — stream, hostbound and lu — built from the
 * paper's section-6 cases and run serially on one thread, one fresh
 * coprocessor per case, through the public simulator API.
 *
 * Why these three: stream keeps cells busy in long fast-tier bursts,
 * hostbound starves 16 cells on a tau-paced bus so bursts never open,
 * and lu issues many short kernel calls on bit-exact soft float, the
 * only mix where idle cycles, engine scheduling and softfloat weigh in
 * (README.md).
 *
 * Cycle counts do not depend on the seed or on the FP back-end, so
 * every case carries its golden simulated cycles and FMA count; lu's
 * factors are also checked against the blasref oracle.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "analytic/models.hh"
#include "blasref/lu.hh"
#include "common/random.hh"
#include "coproc/coprocessor.hh"
#include "kernels/kernel_set.hh"
#include "perfbench.hh"
#include "planner/linalg_plan.hh"
#include "planner/signal_plan.hh"

using namespace opac;

namespace perfbench
{

namespace
{

enum class CaseKind
{
    MatUpdate, //!< table 6.1: A(N,N) += B(N,K) C(K,N), max square tile
    Conv2d,    //!< table 6.2: 5x5 correlation of a rows x cols image
    Lu,        //!< table 6.3 / fig. 7: blocked LU of an N x N matrix
};

struct TableCase
{
    const char *name;
    CaseKind kind;
    unsigned p;
    std::size_t tf;
    unsigned tau;
    std::size_t n;  //!< LU order or image rows (unused by MatUpdate)
    std::size_t m;  //!< image cols (Conv2d only)
    std::size_t k;  //!< inner dimension (MatUpdate only)
    Cycle goldenCycles;
    std::uint64_t goldenFma;
};

// Fields: name, kind, P, Tf, tau, n, m, k, golden cycles, golden FMAs.
// The golden figures were recorded with the simulator as of this
// benchmark's introduction (the hostbound ones equal the committed
// table_6_1/table_6_2 baselines); they hold for every --seed, since
// inputs change values, never timing.
const TableCase streamFull[] = {
    {"matupdate_P1_Tf2048_tau2_K1000", CaseKind::MatUpdate,
     1, 2048, 2, 0, 0, 1000, 2124157, 2025000},
    {"matupdate_P4_Tf2048_tau2_K1000", CaseKind::MatUpdate,
     4, 2048, 2, 0, 0, 1000, 2212483, 8100000},
    {"conv2d_P1_Tf2048_tau2_512x512", CaseKind::Conv2d,
     1, 2048, 2, 512, 512, 0, 6716861, 6604800},
};
const TableCase streamSmall[] = {
    {"matupdate_P1_Tf2048_tau2_K40", CaseKind::MatUpdate,
     1, 2048, 2, 0, 0, 40, 92797, 81000},
    {"matupdate_P4_Tf2048_tau2_K40", CaseKind::MatUpdate,
     4, 2048, 2, 0, 0, 40, 118092, 324000},
    {"conv2d_P1_Tf2048_tau2_64x64", CaseKind::Conv2d,
     1, 2048, 2, 64, 64, 0, 116393, 108800},
};
const TableCase hostboundFull[] = {
    {"conv2d_P16_Tf512_tau4_256x256", CaseKind::Conv2d,
     16, 512, 4, 256, 256, 0, 600481, 1664000},
    {"conv2d_P16_Tf512_tau2_256x256", CaseKind::Conv2d,
     16, 512, 2, 256, 256, 0, 300273, 1664000},
    {"matupdate_P16_Tf512_tau4_K300", CaseKind::MatUpdate,
     16, 512, 4, 0, 0, 300, 283019, 2323200},
};
const TableCase hostboundSmall[] = {
    {"conv2d_P16_Tf512_tau4_32x256", CaseKind::Conv2d,
     16, 512, 4, 32, 256, 0, 84385, 230400},
    {"conv2d_P16_Tf512_tau2_32x256", CaseKind::Conv2d,
     16, 512, 2, 32, 256, 0, 42225, 230400},
    {"matupdate_P16_Tf512_tau4_K40", CaseKind::MatUpdate,
     16, 512, 4, 0, 0, 40, 91659, 309760},
};
const TableCase luFull[] = {
    {"lu_P4_Tf512_tau2_N176", CaseKind::Lu,
     4, 512, 2, 176, 0, 0, 732491, 1801800},
    {"lu_P16_Tf512_tau2_N176", CaseKind::Lu,
     16, 512, 2, 176, 0, 0, 371295, 1801800},
};
const TableCase luSmall[] = {
    {"lu_P4_Tf512_tau2_N44", CaseKind::Lu,
     4, 512, 2, 44, 0, 0, 22927, 27434},
    {"lu_P16_Tf512_tau2_N44", CaseKind::Lu,
     16, 512, 2, 44, 0, 0, 20695, 27434},
};

/** Max-abs distance allowed between simulated and oracle LU factors
 *  (the tolerance the job server's oracle check uses). */
constexpr float luTolerance = 2e-3f;

/** A seeded, diagonally dominant LU input and its oracle factors. */
struct LuInput
{
    blasref::Matrix a;
    blasref::Matrix factors;
};

/** What one case reports beyond pass-level sums. */
struct CaseOut
{
    Cycle cycles = 0;
    double usefulMas = 0.0;
    double setupS = 0.0;
    double runS = 0.0;
    bool ok = true;
    std::map<std::string, double> counts;
};

std::size_t
countCalls(const std::vector<host::HostOp> &ops)
{
    return std::size_t(std::count_if(
        ops.begin(), ops.end(), [](const host::HostOp &op) {
            return op.kind == host::HostOp::Kind::Call;
        }));
}

/**
 * Build, plan, run and check one case. Spans: coproc.build,
 * kernels.install, planner.plan (input staging + plan + commit),
 * sim.run and check, under the caller's case span.
 */
CaseOut
runCase(const TableCase &tc, cell::FpKind fp, const LuInput *lu,
        SpanLog &log, std::uint32_t group)
{
    CaseOut out;
    copro::CoprocConfig cfg;
    cfg.cells = tc.p;
    cfg.cell.tf = tc.tf;
    cfg.cell.fp = fp;
    cfg.host.tau = tc.tau;

    Span build(log, "coproc.build", group);
    auto sys = std::make_unique<copro::Coprocessor>(cfg);
    out.setupS += build.close();

    Span install(log, "kernels.install", group);
    kernels::installStandardKernels(*sys);
    out.setupS += install.close();

    Span plan(log, "planner.plan", group);
    std::size_t calls = 0;
    planner::MatRef luRef;
    auto &mem = sys->memory();
    switch (tc.kind) {
      case CaseKind::MatUpdate: {
        const std::size_t n = analytic::paperTileN(tc.p, tc.tf);
        planner::LinalgPlanner lp(*sys);
        planner::MatRef c = planner::allocMat(mem, n, n);
        planner::MatRef a = planner::allocMat(mem, n, tc.k);
        planner::MatRef b = planner::allocMat(mem, tc.k, n);
        lp.matUpdate(c, a, b);
        calls = countCalls(lp.pending());
        lp.commit();
        out.usefulMas = analytic::matUpdateMultiplyAdds(n, tc.k);
        break;
      }
      case CaseKind::Conv2d: {
        const std::size_t p = 5, q = 5;
        planner::SignalPlanner sp(*sys);
        // Token FP computes no values, so the zeroed allocation is the
        // input; only the geometry shapes the run.
        planner::MatRef image_t =
            planner::allocMat(mem, tc.m + q - 1, tc.n + p);
        planner::MatRef weights = planner::allocMat(mem, p, q);
        planner::MatRef out_t = planner::allocMat(mem, tc.m, tc.n);
        auto geom = sp.conv2d(image_t, weights, out_t, tc.n, tc.m);
        calls = countCalls(sp.pending());
        sp.commit();
        out.usefulMas = double(geom.usefulMas);
        break;
      }
      case CaseKind::Lu: {
        planner::LinalgPlanner lp(*sys);
        luRef = planner::allocMat(mem, tc.n, tc.n);
        planner::storeMat(mem, luRef, lu->a);
        lp.lu(luRef);
        calls = countCalls(lp.pending());
        lp.commit();
        out.usefulMas = analytic::luMultiplyAdds(tc.n);
        break;
      }
    }
    out.setupS += plan.close();

    Span run(log, "sim.run", group);
    out.cycles = sys->run();
    out.runS = run.close();

    Span check(log, "check", group);
    addMachineCounters(*sys, out.counts);
    out.counts["planner.kernel_calls"] = double(calls);
    const auto fma = std::uint64_t(out.counts["cell.fma"]);
    if (out.cycles != tc.goldenCycles || fma != tc.goldenFma) {
        std::printf("FAIL %s: %llu cycles, %llu FMAs; golden %llu, "
                    "%llu\n", tc.name, (unsigned long long)out.cycles,
                    (unsigned long long)fma,
                    (unsigned long long)tc.goldenCycles,
                    (unsigned long long)tc.goldenFma);
        out.ok = false;
    }
    if (tc.kind == CaseKind::Lu && fp != cell::FpKind::Token) {
        blasref::Matrix got = planner::loadMat(mem, luRef);
        float err = 0.0f;
        for (std::size_t j = 0; j < tc.n; ++j)
            for (std::size_t i = 0; i < tc.n; ++i) {
                const float d = std::fabs(got.at(i, j) - lu->factors.at(i, j));
                // A NaN must fail the check, so compare negated.
                if (!(d <= err))
                    err = std::isnan(d) ? INFINITY : d;
            }
        if (!(err <= luTolerance)) {
            std::printf("FAIL %s: LU factors off the oracle by %g "
                        "(max abs, tolerance %g)\n", tc.name,
                        double(err), double(luTolerance));
            out.ok = false;
        }
    }
    check.close();
    return out;
}

} // anonymous namespace

Workload
makeTableWorkload(const Options &opt)
{
    std::vector<TableCase> cases;
    cell::FpKind fp = cell::FpKind::Token;
    auto take = [&cases](const auto &tbl) {
        cases.assign(std::begin(tbl), std::end(tbl));
    };
    if (opt.workload == "stream")
        opt.small ? take(streamSmall) : take(streamFull);
    else if (opt.workload == "hostbound")
        opt.small ? take(hostboundSmall) : take(hostboundFull);
    else {
        opt.small ? take(luSmall) : take(luFull);
        fp = cell::FpKind::Soft;
    }

    // The lu input and its oracle factors depend only on the seed and
    // the matrix order; build them once, outside every timed pass.
    auto lu = std::make_shared<LuInput>();
    if (fp == cell::FpKind::Soft) {
        const std::size_t n = cases.front().n;
        Rng rng(opt.seed);
        lu->a = blasref::Matrix(n, n);
        lu->a.randomize(rng);
        lu->a.makeDiagonallyDominant();
        lu->factors = lu->a;
        blasref::luFactor(lu->factors);
    }

    Workload w;
    w.pass = [cases, fp, lu](SpanLog &log, std::uint32_t group) {
        PassResult r;
        std::map<std::string, double> sums;
        double runS = 0.0;
        Span pass(log, "bench", group);
        for (const TableCase &tc : cases) {
            CaseOut c = runCase(tc, fp, lu.get(), log, group);
            r.setupS += c.setupS;
            runS += c.runS;
            r.usefulMas += c.usefulMas;
            r.simCycles += double(c.cycles);
            r.latencies.push_back(double(c.cycles));
            for (const auto &[k, v] : c.counts)
                sums[k] += v;
            ++r.attempted;
            r.failed += c.ok ? 0 : 1;
        }
        const double passS = pass.close();
        r.simRate = r.simCycles / runS / 1e6;
        r.jobsPerS = double(cases.size()) / passS;
        r.counts = layerMetrics(sums);
        return r;
    };

    if (fp == cell::FpKind::Soft) {
        // softfloat.share: replay every case once on the Token
        // back-end (same cycles by the back-end contract) and compare
        // engine-run time with the soft-float passes.
        w.tracedExtras = [cases, lu](const std::map<std::string, double>
                                         &self_per_pass,
                                     std::uint64_t &attempted,
                                     std::uint64_t &failed) {
            double tokenRunS = 0.0;
            SpanLog off(false);
            for (const TableCase &tc : cases) {
                CaseOut c = runCase(tc, cell::FpKind::Token, lu.get(),
                                    off, 0);
                tokenRunS += c.runS;
                ++attempted;
                failed += c.ok ? 0 : 1;
            }
            auto it = self_per_pass.find("sim.run");
            const double softRunS =
                it == self_per_pass.end() ? 0.0 : it->second;
            std::map<std::string, double> m;
            m["softfloat.share"] =
                softRunS > 0.0 ? 1.0 - tokenRunS / softRunS : 0.0;
            return m;
        };
    }
    return w;
}

} // namespace perfbench
