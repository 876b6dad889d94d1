/**
 * @file
 * Reproduces table 6.3 (section 6.3): blocked LU factorization of an
 * N x N matrix (fig. 7 recursion) for N in {44, 88, 176, 352, 704},
 * P in {1, 4, 16}, Tf in {512, 2048}, tau in {2, 4}. Results in
 * multiply-adds per cycle.
 *
 * Paper values (Tf=512):
 *    tau=2:  N:    44    88   176   352   704
 *      P=1       0.48  0.66  0.85  0.95  0.96
 *      P=4       0.89  1.67  2.62  3.37  3.60
 *      P=16      1.03  2.31  4.41  7.27  8.89
 *    tau=4:
 *      P=1       0.44  0.62  0.81  0.93  0.94
 *      P=4       0.74  1.33  2.20  3.14  3.40
 *      P=16      0.74  1.38  2.50  3.89  4.63
 * Paper values (Tf=2048, tau=2):
 *      P=1       0.57  0.65  0.81  0.94  0.94
 *      P=4       0.57  1.33  2.32  3.21  3.45
 *      P=16      0.57  1.68  3.96  7.44  9.71
 * Paper values (Tf=2048, tau=4):
 *      P=1       0.53  0.62  0.77  0.91  0.91
 *      P=4       0.53  1.18  2.03  2.87  3.19
 *      P=16      0.53  1.27  2.59  4.72  6.10
 *
 * Shape claims to check: efficiency grows with N (start-up dominated
 * at small N); P=16 only pays off at large N; the FIFO size is
 * marginal at small P; at Tf=2048 the N=44 single-leaf case runs on
 * one cell only (flat across P).
 *
 * Writes BENCH_table_6_3.json: cycles and ma_per_cycle per case, the
 * input of tools/bench_diff (CI gates --quick against
 * bench/baselines/).
 */

#include <cstdio>
#include <functional>

#include "analytic/models.hh"
#include "bench_util.hh"
#include "planner/linalg_plan.hh"

using namespace opac;
using namespace opac::bench;
using namespace opac::planner;

namespace
{

struct LuResult
{
    Cycle cycles;
    double wall; //!< wall-clock seconds of the sys.run() call
};

LuResult
runCase(unsigned p, std::size_t tf, unsigned tau, std::size_t n)
{
    copro::Coprocessor sys(timingConfig(p, tf, tau));
    kernels::installStandardKernels(sys);
    LinalgPlanner plan(sys);
    MatRef a = allocMat(sys.memory(), n, n);
    // Seed the diagonal so the host-side reciprocals are finite (the
    // datapath runs in token mode, but 1/x runs on real host values).
    for (std::size_t i = 0; i < n; ++i)
        sys.memory().storeF(a.addrOf(i, i), 1.0f + float(i % 7));
    plan.lu(a);
    plan.commit();
    const double t0 = wallSeconds();
    const Cycle cycles = sys.run();
    return {cycles, wallSeconds() - t0};
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const bool quick = argFlag(argc, argv, "--quick");
    const unsigned jobs = initSimFlags(argc, argv);
    std::vector<std::size_t> sizes = {44, 88, 176, 352, 704};
    if (quick)
        sizes = {44, 88, 176};
    const unsigned cells[] = {1, 4, 16};
    const std::pair<std::size_t, unsigned> configs[] = {
        {512, 2}, {512, 4}, {2048, 2}, {2048, 4}};

    std::printf("Paper table 6.3: LU factorization (fig. 7 recursion), "
                "multiply-adds per cycle.\n\n");

    std::vector<std::function<LuResult()>> tasks;
    for (auto [tf, tau] : configs)
        for (unsigned p : cells)
            for (auto n : sizes)
                tasks.push_back([p, tf = tf, tau = tau, n] {
                    return runCase(p, tf, tau, n);
                });
    auto results = sim::sweep<LuResult>(tasks, jobs);

    BenchJsonWriter json("table_6_3");
    json.config("fp", "token");
    json.config("quick", quick ? 1 : 0);
    json.config("fast_tier", fastTierDefault() ? "on" : "off");

    std::size_t idx = 0;
    for (auto [tf, tau] : configs) {
        TextTable t(strfmt("Tf = %zu, tau = %u", tf, tau));
        std::vector<std::string> head = {"N ="};
        for (auto n : sizes)
            head.push_back(strfmt("%zu", n));
        t.header(head);
        for (unsigned p : cells) {
            std::vector<std::string> row = {strfmt("P=%u", p)};
            for (auto n : sizes) {
                const LuResult r = results[idx++];
                const double ma =
                    analytic::luMultiplyAdds(n) / double(r.cycles);
                row.push_back(strfmt("%.2f", ma));
                json.record(strfmt("P%u_Tf%zu_tau%u_N%zu", p, tf, tau, n),
                            r.cycles, 2.0 * ma, ma / p,
                            {{"ma_per_cycle", ma},
                             {"sim_rate", simRate(r.cycles, r.wall)}});
            }
            t.row(row);
        }
        std::printf("%s\n", t.render().c_str());
        std::fflush(stdout);
    }
    return 0;
}
