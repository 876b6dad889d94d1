/**
 * @file
 * Ablation for the paper's central cost knob: the FIFO queue size Tf
 * (section 6.4 claims its influence is "quite marginal" at small P but
 * important at P = 16 with a slow host). Sweeps Tf on the matrix
 * update and the LU factorization, and also sweeps the *interface*
 * queue depth, which controls host/cell decoupling slack.
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

double
runMatUpdate(unsigned p, std::size_t tf, unsigned tau, std::size_t k,
             std::size_t interface_depth = 0)
{
    auto cfg = timingConfig(p, tf, tau);
    if (interface_depth)
        cfg.cell.interfaceDepth = interface_depth;
    copro::Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);
    LinalgPlanner plan(sys);
    std::size_t n = analytic::paperTileN(p, tf);
    MatRef c = allocMat(sys.memory(), n, n);
    MatRef a = allocMat(sys.memory(), n, k);
    MatRef b = allocMat(sys.memory(), k, n);
    plan.matUpdate(c, a, b);
    plan.commit();
    Cycle cycles = sys.run();
    return analytic::matUpdateMultiplyAdds(n, k) / double(cycles);
}

double
runLu(unsigned p, std::size_t tf, unsigned tau, std::size_t n)
{
    copro::Coprocessor sys(timingConfig(p, tf, tau));
    kernels::installStandardKernels(sys);
    LinalgPlanner plan(sys);
    MatRef a = allocMat(sys.memory(), n, n);
    for (std::size_t i = 0; i < n; ++i)
        sys.memory().storeF(a.addrOf(i, i), 2.0f);
    plan.lu(a);
    plan.commit();
    Cycle cycles = sys.run();
    return analytic::luMultiplyAdds(n) / double(cycles);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::size_t lu_n =
        std::size_t(argNumber(argc, argv, "--lun", 176, 1, maxDim));
    const unsigned jobs = initSimFlags(argc, argv);
    const std::size_t sizes[] = {128, 256, 512, 1024, 2048, 4096};
    const std::size_t depths[] = {64, 128, 256, 512, 1024, 2048};

    std::printf("FIFO-size ablation (Tf drives tile sizes everywhere; "
                "the per-experiment tile follows the paper rule).\n\n");

    // All three tables' cases run as one concurrent sweep; rendering
    // below consumes the results in the same order they were queued.
    std::vector<std::function<double()>> tasks;
    for (std::size_t tf : sizes)
        for (unsigned p : {1u, 4u, 16u})
            tasks.push_back(
                [p, tf] { return runMatUpdate(p, tf, 2, 300); });
    for (std::size_t tf : sizes)
        for (auto [p, tau] : {std::pair<unsigned, unsigned>{1, 2},
                              {4, 2}, {16, 2}, {16, 4}})
            tasks.push_back([p = p, tau = tau, tf, lu_n] {
                return runLu(p, tf, tau, lu_n);
            });
    for (std::size_t d : depths)
        tasks.push_back([d] { return runMatUpdate(4, 512, 4, 300, d); });
    auto results = sweepValues(tasks, jobs);
    std::size_t idx = 0;

    {
        TextTable t("matrix update, K = 300, tau = 2 "
                    "(MA/cycle; N grows with Tf)");
        t.header({"Tf", "P=1", "P=4", "P=16"});
        for (std::size_t tf : sizes) {
            t.row({strfmt("%zu", tf),
                   strfmt("%.3f", results[idx]),
                   strfmt("%.3f", results[idx + 1]),
                   strfmt("%.3f", results[idx + 2])});
            idx += 3;
        }
        std::printf("%s\n", t.render().c_str());
    }
    {
        TextTable t(strfmt("LU factorization, N = %zu (MA/cycle)",
                           lu_n));
        t.header({"Tf", "P=1 t=2", "P=4 t=2", "P=16 t=2", "P=16 t=4"});
        for (std::size_t tf : sizes) {
            (void)tf;
            t.row({strfmt("%zu", tf),
                   strfmt("%.3f", results[idx]),
                   strfmt("%.3f", results[idx + 1]),
                   strfmt("%.3f", results[idx + 2]),
                   strfmt("%.3f", results[idx + 3])});
            idx += 4;
        }
        std::printf("%s\n", t.render().c_str());
    }
    {
        TextTable t("interface-queue depth (decoupling slack), matrix "
                    "update P = 4, Tf = 512, K = 300, tau = 4");
        t.header({"depth", "MA/cycle"});
        for (std::size_t d : depths)
            t.row({strfmt("%zu", d), strfmt("%.3f", results[idx++])});
        std::printf("%s\n", t.render().c_str());
    }
    return 0;
}
