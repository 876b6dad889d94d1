/**
 * @file
 * Ablation of the fig. 5 design choice: the paper's sequencing loads
 * B(:,k) into reby as a separate phase before computing (costing Mb
 * cycles per iteration); the overlapped variant hides the reload under
 * the last column of multiply-adds using the parallel move path.
 * Whole-column chunks are required, so both variants run at N chosen
 * to split into whole columns per cell.
 */

#include <cstdio>
#include <functional>

#include "bench_util.hh"
#include "kernels/entries.hh"
#include "kernels/matupdate.hh"
#include "planner/linalg_plan.hh"

using namespace opac;
using namespace opac::bench;
using namespace opac::planner;
using host::Region;

namespace
{

double
runFig5(unsigned p, unsigned tau, std::size_t n, std::size_t k)
{
    copro::Coprocessor sys(timingConfig(p, 2048, tau));
    kernels::installStandardKernels(sys);
    LinalgPlanner plan(sys);
    MatRef c = allocMat(sys.memory(), n, n);
    MatRef a = allocMat(sys.memory(), n, k);
    MatRef b = allocMat(sys.memory(), k, n);
    plan.matUpdate(c, a, b);
    plan.commit();
    Cycle cycles = sys.run();
    return double(n) * double(n) * double(k) / double(cycles);
}

double
runOverlap(unsigned p, unsigned tau, std::size_t n, std::size_t k)
{
    copro::Coprocessor sys(timingConfig(p, 2048, tau));
    kernels::installStandardKernels(sys);
    auto &mem = sys.memory();
    MatRef c = allocMat(mem, n, n);
    MatRef a = allocMat(mem, n, k);
    MatRef b = allocMat(mem, k, n);
    host::Host &h = sys.host();

    // Whole-column partition: cell cc owns f columns starting at c0.
    opac_assert(n % p == 0, "n must split into whole columns per cell");
    const std::size_t f = n / p;
    const std::uint32_t all = copro::allCellsMask(p);
    for (unsigned cc = 0; cc < p; ++cc) {
        h.enqueue(host::callOp(
            1u << cc, kernels::entries::matUpdateOvlAdd,
            {std::int32_t(k - 1), std::int32_t(n), std::int32_t(f),
             std::int32_t(f * n)}));
    }
    for (unsigned cc = 0; cc < p; ++cc) {
        h.enqueue(host::sendOp(
            1u << cc, Region::mat(c.addrOf(0, cc * f), n, f, c.ld)));
    }
    // First B column (broadcast), then per iteration: per-cell C rows
    // followed by the next B column.
    h.enqueue(host::sendOp(all, Region::vec(a.addrOf(0, 0), n)));
    for (std::size_t kk = 0; kk < k; ++kk) {
        for (unsigned cc = 0; cc < p; ++cc) {
            h.enqueue(host::sendOp(
                1u << cc, Region::strided(b.addrOf(kk, cc * f), f,
                                          b.ld)));
        }
        if (kk + 1 < k) {
            h.enqueue(host::sendOp(all,
                                   Region::vec(a.addrOf(0, kk + 1),
                                               n)));
        }
    }
    for (unsigned cc = 0; cc < p; ++cc) {
        h.enqueue(host::recvOp(
            cc, Region::mat(c.addrOf(0, cc * f), n, f, c.ld)));
    }
    Cycle cycles = sys.run();
    return double(n) * double(n) * double(k) / double(cycles);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::size_t k =
        std::size_t(argNumber(argc, argv, "--k", 300, 1, maxDim));
    const unsigned jobs = initSimFlags(argc, argv);
    std::printf("Fig. 5 separate-reload vs overlapped-reload matrix "
                "update (Tf = 2048, K = %zu).\n\n", k);
    TextTable t("multiply-adds per cycle");
    t.header({"P", "N", "tau", "fig. 5", "overlapped"});
    const std::pair<unsigned, std::size_t> shapes[] = {
        {1, 45}, {4, 88}, {16, 176}};
    std::vector<std::function<double()>> tasks;
    for (auto [p, n] : shapes) {
        std::size_t n_cols = n - (n % p); // whole columns per cell
        for (unsigned tau : {2u, 4u}) {
            tasks.push_back([p = p, tau, n_cols, k] {
                return runFig5(p, tau, n_cols, k);
            });
            tasks.push_back([p = p, tau, n_cols, k] {
                return runOverlap(p, tau, n_cols, k);
            });
        }
    }
    auto results = sweepValues(tasks, jobs);
    std::size_t idx = 0;
    for (auto [p, n] : shapes) {
        std::size_t n_cols = n - (n % p);
        for (unsigned tau : {2u, 4u}) {
            t.row({strfmt("%u", p), strfmt("%zu", n_cols),
                   strfmt("%u", tau),
                   strfmt("%.3f", results[idx]),
                   strfmt("%.3f", results[idx + 1])});
            idx += 2;
        }
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("The overlapped variant recovers the Mb-cycle reload "
                "per iteration, approaching Mb/(Mb+1) per cell.\n");
    return 0;
}
