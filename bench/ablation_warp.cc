/**
 * @file
 * Ablation for sections 3.2-3.3 / fig. 1: horizontal coprocessor array
 * versus Warp-style linear array, on a stream of independent matrix-
 * update tiles (the workload both organizations can execute).
 *
 * Expected shape: the horizontal array exploits broadcast and Tf*P of
 * aggregate tile storage, so it wins whenever the host can feed it;
 * the linear array only ever asks the host for two streams, but every
 * operand for downstream cells flows through (and consumes issue slots
 * of) upstream cells, tiles are capped at one cell's Tf, and the
 * pipeline needs several tiles to fill.
 */

#include <cstdio>
#include <functional>

#include "baseline/warp.hh"
#include "bench_util.hh"
#include "planner/linalg_plan.hh"

using namespace opac;
using namespace opac::bench;
using namespace opac::planner;

namespace
{

double
runHorizontal(unsigned p, unsigned tau, std::size_t n, std::size_t k,
              std::size_t tiles)
{
    copro::Coprocessor sys(timingConfig(p, 2048, tau));
    kernels::installStandardKernels(sys);
    LinalgPlanner plan(sys);
    for (std::size_t t = 0; t < tiles; ++t) {
        MatRef c = allocMat(sys.memory(), n, n);
        MatRef a = allocMat(sys.memory(), n, k);
        MatRef b = allocMat(sys.memory(), k, n);
        plan.matUpdate(c, a, b);
    }
    plan.commit();
    Cycle cycles = sys.run();
    return double(tiles) * double(n * n) * double(k) / double(cycles);
}

double
runWarp(unsigned p, unsigned tau, std::size_t n, std::size_t k,
        std::size_t tiles)
{
    baseline::WarpConfig cfg;
    cfg.cells = p;
    cfg.cell.fp = cell::FpKind::Token;
    cfg.cell.tpiDepth = 1024;
    cfg.host.tau = tau;
    baseline::WarpArray warp(cfg);
    warp.loadMicrocode(baseline::warpMatUpdateEntry,
                       baseline::buildWarpMatUpdate(), 5);
    auto &mem = warp.memory();
    std::size_t c_base = mem.alloc(tiles * n * n);
    std::size_t a_base = mem.alloc(tiles * n * k);
    std::size_t b_base = mem.alloc(tiles * n * k);
    double mas = baseline::planWarpMatUpdateStream(warp, n, k, tiles,
                                                   c_base, a_base,
                                                   b_base);
    Cycle cycles = warp.run();
    return mas / double(cycles);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::size_t n =
        std::size_t(argNumber(argc, argv, "--n", 32, 1, maxDim));
    const std::size_t k =
        std::size_t(argNumber(argc, argv, "--k", 64, 1, maxDim));
    const std::size_t tiles =
        std::size_t(argNumber(argc, argv, "--tiles", 24, 1, maxDim));

    const unsigned jobs = initSimFlags(argc, argv);
    std::printf("Horizontal vs linear (Warp) array: stream of %zu "
                "independent %zux%zu tiles, K = %zu.\n"
                "Values in multiply-adds per cycle.\n\n",
                tiles, n, n, k);

    const unsigned ps[] = {1u, 2u, 4u, 8u, 16u};
    std::vector<std::function<double()>> tasks;
    for (unsigned tau : {2u, 4u})
        for (unsigned p : ps) {
            tasks.push_back([p, tau, n, k, tiles] {
                return runHorizontal(p, tau, n, k, tiles);
            });
            tasks.push_back([p, tau, n, k, tiles] {
                return runWarp(p, tau, n, k, tiles);
            });
        }
    auto results = sweepValues(tasks, jobs);
    std::size_t idx = 0;
    for (unsigned tau : {2u, 4u}) {
        TextTable t(strfmt("tau = %u", tau));
        t.header({"P", "horizontal", "linear (warp)"});
        for (unsigned p : ps) {
            t.row({strfmt("%u", p),
                   strfmt("%.3f", results[idx]),
                   strfmt("%.3f", results[idx + 1])});
            idx += 2;
        }
        std::printf("%s\n", t.render().c_str());
    }
    std::printf("Shape: the horizontal array scales while host "
                "bandwidth lasts; the linear array pays tile-fit,\n"
                "forwarding and fill/drain costs, and saturates "
                "earlier — the paper's argument for the horizontal\n"
                "organization at small P (section 3.3).\n");
    return 0;
}
