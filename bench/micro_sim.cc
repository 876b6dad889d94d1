/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: softfloat
 * operation rates on seeded operands, FIFO operation rates per
 * word-protection mode, end-to-end cell simulation speed (streaming,
 * out-of-order writeback and stalled), sixteen host-paced cells, and
 * snapshot-save throughput. These guard the wall-clock cost of the big
 * table sweeps and of the job server's protected queues and
 * checkpoints.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cell/cell.hh"
#include "common/random.hh"
#include "coproc/coprocessor.hh"
#include "fault/fault.hh"
#include "fifo/timed_fifo.hh"
#include "isa/builder.hh"
#include "kernels/kernel_set.hh"
#include "planner/linalg_plan.hh"
#include "softfloat/float32.hh"

using namespace opac;

namespace
{

/** Start positions in softfloatOperands(): a power of two. */
constexpr std::size_t kSoftfloatStarts = 4096;

/**
 * Operands for the softfloat rates: normal numbers of mixed sign whose
 * exponents lie within four binades of 1, as in a kernel's inner loop,
 * from a fixed seed. Cycling through them keeps the branch predictor
 * from learning one operand pair (alignment shifts, carries and
 * cancellations vary as they do in a real run). Two extra words let a
 * three-operand op start at any position.
 */
const std::vector<Word> &
softfloatOperands()
{
    static const std::vector<Word> ops = [] {
        Rng rng(0x50f7);
        std::vector<Word> v(kSoftfloatStarts + 2);
        for (Word &w : v)
            w = (Word(rng.next()) & 0x807fffffu)
                | Word(127 + rng.range(-4, 4)) << 23;
        return v;
    }();
    return ops;
}

/** Rate of @p op, reading @p Arity operands per call from a moving start. */
template <std::size_t Arity, typename Op>
void
softfloatRate(benchmark::State &state, Op op)
{
    const Word *ops = softfloatOperands().data();
    sf::Context ctx;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(op(ops + i, ctx));
        i = (i + Arity) & (kSoftfloatStarts - 1);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}

void
BM_SoftfloatAdd(benchmark::State &state)
{
    softfloatRate<2>(state, [](const Word *o, sf::Context &ctx) {
        return sf::add(o[0], o[1], ctx);
    });
}
BENCHMARK(BM_SoftfloatAdd);

void
BM_SoftfloatMul(benchmark::State &state)
{
    softfloatRate<2>(state, [](const Word *o, sf::Context &ctx) {
        return sf::mul(o[0], o[1], ctx);
    });
}
BENCHMARK(BM_SoftfloatMul);

void
BM_SoftfloatMulAdd(benchmark::State &state)
{
    softfloatRate<3>(state, [](const Word *o, sf::Context &ctx) {
        return sf::mulAdd(o[0], o[1], o[2], ctx);
    });
}
BENCHMARK(BM_SoftfloatMulAdd);

void
BM_SoftfloatDiv(benchmark::State &state)
{
    softfloatRate<2>(state, [](const Word *o, sf::Context &ctx) {
        return sf::div(o[0], o[1], ctx);
    });
}
BENCHMARK(BM_SoftfloatDiv);

/**
 * One push plus one pop per iteration, under each word-protection mode
 * (the argument is a fault::ParityMode): Off stores bare words, Detect
 * and Correct encode SECDED check bits at push and verify them at pop.
 */
void
BM_FifoPushPop(benchmark::State &state)
{
    TimedFifo f("bench", 64);
    f.setParity(fault::ParityMode(state.range(0)));
    Cycle t = 0;
    for (auto _ : state) {
        // A fresh word each time, so no check bits fold to a constant.
        f.push(Word(t * 2654435761u), t);
        ++t;
        benchmark::DoNotOptimize(f.pop(t));
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
    state.SetLabel(fault::parityModeName(fault::ParityMode(state.range(0))));
}
BENCHMARK(BM_FifoPushPop)
    ->Arg(int(fault::ParityMode::Off))
    ->Arg(int(fault::ParityMode::Detect))
    ->Arg(int(fault::ParityMode::Correct));

/**
 * End-to-end cell simulation speed on a self-contained GEMM-style
 * inner loop (sum cycles through the adder against regay, ret
 * recirculates as the multiplier operand).
 */
void
BM_CellInnerLoop(benchmark::State &state)
{
    using namespace isa;
    constexpr std::uint32_t iters = 1u << 16;
    for (auto _ : state) {
        cell::CellConfig cfg;
        cfg.fp = cell::FpKind(state.range(0));
        cell::Cell c("bench", cfg);
        ProgramBuilder b("spin");
        b.loopImm(iters, [&] {
            b.fma(src(Src::RetR), src(Src::RegAy), src(Src::Sum),
                  DstSum);
        });
        c.loadMicrocode(1, b.finish(), 0);
        c.tpi().push(1, 0);
        for (int i = 0; i < 16; ++i)
            c.sumQueue().push(floatToWord(1.0f), 0);
        c.retQueue().push(floatToWord(0.5f), 0);
        sim::Engine e(100000);
        e.add(&c);
        e.run();
        benchmark::DoNotOptimize(c.issuedOps());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) * iters);
}
BENCHMARK(BM_CellInnerLoop)
    ->Arg(int(cell::FpKind::Soft))
    ->Arg(int(cell::FpKind::Native))
    ->Arg(int(cell::FpKind::Token));

/**
 * The interpreter on a body whose results land out of issue order on
 * every iteration, as in conv2d's reload pass: the fma's sum result
 * lands six cycles after issue while its parallel move refills reby
 * after one, so each cycle's writeback drain commits a move past
 * older fma results still in flight. Token FP, so the sequencer and
 * the drain carry the cost. Reports issues per second.
 */
void
BM_CellMixedWriteback(benchmark::State &state)
{
    using namespace isa;
    constexpr std::uint32_t iters = 1u << 16;
    Cycle cycles = 0;
    for (auto _ : state) {
        cell::CellConfig cfg;
        cfg.fp = cell::FpKind::Token;
        cell::Cell c("bench", cfg);
        ProgramBuilder b("mixed");
        b.loopImm(iters, [&] {
            b.fma(src(Src::Reby), src(Src::RegAy), src(Src::Sum), DstSum)
                .withMove(src(Src::RetR), DstReby);
        });
        c.loadMicrocode(1, b.finish(), 0);
        c.tpi().push(1, 0);
        for (int i = 0; i < 16; ++i)
            c.sumQueue().push(floatToWord(1.0f), 0);
        for (int i = 0; i < 4; ++i)
            c.rebyQueue().push(floatToWord(2.0f), 0);
        c.retQueue().push(floatToWord(0.5f), 0);
        sim::Engine e(100000);
        e.add(&c);
        cycles = e.run();
        benchmark::DoNotOptimize(c.issuedOps());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) * iters);
    // About 1: the body issues every cycle.
    state.counters["cycles_per_issue"] = double(cycles) / iters;
}
BENCHMARK(BM_CellMixedWriteback);

/**
 * The stall tick: one cell under the spin engine blocked on an empty
 * tpx, so every iteration runs a fixed number of interpreted cycles
 * that each re-try the same issue and charge a stall. Most of
 * hostbound's cell ticks have this shape (bus-paced source queues).
 * Reports cell ticks per second.
 */
void
BM_CellStallTick(benchmark::State &state)
{
    using namespace isa;
    constexpr Cycle cycles = 1u << 16;
    cell::Cell c("bench", cell::CellConfig{});
    ProgramBuilder b("wait");
    b.mov(Src::TpX, DstTpO);
    c.loadMicrocode(1, b.finish(), 0);
    c.tpi().push(1, 0);
    sim::Engine e(0); // no watchdog: the cell never progresses
    e.setMode(sim::EngineMode::Spin);
    e.add(&c);
    for (auto _ : state)
        benchmark::DoNotOptimize(e.runUntil(e.now() + cycles));
    state.SetItemsProcessed(std::int64_t(state.iterations()) * cycles);
}
BENCHMARK(BM_CellStallTick);

/**
 * Sixteen cells on a bus paced at tau = 4, the paper's host-bound
 * corner: a matrix update whose cells stream their local loops in
 * burst windows of their own while the host keeps delivering words.
 * Skip engine, fast tier on, machine setup included. Reports
 * simulated cycles per second; burst_frac is the share of cell cycles
 * run inside windows.
 */
void
BM_HostPacedCells(benchmark::State &state)
{
    Cycle cycles = 0;
    std::uint64_t burst = 0;
    for (auto _ : state) {
        copro::CoprocConfig cfg;
        cfg.cells = 16;
        cfg.cell.tf = 512;
        cfg.host.tau = 4;
        copro::Coprocessor sys(cfg);
        kernels::installStandardKernels(sys);
        planner::LinalgPlanner plan(sys);
        const std::size_t n = 128, k = 16;
        planner::MatRef c = planner::allocMat(sys.memory(), n, n);
        planner::MatRef a = planner::allocMat(sys.memory(), n, k);
        planner::MatRef b = planner::allocMat(sys.memory(), k, n);
        plan.matUpdate(c, a, b);
        plan.commit();
        cycles = sys.run();
        benchmark::DoNotOptimize(cycles);
        burst = 0;
        for (unsigned i = 0; i < sys.numCells(); ++i)
            burst += sys.cell(i).fastTierStats().counterValue(
                "burstCycles");
    }
    state.SetItemsProcessed(std::int64_t(state.iterations())
                            * std::int64_t(cycles));
    state.counters["burst_frac"] = double(burst) / (16.0 * double(cycles));
}
BENCHMARK(BM_HostPacedCells)->Unit(benchmark::kMillisecond);

/**
 * Snapshot save: takeSnapshot().encode() of a 2-cell machine with the
 * standard kernels installed, paused mid-GEMM — the work a serve shard
 * does per checkpoint before the file write. Reports bytes/s.
 */
void
BM_CheckpointEncode(benchmark::State &state)
{
    copro::CoprocConfig cfg;
    cfg.cells = 2;
    cfg.cell.tf = 512;
    copro::Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);
    planner::LinalgPlanner plan(sys);
    const std::size_t n = 32, k = 64;
    planner::MatRef c = planner::allocMat(sys.memory(), n, n);
    planner::MatRef a = planner::allocMat(sys.memory(), n, k);
    planner::MatRef b = planner::allocMat(sys.memory(), k, n);
    plan.matUpdate(c, a, b);
    plan.commit();
    if (sys.runUntil(4000) != 4000) {
        state.SkipWithError("GEMM finished before the pause point");
        return;
    }
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::string image = sys.takeSnapshot().encode();
        bytes = image.size();
        benchmark::DoNotOptimize(image.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(std::int64_t(state.iterations())
                            * std::int64_t(bytes));
    state.counters["snapshot_bytes"] = double(bytes);
}
BENCHMARK(BM_CheckpointEncode);

} // anonymous namespace

BENCHMARK_MAIN();
