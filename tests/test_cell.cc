/**
 * @file
 * Tests for the OPAC cell: sequencing, datapath correctness, hazards,
 * stalls, throughput and timing invariance across FP back-ends.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cell_harness.hh"
#include "common/random.hh"
#include "isa/builder.hh"
#include "trace/json.hh"
#include "trace/trace.hh"

using namespace opac;
using namespace opac::isa;
using opac::test::CellHarness;

namespace
{

/** Kernel: copy p0 words from tpx to tpo. */
Program
copyKernel()
{
    ProgramBuilder b("copy");
    b.loopParam(0, [&] { b.mov(Src::TpX, DstTpO); });
    return b.finish();
}

/** Kernel: out[i] = x[i] * y[i] + 1.0, streaming. */
Program
mulAddOneKernel()
{
    ProgramBuilder b("muladd1");
    b.loopParam(0, [&] {
        b.fma(Src::TpX, Src::TpY, Src::One, DstTpO);
    });
    return b.finish();
}

/** Kernel: single dot product of two p0-long streams (sequential acc). */
Program
dotKernel()
{
    ProgramBuilder b("dot");
    b.mov(Src::Zero, DstRegAy); // unused, exercises constants
    b.mul(Src::TpX, Src::TpY, DstSum);
    b.decParam(0);
    b.loopParam(0, [&] {
        b.fma(Src::TpX, Src::TpY, Src::Sum, DstSum);
    });
    b.mov(Src::Sum, DstTpO);
    return b.finish();
}

/**
 * Kernel: matrix update A(M,N) += B(M,1) * C(1,N) done K times — the
 * fig. 5 sequencing with A resident in sum, B(:,k) in reby, C(k,n) in
 * regay. Stream order on tpx: A (column major), then per k: B column
 * then C row. Results drain to tpo. Params: p0=K, p1=M, p2=N, p3=M*N.
 */
Program
matUpdateKernel()
{
    ProgramBuilder b("matupdate");
    b.loopParam(3, [&] { b.mov(Src::TpX, DstSum); });
    b.loopParam(0, [&] {
        b.loopParam(1, [&] { b.mov(Src::TpX, DstReby); });
        b.loopParam(2, [&] {
            b.mov(Src::TpX, DstRegAy);
            b.loopParam(1, [&] {
                b.fma(Src::RebyR, Src::RegAy, Src::Sum, DstSum);
            });
        });
        b.resetFifo(LocalFifo::Reby);
    });
    b.loopParam(3, [&] { b.mov(Src::Sum, DstTpO); });
    return b.finish();
}

/** Triangular pattern: for k = p0 down to 1, emit k words from tpx. */
Program
triangularKernel()
{
    ProgramBuilder b("tri");
    b.loopParam(0, [&] {
        b.loopParam(1, [&] { b.mov(Src::TpX, DstTpO); });
        b.decParam(1);
    });
    return b.finish();
}

/** Cycles at which the traced cell issued, in program order. */
std::vector<Cycle>
issueCycles(const trace::VectorSink &sink)
{
    std::vector<Cycle> out;
    for (const trace::Event &e : sink.events) {
        if (e.kind == trace::EventKind::Issue)
            out.push_back(e.cycle);
    }
    return out;
}

/** Number of traced events of kind @p kind. */
std::size_t
countEvents(const trace::VectorSink &sink, trace::EventKind kind)
{
    std::size_t n = 0;
    for (const trace::Event &e : sink.events)
        n += e.kind == kind;
    return n;
}

/** A single cell traced into its own sink, in engine mode @p mode. */
struct TracedCell
{
    explicit TracedCell(sim::EngineMode mode,
                        const cell::CellConfig &cfg = {})
        : h(cfg)
    {
        tracer.addSink(&sink);
        h.cell.attachTracer(&tracer);
        h.engine.setMode(mode);
    }

    std::uint64_t
    counter(const char *name)
    {
        return h.cell.stats().counterValue(name);
    }

    CellHarness h;
    trace::Tracer tracer;
    trace::VectorSink sink;
};

constexpr sim::EngineMode kBothModes[] = {sim::EngineMode::Spin,
                                          sim::EngineMode::Skip};

/** Kernel: move one word from @p from to tpo. */
Program
moveOneKernel(const char *name, Src from)
{
    ProgramBuilder b(name);
    b.mov(from, DstTpO);
    return b.finish();
}

} // anonymous namespace

TEST(CellSequencer, CopiesStreamInOrder)
{
    CellHarness h;
    h.cell.loadMicrocode(1, copyKernel(), 1);
    h.call(1, {5});
    h.feedX({1, 2, 3, 4, 5});
    h.sinkO(5);
    h.run();
    EXPECT_EQ(h.output(), (std::vector<float>{1, 2, 3, 4, 5}));
}

TEST(CellSequencer, ZeroTripLoopRunsNothing)
{
    CellHarness h;
    h.cell.loadMicrocode(1, copyKernel(), 1);
    h.call(1, {0});
    h.run();
    EXPECT_TRUE(h.cell.tpo().empty());
    EXPECT_EQ(h.cell.issuedOps(), 0u);
}

TEST(CellSequencer, NegativeParamCountTreatedAsZero)
{
    CellHarness h;
    h.cell.loadMicrocode(1, copyKernel(), 1);
    h.call(1, {-3});
    h.run();
    EXPECT_TRUE(h.cell.tpo().empty());
}

TEST(CellSequencer, BackToBackCalls)
{
    CellHarness h;
    h.cell.loadMicrocode(1, copyKernel(), 1);
    h.call(1, {2});
    h.call(1, {3});
    h.feedX({1, 2, 3, 4, 5});
    h.sinkO(5);
    h.run();
    EXPECT_EQ(h.output(), (std::vector<float>{1, 2, 3, 4, 5}));
    EXPECT_EQ(h.cell.statusLine().find("state=idle"), 0u);
}

TEST(CellSequencer, UnknownEntryIsFatal)
{
    CellHarness h;
    h.cell.tpi().push(99, 0);
    EXPECT_THROW(h.run(), std::runtime_error);
}

TEST(CellSequencer, TriangularDecrementingLoops)
{
    CellHarness h;
    h.cell.loadMicrocode(1, triangularKernel(), 2);
    // p0 = 4 outer steps, p1 = 4 initial length: 4+3+2+1 = 10 words.
    h.call(1, {4, 4});
    std::vector<float> in;
    for (int i = 0; i < 10; ++i)
        in.push_back(float(i));
    h.feedX(in);
    h.sinkO(10);
    h.run();
    EXPECT_EQ(h.output().size(), 10u);
    EXPECT_EQ(h.output()[9], 9.0f);
}

TEST(CellDatapath, FmaStreamComputesCorrectly)
{
    CellHarness h;
    h.cell.loadMicrocode(7, mulAddOneKernel(), 1);
    h.call(7, {4});
    h.feedX({1.5f, 2.0f, -3.0f, 0.5f});
    h.feedY({2.0f, 3.0f, 1.0f, -8.0f});
    h.sinkO(4);
    h.run();
    auto out = h.output();
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 1.5f * 2.0f + 1.0f);
    EXPECT_EQ(out[1], 2.0f * 3.0f + 1.0f);
    EXPECT_EQ(out[2], -3.0f * 1.0f + 1.0f);
    EXPECT_EQ(out[3], 0.5f * -8.0f + 1.0f);
}

TEST(CellDatapath, SequentialDotProduct)
{
    CellHarness h;
    h.cell.loadMicrocode(2, dotKernel(), 1);
    h.call(2, {4});
    h.feedX({1, 2, 3, 4});
    h.feedY({10, 20, 30, 40});
    h.sinkO(1);
    h.run();
    EXPECT_EQ(h.output()[0], 1.0f * 10 + 2 * 20 + 3 * 30 + 4 * 40);
}

TEST(CellDatapath, MatrixUpdateMatchesReference)
{
    const int M = 4, N = 3, K = 5;
    // Column-major reference.
    std::vector<float> A(M * N), B(M * K), C(K * N);
    Rng rng(42);
    for (auto &v : A)
        v = rng.element();
    for (auto &v : B)
        v = rng.element();
    for (auto &v : C)
        v = rng.element();
    std::vector<float> expect = A;
    for (int k = 0; k < K; ++k) {
        for (int n = 0; n < N; ++n) {
            for (int m = 0; m < M; ++m)
                expect[n * M + m] += B[k * M + m] * C[n * K + k];
        }
    }

    CellHarness h;
    h.cell.loadMicrocode(3, matUpdateKernel(), 4);
    h.call(3, {K, M, N, M * N});
    std::vector<float> stream = A;
    for (int k = 0; k < K; ++k) {
        for (int m = 0; m < M; ++m)
            stream.push_back(B[k * M + m]);
        for (int n = 0; n < N; ++n)
            stream.push_back(C[n * K + k]);
    }
    h.feedX(stream);
    h.sinkO(std::size_t(M) * N);
    h.run();
    auto out = h.output();
    ASSERT_EQ(out.size(), std::size_t(M) * N);
    for (int i = 0; i < M * N; ++i)
        EXPECT_NEAR(out[i], expect[i], 1e-5f) << "element " << i;
}

TEST(CellTiming, InnerLoopSustainsOneOpPerCycle)
{
    const int M = 6, N = 50, K = 4;
    CellHarness h;
    h.cell.loadMicrocode(3, matUpdateKernel(), 4);
    h.call(3, {K, M, N, M * N});
    std::vector<float> stream(std::size_t(M * N + K * (M + N)), 1.0f);
    h.feedX(stream);
    h.sinkO(std::size_t(M) * N);
    Cycle cycles = h.run();
    // Useful multiply-adds: K*M*N. Overheads: initial load M*N, per-k
    // reby load M + per-column regay load N + reset, final drain M*N,
    // call decode. Require at least 80% of the asymptotic rate.
    double ma = double(K) * M * N;
    EXPECT_EQ(h.cell.fmaOps(), std::uint64_t(ma));
    double rate = ma / double(cycles);
    EXPECT_GT(rate, 0.5); // small kernel: overheads take a large share
    // And the busy part should be nearly fully pipelined: issued ops
    // close to busy cycles.
    EXPECT_GT(double(h.cell.issuedOps()) / double(h.cell.busyCycles()),
              0.9);
}

TEST(CellTiming, SlowFeederStallsWithoutDeadlock)
{
    CellHarness h;
    h.cell.loadMicrocode(1, copyKernel(), 1);
    h.call(1, {8});
    h.feedX({1, 2, 3, 4, 5, 6, 7, 8}, 7); // one word every 7 cycles
    h.sinkO(8);
    Cycle cycles = h.run();
    EXPECT_GE(cycles, 7u * 7u); // last word leaves the feeder at t = 49
    EXPECT_EQ(h.output().size(), 8u);
    EXPECT_GT(h.engine.statusDump().size(), 0u);
}

TEST(CellTiming, WatchdogFiresWhenDataNeverArrives)
{
    CellHarness h({}, 1000);
    h.cell.loadMicrocode(1, copyKernel(), 1);
    h.call(1, {4});
    // No feeder: the cell waits on tpx forever.
    EXPECT_THROW(h.run(), std::runtime_error);
}

TEST(CellTiming, TpoBackpressureStallsIssue)
{
    cell::CellConfig cfg;
    cfg.interfaceDepth = 4; // tiny tpo
    CellHarness h(cfg);
    h.cell.loadMicrocode(1, copyKernel(), 1);
    h.call(1, {32});
    std::vector<float> in(32, 2.0f);
    h.feedX(in);
    // No sink: run manually until the cell blocks on tpo-full, then
    // verify it made exactly capacity progress (4 stored + in-flight).
    EXPECT_THROW(h.run(2000), std::runtime_error);
    EXPECT_LE(h.cell.tpo().size(), 4u);
    EXPECT_GT(h.cell.stats().counterValue("stallDstFull"), 0u);
}

TEST(CellTiming, TimingIdenticalAcrossFpBackends)
{
    auto run_with = [&](cell::FpKind kind) {
        cell::CellConfig cfg;
        cfg.fp = kind;
        CellHarness h(cfg);
        h.cell.loadMicrocode(3, matUpdateKernel(), 4);
        const int M = 5, N = 7, K = 3;
        h.call(3, {K, M, N, M * N});
        std::vector<float> stream(std::size_t(M * N + K * (M + N)),
                                  0.25f);
        h.feedX(stream);
        h.sinkO(std::size_t(M) * N);
        return h.run();
    };
    Cycle soft = run_with(cell::FpKind::Soft);
    Cycle native = run_with(cell::FpKind::Native);
    Cycle token = run_with(cell::FpKind::Token);
    EXPECT_EQ(soft, native);
    EXPECT_EQ(soft, token);
}

TEST(CellHazards, RegisterInterlockEnforcesRaw)
{
    // Write r5 through the FP pipe, read it immediately after: the
    // second op must see the new value despite the pipeline latency.
    Program dummy = [] {
        ProgramBuilder bb("raw");
        bb.mul(src(Src::TpX), src(Src::TpY), DstReg, 5);
        bb.add(reg(5), src(Src::One), DstTpO);
        return bb.finish();
    }();
    CellHarness h;
    h.cell.loadMicrocode(4, std::move(dummy), 0);
    h.call(4, {});
    h.feedX({3.0f});
    h.feedY({4.0f});
    h.sinkO(1);
    h.run();
    EXPECT_EQ(h.output()[0], 13.0f); // 3*4 + 1, not stale-register + 1
}

TEST(CellHazards, RecirculationKeepsQueueContents)
{
    // Stream a vector into reby, multiply it by 2 constants in
    // sequence; reby must survive the first pass via recirculation.
    ProgramBuilder b("recirc");
    b.loopParam(0, [&] { b.mov(Src::TpX, DstReby); });
    b.mov(Src::TpX, DstRegAy);
    b.loopParam(0, [&] {
        b.fma(Src::RebyR, Src::RegAy, Src::Zero, DstTpO);
    });
    b.mov(Src::TpX, DstRegAy);
    b.loopParam(0, [&] {
        b.fma(Src::RebyR, Src::RegAy, Src::Zero, DstTpO);
    });
    CellHarness h;
    h.cell.loadMicrocode(5, b.finish(), 1);
    h.call(5, {3});
    h.feedX({1, 2, 3, /*c1=*/10, /*c2=*/100});
    h.sinkO(6);
    h.run();
    EXPECT_EQ(h.output(),
              (std::vector<float>{10, 20, 30, 100, 200, 300}));
}

TEST(CellHazards, ResetFifoDiscardsLeftovers)
{
    ProgramBuilder b("reset");
    b.loopParam(0, [&] { b.mov(Src::TpX, DstReby); });
    b.resetFifo(LocalFifo::Reby);
    b.loopParam(0, [&] { b.mov(Src::TpX, DstReby); });
    b.loopParam(0, [&] { b.mov(Src::Reby, DstTpO); });
    CellHarness h;
    h.cell.loadMicrocode(6, b.finish(), 1);
    h.call(6, {2});
    h.feedX({1, 2, 30, 40});
    h.sinkO(2);
    h.run();
    EXPECT_EQ(h.output(), (std::vector<float>{30, 40}));
}

TEST(CellHazards, WritebacksCommitInIssueOrderPerQueue)
{
    // Regression for the LU ordering bug: a 1-cycle move issued after
    // a 3-cycle multiply into the same queue must not overtake it.
    ProgramBuilder b("order");
    b.mov(Src::TpX, DstRegAy);
    b.mul(src(Src::TpX), src(Src::RegAy), DstTpO); // latency 3
    b.mov(Src::TpX, DstTpO);                       // latency 1
    CellHarness h;
    h.cell.loadMicrocode(9, b.finish(), 0);
    h.call(9, {});
    h.feedX({2.0f, 5.0f, 99.0f});
    h.sinkO(2);
    h.run();
    EXPECT_EQ(h.output(), (std::vector<float>{10.0f, 99.0f}));
}

TEST(CellHazards, WawInterlockOrdersRegisterWrites)
{
    // An FP write to r4 followed immediately by a move write to r4:
    // the reader must observe the move's value (program order).
    Program p = [] {
        ProgramBuilder bb("waw");
        bb.mov(Src::TpX, DstRegAy);
        bb.mul(src(Src::TpX), src(Src::RegAy), DstReg, 4);
        bb.mov(Src::TpX, DstReg, 4);
        bb.add(reg(4), src(Src::Zero), DstTpO);
        return bb.finish();
    }();
    CellHarness h;
    h.cell.loadMicrocode(9, std::move(p), 0);
    h.call(9, {});
    h.feedX({3.0f, 7.0f, 42.0f});
    h.sinkO(1);
    h.run();
    EXPECT_EQ(h.output()[0], 42.0f);
}

TEST(CellHazards, RegisterFileWriteWaitsForPendingRegAyWrite)
{
    // regay and the register file are one writeback destination: a
    // move into r2 issued right after a multiply into regay lands with
    // the multiply, not before it, so the reader of r2 stalls until
    // the multiply's latency has passed.
    ProgramBuilder b("regport");
    b.mul(src(Src::TpX), src(Src::TpY), DstRegAy); // latency 3
    b.mov(Src::TpX, DstReg, 2);                    // latency 1
    b.add(reg(2), src(Src::Zero), DstTpO);
    TracedCell t(sim::EngineMode::Spin);
    t.h.cell.loadMicrocode(9, b.finish(), 0);
    t.h.call(9, {});
    t.h.cell.tpx().push(floatToWord(3.0f), 0);
    t.h.cell.tpx().push(floatToWord(5.0f), 0);
    t.h.cell.tpy().push(floatToWord(4.0f), 0);
    t.h.sinkO(1);
    t.h.run();
    EXPECT_EQ(t.h.output(), (std::vector<float>{5.0f}));
    const std::vector<Cycle> issued = issueCycles(t.sink);
    ASSERT_EQ(issued.size(), 3u);
    EXPECT_EQ(issued[1], issued[0] + 1);
    EXPECT_EQ(issued[2], issued[0] + 3);
    EXPECT_EQ(t.counter("stallRegPending"), 1u);
    // Both land in the multiply's cycle, regay first.
    std::vector<const trace::Event *> retired;
    for (const trace::Event &e : t.sink.events) {
        if (e.kind == trace::EventKind::Retire)
            retired.push_back(&e);
    }
    ASSERT_GE(retired.size(), 2u);
    EXPECT_EQ(retired[0]->a, unsigned(DstRegAy));
    EXPECT_EQ(retired[1]->a, unsigned(DstReg));
    EXPECT_EQ(retired[0]->cycle, issued[0] + 3);
    EXPECT_EQ(retired[1]->cycle, issued[0] + 3);
}

TEST(CellHazards, DualDestinationEntryHoldsBackItsOtherQueue)
{
    // A move into sum and ret waits behind a slower fma into sum; a
    // later move into ret alone must then wait behind it too, although
    // nothing earlier writes ret.
    ProgramBuilder b("dualwait");
    b.fma(src(Src::TpX), src(Src::TpY), src(Src::Zero), DstSum); // 6
    b.mov(Src::TpX, DstSum | DstRet);
    b.mov(Src::TpX, DstRet);
    b.mov(Src::Ret, DstTpO);
    b.mov(Src::Ret, DstTpO);
    TracedCell t(sim::EngineMode::Spin);
    t.h.cell.loadMicrocode(9, b.finish(), 0);
    t.h.call(9, {});
    for (float v : {2.0f, 10.0f, 20.0f})
        t.h.cell.tpx().push(floatToWord(v), 0);
    t.h.cell.tpy().push(floatToWord(3.0f), 0);
    t.h.sinkO(2);
    t.h.run();
    // Issue order on ret: the dual-destination word first.
    EXPECT_EQ(t.h.output(), (std::vector<float>{10.0f, 20.0f}));
    const std::vector<Cycle> issued = issueCycles(t.sink);
    ASSERT_EQ(issued.size(), 5u);
    // The fma lands at +6 and releases both moves; ret's front falls
    // through a cycle later.
    EXPECT_EQ(issued[3], issued[0] + 7);
    EXPECT_EQ(t.h.cell.sumQueue().size(), 2u);
}

TEST(CellHazards, SameCycleLandingCountsOneWritePortConflict)
{
    // A move into tpo queued behind a multiply into tpo lands in the
    // multiply's cycle: either because it is due then, or because it
    // was due earlier and waited. Each counts one conflict.
    for (bool due_together : {true, false}) {
        ProgramBuilder b("conflict");
        b.mov(Src::TpX, DstRegAy);
        b.mul(src(Src::TpX), src(Src::RegAy), DstTpO); // latency 3
        if (due_together)
            b.mov(Src::TpX, DstSum);
        b.mov(Src::TpX, DstTpO); // latency 1
        TracedCell t(sim::EngineMode::Spin);
        t.h.cell.loadMicrocode(9, b.finish(), 0);
        t.h.call(9, {});
        for (float v : {2.0f, 5.0f, 7.0f, 99.0f})
            t.h.cell.tpx().push(floatToWord(v), 0);
        t.h.sinkO(2);
        t.h.run();
        const std::vector<float> want =
            due_together ? std::vector<float>{10.0f, 99.0f}
                         : std::vector<float>{10.0f, 7.0f};
        EXPECT_EQ(t.h.output(), want) << "due_together=" << due_together;
        EXPECT_EQ(t.counter("writePortConflicts"), 1u)
            << "due_together=" << due_together;
    }
}

TEST(CellSequencer, ParamAluMul2Div2)
{
    // Emit 2*p0 words, then p0/2 words (the FFT-style manipulations).
    ProgramBuilder b("p2");
    b.copyParam(1, 0);
    b.mul2Param(1);
    b.loopParam(1, [&] { b.mov(Src::TpX, DstTpO); });
    b.copyParam(2, 0);
    b.div2Param(2);
    b.loopParam(2, [&] { b.mov(Src::TpX, DstTpO); });
    CellHarness h;
    h.cell.loadMicrocode(9, b.finish(), 1);
    h.call(9, {6});
    std::vector<float> in(15, 1.5f);
    h.feedX(in);
    h.sinkO(15);
    h.run();
    EXPECT_EQ(h.output().size(), 15u); // 12 + 3
}

TEST(CellSequencer, DeepLoopNestExecutesFully)
{
    // 4 nested loops of 3 iterations: 81 moves.
    ProgramBuilder b("nest");
    b.loopImm(3, [&] {
        b.loopImm(3, [&] {
            b.loopImm(3, [&] {
                b.loopImm(3, [&] { b.mov(Src::TpX, DstTpO); });
            });
        });
    });
    CellHarness h;
    h.cell.loadMicrocode(9, b.finish(), 0);
    h.call(9, {});
    std::vector<float> in(81, 2.0f);
    h.feedX(in);
    h.sinkO(81);
    h.run();
    EXPECT_EQ(h.output().size(), 81u);
}

TEST(CellDatapath, ParallelMoveSharesQueuePorts)
{
    // fma consumes reby (read port) while its parallel move refills it
    // (write port) — the overlap trick of the conv/correlation kernels.
    ProgramBuilder b("tee");
    b.loopParam(0, [&] { b.mov(Src::TpX, DstReby); }); // window = 2
    b.loopParam(1, [&] {
        b.fma(src(Src::Reby), src(Src::One), src(Src::Zero), DstTpO)
            .withMove(src(Src::TpX), DstReby);
    });
    CellHarness h;
    h.cell.loadMicrocode(9, b.finish(), 2);
    h.call(9, {2, 4});
    h.feedX({1, 2, 3, 4, 5, 6});
    h.sinkO(4);
    h.run();
    EXPECT_EQ(h.output(), (std::vector<float>{1, 2, 3, 4}));
    EXPECT_EQ(h.cell.rebyQueue().size(), 2u); // refilled window remains
}

TEST(CellDatapath, DualDestinationFanout)
{
    // One multiply lands in both ret and tpo.
    ProgramBuilder b("fan");
    b.mov(Src::TpX, DstRegAy);
    b.loopParam(0, [&] {
        b.mul(src(Src::TpX), src(Src::RegAy), DstRet | DstTpO);
    });
    b.loopParam(0, [&] { b.mov(Src::Ret, DstTpO); });
    CellHarness h;
    h.cell.loadMicrocode(9, b.finish(), 1);
    h.call(9, {3});
    h.feedX({10.0f, 1, 2, 3});
    h.sinkO(6);
    h.run();
    EXPECT_EQ(h.output(), (std::vector<float>{10, 20, 30, 10, 20, 30}));
}

TEST(CellDatapath, AddOnlyOpReadsTwoQueues)
{
    // Elementwise difference of two streams: adder-only, no multiply.
    ProgramBuilder b("diff");
    b.loopParam(0, [&] {
        b.add(Src::TpX, Src::TpY, DstTpO, AddOp::SubAB);
    });
    CellHarness h;
    h.cell.loadMicrocode(9, b.finish(), 1);
    h.call(9, {3});
    h.feedX({10, 20, 30});
    h.feedY({1, 2, 3});
    h.sinkO(3);
    h.run();
    EXPECT_EQ(h.output(), (std::vector<float>{9, 18, 27}));
    EXPECT_EQ(h.cell.fmaOps(), 0u);
}

TEST(CellSequencer, ControlBudgetBoundsZeroTripScan)
{
    // A chain of many zero-trip loops costs cycles (bounded lookahead)
    // but terminates and executes the trailing work.
    ProgramBuilder b("zt");
    for (int i = 0; i < 64; ++i)
        b.loopImm(0, [&] { b.mov(Src::TpX, DstTpO); });
    b.mov(Src::TpX, DstTpO);
    CellHarness h;
    h.cell.loadMicrocode(9, b.finish(), 0);
    h.call(9, {});
    h.feedX({7.0f});
    h.sinkO(1);
    Cycle cycles = h.run();
    EXPECT_EQ(h.output(), (std::vector<float>{7.0f}));
    // 64 skipped loops at up to controlOpsPerCycle (8) per cycle.
    EXPECT_GE(cycles, 64u / 8u);
}

TEST(CellSequencer, LoopCountReReadOnEveryEntry)
{
    // Inner loop count comes from a parameter that the outer body
    // decrements: iterations 3 + 2 + 1.
    ProgramBuilder b("tri2");
    b.loopImm(3, [&] {
        b.loopParam(0, [&] { b.mov(Src::TpX, DstTpO); });
        b.decParam(0);
    });
    CellHarness h;
    h.cell.loadMicrocode(9, b.finish(), 1);
    h.call(9, {3});
    std::vector<float> in = {1, 2, 3, 4, 5, 6};
    h.feedX(in);
    h.sinkO(6);
    h.run();
    EXPECT_EQ(h.output().size(), 6u);
}

TEST(CellTrace, TracerSeesCallIssueAndHalt)
{
    ProgramBuilder b("traced");
    b.loopParam(0, [&] { b.mov(Src::TpX, DstTpO); });
    CellHarness h;
    h.cell.loadMicrocode(9, b.finish(), 1);
    trace::Tracer tracer;
    trace::VectorSink sink;
    tracer.addSink(&sink);
    h.cell.attachTracer(&tracer);
    h.call(9, {2});
    h.feedX({1, 2});
    h.sinkO(2);
    h.run();
    std::vector<trace::Event> seq;
    for (const trace::Event &e : sink.events) {
        if (e.kind == trace::EventKind::CallBegin
            || e.kind == trace::EventKind::Issue
            || e.kind == trace::EventKind::CallEnd)
            seq.push_back(e);
    }
    ASSERT_EQ(seq.size(), 4u); // call + 2 issues + halt
    EXPECT_EQ(seq[0].kind, trace::EventKind::CallBegin);
    EXPECT_EQ(seq[0].a, 9u);
    EXPECT_EQ(tracer.trackName(seq[0].track), "traced");
    for (int i : {1, 2}) {
        EXPECT_EQ(seq[i].kind, trace::EventKind::Issue);
        EXPECT_EQ(seq[i].arg, std::uint8_t(trace::OpClass::Move));
    }
    EXPECT_LT(seq[1].cycle, seq[2].cycle);
    EXPECT_EQ(seq[3].kind, trace::EventKind::CallEnd);
}

TEST(CellStats, DeadCellStopsSamplingOccupancy)
{
    // A retired cell's local-queue occupancy ends at the cycle it was
    // marked dead, even when its queues are reset afterwards.
    CellHarness h;
    h.cell.sumQueue().push(floatToWord(1.0f), 0);
    h.feedX(std::vector<float>(4, 0.0f), 5); // runs the clock to 16
    h.engine.runUntil(8);
    h.cell.markDead(8);
    h.run();
    h.cell.hardReset(h.engine.now());
    trace::json::Value doc;
    std::string err;
    ASSERT_TRUE(trace::json::parse(h.cell.stats().json(), doc, &err))
        << err;
    const trace::json::Value *occ = doc.find("cell0.sum.occupancy");
    ASSERT_NE(occ, nullptr);
    EXPECT_EQ(occ->find("count")->number, 8.0); // cycles 0..7
    EXPECT_EQ(occ->find("min")->number, 1.0);
    EXPECT_EQ(h.engine.now(), 16u);
}

TEST(CellStats, CountersAreConsistent)
{
    CellHarness h;
    h.cell.loadMicrocode(1, copyKernel(), 1);
    h.call(1, {6});
    h.feedX({1, 2, 3, 4, 5, 6});
    h.sinkO(6);
    h.run();
    EXPECT_EQ(h.cell.issuedOps(), 6u);
    EXPECT_GE(h.cell.busyCycles(), 6u);
}

TEST(CellStallMemo, SrcEmptyReleasedByHostPush)
{
    // Call at 1, decode through 5, the mov stalls on an empty tpx from
    // 6 until the word pushed at 40 falls through at 41.
    for (sim::EngineMode mode : kBothModes) {
        TracedCell t(mode);
        t.h.cell.loadMicrocode(1, moveOneKernel("srcwait", Src::TpX), 0);
        t.h.call(1, {});
        t.h.engine.runUntil(40);
        t.h.cell.tpx().push(floatToWord(1.0f), 40);
        t.h.run();
        EXPECT_EQ(issueCycles(t.sink), std::vector<Cycle>{41});
        EXPECT_EQ(t.counter("stallSrcEmpty"), 35u);
        EXPECT_EQ(countEvents(t.sink, trace::EventKind::Stall), 35u);
        EXPECT_EQ(t.counter("stallRegPending"), 0u);
        EXPECT_EQ(t.counter("stallDstFull"), 0u);
    }
}

TEST(CellStallMemo, RegPendingReleasedWhenTheWritebackLands)
{
    // The add reads r5 while the fma's write to it is in flight: it
    // stalls for the fma's six cycles less the one it issued in.
    ProgramBuilder b("regwait");
    b.fma(src(Src::TpX), src(Src::TpY), src(Src::Zero), DstReg,
          AddOp::Add, 5);
    b.add(reg(5), src(Src::One), DstTpO);
    const Program prog = b.finish();
    for (sim::EngineMode mode : kBothModes) {
        TracedCell t(mode);
        t.h.cell.loadMicrocode(1, prog, 0);
        t.h.call(1, {});
        t.h.cell.tpx().push(floatToWord(3.0f), 0);
        t.h.cell.tpy().push(floatToWord(4.0f), 0);
        t.h.run();
        EXPECT_EQ(issueCycles(t.sink), (std::vector<Cycle>{6, 12}));
        EXPECT_EQ(t.counter("stallRegPending"), 5u);
        EXPECT_EQ(countEvents(t.sink, trace::EventKind::Stall), 5u);
        EXPECT_EQ(wordToFloat(t.h.cell.tpo().pop(t.h.engine.now())),
                  13.0f);
    }
}

TEST(CellStallMemo, DstFullReleasedWhenTheHostDrainsTpo)
{
    // tpo holds two words: the third mov stalls from 8 until the host
    // pops one at 30, and issues in that same cycle.
    cell::CellConfig cfg;
    cfg.interfaceDepth = 2;
    ProgramBuilder b("dstwait");
    b.loopImm(3, [&] { b.mov(Src::TpX, DstTpO); });
    const Program prog = b.finish();
    for (sim::EngineMode mode : kBothModes) {
        TracedCell t(mode, cfg);
        t.h.cell.loadMicrocode(1, prog, 0);
        t.h.call(1, {});
        for (float v : {1.0f, 2.0f})
            t.h.cell.tpx().push(floatToWord(v), 0);
        // tpx is just as shallow: the third word goes in once the
        // first has left, ready for the third mov at 8.
        t.h.engine.runUntil(7);
        t.h.cell.tpx().push(floatToWord(3.0f), 7);
        t.h.engine.runUntil(30);
        EXPECT_EQ(wordToFloat(t.h.cell.tpo().pop(30)), 1.0f);
        t.h.run();
        EXPECT_EQ(issueCycles(t.sink), (std::vector<Cycle>{6, 7, 30}));
        EXPECT_EQ(t.counter("stallDstFull"), 22u);
        EXPECT_EQ(countEvents(t.sink, trace::EventKind::Stall), 22u);
    }
}

TEST(CellStallMemo, HangInjectedMidStall)
{
    // Stalled on tpx from 6, frozen for 10 cycles at 20, stalled again
    // from 30 until the word pushed at 35 falls through.
    for (sim::EngineMode mode : kBothModes) {
        TracedCell t(mode);
        t.h.cell.loadMicrocode(1, moveOneKernel("hangwait", Src::TpX),
                               0);
        t.h.call(1, {});
        t.h.engine.runUntil(20);
        t.h.cell.injectHang(20, 10);
        t.h.engine.runUntil(35);
        t.h.cell.tpx().push(floatToWord(1.0f), 35);
        t.h.run();
        EXPECT_EQ(issueCycles(t.sink), std::vector<Cycle>{36});
        EXPECT_EQ(t.counter("stallSrcEmpty"), 14u + 6u);
        EXPECT_EQ(countEvents(t.sink, trace::EventKind::Stall), 20u);
        EXPECT_EQ(t.counter("hangCycles"), 10u);
    }
}

TEST(CellSequencer, HangDuringDecodeDelaysTheDispatch)
{
    // The call word pops at 1 and would dispatch at 5. A 10-cycle hang
    // injected at 3 freezes rounds 3-12, so the call dispatches at 15,
    // the mov issues at 16 and the run ends at 18, in both engine
    // modes, traced and untraced (an untraced skip run jumps the hang).
    for (sim::EngineMode mode : kBothModes) {
        TracedCell t(mode);
        CellHarness h;
        h.engine.setMode(mode);
        for (CellHarness *c : {&t.h, &h}) {
            c->cell.loadMicrocode(1, moveOneKernel("decodehang", Src::TpY),
                                  0);
            c->call(1, {});
            c->cell.tpy().push(floatToWord(2.0f), 0);
            c->engine.runUntil(3);
            c->cell.injectHang(3, 10);
            c->run();
            EXPECT_EQ(c->engine.now(), 18u);
            EXPECT_EQ(c->cell.stats().counterValue("hangCycles"), 10u);
        }
        EXPECT_EQ(issueCycles(t.sink), std::vector<Cycle>{16});
        if (mode == sim::EngineMode::Skip) {
            EXPECT_GT(h.engine.fastForwards(), 0u);
        }
    }
}

TEST(CellStallMemo, SpuriousHaltThenNewCall)
{
    // A kernel stalled on tpx halts spuriously at 20; the next call
    // moves a word that is already waiting in tpy and must not inherit
    // the abandoned instruction's stall.
    for (sim::EngineMode mode : kBothModes) {
        TracedCell t(mode);
        t.h.cell.loadMicrocode(1, moveOneKernel("halted", Src::TpX), 0);
        t.h.cell.loadMicrocode(2, moveOneKernel("next", Src::TpY), 0);
        t.h.call(1, {});
        t.h.engine.runUntil(20);
        t.h.cell.injectSpuriousHalt(20);
        t.h.cell.tpi().push(2, 20);
        t.h.cell.tpy().push(floatToWord(4.0f), 20);
        t.h.run();
        // Call word at 21, decode through 25, issue at 26.
        EXPECT_EQ(issueCycles(t.sink), std::vector<Cycle>{26});
        EXPECT_EQ(t.counter("stallSrcEmpty"), 14u);
        EXPECT_EQ(countEvents(t.sink, trace::EventKind::Stall), 14u);
        EXPECT_EQ(wordToFloat(t.h.cell.tpo().pop(t.h.engine.now())),
                  4.0f);
    }
}
