/**
 * @file
 * Tests for the host model and the multi-cell coprocessor: transfer
 * timing (tau accounting), broadcast semantics, regions, host-side
 * scalar ops and end-to-end kernel dispatch.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "coproc/coprocessor.hh"
#include "isa/builder.hh"

using namespace opac;
using namespace opac::isa;
using copro::CoprocConfig;
using copro::Coprocessor;
using host::Region;

namespace
{

Program
copyKernel()
{
    ProgramBuilder b("copy");
    b.loopParam(0, [&] { b.mov(Src::TpX, DstTpO); });
    return b.finish();
}

/** out[i] = x[i] * regay, with regay loaded from tpx first. */
Program
scaleKernel()
{
    ProgramBuilder b("scale");
    b.mov(Src::TpX, DstRegAy);
    b.loopParam(0, [&] {
        b.fma(Src::TpX, Src::RegAy, Src::Zero, DstTpO);
    });
    return b.finish();
}

} // anonymous namespace

TEST(Region, VecAddressing)
{
    Region r = Region::vec(100, 5);
    EXPECT_EQ(r.count(), 5u);
    EXPECT_EQ(r.addr(0), 100u);
    EXPECT_EQ(r.addr(4), 104u);
}

TEST(Region, StridedAddressing)
{
    Region r = Region::strided(10, 4, 7);
    EXPECT_EQ(r.count(), 4u);
    EXPECT_EQ(r.addr(0), 10u);
    EXPECT_EQ(r.addr(3), 31u);
}

TEST(Region, MatAddressingColumnMajor)
{
    // 3x2 block inside an ld=10 matrix at base 5.
    Region r = Region::mat(5, 3, 2, 10);
    EXPECT_EQ(r.count(), 6u);
    EXPECT_EQ(r.addr(0), 5u);
    EXPECT_EQ(r.addr(2), 7u);
    EXPECT_EQ(r.addr(3), 15u); // second column
    EXPECT_EQ(r.addr(5), 17u);
}

TEST(HostMemory, AllocAndBounds)
{
    host::HostMemory m(128);
    std::size_t a = m.alloc(64);
    std::size_t b = m.alloc(64);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 64u);
    EXPECT_THROW(m.alloc(1), std::logic_error);
    m.storeF(3, 2.5f);
    EXPECT_EQ(m.loadF(3), 2.5f);
    EXPECT_THROW(m.load(1000), std::logic_error);
}

TEST(Host, RoundTripThroughCell)
{
    CoprocConfig cfg;
    Coprocessor sys(cfg);
    sys.loadMicrocode(1, copyKernel(), 1);

    const int n = 16;
    std::size_t in = sys.memory().alloc(n);
    std::size_t out = sys.memory().alloc(n);
    for (int i = 0; i < n; ++i)
        sys.memory().storeF(in + std::size_t(i), float(i) * 1.5f);

    sys.host().enqueue(host::callOp(1, 1, {n}));
    sys.host().enqueue(host::sendOp(1, Region::vec(in, n)));
    sys.host().enqueue(host::recvOp(0, Region::vec(out, n)));
    sys.run();

    for (int i = 0; i < n; ++i)
        EXPECT_EQ(sys.memory().loadF(out + std::size_t(i)),
                  float(i) * 1.5f);
}

TEST(Host, TauGovernsTransferRate)
{
    for (unsigned tau : {1u, 2u, 4u}) {
        CoprocConfig cfg;
        cfg.host.tau = tau;
        Coprocessor sys(cfg);
        sys.loadMicrocode(1, copyKernel(), 1);
        const int n = 256;
        std::size_t in = sys.memory().alloc(n);
        std::size_t out = sys.memory().alloc(n);
        sys.host().enqueue(host::callOp(1, 1, {n}));
        sys.host().enqueue(host::sendOp(1, Region::vec(in, n)));
        sys.host().enqueue(host::recvOp(0, Region::vec(out, n)));
        Cycle cycles = sys.run();
        // 2n words at 1/tau plus small constant overheads.
        EXPECT_GE(cycles, Cycle(2 * n - 1) * tau);
        EXPECT_LE(cycles, Cycle(2 * n) * tau + 64);
    }
}

TEST(Host, BroadcastCostsOneAccessPerWord)
{
    CoprocConfig cfg;
    cfg.cells = 4;
    cfg.host.tau = 4;
    Coprocessor sys(cfg);
    sys.loadMicrocode(1, copyKernel(), 1);
    const int n = 64;
    std::size_t in = sys.memory().alloc(n);
    std::vector<std::size_t> outs;
    for (unsigned c = 0; c < 4; ++c)
        outs.push_back(sys.memory().alloc(n));
    for (int i = 0; i < n; ++i)
        sys.memory().storeF(in + std::size_t(i), float(i));

    // One broadcast send reaches all four cells.
    sys.host().enqueue(host::callOp(copro::allCellsMask(4), 1, {n}));
    sys.host().enqueue(host::sendOp(copro::allCellsMask(4),
                                    Region::vec(in, n)));
    for (unsigned c = 0; c < 4; ++c)
        sys.host().enqueue(host::recvOp(c, Region::vec(outs[c], n)));
    sys.run();

    EXPECT_EQ(sys.host().wordsSent(), std::uint64_t(n)); // not 4n
    for (unsigned c = 0; c < 4; ++c) {
        for (int i = 0; i < n; ++i)
            EXPECT_EQ(sys.memory().loadF(outs[c] + std::size_t(i)),
                      float(i));
    }
}

TEST(Host, PerCellSendsAreIndependent)
{
    CoprocConfig cfg;
    cfg.cells = 2;
    Coprocessor sys(cfg);
    sys.loadMicrocode(2, scaleKernel(), 1);
    const int n = 8;
    std::size_t xs = sys.memory().alloc(2 * (n + 1));
    std::size_t out = sys.memory().alloc(2 * n);
    // Cell 0 scales by 2, cell 1 by 10.
    sys.memory().storeF(xs + 0, 2.0f);
    sys.memory().storeF(xs + std::size_t(n + 1), 10.0f);
    for (int i = 0; i < n; ++i) {
        sys.memory().storeF(xs + 1 + std::size_t(i), float(i));
        sys.memory().storeF(xs + std::size_t(n + 1) + 1 + std::size_t(i),
                            float(i));
    }
    sys.host().enqueue(host::callOp(0b01, 2, {n}));
    sys.host().enqueue(host::callOp(0b10, 2, {n}));
    sys.host().enqueue(host::sendOp(0b01, Region::vec(xs, n + 1)));
    sys.host().enqueue(host::sendOp(
        0b10, Region::vec(xs + std::size_t(n + 1), n + 1)));
    sys.host().enqueue(host::recvOp(0, Region::vec(out, n)));
    sys.host().enqueue(host::recvOp(1, Region::vec(out + std::size_t(n),
                                                   n)));
    sys.run();
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(sys.memory().loadF(out + std::size_t(i)), 2.0f * i);
        EXPECT_EQ(sys.memory().loadF(out + std::size_t(n + i)),
                  10.0f * i);
    }
}

TEST(Host, RecipComputeOp)
{
    // The op finishes in its recipCycles-th cycle; a zero latency
    // finishes in the first, like one.
    for (unsigned recip : {16u, 1u, 0u}) {
        for (sim::EngineMode mode :
             {sim::EngineMode::Spin, sim::EngineMode::Skip}) {
            CoprocConfig cfg;
            cfg.host.recipCycles = recip;
            cfg.engineMode = mode;
            cfg.watchdogCycles = 5000;
            Coprocessor sys(cfg);
            std::size_t a = sys.memory().alloc(2);
            sys.memory().storeF(a, 4.0f);
            sys.host().enqueue(host::recipOp(a + 1, a));
            const std::string what = strfmt(
                "recipCycles %u, %s", recip, sim::engineModeName(mode));
            Cycle cycles = sys.run();
            EXPECT_EQ(sys.memory().loadF(a + 1), 0.25f) << what;
            EXPECT_EQ(cycles, Cycle(std::max(recip, 1u))) << what;
        }
    }
}

TEST(Host, CooldownStandsStillWhileTheProgramIsEmpty)
{
    // The first program ends on a data word at tau = 8, leaving seven
    // cooldown cycles, while the cell still has to copy it to tpo. The
    // host waits out those cycles only once it has a program again:
    // the second program's first word moves 7 cycles after it starts.
    for (sim::EngineMode mode :
         {sim::EngineMode::Spin, sim::EngineMode::Skip}) {
        CoprocConfig cfg;
        cfg.host.tau = 8;
        cfg.engineMode = mode;
        Coprocessor sys(cfg);
        sys.loadMicrocode(1, copyKernel(), 1);
        std::size_t buf = sys.memory().alloc(4);
        sys.host().enqueue(host::callOp(1, 1, {4}));
        sys.host().enqueue(host::sendOp(1, Region::vec(buf, 4)));
        const char *what = sim::engineModeName(mode);
        EXPECT_EQ(sys.run(), 29u) << what;
        sys.host().enqueue(host::recvOp(0, Region::vec(buf, 4)));
        EXPECT_EQ(sys.run(), 7u + 3 * 8 + 1) << what;
    }
}

TEST(Host, CallWordsCheaperThanData)
{
    CoprocConfig cfg;
    cfg.host.tau = 4;
    Coprocessor sys(cfg);
    sys.loadMicrocode(1, copyKernel(), 1);
    std::size_t in = sys.memory().alloc(1);
    std::size_t out = sys.memory().alloc(1);
    sys.host().enqueue(host::callOp(1, 1, {1}));
    sys.host().enqueue(host::sendOp(1, Region::vec(in, 1)));
    sys.host().enqueue(host::recvOp(0, Region::vec(out, 1)));
    Cycle cycles = sys.run();
    // 2 call words at 1 cycle + 2 data words at tau + cell latency:
    // comfortably under 2+2 words all at tau plus slack.
    EXPECT_LT(cycles, 40u);
}

TEST(Host, StatusLineReportsProgress)
{
    CoprocConfig cfg;
    Coprocessor sys(cfg);
    std::size_t in = sys.memory().alloc(4);
    sys.host().enqueue(host::sendOp(1, Region::vec(in, 4)));
    EXPECT_NE(sys.host().statusLine().find("send"), std::string::npos);
    sys.run();
    EXPECT_NE(sys.host().statusLine().find("complete"),
              std::string::npos);
}

TEST(Coprocessor, StatsReportContainsAllComponents)
{
    CoprocConfig cfg;
    cfg.cells = 2;
    Coprocessor sys(cfg);
    std::string report = sys.statsReport();
    EXPECT_NE(report.find("system.cell0"), std::string::npos);
    EXPECT_NE(report.find("system.cell1"), std::string::npos);
    EXPECT_NE(report.find("system.host"), std::string::npos);
}

TEST(Host, SecondaryOperandStreamViaTpy)
{
    // out[i] = x[i] * y[i]: x on tpx, y on tpy — the dual input
    // streams of fig. 4.
    isa::ProgramBuilder b("mulxy");
    b.loopParam(0, [&] {
        b.fma(Src::TpX, Src::TpY, Src::Zero, DstTpO);
    });
    CoprocConfig cfg;
    Coprocessor sys(cfg);
    sys.cell(0).loadMicrocode(5, b.finish(), 1);
    const int n = 6;
    std::size_t xs = sys.memory().alloc(n);
    std::size_t ys = sys.memory().alloc(n);
    std::size_t out = sys.memory().alloc(n);
    for (int i = 0; i < n; ++i) {
        sys.memory().storeF(xs + std::size_t(i), float(i));
        sys.memory().storeF(ys + std::size_t(i), 10.0f);
    }
    sys.host().enqueue(host::callOp(1, 5, {n}));
    sys.host().enqueue(host::sendOp(1, Region::vec(xs, n)));
    sys.host().enqueue(host::sendOp(1, Region::vec(ys, n),
                                    host::SendTarget::TpY));
    sys.host().enqueue(host::recvOp(0, Region::vec(out, n)));
    sys.run();
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(sys.memory().loadF(out + std::size_t(i)),
                  10.0f * float(i));
}

TEST(Region, GridAddressing)
{
    // Transposed 3x2 sub-block: 2 words per group with stride 10,
    // 3 groups with stride 1.
    Region r = Region::grid(50, 2, 10, 3, 1);
    EXPECT_EQ(r.count(), 6u);
    EXPECT_EQ(r.addr(0), 50u);
    EXPECT_EQ(r.addr(1), 60u);
    EXPECT_EQ(r.addr(2), 51u);
    EXPECT_EQ(r.addr(5), 62u);
}

TEST(Host, SqrtRecipComputeOp)
{
    CoprocConfig cfg;
    Coprocessor sys(cfg);
    std::size_t a = sys.memory().alloc(3);
    sys.memory().storeF(a, 16.0f);
    sys.host().enqueue(host::sqrtRecipOp(a + 1, a + 2, a));
    sys.run();
    EXPECT_EQ(sys.memory().loadF(a + 1), 4.0f);
    EXPECT_EQ(sys.memory().loadF(a + 2), 0.25f);
}

TEST(Host, StatsCountTrafficAndStalls)
{
    CoprocConfig cfg;
    cfg.host.tau = 2;
    Coprocessor sys(cfg);
    isa::ProgramBuilder b("copy");
    b.loopParam(0, [&] { b.mov(Src::TpX, DstTpO); });
    sys.cell(0).loadMicrocode(1, b.finish(), 1);
    std::size_t buf = sys.memory().alloc(8);
    sys.host().enqueue(host::callOp(1, 1, {8}));
    sys.host().enqueue(host::sendOp(1, Region::vec(buf, 8)));
    sys.host().enqueue(host::recvOp(0, Region::vec(buf, 8)));
    sys.run();
    auto &st = sys.host().stats();
    EXPECT_EQ(st.counterValue("wordsSent"), 8u);
    EXPECT_EQ(st.counterValue("wordsReceived"), 8u);
    EXPECT_EQ(st.counterValue("callWords"), 2u);
    EXPECT_EQ(st.counterValue("opsCompleted"), 3u);
}

TEST(Host, BroadcastCallReachesAllCells)
{
    CoprocConfig cfg;
    cfg.cells = 3;
    Coprocessor sys(cfg);
    isa::ProgramBuilder b("copy");
    b.loopParam(0, [&] { b.mov(Src::TpX, DstTpO); });
    isa::Program prog = b.finish();
    for (unsigned c = 0; c < 3; ++c)
        sys.cell(c).loadMicrocode(1, prog, 1);
    std::size_t buf = sys.memory().alloc(2);
    std::size_t out = sys.memory().alloc(6);
    sys.memory().storeF(buf, 5.0f);
    sys.memory().storeF(buf + 1, 6.0f);
    sys.host().enqueue(host::callOp(copro::allCellsMask(3), 1, {2}));
    sys.host().enqueue(host::sendOp(copro::allCellsMask(3),
                                    Region::vec(buf, 2)));
    for (unsigned c = 0; c < 3; ++c) {
        sys.host().enqueue(host::recvOp(
            c, Region::vec(out + 2 * c, 2)));
    }
    sys.run();
    for (unsigned c = 0; c < 3; ++c) {
        EXPECT_EQ(sys.memory().loadF(out + 2 * c), 5.0f);
        EXPECT_EQ(sys.memory().loadF(out + 2 * c + 1), 6.0f);
    }
}

TEST(Coprocessor, RejectsBadCellCount)
{
    CoprocConfig cfg;
    cfg.cells = 0;
    EXPECT_THROW(Coprocessor sys(cfg), std::logic_error);
}
