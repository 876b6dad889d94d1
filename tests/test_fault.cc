/**
 * @file
 * Tests of the fault-injection and recovery subsystem
 * (docs/RESILIENCE.md): seed-determinism of fault plans, SECDED word
 * protection, per-site parity detect/correct survival, transaction
 * timeout -> retry -> replay over the kernel library, dead-cell
 * degradation with re-planning, spin-vs-skip and fast-tier on/off
 * identity under faults (one raised inside a burst window), and the
 * engine's non-fatal watchdog callback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

#include "blasref/blas3.hh"
#include "common/error.hh"
#include "common/random.hh"
#include "coproc/coprocessor.hh"
#include "fault/fault.hh"
#include "fault/injector.hh"
#include "kernels/kernel_set.hh"
#include "planner/jobs.hh"
#include "planner/linalg_plan.hh"
#include "planner/signal_plan.hh"

using namespace opac;
using namespace opac::planner;
using blasref::Matrix;
using copro::CoprocConfig;
using copro::Coprocessor;

namespace
{

CoprocConfig
makeConfig(unsigned cells, std::size_t tf = 512, unsigned tau = 2)
{
    CoprocConfig cfg;
    cfg.cells = cells;
    cfg.cell.tf = tf;
    cfg.cell.interfaceDepth = std::max<std::size_t>(tf, 2048);
    cfg.host.tau = tau;
    cfg.watchdogCycles = 500000;
    return cfg;
}

/** Arm @p cfg with the full protected-recovery stack. */
void
protect(CoprocConfig &cfg, const std::string &spec,
        fault::ParityMode parity = fault::ParityMode::Correct,
        Cycle timeout = 20000, unsigned budget = 4)
{
    cfg.faults = fault::parseFaultSpec(spec);
    cfg.cell.parity = parity;
    cfg.host.recovery.enabled = true;
    cfg.host.recovery.timeoutCycles = timeout;
    cfg.host.recovery.retryBudget = budget;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------

TEST(FaultSpec, ParsesFullGrammar)
{
    auto spec = fault::parseFaultSpec(
        "seed=42,rate=12.5,horizon=5000,kinds=flip+hang,bits=1,"
        "at=100/flip/2/sum/4,at=200/hang/0/0");
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_DOUBLE_EQ(spec.ratePerMcycle, 12.5);
    EXPECT_EQ(spec.horizon, 5000u);
    EXPECT_EQ(spec.maxFlipBits, 1u);
    EXPECT_TRUE(spec.kindEnabled(fault::FaultKind::FifoFlip));
    EXPECT_TRUE(spec.kindEnabled(fault::FaultKind::CellHang));
    EXPECT_FALSE(spec.kindEnabled(fault::FaultKind::BusDrop));
    ASSERT_EQ(spec.explicitEvents.size(), 2u);
    EXPECT_EQ(spec.explicitEvents[0].at, 100u);
    EXPECT_EQ(spec.explicitEvents[0].site, fault::FifoSite::Sum);
    EXPECT_EQ(spec.explicitEvents[0].mask, 4u);
    EXPECT_EQ(spec.explicitEvents[1].kind, fault::FaultKind::CellHang);
    EXPECT_EQ(spec.explicitEvents[1].arg, 0u);
    EXPECT_TRUE(spec.any());
    EXPECT_FALSE(fault::parseFaultSpec("").any());
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(fault::parseFaultSpec("bogus=1"), FaultSpecError);
    EXPECT_THROW(fault::parseFaultSpec("kinds=warp"), FaultSpecError);
    EXPECT_THROW(fault::parseFaultSpec("rate=fast"), FaultSpecError);
    EXPECT_THROW(fault::parseFaultSpec("at=99"), FaultSpecError);
    EXPECT_THROW(fault::parseFaultSpec("at=99/zap"), FaultSpecError);
    EXPECT_THROW(fault::parseFaultSpec("at=9/flip/0/nowhere"),
                 FaultSpecError);
    EXPECT_THROW(fault::parseParityMode("perhaps"), FaultSpecError);
}

TEST(FaultPlan, SeedReproducible)
{
    auto spec = fault::parseFaultSpec("seed=9,n=40,horizon=100000");
    auto a = fault::buildPlan(spec, 4);
    auto b = fault::buildPlan(spec, 4);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), 40u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].cell, b[i].cell);
        EXPECT_EQ(a[i].site, b[i].site);
        EXPECT_EQ(a[i].mask, b[i].mask);
        EXPECT_EQ(a[i].arg, b[i].arg);
        if (i > 0) {
            EXPECT_GE(a[i].at, a[i - 1].at); // sorted schedule
        }
        EXPECT_LT(a[i].cell, 4u);
    }
    // A different seed must give a different schedule.
    auto spec2 = fault::parseFaultSpec("seed=10,n=40,horizon=100000");
    auto c = fault::buildPlan(spec2, 4);
    bool differs = false;
    for (std::size_t i = 0; i < c.size(); ++i)
        differs = differs || c[i].at != a[i].at
                  || c[i].kind != a[i].kind;
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------
// SECDED
// ---------------------------------------------------------------------

TEST(Secded, CorrectsSingleBitDetectsDoubleBit)
{
    Rng rng(3);
    std::vector<Word> words = {0u, 0xffffffffu, 0xdeadbeefu,
                               0x80000000u, 1u};
    for (int i = 0; i < 20; ++i)
        words.push_back(Word(rng.next()));
    for (Word w : words) {
        std::uint8_t ecc = fault::secdedEncode(w);
        Word clean = w;
        EXPECT_EQ(fault::secdedDecode(clean, ecc),
                  fault::SecdedResult::Ok);
        EXPECT_EQ(clean, w);
        for (unsigned bit = 0; bit < 32; ++bit) {
            Word flipped = w ^ (1u << bit);
            EXPECT_EQ(fault::secdedDecode(flipped, ecc),
                      fault::SecdedResult::Corrected);
            EXPECT_EQ(flipped, w); // repaired in place
        }
        for (unsigned bit = 0; bit < 31; ++bit) {
            Word dbl = w ^ (3u << bit);
            EXPECT_EQ(fault::secdedDecode(dbl, ecc),
                      fault::SecdedResult::Uncorrectable);
        }
    }
}

namespace
{

/**
 * Bitwise SECDED reference: the code computed straight from its
 * layout, one popcount per check bit. The slower, obviously-right
 * oracle the table-driven fault::secdedEncode / secdedDecode are
 * checked against.
 */
struct RefLayout
{
    std::uint64_t groupMask[6] = {};
    int posToData[39] = {};

    RefLayout()
    {
        std::fill(std::begin(posToData), std::end(posToData), -1);
        unsigned di = 0;
        for (unsigned pos = 1; pos <= 38; ++pos) {
            if ((pos & (pos - 1)) == 0)
                continue;
            posToData[pos] = int(di);
            for (unsigned pi = 0; pi < 6; ++pi)
                if (pos & (1u << pi))
                    groupMask[pi] |= std::uint64_t(1) << di;
            ++di;
        }
    }
};

const RefLayout refLayout;

std::uint8_t
refEncode(Word w)
{
    std::uint8_t ecc = 0;
    for (unsigned pi = 0; pi < 6; ++pi)
        if (std::popcount(std::uint64_t(w) & refLayout.groupMask[pi]) & 1)
            ecc |= std::uint8_t(1u << pi);
    if ((std::popcount(w) + std::popcount(unsigned(ecc & 0x3f))) & 1)
        ecc |= 0x40;
    return ecc;
}

fault::SecdedResult
refDecode(Word &w, std::uint8_t ecc)
{
    unsigned syndrome = unsigned(refEncode(w) ^ ecc) & 0x3fu;
    bool overallOdd =
        (((std::popcount(w) + std::popcount(unsigned(ecc) & 0x3fu)) & 1)
         != 0)
        != ((ecc & 0x40) != 0);
    if (syndrome == 0 && !overallOdd)
        return fault::SecdedResult::Ok;
    if (!overallOdd)
        return fault::SecdedResult::Uncorrectable;
    if (syndrome >= 1 && syndrome <= 38
        && refLayout.posToData[syndrome] >= 0) {
        w ^= 1u << unsigned(refLayout.posToData[syndrome]);
        return fault::SecdedResult::Corrected;
    }
    return fault::SecdedResult::Uncorrectable;
}

/** Decode @p w against @p ecc with both implementations; they must
 *  agree on the verdict and on the (possibly repaired) word. */
void
expectDecodeMatches(Word w, std::uint8_t ecc)
{
    Word got = w, want = w;
    fault::SecdedResult r = fault::secdedDecode(got, ecc);
    ASSERT_EQ(int(r), int(refDecode(want, ecc)))
        << std::hex << "word " << w << " ecc " << unsigned(ecc);
    ASSERT_EQ(got, want) << std::hex << "word " << w << " ecc "
                         << unsigned(ecc);
}

} // anonymous namespace

TEST(Secded, TablesMatchReferenceOnEveryByteInEveryLane)
{
    for (unsigned lane = 0; lane < 4; ++lane) {
        for (unsigned b = 0; b < 256; ++b) {
            Word w = Word(b) << (8 * lane);
            ASSERT_EQ(fault::secdedEncode(w), refEncode(w))
                << "lane " << lane << " byte " << b;
        }
    }
}

TEST(Secded, EncodeIsLinearOverGf2)
{
    Rng rng(5);
    EXPECT_EQ(fault::secdedEncode(0), 0);
    for (int i = 0; i < 100000; ++i) {
        Word a = Word(rng.next()), b = Word(rng.next());
        ASSERT_EQ(fault::secdedEncode(a ^ b),
                  fault::secdedEncode(a) ^ fault::secdedEncode(b))
            << std::hex << a << " ^ " << b;
    }
}

TEST(Secded, EncodeMatchesReferenceOnRandomWords)
{
    Rng rng(11);
    for (int i = 0; i < (1 << 20); ++i) {
        Word w = Word(rng.next());
        ASSERT_EQ(fault::secdedEncode(w), refEncode(w))
            << std::hex << w;
    }
}

TEST(Secded, DecodeMatchesReferenceOnDamagedWords)
{
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
        Word w = Word(rng.next());
        std::uint8_t ecc = refEncode(w);
        expectDecodeMatches(w, ecc);
        // Every single-bit flip: repaired to the same word.
        for (unsigned bit = 0; bit < 32; ++bit)
            expectDecodeMatches(w ^ (1u << bit), ecc);
        // Random double flips: flagged alike, never "repaired".
        for (int k = 0; k < 32; ++k) {
            unsigned b1 = unsigned(rng.range(0, 31));
            unsigned b2 = unsigned(rng.range(0, 30));
            if (b2 >= b1)
                ++b2;
            expectDecodeMatches(w ^ (1u << b1) ^ (1u << b2), ecc);
        }
        // Arbitrary stored bytes, bit 7 included.
        for (int k = 0; k < 32; ++k)
            expectDecodeMatches(w, std::uint8_t(rng.range(0, 255)));
    }
    // And every stored byte against a few fixed words.
    for (Word w : {0u, 0xffffffffu, 0xdeadbeefu, 0x80000001u})
        for (unsigned ecc = 0; ecc < 256; ++ecc)
            expectDecodeMatches(w, std::uint8_t(ecc));
}

// ---------------------------------------------------------------------
// Per-site parity survival
// ---------------------------------------------------------------------

namespace
{

/** One-cell GEMM; returns the result matrix. */
Matrix
runGemm(CoprocConfig cfg, Cycle *cycles = nullptr,
        std::string *stats_json = nullptr)
{
    Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);
    Rng rng(5);
    Matrix c(12, 12), a(12, 8), b(8, 12);
    c.randomize(rng);
    a.randomize(rng);
    b.randomize(rng);
    MatRef cr = allocMat(sys.memory(), 12, 12);
    MatRef ar = allocMat(sys.memory(), 12, 8);
    MatRef br = allocMat(sys.memory(), 8, 12);
    storeMat(sys.memory(), cr, c);
    storeMat(sys.memory(), ar, a);
    storeMat(sys.memory(), br, b);
    JobRunner jobs(sys);
    jobs.add("gemm", [&sys, cr, ar, br](std::uint32_t alive) {
        LinalgPlanner plan(sys, alive);
        plan.matUpdate(cr, ar, br);
        return plan.takeOps();
    });
    jobs.dispatch();
    const Cycle cy = sys.run();
    if (cycles)
        *cycles = cy;
    if (stats_json)
        *stats_json = sys.statsJson();
    return loadMat(sys.memory(), cr);
}

} // anonymous namespace

class ParitySites : public ::testing::TestWithParam<const char *>
{};

TEST_P(ParitySites, FlipSurvivesInBothProtectionModes)
{
    const char *site = GetParam();
    Matrix want = runGemm(makeConfig(1));
    for (auto mode :
         {fault::ParityMode::Correct, fault::ParityMode::Detect}) {
        CoprocConfig cfg = makeConfig(1);
        // One single-bit flip into this site mid-run. In Correct mode
        // it is repaired on the spot; in Detect mode the cell faults
        // and the transaction retries.
        protect(cfg, strfmt("at=300/flip/0/%s/16", site), mode, 4000);
        Matrix got = runGemm(cfg);
        EXPECT_EQ(got.maxAbsDiff(want), 0.0f)
            << "site " << site << " mode "
            << fault::parityModeName(mode);
    }
}

INSTANTIATE_TEST_SUITE_P(AllSevenQueues, ParitySites,
                         ::testing::Values("tpx", "tpy", "tpo", "tpi",
                                           "sum", "ret", "reby"));

TEST(Parity, TpoTripInsideACooldownResumesItAfterTheReset)
{
    // The host pops the damaged tpo word and starts its cooldown; the
    // next round aborts the transaction. That round does not count the
    // cooldown down: what is left of it resumes in the round after,
    // followed by the reset cost.
    std::string stats[2];
    for (sim::EngineMode mode :
         {sim::EngineMode::Spin, sim::EngineMode::Skip}) {
        CoprocConfig cfg = makeConfig(1);
        protect(cfg, "at=300/flip/0/tpo/16", fault::ParityMode::Detect,
                4000);
        cfg.engineMode = mode;
        Cycle cycles = 0;
        const Matrix got = runGemm(cfg, &cycles, &stats[int(mode)]);
        EXPECT_EQ(got.maxAbsDiff(runGemm(makeConfig(1))), 0.0f);
        EXPECT_EQ(cycles, 3631u) << sim::engineModeName(mode);
    }
    EXPECT_EQ(stats[0], stats[1]);
}

TEST(Parity, CorrectionAndDetectionAreCounted)
{
    // A flip into tpx while the host streams operands: Correct mode
    // must log a correction, Detect mode a detection plus a retry.
    CoprocConfig cfg = makeConfig(1);
    protect(cfg, "at=300/flip/0/tpx/1", fault::ParityMode::Correct,
            4000);
    {
        Coprocessor sys(cfg);
        kernels::installStandardKernels(sys);
        Rng rng(5);
        Matrix c(12, 12), a(12, 8), b(8, 12);
        c.randomize(rng);
        a.randomize(rng);
        b.randomize(rng);
        MatRef cr = allocMat(sys.memory(), 12, 12);
        MatRef ar = allocMat(sys.memory(), 12, 8);
        MatRef br = allocMat(sys.memory(), 8, 12);
        storeMat(sys.memory(), cr, c);
        storeMat(sys.memory(), ar, a);
        storeMat(sys.memory(), br, b);
        LinalgPlanner plan(sys);
        plan.matUpdate(cr, ar, br);
        plan.commit();
        sys.run();
        EXPECT_EQ(sys.cell(0).tpx().totalFaultsInjected(), 1u);
        EXPECT_EQ(sys.cell(0).tpx().totalParityCorrected(), 1u);
        EXPECT_EQ(sys.cell(0).tpx().totalParityDetected(), 0u);
        ASSERT_NE(sys.injector(), nullptr);
        EXPECT_EQ(sys.injector()->injected(), 1u);
        EXPECT_EQ(sys.injector()->planSize(), 1u);
    }
    cfg.cell.parity = fault::ParityMode::Detect;
    {
        Coprocessor sys(cfg);
        kernels::installStandardKernels(sys);
        Rng rng(5);
        Matrix c(12, 12), a(12, 8), b(8, 12);
        c.randomize(rng);
        a.randomize(rng);
        b.randomize(rng);
        MatRef cr = allocMat(sys.memory(), 12, 12);
        MatRef ar = allocMat(sys.memory(), 12, 8);
        MatRef br = allocMat(sys.memory(), 8, 12);
        storeMat(sys.memory(), cr, c);
        storeMat(sys.memory(), ar, a);
        storeMat(sys.memory(), br, b);
        JobRunner jobs(sys);
        jobs.add("gemm", [&sys, cr, ar, br](std::uint32_t alive) {
            LinalgPlanner plan(sys, alive);
            plan.matUpdate(cr, ar, br);
            return plan.takeOps();
        });
        jobs.dispatch();
        sys.run();
        EXPECT_EQ(sys.cell(0).tpx().totalParityDetected(), 1u);
        EXPECT_EQ(sys.cell(0).tpx().totalParityCorrected(), 0u);
        EXPECT_GE(sys.host().retries(), 1u);
        EXPECT_EQ(sys.host().deadCells(), 0u);
        Matrix got = loadMat(sys.memory(), cr);
        Matrix want = c;
        blasref::gemm(want, a, b);
        EXPECT_LT(got.maxAbsDiff(want), 1e-3f);
    }
}

// ---------------------------------------------------------------------
// Retry + replay across the kernel library
// ---------------------------------------------------------------------

namespace
{

/**
 * A named workload: sets up inputs in @p sys, registers jobs, and
 * returns the memory regions holding the results.
 */
using Regions = std::vector<std::pair<std::size_t, std::size_t>>;
using WorkloadFn = Regions (*)(Coprocessor &, JobRunner &);

Regions
linalgWorkload(Coprocessor &sys, JobRunner &jobs)
{
    auto &mem = sys.memory();
    Rng rng(11);
    // GEMM add + subtract (mat_update kernels, both signs).
    Matrix c(16, 16), a(16, 12), b(12, 16);
    c.randomize(rng);
    a.randomize(rng);
    b.randomize(rng);
    MatRef cr = allocMat(mem, 16, 16);
    MatRef ar = allocMat(mem, 16, 12);
    MatRef br = allocMat(mem, 12, 16);
    storeMat(mem, cr, c);
    storeMat(mem, ar, a);
    storeMat(mem, br, b);
    jobs.add("gemm", [&sys, cr, ar, br](std::uint32_t alive) {
        LinalgPlanner plan(sys, alive);
        plan.matUpdate(cr, ar, br);
        plan.matUpdate(cr, ar, br, /*negate=*/true);
        return plan.takeOps();
    });
    // LU (lu_leaf, tr_solve, recip_nr) and Cholesky (cholesky_leaf).
    Matrix lu(20, 20);
    lu.randomize(rng);
    for (std::size_t i = 0; i < 20; ++i)
        lu.at(i, i) += 8.0f; // diagonally dominant: stable, no pivots
    MatRef lur = allocMat(mem, 20, 20);
    storeMat(mem, lur, lu);
    jobs.add("lu", [&sys, lur](std::uint32_t alive) {
        LinalgPlanner plan(sys, alive);
        plan.lu(lur);
        return plan.takeOps();
    });
    Matrix spd(12, 12, 0.0f);
    for (std::size_t i = 0; i < 12; ++i)
        for (std::size_t j = 0; j < 12; ++j)
            spd.at(i, j) = (i == j ? 14.0f : 0.0f)
                           + 0.5f / float(1 + i + j);
    MatRef spdr = allocMat(mem, 12, 12);
    storeMat(mem, spdr, spd);
    jobs.add("cholesky", [&sys, spdr](std::uint32_t alive) {
        LinalgPlanner plan(sys, alive);
        plan.cholesky(spdr);
        return plan.takeOps();
    });
    return {{cr.base, 16 * 16}, {lur.base, 20 * 20},
            {spdr.base, 12 * 12}};
}

Regions
signalWorkload(Coprocessor &sys, JobRunner &jobs)
{
    auto &mem = sys.memory();
    Rng rng(13);
    const std::size_t n = 64, batch = 2;
    std::size_t fin = mem.alloc(2 * n * batch);
    std::size_t fout = mem.alloc(2 * n * batch);
    std::size_t rin = mem.alloc(2 * n * batch);
    std::size_t rout = mem.alloc(2 * n * batch);
    for (std::size_t i = 0; i < 2 * n * batch; ++i) {
        float v = rng.uniform(-1.0f, 1.0f);
        mem.storeF(fin + i, v);
        mem.storeF(rin + i, v);
    }
    jobs.add("fft", [&sys, fin, fout, n, batch](std::uint32_t alive) {
        SignalPlanner plan(sys, alive);
        plan.fft(fin, fout, n, batch);
        return plan.takeOps();
    });
    jobs.add("fft_resident",
             [&sys, rin, rout, n, batch](std::uint32_t alive) {
                 SignalPlanner plan(sys, alive);
                 plan.fftResident(rin, rout, n, batch);
                 return plan.takeOps();
             });
    const std::size_t nx = 256, lags = 8;
    std::size_t x = mem.alloc(nx);
    std::size_t y = mem.alloc(nx + lags - 1);
    std::size_t corr = mem.alloc(lags);
    for (std::size_t i = 0; i < nx; ++i)
        mem.storeF(x + i, rng.uniform(-1.0f, 1.0f));
    for (std::size_t i = 0; i < nx + lags - 1; ++i)
        mem.storeF(y + i, rng.uniform(-1.0f, 1.0f));
    jobs.add("correlation",
             [&sys, x, nx, y, lags, corr](std::uint32_t alive) {
                 SignalPlanner plan(sys, alive);
                 plan.correlation(x, nx, y, lags, corr);
                 return plan.takeOps();
             });
    // gemv and conv2d (generated microcode) on small shapes.
    MatRef ga = allocMat(mem, 16, 24);
    std::size_t gx = mem.alloc(24), gy = mem.alloc(16);
    for (std::size_t i = 0; i < 16 * 24; ++i)
        mem.storeF(ga.base + i, rng.uniform(-1.0f, 1.0f));
    for (std::size_t i = 0; i < 24; ++i)
        mem.storeF(gx + i, rng.uniform(-1.0f, 1.0f));
    for (std::size_t i = 0; i < 16; ++i)
        mem.storeF(gy + i, rng.uniform(-1.0f, 1.0f));
    jobs.add("gemv", [&sys, ga, gx, gy](std::uint32_t alive) {
        SignalPlanner plan(sys, alive);
        plan.gemv(ga, gx, gy);
        return plan.takeOps();
    });
    const std::size_t in = 8, im = 20;
    const unsigned p = 3, q = 3;
    Matrix img(in, im), w(p, q);
    img.randomize(rng);
    w.randomize(rng);
    MatRef image_t = allocMat(mem, im + q - 1, in + p);
    for (std::size_t r = 0; r < image_t.cols; ++r) {
        for (std::size_t cc = 0; cc < image_t.rows; ++cc) {
            float v = 0.0f;
            if (r < img.rows() && cc < img.cols())
                v = img.at(r, cc);
            mem.storeF(image_t.addrOf(cc, r), v);
        }
    }
    MatRef wr = allocMat(mem, p, q);
    storeMat(mem, wr, w);
    MatRef out_t = allocMat(mem, im, in);
    jobs.add("conv2d",
             [&sys, image_t, wr, out_t, in, im](std::uint32_t alive) {
                 SignalPlanner plan(sys, alive);
                 plan.conv2d(image_t, wr, out_t, in, im);
                 return plan.takeOps();
             });
    return {{fout, 2 * n * batch},
            {rout, 2 * n * batch},
            {corr, lags},
            {gy, 16},
            {out_t.base, in * im}};
}

std::vector<float>
runWorkload(CoprocConfig cfg, WorkloadFn fn, Cycle *cycles = nullptr,
            std::string *stats_json = nullptr)
{
    Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);
    JobRunner jobs(sys);
    Regions regions = fn(sys, jobs);
    jobs.dispatch();
    Cycle cy = sys.run();
    if (cycles)
        *cycles = cy;
    if (stats_json)
        *stats_json = sys.statsJson();
    std::vector<float> out;
    for (auto [base, count] : regions)
        for (std::size_t i = 0; i < count; ++i)
            out.push_back(sys.memory().loadF(base + i));
    return out;
}

} // anonymous namespace

class RecoverySurvival
    : public ::testing::TestWithParam<std::pair<const char *, WorkloadFn>>
{};

TEST_P(RecoverySurvival, RetryReplayIsOracleIdentical)
{
    auto [name, fn] = GetParam();
    // Oracle: the same workload on the same machine, fault-free.
    Cycle clean_cycles = 0;
    std::vector<float> want =
        runWorkload(makeConfig(2), fn, &clean_cycles);
    ASSERT_FALSE(want.empty());
    // Size the random plan to the run so faults actually land: ~5
    // faults of every recoverable kind across three seeds.
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        CoprocConfig cfg = makeConfig(2);
        Cycle horizon = clean_cycles > 200 ? clean_cycles * 3 / 4 : 200;
        protect(cfg,
                strfmt("seed=%llu,n=5,horizon=%llu,"
                       "kinds=flip+drop+dup+hang+halt+mem",
                       (unsigned long long)seed,
                       (unsigned long long)horizon));
        std::vector<float> got = runWorkload(cfg, fn);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i])
                << name << " seed " << seed << " word " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    KernelLibrary, RecoverySurvival,
    ::testing::Values(std::make_pair("linalg", &linalgWorkload),
                      std::make_pair("signal", &signalWorkload)));

// ---------------------------------------------------------------------
// Dead-cell degradation
// ---------------------------------------------------------------------

namespace
{

/** A gemm job's result region and its blasref answer. */
struct GemmJob
{
    MatRef c;
    Matrix want;
};

/** Register three 20x20x12 gemm jobs with @p jobs. */
std::vector<GemmJob>
addGemmJobs(Coprocessor &sys, JobRunner &jobs)
{
    Rng rng(7);
    std::vector<GemmJob> out;
    for (unsigned j = 0; j < 3; ++j) {
        Matrix c(20, 20), a(20, 12), b(12, 20);
        c.randomize(rng);
        a.randomize(rng);
        b.randomize(rng);
        Matrix want = c;
        blasref::gemm(want, a, b);
        MatRef cr = allocMat(sys.memory(), 20, 20);
        MatRef ar = allocMat(sys.memory(), 20, 12);
        MatRef br = allocMat(sys.memory(), 12, 20);
        storeMat(sys.memory(), cr, c);
        storeMat(sys.memory(), ar, a);
        storeMat(sys.memory(), br, b);
        jobs.add(strfmt("gemm%u", j),
                 [&sys, cr, ar, br](std::uint32_t alive) {
                     LinalgPlanner plan(sys, alive);
                     plan.matUpdate(cr, ar, br);
                     return plan.takeOps();
                 });
        out.push_back({cr, want});
    }
    return out;
}

} // anonymous namespace

TEST(Recovery, DeadCellDegradesOntoSurvivors)
{
    CoprocConfig cfg = makeConfig(4);
    // Cell 1 hangs permanently mid-run: reset cannot revive it, the
    // retry budget runs out, and the work must finish on cells 0/2/3.
    protect(cfg, "at=2500/hang/1/0", fault::ParityMode::Correct,
            /*timeout=*/3000, /*budget=*/2);
    Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);
    JobRunner jobs(sys);
    const std::vector<GemmJob> gemms = addGemmJobs(sys, jobs);
    jobs.dispatch();
    sys.run();
    EXPECT_EQ(sys.host().deadCells(), 1u);
    EXPECT_EQ(sys.host().aliveMask(), 0b1101u);
    EXPECT_TRUE(sys.cell(1).dead());
    EXPECT_EQ(sys.host().completedJobs().size(), gemms.size());
    EXPECT_GE(jobs.replans(), 1u);
    for (std::size_t j = 0; j < gemms.size(); ++j)
        EXPECT_LT(loadMat(sys.memory(), gemms[j].c)
                      .maxAbsDiff(gemms[j].want),
                  1e-3f)
            << "job " << j;
}

TEST(Recovery, WatchdogHandOffResetsAndReplays)
{
    // The watchdog (400 cycles) fires long before the transaction
    // deadline (100000): Host::forceRecovery aborts between rounds,
    // so the reset cost runs from the engine's current cycle, not the
    // one after. Every retry and the degradation go this way.
    auto run = [](sim::EngineMode mode) {
        CoprocConfig cfg = makeConfig(4);
        protect(cfg, "at=2500/hang/1/0", fault::ParityMode::Correct,
                /*timeout=*/100000, /*budget=*/2);
        cfg.watchdogCycles = 400;
        cfg.engineMode = mode;
        Coprocessor sys(cfg);
        kernels::installStandardKernels(sys);
        JobRunner jobs(sys);
        const std::vector<GemmJob> gemms = addGemmJobs(sys, jobs);
        jobs.dispatch();
        const Cycle cycles = sys.run();
        const char *what = sim::engineModeName(mode);
        EXPECT_EQ(cycles, 19386u) << what;
        EXPECT_EQ(sys.host().timeouts(), 3u) << what;
        EXPECT_EQ(sys.host().retries(), 2u) << what;
        EXPECT_EQ(sys.host().deadCells(), 1u) << what;
        EXPECT_EQ(sys.host().completedJobs().size(), gemms.size()) << what;
        for (std::size_t j = 0; j < gemms.size(); ++j)
            EXPECT_LT(loadMat(sys.memory(), gemms[j].c)
                          .maxAbsDiff(gemms[j].want),
                      1e-3f)
                << what << " job " << j;
        return sys.statsJson();
    };
    EXPECT_EQ(run(sim::EngineMode::Spin), run(sim::EngineMode::Skip));
}

TEST(Recovery, AllCellsDeadThrowsRecoveryError)
{
    CoprocConfig cfg = makeConfig(1);
    protect(cfg, "at=300/hang/0/0", fault::ParityMode::Correct,
            /*timeout=*/1000, /*budget=*/1);
    Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);
    Rng rng(5);
    Matrix c(12, 12), a(12, 8), b(8, 12);
    c.randomize(rng);
    a.randomize(rng);
    b.randomize(rng);
    MatRef cr = allocMat(sys.memory(), 12, 12);
    MatRef ar = allocMat(sys.memory(), 12, 8);
    MatRef br = allocMat(sys.memory(), 8, 12);
    storeMat(sys.memory(), cr, c);
    storeMat(sys.memory(), ar, a);
    storeMat(sys.memory(), br, b);
    JobRunner jobs(sys);
    jobs.add("gemm", [&sys, cr, ar, br](std::uint32_t alive) {
        LinalgPlanner plan(sys, alive);
        plan.matUpdate(cr, ar, br);
        return plan.takeOps();
    });
    jobs.dispatch();
    EXPECT_THROW(sys.run(), RecoveryError);
}

// ---------------------------------------------------------------------
// Fast-forward identity under faults
// ---------------------------------------------------------------------

TEST(Injector, HintNamesTheCycleOfADueFault)
{
    // The engine asks for hints before the round at `now`, so a fault
    // due at `now` is this round's event: the hint must be `now`
    // itself, not the cycle after.
    std::vector<fault::FaultEvent> plan(2);
    plan[0].at = 0;
    plan[1].at = 10;
    fault::Injector inj("injector", plan, nullptr);
    EXPECT_EQ(inj.nextEventAt(0), 0u);
    EXPECT_EQ(inj.intrudesAt(0), 0u);
    sim::Engine eng;
    inj.tick(eng); // round 0 arms the first fault
    EXPECT_EQ(inj.armedCount(), 1u);
    EXPECT_EQ(inj.nextEventAt(1), 10u);
    EXPECT_EQ(inj.nextEventAt(10), 10u);
    EXPECT_EQ(inj.intrudesAt(10), 10u);
}

TEST(Faults, SkipAndSpinAreCycleIdentical)
{
    // A plan mixing every recoverable kind, with the retry machinery
    // live: idle-cycle skipping must neither miss an injection nor
    // shift a timeout.
    struct Out
    {
        Cycle cycles = 0;
        std::vector<float> vals;
        std::string statsJson;
    };
    auto run = [](bool skip) {
        CoprocConfig cfg = makeConfig(2);
        cfg.engineMode = skip ? sim::EngineMode::Skip
                              : sim::EngineMode::Spin;
        protect(cfg,
                "seed=4,n=6,horizon=4000,"
                "kinds=flip+drop+dup+hang+halt+mem",
                fault::ParityMode::Detect, /*timeout=*/2500);
        Out out;
        out.vals = runWorkload(cfg, &linalgWorkload, &out.cycles,
                               &out.statsJson);
        return out;
    };
    const Out skip = run(true);
    const Out spin = run(false);
    EXPECT_EQ(skip.cycles, spin.cycles);
    EXPECT_EQ(skip.vals, spin.vals);
    EXPECT_EQ(skip.statsJson, spin.statsJson);
}

TEST(Faults, ProtectionFaultInsideABurstFreezesTheCell)
{
    // Four cells stream matupdate with parity on, so turbo refuses and
    // every burst window cycle is interpreted. Recovery is off, so
    // nothing refuses the cells windows of their own. A two-bit flip
    // into a local queue is detected when the cell first pops the
    // word. On its own that pop is always a live round: a streaming
    // cell pops the flipped front in the same round, and a cell
    // between loops reaches it in a loop's first iteration, which no
    // window covers. The transient hang holds the pop back until the
    // hang expires just as the cell opens a window, so the fault rises
    // inside the cell's own window and the rest of the window must
    // freeze the cell exactly as live ticks do. The frozen cell never
    // finishes, so every run ends at the watchdog, where cycles and
    // stats are compared. The cycles are tied to this workload's
    // timeline (each cell's window opens at 4005 + 9, and the fault
    // rises in its first cycle): a model change that moves it needs
    // new ones, re-checked against a mutant whose burst ignores the
    // frozen state.
    struct Out
    {
        Cycle cycles = 0;
        std::string stats;
        bool deadlocked = false;
        std::uint64_t bursts = 0;
        std::uint64_t faults = 0;
    };
    auto run = [](const std::string &spec, sim::EngineMode mode,
                  bool fast_tier) {
        CoprocConfig cfg = makeConfig(4, 256);
        cfg.engineMode = mode;
        cfg.fastTier = fast_tier;
        cfg.watchdogCycles = 20000;
        cfg.faults = fault::parseFaultSpec(spec);
        cfg.cell.parity = fault::ParityMode::Detect;
        Coprocessor sys(cfg);
        kernels::installStandardKernels(sys);
        MatRef c = allocMat(sys.memory(), 24, 24);
        MatRef a = allocMat(sys.memory(), 24, 40);
        MatRef b = allocMat(sys.memory(), 40, 24);
        JobRunner jobs(sys);
        jobs.add("gemm", [&sys, c, a, b](std::uint32_t alive) {
            LinalgPlanner plan(sys, alive);
            plan.matUpdate(c, a, b);
            return plan.takeOps();
        });
        jobs.dispatch();
        Out out;
        try {
            sys.run();
        } catch (const DeadlockError &) {
            out.deadlocked = true;
        }
        out.cycles = sys.engine().now();
        out.stats = sys.statsJson();
        out.bursts = sys.engine().bursts();
        for (unsigned i = 0; i < sys.numCells(); ++i)
            out.faults += sys.cell(i).faultCount();
        return out;
    };
    for (const char *spec : {"at=4005/flip/1/sum/3,at=4005/hang/1/9",
                             "at=4005/flip/2/reby/3,at=4005/hang/2/9"}) {
        Out spin_off = run(spec, sim::EngineMode::Spin, false);
        Out spin_on = run(spec, sim::EngineMode::Spin, true);
        Out skip_off = run(spec, sim::EngineMode::Skip, false);
        Out skip_on = run(spec, sim::EngineMode::Skip, true);
        EXPECT_TRUE(spin_off.deadlocked) << spec;
        EXPECT_GT(skip_on.faults, 0u) << spec;
        EXPECT_GT(skip_on.bursts, 0u) << spec;
        for (const Out *o : {&spin_on, &skip_off, &skip_on}) {
            EXPECT_EQ(o->deadlocked, spin_off.deadlocked) << spec;
            EXPECT_EQ(o->cycles, spin_off.cycles) << spec;
            EXPECT_EQ(o->stats, spin_off.stats) << spec;
        }
    }
}

// ---------------------------------------------------------------------
// Watchdog callback
// ---------------------------------------------------------------------

namespace
{

/** Never finishes, never progresses: pure watchdog bait. */
struct StuckComponent : sim::Component
{
    StuckComponent() : sim::Component("stuck") {}
    void tick(sim::Engine &) override {}
    bool done() const override { return false; }
    Cycle nextEventAt(Cycle) const override { return noEvent; }
};

} // anonymous namespace

TEST(Watchdog, NonFatalHandlerCanDeferDeadlock)
{
    StuckComponent stuck;
    sim::Engine eng(/*watchdog_cycles=*/1000);
    eng.add(&stuck);
    unsigned calls = 0;
    eng.setWatchdogHandler([&calls](sim::Engine &) {
        ++calls;
        return calls < 3; // claim twice, then let it die
    });
    EXPECT_THROW(eng.run(), DeadlockError);
    EXPECT_EQ(calls, 3u);
    // Two claimed timeouts plus the fatal one: >= 3 watchdog windows.
    EXPECT_GE(eng.now(), 3000u);
}
