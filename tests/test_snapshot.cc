/**
 * @file
 * Golden suite for versioned snapshots and bit-identical resume
 * (docs/RESILIENCE.md, "Checkpoint & replay").
 *
 * The contract under test: a run that checkpoints at cycle N and
 * resumes — in the same system, or restored into a freshly built one,
 * in any engine mode, with the fast tier on or off, under active
 * fault injection — finishes with exactly the cycle count, stats JSON
 * (including the sampled time series), memory image and trace stream
 * of the uninterrupted run. Plus the container-level guarantees
 * (truncation / bit flips / wrong configuration are rejected before
 * any component state is touched) and the serve-layer guarantees
 * (crash + restart over a checkpoint directory delivers every job
 * exactly once; a migrated shard is byte-identical to an unmigrated
 * one).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "common/error.hh"
#include "fault/fault.hh"
#include "kernels/entries.hh"
#include "kernels/kernel_set.hh"
#include "kernels/matupdate.hh"
#include "planner/linalg_plan.hh"
#include "serve/server.hh"
#include "snap/snapshot.hh"
#include "trace/sinks.hh"
#include "trace/trace.hh"

using namespace opac;
using namespace opac::planner;
using copro::CoprocConfig;
using copro::Coprocessor;
using sim::EngineMode;

namespace
{

/** Same shape as the engine golden suite: faults dense enough that
 *  several land inside the workload. */
const char *kFaultSpec =
    "seed=7,rate=500,horizon=20000,kinds=flip+hang+mem,bits=1";

CoprocConfig
baseConfig(EngineMode mode, bool fast_tier, bool faulted)
{
    CoprocConfig cfg;
    cfg.cells = 4;
    cfg.cell.tf = 256;
    cfg.host.tau = 2;
    cfg.watchdogCycles = 500000;
    cfg.statsSampleInterval = 64;
    cfg.engineMode = mode;
    cfg.fastTier = fast_tier;
    if (faulted) {
        cfg.faults = fault::parseFaultSpec(kFaultSpec);
        cfg.cell.parity = fault::ParityMode::Correct;
    }
    return cfg;
}

/** Build the machine and plan the workload (matupdate or LU — both
 *  use only preinstalled microcode, so traced runs intern identical
 *  track sets on restore). */
std::unique_ptr<Coprocessor>
buildPlanned(const CoprocConfig &cfg, bool lu)
{
    auto sys = std::make_unique<Coprocessor>(cfg);
    kernels::installStandardKernels(*sys);
    LinalgPlanner plan(*sys);
    const std::size_t n = 24, k = 40;
    if (lu) {
        MatRef a = allocMat(sys->memory(), n, n);
        for (std::size_t i = 0; i < n; ++i)
            sys->memory().storeF(a.addrOf(i, i), 2.0f);
        plan.lu(a);
    } else {
        MatRef c = allocMat(sys->memory(), n, n);
        MatRef a = allocMat(sys->memory(), n, k);
        MatRef b = allocMat(sys->memory(), k, n);
        plan.matUpdate(c, a, b);
    }
    plan.commit();
    return sys;
}

std::uint64_t
memChecksum(const Coprocessor &sys)
{
    const host::HostMemory &mem =
        const_cast<Coprocessor &>(sys).memory();
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < mem.mark(); ++i)
        h = (h ^ mem.load(i)) * 1099511628211ull;
    return h;
}

struct RunOut
{
    Cycle endCycle = 0;
    std::string statsJson;
    std::uint64_t memSum = 0;
};

RunOut
finishOut(Coprocessor &sys)
{
    RunOut out;
    out.endCycle = sys.engine().now();
    out.statsJson = sys.statsJson();
    out.memSum = memChecksum(sys);
    return out;
}

/** Uninterrupted reference run. */
RunOut
runStraight(const CoprocConfig &cfg, bool lu)
{
    auto sys = buildPlanned(cfg, lu);
    sys->run();
    return finishOut(*sys);
}

const EngineMode kAllModes[] = {EngineMode::Spin, EngineMode::Skip};

std::string
tmpPath(const char *name)
{
    return std::string("snapshot_test_") + name;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------

TEST(SnapContainer, PrimitivesRoundTrip)
{
    snap::Writer w;
    w.u8(0xab);
    w.u16(0x1234);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i32(-42);
    w.i64(-1234567890123ll);
    w.b(true);
    w.f64(-0.1);
    w.str("hello snapshot");

    snap::Reader r(w.buffer(), "test");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.i64(), -1234567890123ll);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.f64(), -0.1);
    EXPECT_EQ(r.str(), "hello snapshot");
    EXPECT_NO_THROW(r.expectEnd());
}

TEST(SnapContainer, ReaderIsBoundsChecked)
{
    snap::Writer w;
    w.u32(7);
    snap::Reader r(w.buffer(), "test");
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_THROW(r.u32(), SnapshotError);
}

TEST(SnapContainer, ExpectEndCatchesTrailingBytes)
{
    snap::Writer w;
    w.u32(7);
    w.u8(1);
    snap::Reader r(w.buffer(), "test");
    r.u32();
    EXPECT_THROW(r.expectEnd(), SnapshotError);
}

TEST(SnapContainer, EncodeDecodeRoundTrip)
{
    snap::Snapshot s;
    s.cycle = 12345;
    s.fingerprint = 0xfeedfacecafebeefull;
    s.add("alpha", 2, "payload-a");
    s.add("beta", 1, std::string("\x00\x01\x02", 3));
    snap::Snapshot got = snap::Snapshot::decode(s.encode(), "test");
    EXPECT_EQ(got.cycle, s.cycle);
    EXPECT_EQ(got.fingerprint, s.fingerprint);
    ASSERT_EQ(got.sections().size(), 2u);
    EXPECT_EQ(got.require("alpha").version, 2u);
    EXPECT_EQ(got.require("alpha").payload, "payload-a");
    EXPECT_EQ(got.require("beta").payload.size(), 3u);
    EXPECT_EQ(got.find("gamma"), nullptr);
    EXPECT_THROW(got.require("gamma"), SnapshotError);
}

TEST(SnapContainer, CorruptFilesAreRejected)
{
    snap::Snapshot s;
    s.cycle = 99;
    s.add("comp.x", 1, "some component payload bytes");
    std::string bytes = s.encode();

    // Truncation at every prefix length must throw, never crash or
    // hand garbage to a component.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::string cut = bytes.substr(0, len);
        EXPECT_THROW(snap::Snapshot::decode(cut, "trunc"),
                     SnapshotError)
            << "prefix " << len;
    }
    // Any single bit flip breaks the checksum (or the framing).
    for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
        std::string bad = bytes;
        bad[pos] = char(bad[pos] ^ 0x10);
        EXPECT_THROW(snap::Snapshot::decode(bad, "flip"),
                     SnapshotError)
            << "flip at " << pos;
    }
}

TEST(SnapContainer, WriteFileIsAtomicAndReadable)
{
    const std::string dir = tmpPath("dir");
    const std::string path = dir + "/nested/a.snap";
    snap::Snapshot s;
    s.cycle = 7;
    s.add("x", 1, "abc");
    // Missing directories are created, not silently dropped.
    s.writeFile(path);
    snap::Snapshot got = snap::Snapshot::readFile(path);
    EXPECT_EQ(got.cycle, 7u);
    EXPECT_EQ(got.require("x").payload, "abc");
    EXPECT_THROW(snap::Snapshot::readFile(dir + "/absent.snap"),
                 SnapshotError);
}

// ---------------------------------------------------------------------
// Whole-machine golden identity
// ---------------------------------------------------------------------

TEST(SnapshotResume, PauseAndContinueIsByteIdentical)
{
    // runUntil(N) + run() in the same system must equal run(), for
    // every engine mode and fast-tier setting.
    for (EngineMode mode : kAllModes) {
        for (bool fast : {true, false}) {
            CoprocConfig cfg = baseConfig(mode, fast, false);
            RunOut ref = runStraight(cfg, false);
            auto sys = buildPlanned(cfg, false);
            sys->runUntil(ref.endCycle / 2);
            EXPECT_EQ(sys->engine().now(), ref.endCycle / 2);
            sys->run();
            RunOut got = finishOut(*sys);
            std::string what =
                std::string("mode=") + sim::engineModeName(mode)
                + " fast=" + (fast ? "on" : "off");
            EXPECT_EQ(ref.endCycle, got.endCycle) << what;
            EXPECT_EQ(ref.statsJson, got.statsJson) << what;
            EXPECT_EQ(ref.memSum, got.memSum) << what;
        }
    }
}

TEST(SnapshotResume, RestoredSystemFinishesByteIdentical)
{
    // Snapshot at N, restore into a freshly built machine (as another
    // process would), finish there: cycles, stats JSON (with the
    // sampler series) and the memory image all match the
    // uninterrupted run. Resume may also switch engine modes.
    for (EngineMode mode : kAllModes) {
        CoprocConfig cfg = baseConfig(mode, true, false);
        RunOut ref = runStraight(cfg, false);

        auto a = buildPlanned(cfg, false);
        a->runUntil(ref.endCycle / 2);
        snap::Snapshot snap = a->takeSnapshot();
        EXPECT_EQ(snap.cycle, ref.endCycle / 2);
        a.reset();

        // Same mode...
        auto b = buildPlanned(cfg, false);
        b->restoreSnapshot(snap);
        EXPECT_EQ(b->engine().now(), ref.endCycle / 2);
        b->run();
        RunOut got = finishOut(*b);
        std::string what =
            std::string("mode=") + sim::engineModeName(mode);
        EXPECT_EQ(ref.endCycle, got.endCycle) << what;
        EXPECT_EQ(ref.statsJson, got.statsJson) << what;
        EXPECT_EQ(ref.memSum, got.memSum) << what;

        // ...and resumed under a different mode + fast tier.
        CoprocConfig other = baseConfig(
            mode == EngineMode::Spin ? EngineMode::Skip
                                     : EngineMode::Spin,
            false, false);
        auto c = buildPlanned(other, false);
        c->restoreSnapshot(snap);
        c->run();
        RunOut cross = finishOut(*c);
        EXPECT_EQ(ref.endCycle, cross.endCycle) << what << " cross";
        EXPECT_EQ(ref.statsJson, cross.statsJson) << what << " cross";
        EXPECT_EQ(ref.memSum, cross.memSum) << what << " cross";
    }
}

TEST(SnapshotResume, SurvivesFileRoundTripUnderFaults)
{
    // Active fault injection (flips being corrected, hangs being
    // recovered, RNG streams mid-draw) checkpointed to disk and
    // resumed in a fresh machine, for both workload shapes.
    for (bool lu : {false, true}) {
        CoprocConfig cfg = baseConfig(EngineMode::Skip, true, true);
        RunOut ref = runStraight(cfg, lu);

        const std::string path =
            tmpPath(lu ? "faulted_lu.snap" : "faulted_mu.snap");
        auto a = buildPlanned(cfg, lu);
        a->runUntil(ref.endCycle / 2);
        a->saveSnapshot(path);
        a.reset();

        auto b = buildPlanned(cfg, lu);
        b->loadSnapshot(path);
        b->run();
        RunOut got = finishOut(*b);
        EXPECT_EQ(ref.endCycle, got.endCycle) << "lu=" << lu;
        EXPECT_EQ(ref.statsJson, got.statsJson) << "lu=" << lu;
        EXPECT_EQ(ref.memSum, got.memSum) << "lu=" << lu;
    }
}

TEST(SnapshotResume, TraceStreamSplitsExactly)
{
    // The uninterrupted trace equals the pre-snapshot prefix plus the
    // suffix a restored machine emits: no lost, duplicated or
    // reordered events across the checkpoint boundary.
    CoprocConfig cfg = baseConfig(EngineMode::Skip, true, true);

    trace::Tracer refTracer;
    trace::VectorSink refSink;
    auto ref = buildPlanned(cfg, false);
    refTracer.addSink(&refSink);
    ref->attachTracer(&refTracer);
    ref->run();
    const Cycle end = ref->engine().now();
    ref.reset();

    trace::Tracer preTracer;
    trace::VectorSink preSink;
    auto a = buildPlanned(cfg, false);
    preTracer.addSink(&preSink);
    a->attachTracer(&preTracer);
    a->runUntil(end / 2);
    snap::Snapshot snap = a->takeSnapshot();
    const std::size_t split = preSink.events.size();
    a.reset();

    trace::Tracer postTracer;
    trace::VectorSink postSink;
    auto b = buildPlanned(cfg, false);
    postTracer.addSink(&postSink);
    b->attachTracer(&postTracer);
    b->restoreSnapshot(snap);
    b->run();

    ASSERT_EQ(refSink.events.size(),
              split + postSink.events.size());
    auto same = [](const trace::Event &x, const trace::Event &y) {
        return x.cycle == y.cycle && x.kind == y.kind && x.arg == y.arg
               && x.comp == y.comp && x.track == y.track && x.a == y.a
               && x.b == y.b;
    };
    for (std::size_t i = 0; i < split; ++i)
        ASSERT_TRUE(same(refSink.events[i], preSink.events[i]))
            << "prefix event " << i;
    for (std::size_t i = 0; i < postSink.events.size(); ++i)
        ASSERT_TRUE(
            same(refSink.events[split + i], postSink.events[i]))
            << "suffix event " << i;
}

TEST(SnapshotResume, MidStallSnapshotResumesByteIdentical)
{
    // A snapshot taken between two stalled cycles of one cell: the
    // machine that took it and a fresh one restored from it both
    // finish byte-identical to the uninterrupted run.
    for (EngineMode mode : kAllModes) {
        CoprocConfig cfg = baseConfig(mode, true, false);
        RunOut ref = runStraight(cfg, false);

        // The first cycle at which cell 0 stalls for the second cycle
        // in a row.
        Cycle at = 0;
        {
            trace::Tracer tracer;
            trace::VectorSink sink;
            tracer.addSink(&sink);
            auto t = buildPlanned(cfg, false);
            t->attachTracer(&tracer);
            t->run();
            const std::uint16_t comp =
                tracer.internComponent(t->cell(0).name());
            Cycle last = 0;
            for (const trace::Event &e : sink.events) {
                if (e.kind != trace::EventKind::Stall || e.comp != comp)
                    continue;
                if (last != 0 && e.cycle == last + 1) {
                    at = e.cycle;
                    break;
                }
                last = e.cycle;
            }
        }
        const std::string what =
            std::string("mode=") + sim::engineModeName(mode);
        ASSERT_NE(at, 0u) << what << ": cell 0 never stalls twice";

        auto a = buildPlanned(cfg, false);
        a->runUntil(at);
        snap::Snapshot snap = a->takeSnapshot();
        a->run();
        RunOut cont = finishOut(*a);
        EXPECT_EQ(ref.endCycle, cont.endCycle) << what;
        EXPECT_EQ(ref.statsJson, cont.statsJson) << what;
        EXPECT_EQ(ref.memSum, cont.memSum) << what;

        auto b = buildPlanned(cfg, false);
        b->restoreSnapshot(snap);
        b->run();
        RunOut got = finishOut(*b);
        EXPECT_EQ(ref.endCycle, got.endCycle) << what;
        EXPECT_EQ(ref.statsJson, got.statsJson) << what;
        EXPECT_EQ(ref.memSum, got.memSum) << what;
    }
}

TEST(SnapshotResume, WrongConfigurationIsRejected)
{
    CoprocConfig cfg = baseConfig(EngineMode::Skip, true, false);
    auto a = buildPlanned(cfg, false);
    a->runUntil(500);
    snap::Snapshot snap = a->takeSnapshot();
    a.reset();

    // A machine with a different timing-relevant configuration must
    // refuse the snapshot up front (fingerprint check)...
    CoprocConfig narrow = cfg;
    narrow.cells = 2;
    Coprocessor other(narrow);
    kernels::installStandardKernels(other);
    EXPECT_THROW(other.restoreSnapshot(snap), SnapshotError);

    // ...while engine-mode / fast-tier toggles are byte-identical by
    // contract and deliberately excluded from the fingerprint.
    CoprocConfig toggled = cfg;
    toggled.engineMode = EngineMode::Spin;
    toggled.fastTier = false;
    EXPECT_EQ(Coprocessor(toggled).configFingerprint(),
              Coprocessor(cfg).configFingerprint());
    EXPECT_NE(Coprocessor(narrow).configFingerprint(),
              Coprocessor(cfg).configFingerprint());
}

// ---------------------------------------------------------------------
// Cached microcode images: checkpoint bytes stay exactly the same
// ---------------------------------------------------------------------

namespace
{

/** The matupdate workload of buildPlanned() with non-zero operands,
 *  so adding and subtracting kernels leave different results. */
std::unique_ptr<Coprocessor>
buildSignedMatUpdate(const CoprocConfig &cfg)
{
    auto sys = std::make_unique<Coprocessor>(cfg);
    kernels::installStandardKernels(*sys);
    LinalgPlanner plan(*sys);
    const std::size_t n = 24, k = 40;
    MatRef c = allocMat(sys->memory(), n, n);
    MatRef a = allocMat(sys->memory(), n, k);
    MatRef b = allocMat(sys->memory(), k, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < k; ++j) {
            sys->memory().storeF(a.addrOf(i, j), float(i + j + 1));
            sys->memory().storeF(b.addrOf(j, i), float(j) - float(i));
        }
    plan.matUpdate(c, a, b);
    plan.commit();
    return sys;
}

} // anonymous namespace

TEST(SnapshotImages, RepeatedSnapshotsAreByteEqual)
{
    // The first snapshot encodes every kernel image, the second reuses
    // the cached ones: the bytes must not tell them apart.
    CoprocConfig cfg = baseConfig(EngineMode::Skip, true, false);
    RunOut ref = runStraight(cfg, false);
    auto a = buildPlanned(cfg, false);
    a->runUntil(ref.endCycle / 2);
    const std::string first = a->takeSnapshot().encode();
    EXPECT_EQ(first, a->takeSnapshot().encode());
}

TEST(SnapshotImages, ReinstalledEntryCarriesItsNewImage)
{
    // Mid-run, reinstall the entry the workload calls with a different
    // program (subtract instead of add). A snapshot taken after that
    // must carry the new image although an earlier snapshot of the
    // same machine cached the old one.
    CoprocConfig cfg = baseConfig(EngineMode::Skip, true, false);
    auto plain = buildSignedMatUpdate(cfg);
    plain->run();
    const RunOut unchanged = finishOut(*plain);
    plain.reset();
    const Cycle mid = unchanged.endCycle / 2;
    auto reinstall = [](Coprocessor &sys) {
        sys.loadMicrocode(kernels::entries::matUpdateAdd,
                          kernels::buildMatUpdate(true),
                          kernels::matUpdateParams);
    };

    // Uninterrupted reference; its one snapshot encodes from scratch.
    auto ref = buildSignedMatUpdate(cfg);
    ref->runUntil(mid);
    reinstall(*ref);
    const std::string fresh = ref->takeSnapshot().encode();
    ref->run();
    const RunOut want = finishOut(*ref);
    ref.reset();
    ASSERT_NE(want.memSum, unchanged.memSum)
        << "the reinstalled kernel must change the results";

    auto a = buildSignedMatUpdate(cfg);
    a->runUntil(mid);
    const std::string before = a->takeSnapshot().encode();
    reinstall(*a);
    const snap::Snapshot after = a->takeSnapshot();
    a.reset();
    EXPECT_NE(after.encode(), before);
    EXPECT_EQ(after.encode(), fresh);

    auto b = buildSignedMatUpdate(cfg);
    b->restoreSnapshot(after);
    b->run();
    RunOut got = finishOut(*b);
    EXPECT_EQ(want.endCycle, got.endCycle);
    EXPECT_EQ(want.statsJson, got.statsJson);
    EXPECT_EQ(want.memSum, got.memSum);
}

TEST(SnapshotImages, RestoreThenSnapshotReproducesTheBytes)
{
    // A restore rebuilds the microcode store from the snapshot's
    // images; snapshotting the restored machine must give back exactly
    // the bytes it was restored from (faults and all).
    for (bool lu : {false, true}) {
        CoprocConfig cfg = baseConfig(EngineMode::Skip, true, true);
        RunOut ref = runStraight(cfg, lu);
        auto a = buildPlanned(cfg, lu);
        a->runUntil(ref.endCycle / 2);
        const std::string bytes = a->takeSnapshot().encode();
        a.reset();

        auto b = buildPlanned(cfg, lu);
        b->restoreSnapshot(snap::Snapshot::decode(bytes, "test"));
        EXPECT_EQ(b->takeSnapshot().encode(), bytes) << "lu=" << lu;
    }
}

// ---------------------------------------------------------------------
// Restore rejects states the next tick could not run
// ---------------------------------------------------------------------

namespace
{

/** @p s with the payload of section @p name passed through @p edit. */
snap::Snapshot
editSection(const snap::Snapshot &s, const std::string &name,
            const std::function<void(std::string &)> &edit)
{
    snap::Snapshot out;
    out.cycle = s.cycle;
    out.fingerprint = s.fingerprint;
    for (const snap::Section &sec : s.sections()) {
        std::string payload = sec.payload;
        if (sec.name == name)
            edit(payload);
        out.add(sec.name, sec.version, std::move(payload));
    }
    return out;
}

/** Byte offset reached after reading through @p r. */
std::size_t
offsetOf(const std::string &payload, const snap::Reader &r)
{
    return payload.size() - r.remaining();
}

/**
 * Offset of the sequencer block in a cell payload (Cell::saveState):
 * past the microcode store, the registers, their pending mask and
 * regay. The block is u8 state, b running, u32 entry, u64 pc,
 * u32 paramsToRead, u32 paramIndex, u64 dispatchAt, b pmuCall.
 */
std::size_t
cellSeqOffset(const std::string &payload)
{
    snap::Reader r(payload, "test");
    for (std::uint32_t n = r.u32(); n-- > 0;) {
        r.u32();
        r.u32();
        r.str();
        for (std::uint32_t words = r.u32(); words-- > 0;)
            r.u32();
    }
    for (unsigned i = 0; i < isa::numRegs; ++i)
        r.u32();
    r.u64();
    r.u32();
    r.b();
    return offsetOf(payload, r);
}

// Offsets within the sequencer block.
constexpr std::size_t seqState = 0, seqRunning = 1, seqToRead = 14,
                      seqIndex = 18, seqPmuCall = 30;
// Cell::SeqState values.
constexpr char stReadParams = 1, stDecode = 2, stRun = 3;

/**
 * Offsets of the cellMask of every Recv descriptor still queued in a
 * host payload (Host::saveState leads with the program; each
 * descriptor is kind, mask, target, region, call words, scalar op,
 * three addresses, job id and timeout).
 */
std::vector<std::size_t>
hostRecvMaskOffsets(const std::string &payload)
{
    std::vector<std::size_t> out;
    snap::Reader r(payload, "test");
    for (std::uint32_t n = r.u32(); n-- > 0;) {
        bool recv = r.u8() == std::uint8_t(host::HostOp::Kind::Recv);
        if (recv)
            out.push_back(offsetOf(payload, r));
        r.u32();
        r.u8();
        for (int i = 0; i < 5; ++i)
            r.u64();
        for (std::uint32_t words = r.u32(); words-- > 0;)
            r.u32();
        r.u8();
        for (int i = 0; i < 3; ++i)
            r.u64();
        r.u32();
        r.u64();
    }
    return out;
}

void
poke32(std::string &payload, std::size_t at, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        payload[at + std::size_t(i)] = char(v >> (8 * i));
}

/** A snapshot of the plain matupdate workload paused mid-run. */
snap::Snapshot
midRunSnapshot(const CoprocConfig &cfg)
{
    RunOut ref = runStraight(cfg, false);
    auto a = buildPlanned(cfg, false);
    a->runUntil(ref.endCycle / 2);
    return a->takeSnapshot();
}

/** Restore @p s into a fresh machine; "" on success, else the
 *  SnapshotError message. */
std::string
restoreError(const CoprocConfig &cfg, const snap::Snapshot &s)
{
    auto b = buildPlanned(cfg, false);
    try {
        b->restoreSnapshot(s);
    } catch (const SnapshotError &e) {
        return e.what();
    }
    return "";
}

} // anonymous namespace

TEST(SnapshotRestoreChecks, KernelStatesWithoutRunningKernelAreRejected)
{
    CoprocConfig cfg = baseConfig(EngineMode::Skip, true, false);
    const snap::Snapshot snap = midRunSnapshot(cfg);
    const std::string &cell0 = snap.require("comp.cell0").payload;
    const std::size_t seq = cellSeqOffset(cell0);
    ASSERT_EQ(cell0[seq + seqState], stRun) << "cell0 is not mid-kernel";
    ASSERT_EQ(cell0[seq + seqRunning], 1);
    ASSERT_EQ(cell0[seq + seqPmuCall], 0);
    ASSERT_EQ(restoreError(cfg, snap), "");

    // Run, Decode and a kernel call's ReadParams all dereference the
    // running kernel on the next tick: clearing only the running flag
    // must be refused, not left to crash the engine.
    for (char st : {stRun, stDecode, stReadParams}) {
        snap::Snapshot bad =
            editSection(snap, "comp.cell0", [&](std::string &p) {
                p[seq + seqState] = st;
                p[seq + seqRunning] = 0;
                poke32(p, seq + seqToRead, 1);
                poke32(p, seq + seqIndex, 0);
            });
        const std::string err = restoreError(cfg, bad);
        EXPECT_NE(err.find("without a running kernel"), std::string::npos)
            << "state " << int(st) << ": '" << err << "'";
    }
}

TEST(SnapshotRestoreChecks, ReadParamsCursorOutOfRangeIsRejected)
{
    CoprocConfig cfg = baseConfig(EngineMode::Skip, true, false);
    const snap::Snapshot snap = midRunSnapshot(cfg);
    const std::string &cell0 = snap.require("comp.cell0").payload;
    const std::size_t seq = cellSeqOffset(cell0);
    ASSERT_EQ(cell0[seq + seqRunning], 1);
    auto readParams = [&](std::uint32_t to_read, std::uint32_t index) {
        return editSection(snap, "comp.cell0", [&](std::string &p) {
            p[seq + seqState] = stReadParams;
            poke32(p, seq + seqToRead, to_read);
            poke32(p, seq + seqIndex, index);
        });
    };

    // A valid cursor restores...
    EXPECT_EQ(restoreError(cfg, readParams(1, 0)), "");
    EXPECT_EQ(restoreError(cfg, readParams(2, isa::numParams - 2)), "");
    // ...one that would pop forever (zero left to read, so the
    // countdown wraps) or write past params[] does not.
    for (auto [to_read, index] :
         {std::pair<std::uint32_t, std::uint32_t>{0, 0},
          {2, isa::numParams - 1},
          {isa::numParams, 1}}) {
        const std::string err =
            restoreError(cfg, readParams(to_read, index));
        EXPECT_NE(err.find("parameter cursor out of range"),
                  std::string::npos)
            << "paramsToRead " << to_read << " paramIndex " << index
            << ": '" << err << "'";
    }
}

TEST(SnapshotRestoreChecks, StatsSectionOfAnotherVersionIsRejected)
{
    // A version 1 stats section carries per-group entry counts for
    // stat kinds this build no longer has; reading it as version 2
    // would misparse the tree.
    CoprocConfig cfg = baseConfig(EngineMode::Skip, true, false);
    const snap::Snapshot snap = midRunSnapshot(cfg);
    ASSERT_EQ(restoreError(cfg, snap), "");
    snap::Snapshot old;
    old.cycle = snap.cycle;
    old.fingerprint = snap.fingerprint;
    for (const snap::Section &sec : snap.sections())
        old.add(sec.name, sec.name == "stats" ? 1 : sec.version,
                sec.payload);
    const std::string err = restoreError(cfg, old);
    EXPECT_NE(err.find("stats section version 1"), std::string::npos)
        << "'" << err << "'";
}

TEST(SnapshotRestoreChecks, CellAndHostSectionsOfAnotherVersionAreRejected)
{
    // Version 1 cell and host payloads held the call decode, the
    // cooldown and the scalar compute as u32 countdowns; version 2
    // holds the u64 cycles they end at.
    CoprocConfig cfg = baseConfig(EngineMode::Skip, true, false);
    const snap::Snapshot snap = midRunSnapshot(cfg);
    ASSERT_EQ(restoreError(cfg, snap), "");
    for (const std::string name : {"comp.cell0", "comp.host"}) {
        snap::Snapshot old;
        old.cycle = snap.cycle;
        old.fingerprint = snap.fingerprint;
        for (const snap::Section &sec : snap.sections())
            old.add(sec.name, sec.name == name ? 1 : sec.version,
                    sec.payload);
        const std::string err = restoreError(cfg, old);
        EXPECT_NE(err.find("state version 1"), std::string::npos)
            << name << ": '" << err << "'";
    }
}

TEST(SnapshotRestoreChecks, RecvMaskMustNameOneExistingCell)
{
    CoprocConfig cfg = baseConfig(EngineMode::Skip, true, false);
    const snap::Snapshot snap = midRunSnapshot(cfg);
    const std::vector<std::size_t> masks =
        hostRecvMaskOffsets(snap.require("comp.host").payload);
    ASSERT_FALSE(masks.empty()) << "no Recv queued mid-run";
    auto withMask = [&](std::uint32_t mask) {
        return editSection(snap, "comp.host", [&](std::string &p) {
            poke32(p, masks.front(), mask);
        });
    };

    EXPECT_EQ(restoreError(cfg, withMask(1u << (cfg.cells - 1))), "");
    for (std::uint32_t mask :
         {0u, 3u, 1u << cfg.cells, 1u << 31, 0xffffffffu}) {
        const std::string err = restoreError(cfg, withMask(mask));
        EXPECT_NE(err.find("does not name exactly one"), std::string::npos)
            << std::hex << "mask " << mask << ": '" << err << "'";
    }
}

// ---------------------------------------------------------------------
// Serve layer: crash-durable restart and shard migration
// ---------------------------------------------------------------------

namespace
{

serve::ServeConfig
serveConfig()
{
    serve::ServeConfig cfg;
    cfg.shards = 2;
    cfg.shard.cells = 2;
    cfg.shard.tf = 512;
    cfg.shard.memoryWords = 1 << 20;
    cfg.sched.batchMax = 2;
    return cfg;
}

std::vector<serve::JobRequest>
serveWorkload(unsigned njobs)
{
    std::vector<serve::JobRequest> reqs;
    for (unsigned i = 0; i < njobs; ++i) {
        serve::JobRequest r;
        r.seed = 1000 + 7 * i;
        r.tenant = i % 3;
        r.arrival = 500 * i;
        // The last job is an FFT: its butterflies add a register first
        // operand (r2 + r6), which the microcode a restored shard
        // decodes from its checkpoint must keep.
        switch (i + 1 == njobs ? 3 : i % 3) {
          case 0:
            r.kind = serve::KernelKind::Gemm;
            r.m = r.k = r.n = 12;
            break;
          case 1:
            r.kind = serve::KernelKind::Lu;
            r.n = 12;
            break;
          case 2:
            r.kind = serve::KernelKind::Conv2d;
            r.n = 10;
            r.m = 12;
            r.p = r.q = 3;
            break;
          default:
            r.kind = serve::KernelKind::Fft;
            r.n = 64;
            r.batch = 2;
            break;
        }
        reqs.push_back(r);
    }
    return reqs;
}

struct Delivered
{
    serve::JobStatus status;
    std::uint64_t checksum;
    bool correct;
};

std::vector<Delivered>
byTicket(const serve::Server &srv, std::size_t n)
{
    std::vector<Delivered> out(n, Delivered{});
    std::vector<unsigned> seen(n, 0);
    for (const serve::JobResult &r : srv.results()) {
        EXPECT_GE(r.ticket, 1u);
        EXPECT_LE(r.ticket, n);
        ++seen[r.ticket - 1];
        out[r.ticket - 1] =
            Delivered{r.status, r.checksum, r.correct};
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(seen[i], 1u) << "ticket " << i + 1
                               << " delivered " << seen[i] << " times";
    return out;
}

} // anonymous namespace

TEST(ServeDurability, CrashedServerResumesExactlyOnce)
{
    const unsigned njobs = 9;
    std::vector<serve::JobRequest> reqs = serveWorkload(njobs);

    // Reference: the same workload on an undisturbed server.
    serve::Server ref(serveConfig());
    std::vector<std::future<serve::JobResult>> refFuts;
    for (const auto &r : reqs)
        refFuts.push_back(ref.submit(r));
    ref.drain();
    std::vector<Delivered> want = byTicket(ref, njobs);

    // Crash after the 3rd delivery, with journal + checkpoints on
    // disk; restart over the same directory and re-submit.
    const std::string dir = tmpPath("serve_crash");
    std::remove((dir + "/journal.log").c_str());
    serve::ServeConfig cfg = serveConfig();
    cfg.checkpointDir = dir;
    cfg.crashAfterDeliveries = 3;
    auto srv = std::make_unique<serve::Server>(cfg);
    for (const auto &r : reqs)
        (void)srv->submit(r);
    bool crashed = false;
    try {
        srv->drain();
    } catch (const Error &) {
        crashed = true;
    }
    ASSERT_TRUE(crashed);
    srv.reset();

    serve::ServeConfig rcfg = serveConfig();
    rcfg.checkpointDir = dir;
    rcfg.resume = true;
    serve::Server resumed(rcfg);
    std::vector<std::future<serve::JobResult>> futs;
    for (const auto &r : reqs)
        futs.push_back(resumed.submit(r));
    resumed.drain();

    // Every job delivered exactly once, every completion correct, and
    // the per-ticket outcome — including the bit-exact output
    // checksum — matches the undisturbed server.
    std::vector<Delivered> got = byTicket(resumed, njobs);
    for (unsigned i = 0; i < njobs; ++i) {
        EXPECT_EQ(int(want[i].status), int(got[i].status))
            << "ticket " << i + 1;
        EXPECT_EQ(want[i].checksum, got[i].checksum)
            << "ticket " << i + 1;
        EXPECT_EQ(want[i].correct, got[i].correct)
            << "ticket " << i + 1;
        EXPECT_TRUE(futs[i].get().ticket == i + 1);
    }
}

TEST(ServeDurability, MigratedShardIsByteIdentical)
{
    const unsigned njobs = 6;
    std::vector<serve::JobRequest> reqs = serveWorkload(njobs);

    auto run = [&reqs](bool migrate) {
        serve::Server srv(serveConfig());
        // First wave, then (optionally) live-migrate both shards onto
        // fresh machines, then a second wave on the replacements.
        for (unsigned i = 0; i < njobs / 2; ++i)
            (void)srv.submit(reqs[i]);
        srv.drain();
        if (migrate) {
            srv.migrateShard(0);
            srv.migrateShard(1);
        }
        for (unsigned i = njobs / 2; i < njobs; ++i)
            (void)srv.submit(reqs[i]);
        srv.drain();
        std::vector<Delivered> out = byTicket(srv, njobs);
        for (const auto &d : out)
            EXPECT_EQ(int(d.status),
                      int(serve::JobStatus::Completed));
        return out;
    };

    std::vector<Delivered> plain = run(false);
    std::vector<Delivered> moved = run(true);
    ASSERT_EQ(plain.size(), moved.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].checksum, moved[i].checksum)
            << "ticket " << i + 1;
        EXPECT_TRUE(moved[i].correct) << "ticket " << i + 1;
    }
}
