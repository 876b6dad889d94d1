/**
 * @file
 * The horizontal OPAC coprocessor (paper figs. 2 and 3): P cells, each
 * directly connected to the host over a shared bus with broadcast
 * capability, all on one clock.
 *
 * This is the top-level object benchmarks and examples instantiate: it
 * owns the engine, the host, the host memory and the cells, loads
 * microcode into every cell, and runs the simulation to completion.
 */

#ifndef OPAC_COPROC_COPROCESSOR_HH
#define OPAC_COPROC_COPROCESSOR_HH

#include <memory>
#include <vector>

#include "cell/cell.hh"
#include "fault/fault.hh"
#include "fault/injector.hh"
#include "snap/snapshot.hh"
#include "stats/sampler.hh"
#include "stats/stats.hh"
#include "host/host.hh"
#include "sim/engine.hh"

namespace opac::copro
{

/** Full-system configuration. */
struct CoprocConfig
{
    unsigned cells = 1;            //!< P, the number of OPAC cells
    cell::CellConfig cell;         //!< per-cell configuration
    host::HostConfig host;         //!< host timing (tau, ...)
    std::size_t memoryWords = 1 << 22;
    Cycle watchdogCycles = 200000; //!< deadlock detector

    /**
     * Which run loop drives the clock (the benches' --engine= flag):
     * Skip (the default) or the Spin reference. Both are bit-identical
     * in everything observable — simulated cycles, statistics, trace
     * streams; see docs/PERFORMANCE.md.
     */
    sim::EngineMode engineMode = sim::EngineMode::Skip;

    /**
     * Snapshot every scalar statistic each N cycles into an in-memory
     * time series (0 = off). The series is part of statsJson().
     */
    Cycle statsSampleInterval = 0;

    /**
     * Superop fast tier (the benches' --fast-tier= flag): let the
     * engine grant cells multi-cycle quanta over steady-state
     * innermost loop bodies (docs/PERFORMANCE.md). Byte-identical
     * either way; off forces the pure per-cycle interpreter in every
     * engine mode.
     */
    bool fastTier = true;

    /**
     * Fault-injection plan (docs/RESILIENCE.md). Empty (the default)
     * builds no injector and leaves the whole fault path cold: runs
     * are byte-identical to a build without the subsystem. Parity
     * protection is selected via cell.parity and recovery policy via
     * host.recovery.
     */
    fault::FaultSpec faults;
};

/** Mask addressing every cell of a P-cell coprocessor. */
inline std::uint32_t
allCellsMask(unsigned p)
{
    return p >= 32 ? 0xffffffffu : ((1u << p) - 1);
}

/** Host + P cells + engine, ready to execute kernel calls. */
class Coprocessor
{
  public:
    explicit Coprocessor(const CoprocConfig &cfg);

    unsigned numCells() const { return unsigned(cellPtrs.size()); }
    cell::Cell &cell(unsigned i) { return *cellPtrs[i]; }
    host::Host &host() { return *hostPtr; }
    host::HostMemory &memory() { return mem; }
    sim::Engine &engine() { return eng; }
    const CoprocConfig &config() const { return cfg; }

    /** Install a kernel into every cell's microcode store. */
    void loadMicrocode(Word entry, const isa::Program &prog,
                       unsigned nparams);

    /**
     * Attach a trace recorder to the whole system: the host bus, every
     * cell (including all seven of its queues) and the engine's
     * deadlock reports. Call before run(); pass nullptr to detach.
     * With no tracer attached every emission site costs one pointer
     * test.
     */
    void attachTracer(trace::Tracer *t);

    /**
     * Run until the host program and all cells complete. Returns the
     * cycles simulated by this call (the paper's metric: time between
     * the first word sent and the last result received).
     */
    Cycle run(Cycle max_cycles = 0);

    // --- checkpoint / resume ---------------------------------------
    //
    // A snapshot captures the whole machine — engine clock, statistics
    // tree, host memory and program, every cell's sequencer/pipeline/
    // queue state, the fault plan cursor and the sampled series — such
    // that restoring it into a freshly constructed Coprocessor with
    // the same configuration and continuing yields byte-identical
    // results to the uninterrupted run: same cycle counts, stats JSON,
    // sampler series and trace suffix, in any engine mode and with the
    // fast tier on or off. See docs/RESILIENCE.md "Checkpoint &
    // replay".

    /**
     * Hash of every configuration field that shapes machine state or
     * deterministic behavior. Engine mode, thread count, idle-skip and
     * fast-tier flags are deliberately excluded: those toggles are
     * byte-identical by contract, so a snapshot taken under one may be
     * resumed under another.
     */
    std::uint64_t configFingerprint() const;

    /** Capture the full system state at the current cycle. */
    snap::Snapshot takeSnapshot() const;

    /**
     * Restore a snapshot taken by takeSnapshot() on a system with the
     * same configuration (enforced via the fingerprint). Throws
     * opac::SnapshotError on any mismatch; the machine must be
     * freshly constructed (same microcode loaded, nothing run yet).
     * A tracer, replan handler or arm handler must be re-attached by
     * the caller — callbacks do not travel with snapshots.
     */
    void restoreSnapshot(const snap::Snapshot &s);

    /** takeSnapshot() serialized to @p path (atomic tmp + rename). */
    void saveSnapshot(const std::string &path) const;

    /** restoreSnapshot() from a file written by saveSnapshot(). */
    void loadSnapshot(const std::string &path);

    /**
     * Run until the clock reaches @p stop (or the system completes,
     * whichever is first) and return the cycles simulated. Unlike
     * run() this takes no end-of-run sampler snapshot: a later
     * resumed run must append to the series exactly where the
     * uninterrupted one would have.
     */
    Cycle runUntil(Cycle stop, Cycle max_cycles = 0);

    /** Render the full statistics tree. */
    std::string statsReport() const;

    /**
     * Fast-tier diagnostics: engine burst counts plus every cell's
     * detached fastTier counter group. Deliberately NOT part of
     * statsReport()/statsJson() — burst engagement varies with engine
     * mode and flags while those outputs must not.
     */
    std::string fastTierReport() const;

    /**
     * The full statistics tree plus the sampled time series (when
     * statsSampleInterval > 0) as one JSON object:
     * {"stats": {...}, "samples": {...}}.
     */
    std::string statsJson() const;

    /** The root of the system's statistics tree. */
    stats::StatGroup &stats() { return statRoot; }
    const stats::StatGroup &stats() const { return statRoot; }

    /** The interval sampler, or nullptr when sampling is off. */
    const stats::Sampler *sampler() const { return samplerPtr.get(); }

    /** The fault injector, or nullptr when the fault plan is empty. */
    const fault::Injector *injector() const { return injectorPtr.get(); }

  private:
    /** Routes one armed fault event to the component it targets. */
    void applyFault(const fault::FaultEvent &e, Cycle now);

    /** Engine slot order: sampler, injector, host, cells. */
    std::vector<const sim::Component *> componentList() const;

    /** The FIFO a flip/reorder fault addresses. */
    TimedFifo &fifoAt(unsigned cell, fault::FifoSite site);

    CoprocConfig cfg;
    stats::StatGroup statRoot;
    host::HostMemory mem;
    sim::Engine eng;
    std::vector<std::unique_ptr<cell::Cell>> cellPtrs;
    std::unique_ptr<host::Host> hostPtr;
    std::unique_ptr<stats::Sampler> samplerPtr;
    std::unique_ptr<fault::Injector> injectorPtr;

    // Derived whole-system metrics (evaluated when read).
    stats::Formula fMaPerCycle;
    stats::Formula fFlopsPerCycle;
    stats::Formula fBusWordsPerFlop;
};

} // namespace opac::copro

#endif // OPAC_COPROC_COPROCESSOR_HH
