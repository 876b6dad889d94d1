/**
 * @file
 * The OPAC cell: computation block + sequencer (paper section 5, fig. 4).
 *
 * The cell contains:
 *  - interface FIFO queues tpx, tpy (operands in), tpo (results out) and
 *    tpi (kernel calls + parameters in),
 *  - local FIFO queues sum, ret and reby of capacity Tf,
 *  - the register regay and a small multiport register file,
 *  - a pipelined FP multiplier and adder with a direct multiply-add
 *    chain path, plus a one-cycle move/bypass path,
 *  - a microcode sequencer with hardware loops (zero-cycle loop
 *    overhead, per [Se91]) and a tiny parameter ALU.
 *
 * Timing model (one micro-instruction issued per cycle):
 *  - issue requires every popped queue non-empty, every net-pushed queue
 *    to have room (a slot is reserved at issue for the in-flight
 *    result), and no pending-write register among the reads;
 *  - a chained multiply-add completes after mulLatency + addLatency
 *    cycles, mul-only after mulLatency, add-only after addLatency, a
 *    move after moveLatency;
 *  - recirculating reads (pop + repush) happen combinationally at issue;
 *  - a word pushed into a FIFO at cycle t is poppable at t +
 *    fifoLatency.
 *
 * Call protocol on tpi: one word with the microcode entry id, then the
 * kernel's declared number of parameter words, then a fixed decode
 * delay. This models the paper's task granularity: the host names a
 * compute-bound kernel and its array sizes; the cell runs it to
 * completion.
 */

#ifndef OPAC_CELL_CELL_HH
#define OPAC_CELL_CELL_HH

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "cell/fp_unit.hh"
#include "stats/stats.hh"
#include "fifo/timed_fifo.hh"
#include "isa/program.hh"
#include "sim/engine.hh"

namespace opac::cell
{

/** Static configuration of one cell. */
struct CellConfig
{
    std::size_t tf = 2048;          //!< sum/ret/reby capacity (words)
    std::size_t interfaceDepth = 2048; //!< tpx/tpy/tpo capacity
    std::size_t tpiDepth = 64;      //!< call queue capacity
    unsigned mulLatency = 3;        //!< multiplier pipeline depth
    unsigned addLatency = 3;        //!< adder pipeline depth
    unsigned moveLatency = 1;       //!< bypass path latency
    unsigned fifoLatency = 1;       //!< FIFO fall-through latency
    unsigned callDecodeCycles = 4;  //!< fixed per-call dispatch cost
    unsigned controlOpsPerCycle = 8; //!< sequencer lookahead bound
    FpKind fp = FpKind::Soft;       //!< arithmetic back-end
    /** Word protection on all seven FIFO queues (--parity=). */
    fault::ParityMode parity = fault::ParityMode::Off;
};

/** Why the sequencer could not issue this cycle (for stall stats). */
enum class StallCause
{
    None,
    SrcEmpty,
    DstFull,
    RegPending,
};

/**
 * Architectural performance-monitor registers of one cell. The host
 * reads them over the normal call interface: a call word with the
 * reserved entry pmuCallEntry, one parameter word selecting the
 * register, and the 64-bit value returned on tpo as two words (low
 * half first). The registers mirror the harness-side stats registry,
 * so observability is part of the simulated machine, not only of the
 * harness.
 */
enum class PmuReg : std::uint32_t
{
    Issued = 0,        //!< micro-ops issued
    Fma,               //!< chained multiply-adds issued
    MulOnly,           //!< multiply-only issues
    AddOnly,           //!< add-only issues
    Moves,             //!< move-path transfers
    BusyCycles,        //!< cycles not idle
    IdleCycles,        //!< cycles waiting for calls
    StallSrcEmpty,     //!< issue stalls: source queue empty
    StallDstFull,      //!< issue stalls: destination queue full
    StallRegPending,   //!< issue stalls: register write in flight
    Calls,             //!< kernel calls executed
    HighWaterTpx,      //!< deepest tpx occupancy
    HighWaterTpy,      //!< deepest tpy occupancy
    HighWaterTpo,      //!< deepest tpo occupancy
    HighWaterTpi,      //!< deepest tpi occupancy
    HighWaterSum,      //!< deepest sum occupancy
    HighWaterRet,      //!< deepest ret occupancy
    HighWaterReby,     //!< deepest reby occupancy
    NumRegs,
};

/** Reserved tpi entry id dispatching a PMU read, never a kernel. */
constexpr Word pmuCallEntry = 0xffffffffu;

/**
 * Reserved tpi entry id decoded at the write port as a hardware reset
 * line: the recovery path's in-band cell reset (Host::resetOp). Never
 * enters the call queue and never names a kernel.
 */
constexpr Word resetCallEntry = 0xfffffffeu;

/** One OPAC cell, a sim::Component on the coprocessor clock. */
class Cell : public sim::Component
{
  public:
    Cell(std::string name, const CellConfig &cfg,
         stats::StatGroup *parent_stats = nullptr);

    /**
     * Install a kernel in the microcode store.
     * @param entry   Entry id used by call words on tpi.
     * @param prog    Validated microcode.
     * @param nparams Number of parameter words following the call word.
     */
    void loadMicrocode(Word entry, isa::Program prog, unsigned nparams);

    // Host-side access to the interface queues.
    TimedFifo &tpx() { return _tpx; }
    TimedFifo &tpy() { return _tpy; }
    TimedFifo &tpo() { return _tpo; }
    TimedFifo &tpi() { return _tpi; }

    const CellConfig &config() const { return cfg; }

    // sim::Component interface.
    void tick(sim::Engine &engine) override;
    bool done() const override;
    std::string statusLine() const override;

    /**
     * Idle-cycle skipping support: the cell's future events are FIFO
     * fronts falling through (any of the seven queues — tpo matters
     * to the host's Recv), FP/move pipeline results landing, and the
     * dispatch cycle of a decoding call. A traced cell returns @p now:
     * a stalled round emits a Stall event, so it ticks every round.
     */
    Cycle nextEventAt(Cycle now) const override;

    /**
     * Credit the busy/idle/stall/hang clock and the sum, ret and reby
     * occupancy through @p now - 1. A dead cell's clocks stopped at
     * the cycle it was marked dead.
     */
    void settle(Cycle now) override;

    /**
     * Superop fast tier (src/cell/fast_tier.cc): when the sequencer
     * is streaming the body of an innermost hardware loop that only
     * touches local state (sum/ret/reby, registers — never
     * tpx/tpy/tpo/tpi), grant the engine a quantum of the
     * instructions left in the loop region and execute them in bulk,
     * byte-identical to the per-cycle path.
     */
    Cycle burstQuantum(Cycle now) override;
    void burstRun(Cycle from, Cycle cycles, sim::Engine &engine,
                  std::uint64_t *progress_bits) override;

    /** A cell never reaches into another component's state: it only
     *  moves words through its own interface queues. */
    Cycle intrudesAt(Cycle now) const override
    {
        (void)now;
        return noEvent;
    }

    /**
     * Snapshot support: serialize the full architectural state —
     * registers, sequencer, loop stack, in-flight pipeline results,
     * fault latches, FP exception flags and all seven queues. The
     * payload leads with the complete microcode store (entry ids plus
     * encoded instruction images), because kernels can be installed
     * at runtime (the conv2d planner generates per-geometry
     * microcode): a restore rebuilds exactly the store the snapshot
     * saw, whatever the fresh machine had installed. Decoded-body
     * caches (the fast tier) rebuild on demand and are not saved.
     */
    std::uint32_t stateVersion() const override { return 2; }
    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r, std::uint32_t version) override;

    /**
     * Fast-tier counters (bodies compiled, bursts, bulk iterations,
     * fallback reasons). A detached group — never registered under
     * the coprocessor's stats root, because burst engagement depends
     * on engine mode and flags while the stats JSON must not.
     */
    const stats::StatGroup &fastTierStats() const { return ftGroup; }

    // Observability.
    std::uint64_t issuedOps() const { return statIssued.value(); }
    std::uint64_t fmaOps() const { return statFma.value(); }
    std::uint64_t busyCycles() const { return statBusy.value(); }
    std::uint8_t fpFlags() const { return fpu->flags(); }

    /**
     * Architectural PMU readback (the same value the tpi status call
     * returns). Out-of-range registers read as zero.
     */
    std::uint64_t pmuRead(PmuReg reg) const;

    /** The cell's statistics subtree. */
    stats::StatGroup &stats() { return statGroup; }

    /**
     * Start emitting structured trace events (issue/retire/stall,
     * call begin/end, and FIFO traffic of all seven queues) into
     * @p t. Costs one null-pointer test per event site when detached.
     */
    void attachTracer(trace::Tracer *t);

    /** Local queues, exposed for white-box tests. */
    TimedFifo &sumQueue() { return _sum; }
    TimedFifo &retQueue() { return _ret; }
    TimedFifo &rebyQueue() { return _reby; }

    // --- fault injection and recovery ------------------------------

    /**
     * The reset line (the reserved resetCallEntry call decoded at the
     * tpi write port): drop every queue, reservation, in-flight
     * result and sequencer state, clear a hang or fault flag, keep
     * the microcode store, registers and statistics. A dead cell
     * stays dead.
     */
    void hardReset(Cycle now);

    /**
     * Host gave up on this cell: reset it so nothing is left pending
     * and take it out of the machine permanently (done() is true, it
     * never ticks again).
     */
    void markDead(Cycle now);

    /**
     * Freeze sequencer and writeback for @p duration cycles
     * (duration 0: permanently — the cell is faulted until a reset).
     * Queue pushes from the host still land; the machine just stops
     * consuming. Called before the cell ticks at @p now (the fault
     * injector ticks first), so rounds [now, now + duration) freeze;
     * a decoding call dispatches that many frozen rounds later.
     */
    void injectHang(Cycle now, Cycle duration);

    /** The sequencer spontaneously drops back to Idle mid-kernel. */
    void injectSpuriousHalt(Cycle now);

    /**
     * Enter the faulted state: frozen until hardReset(). Raised by
     * queue protection errors, unknown call entries and permanent
     * hangs; without recovery the engine watchdog turns it into a
     * DeadlockError.
     */
    void enterFaulted(const char *why, Cycle now);

    bool faulted() const { return _faulted; }
    bool dead() const { return _dead; }
    std::uint64_t faultCount() const { return statFaults.value(); }
    std::uint64_t hardResets() const { return statHardResets.value(); }

  private:
    struct Kernel
    {
        isa::Program prog;
        unsigned nparams;
        /**
         * isa::encode(prog), filled by the first saveState() that
         * writes this kernel and empty until then. Reinstalling an
         * entry builds a new Kernel, so the cache never outlives its
         * program. Never filled at install: encode() can reject
         * programs validate() accepts. saveState() is const but fills
         * it, so it must not run concurrently on one cell.
         */
        mutable std::vector<std::uint32_t> image;
    };

    /** A value travelling through the FP or move pipeline. */
    struct InFlight
    {
        Cycle when;
        Word value;
        std::uint8_t dstMask;
        std::uint8_t dstReg;
    };

    enum class SeqState
    {
        Idle,       //!< waiting for a call word on tpi
        ReadParams, //!< popping parameter words
        Decode,     //!< fixed dispatch delay, until dispatchAt
        Run,        //!< executing microcode
        PmuRespond, //!< pushing a PMU register value to tpo
    };

    /**
     * The first hazard check that failed for the instruction at pc:
     * the queue whose front was not poppable, the pending flag of a
     * register read or rewritten, or the queue short of slots. The
     * next Run tick re-tests only this check, and while it fails
     * charges the same stall without the control step or the full
     * scan. That is exact: until the sequencer issues, pc stays put
     * and every earlier check keeps passing, because only the cell's
     * own issue pops, reserves or marks a register pending, a queue
     * front only gets readier with time, and faultReorder swaps
     * payloads, not ready times. A derived cache, never snapshotted.
     */
    struct Blocker
    {
        StallCause cause = StallCause::None;
        const TimedFifo *queue = nullptr; //!< SrcEmpty, DstFull
        const bool *pending = nullptr;    //!< RegPending
        std::size_t slots = 0;            //!< DstFull: slots needed

        /** True while the check still fails at @p now. */
        bool holds(Cycle now) const;
    };

    // -- helpers -------------------------------------------------------
    TimedFifo *queueFor(isa::Src s);
    Word readOperand(const isa::Operand &op, Cycle now, Word mul_out);
    /** The first failing hazard check, or cause None when @p d can
     *  issue at @p now. */
    Blocker checkHazards(const isa::DecodedInstr &d, Cycle now) const;
    void issueCompute(const isa::Instr &in, const isa::DecodedInstr &d,
                      Cycle now);
    stats::Counter *emitStall(StallCause cause, Cycle now);
    void scheduleWrite(Cycle when, Word value, std::uint8_t mask,
                       std::uint8_t dst_reg, Cycle now);
    void drainWritebacks(Cycle now, sim::Engine &engine);
    bool stepControl(Cycle now);
    void tickSequencer(Cycle now, sim::Engine &engine);
    /**
     * One cycle of the cell at @p now: the whole of tick(), which
     * calls it with engine.now(). burstRun() calls it for every
     * window cycle turboRun() does not cover, so the interpreter is
     * the only definition of a cell cycle.
     */
    void tickAt(Cycle now, sim::Engine &engine);

    /**
     * One analyzed innermost-loop body (fast_tier.cc). The program is
     * already decoded, so "compiling" pins the region [bodyPc, endPc]
     * (endPc = the LoopEnd) and proves it burst-eligible: straight-
     * line Compute ops touching only local queues and registers.
     */
    struct FastBody
    {
        const Kernel *kernel;
        std::size_t bodyPc;
        std::size_t endPc;
        bool eligible;

        /**
         * Superop specialization: the body is the canonical
         * steady-state chained fma of the compute-bound kernels —
         * one instruction `fma(<recirc local queue>, <reg/const>,
         * <pop local queue>, Dst<same queue>)`, e.g. matupdate's
         * `fma(rebyR, regAy, sum, DstSum)`. turboRun() executes such
         * a body with direct ring rotation and bulk bookkeeping
         * instead of the interpreter's tick.
         */
        bool turbo = false;
        TimedFifo *turboRotQ = nullptr; //!< recirculating mul operand
        TimedFifo *turboPopQ = nullptr; //!< popped addend == destination
        std::uint8_t turboDstMask = 0;
        isa::Operand turboMulB{};       //!< register/constant operand
        isa::AddOp turboAddOp = isa::AddOp::Add;
    };
    /** Index in fastBodies of the analysis of the loop body at
     *  @p body_pc in the running kernel, analyzing it on first use. */
    std::uint32_t fastBodyFor(std::size_t body_pc);

    /**
     * Specialized executor for a FastBody::turbo body: execute up to
     * @p cycles steady-state iterations starting at @p from, or return
     * 0 without side effects when the machine state does not satisfy
     * the (checkable, sufficient) steady-state entry conditions.
     */
    std::uint64_t turboRun(Cycle from, Cycle cycles,
                           sim::Engine &engine);

    // -- configuration and structure ------------------------------------
    CellConfig cfg;
    std::unique_ptr<FpUnit> fpu;

    TimedFifo _tpx;
    TimedFifo _tpy;
    TimedFifo _tpo;
    TimedFifo _tpi;
    TimedFifo _sum;
    TimedFifo _ret;
    TimedFifo _reby;

    /** Queue pointers indexed by isa::CellQueue (set in the ctor). */
    std::array<TimedFifo *, isa::numCellQueues> queueTab{};

    std::array<Word, isa::numRegs> regs{};
    std::array<bool, isa::numRegs> regPending{};
    Word regAy = 0;
    bool regAyPending = false;

    std::map<Word, Kernel> microcode;

    // -- sequencer state -------------------------------------------------
    SeqState state = SeqState::Idle;
    const Kernel *current = nullptr;
    std::size_t pc = 0;
    unsigned paramsToRead = 0;
    unsigned paramIndex = 0;
    Cycle dispatchAt = 0; //!< Decode: the cycle the call dispatches
    bool pmuCall = false; //!< the current tpi call is a PMU read
    std::array<std::int32_t, isa::numParams> params{};

    /** LoopFrame::fastBody before the frame's first burst probe. */
    static constexpr std::uint32_t noFastBody = ~std::uint32_t(0);

    struct LoopFrame
    {
        std::size_t bodyPc;       //!< first instruction of the body
        std::uint32_t remaining;  //!< iterations left after current
        /** The body's analysis, an index into fastBodies, cached by
         *  the first burstQuantum() of this loop entry. */
        std::uint32_t fastBody = noFastBody;
    };
    std::vector<LoopFrame> loopStack;
    /**
     * Why the instruction at pc stalled on the last Run tick (cause
     * None once it issues). Cleared where pc or the sequencer moves
     * outside a Run tick: hardReset, injectSpuriousHalt, loadState,
     * loadMicrocode and burstRun.
     */
    Blocker blocker;

    // -- fault state -----------------------------------------------------
    bool _faulted = false; //!< frozen until hardReset()
    bool _broken = false;  //!< hard fault: re-faults after every reset
    bool _dead = false;    //!< permanently out of the machine
    Cycle hangUntil = 0;   //!< frozen while now < hangUntil
    std::string faultWhy;  //!< what flagged the fault (status line)

    /** Analyzed loop bodies, invalidated (with every loop frame's
     *  index into them) by loadMicrocode(). */
    std::vector<FastBody> fastBodies;
    /** Body validated by the burstQuantum() that granted the window. */
    const FastBody *burstBody = nullptr;

    std::vector<InFlight> inflight;
    /**
     * Lower bound on the cycle at which any inflight writeback can
     * commit; tickAt skips drainWritebacks before it. Updated on
     * scheduleWrite and after every drain pass.
     */
    Cycle wbReadyAt = sim::Component::noEvent;

    trace::Tracer *tracer = nullptr;
    std::uint16_t traceComp = 0;
    std::uint16_t callTrack = 0; //!< track of the running kernel's name

    // -- statistics -------------------------------------------------------
    /**
     * Charges every live cycle to busy (plus a stall cause), idle or
     * hang, and cycles that pop a PMU or junk call word to none.
     */
    stats::StateClock clock;
    stats::StatGroup statGroup;
    stats::Counter statIssued;
    stats::Counter statFma;
    stats::Counter statMulOnly;
    stats::Counter statAddOnly;
    stats::Counter statMoves;
    stats::Counter statBusy;
    stats::Counter statIdle;
    stats::Counter statStallSrc;
    stats::Counter statStallDst;
    stats::Counter statStallReg;
    stats::Counter statCalls;
    stats::Counter statWritePortConflicts;
    stats::Counter statHangCycles;
    stats::Counter statFaults;
    stats::Counter statHardResets;

    // Fast-tier diagnostics: a detached group (no parent), surfaced
    // only through Coprocessor::fastTierReport() / fastTierStats().
    stats::StatGroup ftGroup;
    stats::Counter statFtCompiled;
    stats::Counter statFtIneligible;
    stats::Counter statFtBursts;
    stats::Counter statFtBurstCycles;
    stats::Counter statFtBurstIssued;
    stats::Counter statFtBurstIters;
    stats::Counter statFtTurboCycles;
    stats::Counter statFtFallbackObserver;
    stats::Counter statFtFallbackBody;
    stats::Counter statFtFallbackInflight;
};

} // namespace opac::cell

#endif // OPAC_CELL_CELL_HH
