/**
 * @file
 * The host-processor model (paper section 4.1).
 *
 * The host is abstracted to the paper's own parameter: tau, the average
 * number of cycles it needs per floating-point word moved between its
 * global memory and the coprocessor (tau = 4 for first-generation RISC,
 * tau = 2 for superscalar). The host executes a sequential *transfer
 * program* of descriptors:
 *
 *  - Send:    stream a memory region into the tpx (or tpy) queues of one
 *             or several cells; a word sent to several cells at once is
 *             a single bus broadcast and costs one memory access;
 *  - Recv:    drain words from one cell's tpo into a memory region;
 *  - Call:    push a kernel entry word + parameters into tpi (cheap:
 *             these come from host registers, not memory);
 *  - Compute: a host-side scalar operation (reciprocal for pivots /
 *             triangular diagonals), costing a fixed cycle count.
 *
 * Descriptors execute strictly in order — the host is one processor —
 * and stall on FIFO full/empty, which is exactly how the asynchronous
 * host/coprocessor decoupling of the paper behaves.
 *
 * Fault recovery (docs/RESILIENCE.md) adds three more descriptors:
 *
 *  - TxnBegin: open a *recovery transaction* over a set of cells;
 *  - TxnEnd:   commit it — results written during the transaction are
 *              staged in an overlay and only reach memory here;
 *  - Reset:    pulse the reset line of the addressed cells (modeled as
 *              the reserved resetCallEntry word, decoded at the tpi
 *              write port so it works even when tpi is full).
 *
 * While a transaction is open the host journals every completed
 * descriptor and keeps a deadline that is pushed forward by any word
 * movement. A deadline miss or an uncorrectable-parity trip on a tpo
 * read aborts the attempt: the staged writes are discarded, the
 * transaction's cells are hard-reset, and the journal is replayed from
 * the top. When the retry budget runs out the host blames a cell,
 * marks it dead, and asks the planner (via the replan handler) to
 * rebuild the remaining work on the survivors.
 */

#ifndef OPAC_HOST_HOST_HH
#define OPAC_HOST_HOST_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cell/cell.hh"
#include "fault/fault.hh"
#include "stats/stats.hh"
#include "host/memory.hh"
#include "sim/engine.hh"

namespace opac::host
{

/** Host timing parameters. */
struct HostConfig
{
    unsigned tau = 2;           //!< cycles per word to/from host memory
    unsigned callWordCost = 1;  //!< cycles per call word
    unsigned recipCycles = 16;  //!< cycles for a scalar 1/x on the host
    fault::RecoveryConfig recovery; //!< timeout/retry/degradation policy
};

/** Which cell queue a Send targets. */
enum class SendTarget : std::uint8_t
{
    TpX,
    TpY,
};

/** Host-side scalar operations available to transfer programs. */
enum class HostScalarOp : std::uint8_t
{
    Recip,     //!< mem[dst] = 1.0f / mem[src]
    SqrtRecip, //!< mem[dst] = sqrt(mem[src]); mem[dst2] = 1 / mem[dst]
};

/** One descriptor of the host transfer program. */
struct HostOp
{
    enum class Kind : std::uint8_t
    {
        Send,
        Recv,
        Call,
        Compute,
        TxnBegin, //!< open a recovery transaction
        TxnEnd,   //!< commit it (flush the staging overlay)
        Reset,    //!< pulse the reset line of the masked cells
    };

    Kind kind;
    std::uint32_t cellMask = 0;  //!< Send/Call/Reset: targets; Recv: one bit
    SendTarget target = SendTarget::TpX;
    Region region = Region::vec(0, 0);
    std::vector<Word> callWords; //!< Call: entry word + parameters
    HostScalarOp scalarOp = HostScalarOp::Recip;
    std::size_t scalarDst = 0;
    std::size_t scalarDst2 = 0;
    std::size_t scalarSrc = 0;
    std::uint32_t jobId = 0;     //!< TxnBegin/TxnEnd: planner job id
    Cycle timeoutCycles = 0;     //!< TxnBegin: 0 = RecoveryConfig default
};

/** Convenience constructors for transfer programs. */
HostOp sendOp(std::uint32_t cell_mask, Region region,
              SendTarget target = SendTarget::TpX);
HostOp recvOp(unsigned cell, Region region);
HostOp callOp(std::uint32_t cell_mask, Word entry,
              const std::vector<std::int32_t> &params);
HostOp recipOp(std::size_t dst, std::size_t src);
HostOp sqrtRecipOp(std::size_t dst_sqrt, std::size_t dst_recip,
                   std::size_t src);
HostOp txnBeginOp(std::uint32_t job_id, std::uint32_t cell_mask,
                  Cycle timeout_cycles = 0);
HostOp txnEndOp(std::uint32_t job_id);
HostOp resetOp(std::uint32_t cell_mask);

/**
 * Transfer program reading one PMU register of one cell: a status call
 * on tpi followed by a receive of the 64-bit value into host memory at
 * @p dst (two words, low half first).
 */
std::vector<HostOp> pmuReadProgram(unsigned cell, cell::PmuReg reg,
                                   std::size_t dst);

/** The host processor, a component on the common clock. */
class Host : public sim::Component
{
  public:
    Host(std::string name, const HostConfig &cfg, HostMemory &mem,
         std::vector<cell::Cell *> cells,
         stats::StatGroup *parent_stats = nullptr);

    /** Append a descriptor to the transfer program. */
    void enqueue(HostOp op);

    /** Append a whole program. */
    void enqueue(const std::vector<HostOp> &ops);

    // sim::Component interface.
    void tick(sim::Engine &engine) override;
    bool done() const override;
    std::string statusLine() const override;

    /**
     * Snapshot support. The full transfer program (pending descriptors
     * plus the transaction journal and staging overlay) is serialized,
     * so a resumed host replays nothing and re-plans nothing — it
     * continues mid-descriptor. The replan handler is a callback and
     * cannot travel with the snapshot: the restorer must re-install it
     * (the planner layer does) before a degradation can fire.
     */
    std::uint32_t stateVersion() const override { return 2; }
    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r, std::uint32_t version) override;

    /**
     * Idle-cycle skipping support. The host's own future events are
     * the end of its inter-word cooldown, the finishing cycle of a
     * scalar compute and, inside a transaction, the recovery
     * deadline. The round right after the cooldown counts too: it
     * retries the op and may enter a stall state. A blocked
     * Send/Recv/Call only ever wakes when a cell frees space or
     * delivers a word, which the cells' hints cover, so those states
     * report only the deadline (noEvent outside transactions). A
     * traced host returns @p now: a blocked round emits a Stall
     * event, so it ticks every round.
     */
    Cycle nextEventAt(Cycle now) const override;

    /**
     * The host reaches into a cell only by a reset line — a queued
     * Reset, or with recovery on a retry or degradation that the next
     * tpo word, parity trip or deadline may trigger — or when a
     * protected link flags a fault at a push: an armed bus drop or
     * duplicate, or an armed reorder on a protected interface queue.
     * Returns `now` while any of these is possible, noEvent otherwise:
     * pacing words through the interface queues never intrudes.
     */
    Cycle intrudesAt(Cycle now) const override;

    /** Credit the busy and stall clock through @p now - 1. */
    void settle(Cycle now) override { clock.settle(now); }

    std::uint64_t wordsSent() const { return statWordsSent.value(); }
    std::uint64_t wordsReceived() const { return statWordsRecv.value(); }
    std::uint64_t callWordsSent() const { return statCallWords.value(); }

    // --- fault recovery --------------------------------------------

    /**
     * Arm one bus-transfer fault against @p cell: the next data or
     * call word addressed to it is dropped (BusDrop) or duplicated
     * (BusDup). With link protection on (the cell's queues run a
     * parity mode other than Off) the modeled sequence tags catch the
     * mutation and the receiving cell enters the faulted state.
     */
    void armBusFault(unsigned cell, fault::FaultKind kind);

    /** Add @p cycles of extra latency to the next host memory access. */
    void armMemLatency(unsigned cycles);

    /**
     * Called when a transaction exhausts its retry budget and a cell
     * has been marked dead: the handler must enqueue a replacement
     * program covering all uncommitted jobs using only the cells in
     * @p alive_mask.
     */
    using ReplanFn = std::function<void(std::uint32_t alive_mask)>;
    void setReplanHandler(ReplanFn fn) { replanFn = std::move(fn); }

    /**
     * Engine-watchdog hook: abort and retry the open transaction even
     * though its deadline has not expired. Returns false when there is
     * nothing to recover (no open transaction), in which case the
     * watchdog should escalate to a deadlock error.
     */
    bool forceRecovery(sim::Engine &engine);

    std::uint32_t deadMask() const { return _deadMask; }
    std::uint32_t aliveMask() const
    {
        return (cells.size() >= 32 ? ~0u : ((1u << cells.size()) - 1u))
               & ~_deadMask;
    }

    /** Job ids whose transactions have committed, in commit order. */
    const std::vector<std::uint32_t> &completedJobs() const
    {
        return _completedJobs;
    }

    std::uint64_t timeouts() const { return statTimeouts.value(); }
    std::uint64_t retries() const { return statRetries.value(); }
    std::uint64_t deadCells() const { return statDeadCells.value(); }
    std::uint64_t txnsCommitted() const { return statTxnsDone.value(); }

    /** The host's statistics subtree. */
    stats::StatGroup &stats() { return statGroup; }

    /**
     * Start emitting bus events (descriptor begin/end, one event per
     * word moved with its cycle cost, full/empty stalls) into @p t.
     * Costs one null-pointer test per event site when detached.
     */
    void attachTracer(trace::Tracer *t);

  private:
    bool tickSend(const HostOp &op, Cycle now);
    bool tickRecv(const HostOp &op, Cycle now);
    bool tickCall(const HostOp &op, Cycle now);
    bool tickCompute(const HostOp &op, Cycle now);
    bool tickTxnBegin(const HostOp &op, Cycle now);
    bool tickTxnEnd(const HostOp &op, Cycle now);
    bool tickReset(const HostOp &op, Cycle now);
    void applyScalar(const HostOp &op);

    /**
     * Transaction-aware memory access: inside a transaction stores go
     * to the staging overlay and loads read through it, so an aborted
     * attempt leaves memory exactly as TxnBegin found it.
     */
    Word memLoad(std::size_t addr) const;
    void memStore(std::size_t addr, Word w);

    /**
     * Abort the open transaction: reset, replay — or degrade. @p next
     * is the first round after the recovery: @p now + 1 inside tick(),
     * @p now itself from the watchdog, between rounds. The cooldown
     * left at @p now resumes there, extended by the reset cost.
     */
    void recoverTxn(Cycle now, Cycle next, sim::Engine &engine);

    /** Recount resetOps after program was rebuilt wholesale. */
    void countResetOps();

    /** Retry budget exhausted: pick the culprit cell to mark dead. */
    unsigned blameCell() const;

    /** Extra memory latency armed by a MemLatency fault, once. */
    unsigned takeMemSpike();

    /** Push @p w to @p q, applying armed drop/dup faults for cell @p c. */
    void pushFaulty(TimedFifo &q, unsigned c, Word w, Cycle now);

    /** The stall counter a cycle blocked on @p op is charged to
     *  (Send/Call: queue full, Recv: tpo empty; others never block). */
    stats::Counter *stallCounter(const HostOp &op);

    HostConfig cfg;
    HostMemory &mem;
    std::vector<cell::Cell *> cells;

    std::deque<HostOp> program;
    std::size_t resetOps = 0;  //!< Reset descriptors in program
    std::size_t pos = 0;       //!< word index within the current op
    /** First cycle after the cooldown, when the next word may move. */
    Cycle readyAt = 0;
    /** Finishing cycle of the Compute op that has started (cycleNever
     *  while none has). */
    Cycle computeAt = cycleNever;
    /**
     * First round the program was empty in (cycleNever while it has
     * ops). The cooldown stands still while there is nothing to do: a
     * refill resumes what was left of it at idleSince.
     */
    Cycle idleSince = cycleNever;

    // -- transaction state ------------------------------------------
    bool inTxn = false;
    std::uint32_t txnJob = 0;
    std::uint32_t txnMask = 0;     //!< cells the open transaction uses
    Cycle txnTimeout = 0;          //!< progress deadline length
    Cycle txnDeadline = cycleNever;
    unsigned txnRetries = 0;       //!< aborted attempts so far
    bool parityTripped = false;    //!< tpo protection fired mid-recv
    std::vector<HostOp> journal;   //!< completed ops since TxnBegin
    std::unordered_map<std::size_t, Word> staging; //!< uncommitted stores
    std::uint32_t _deadMask = 0;
    std::vector<std::uint32_t> _completedJobs;
    ReplanFn replanFn;

    // -- armed faults (set by fault::Injector via Coprocessor) ------
    std::vector<unsigned> busDrops; //!< per-cell words to drop
    std::vector<unsigned> busDups;  //!< per-cell words to duplicate
    unsigned memSpike = 0;          //!< extra cycles on next access

    trace::Tracer *tracer = nullptr;
    std::uint16_t traceComp = 0;
    bool opAnnounced = false;  //!< BusBegin emitted for the front op
    std::uint16_t kindTracks[7] = {0, 0, 0, 0, 0, 0, 0}; //!< per Kind

    std::uint16_t opTrack(const HostOp &op);
    void traceWord(Cycle now, unsigned cost);

    /** Charges each cycle with program left to busy, plus the stall
     *  cause while a transfer is blocked. */
    stats::StateClock clock;
    stats::StatGroup statGroup;
    stats::Counter statWordsSent;
    stats::Counter statWordsRecv;
    stats::Counter statCallWords;
    stats::Counter statBusy;
    stats::Counter statStallFull;
    stats::Counter statStallEmpty;
    stats::Counter statOpsDone;
    stats::Counter statTimeouts;
    stats::Counter statRetries;
    stats::Counter statResets;
    stats::Counter statDeadCells;
    stats::Counter statTxnsDone;
    stats::Counter statBusDrops;
    stats::Counter statBusDups;
    stats::Counter statMemSpikes;
    stats::Counter statParityTrips;
};

} // namespace opac::host

#endif // OPAC_HOST_HOST_HH
