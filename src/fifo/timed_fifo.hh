/**
 * @file
 * Cycle-timed FIFO queue — the central storage element of OPAC.
 *
 * OPAC uses FIFO queues both as host/cell interfaces and as the cell's
 * local memory (queues sum, ret, reby), implicitly addressed with stride
 * one. This model captures:
 *
 *  - finite capacity (the paper's Tf parameter),
 *  - fall-through latency: a word pushed at cycle t is poppable at
 *    t + latency (the prototype's FIFO RAMs had a two-cycle fall-through;
 *    default here is 1),
 *  - reservations: the cell reserves an output slot at instruction issue
 *    so a value emerging from the FP pipeline several cycles later is
 *    guaranteed space — the mechanism that lets issue logic treat
 *    "destination full" as an issue-time hazard,
 *  - reset (the paper's "Reset of FIFO queue reby"),
 *  - occupancy and traffic statistics. Occupancy is a distribution
 *    over cycles of the words held: each level is credited with the
 *    cycles it held when the count next changes or the queue is
 *    settled, so a level held for zero cycles (several changes in one
 *    cycle) touches neither min nor max.
 */

#ifndef OPAC_FIFO_TIMED_FIFO_HH
#define OPAC_FIFO_TIMED_FIFO_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "sim/engine.hh"
#include "stats/stats.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace opac
{

/** A finite, cycle-timed FIFO queue of 32-bit words. */
class TimedFifo
{
  public:
    /**
     * @param name     Instance name (for stats and error messages).
     * @param capacity Maximum number of words held (the paper's Tf).
     * @param latency  Cycles between push and earliest pop of a word.
     */
    TimedFifo(std::string name, std::size_t capacity,
              unsigned latency = 1);

    const std::string &name() const { return _name; }
    std::size_t capacity() const { return _capacity; }

    /** Words currently stored (including not-yet-visible ones). */
    std::size_t size() const { return count; }

    /** True if no words are stored (reservations do not count). */
    bool empty() const { return count == 0; }

    /** Free slots, after stored words and outstanding reservations. */
    std::size_t space() const;

    /** True if a word can be popped at cycle @p now. */
    bool canPop(Cycle now) const
    {
        return count != 0 && ring[head].ready <= now;
    }

    /**
     * The cycle at which the front word becomes poppable, for the
     * engine's idle-cycle skipping. cycleNever when the queue is empty
     * or the front became poppable strictly before @p now (the shared
     * front-ready wake rule, sim::frontReadyHint): a consumer that saw
     * the ready front last round and still stalled will not be woken
     * by it. ready == now counts — the front was not poppable in the
     * round before @p now, so the round at @p now is the wake-up.
     */
    Cycle
    nextReadyAt(Cycle now) const
    {
        if (count == 0)
            return cycleNever;
        return sim::frontReadyHint(ring[head].ready, now);
    }

    /** True if a word can be pushed (space for one more). */
    bool canPush() const { return space() > 0; }

    /** Push a word at cycle @p now; requires canPush(). */
    void push(Word w, Cycle now);

    /**
     * Reserve one slot for a future pushReserved(). Requires space().
     * Used by the cell at issue time for in-flight pipeline results.
     */
    void reserve();

    /** Number of outstanding reservations. */
    std::size_t reservedSlots() const { return _reserved; }

    /** Push into a previously reserved slot. */
    void pushReserved(Word w, Cycle now);

    /** Pop the front word; requires canPop(now). */
    Word pop(Cycle now);

    /**
     * Pop the front word and repush it in the same cycle (the cell's
     * combinational head-to-tail loop-back for reuse reads). Unlike a
     * pop + push pair this cannot be blocked by outstanding
     * reservations, and it traces as one recirculation event.
     * Requires canPop(now).
     */
    Word recirculate(Cycle now);

    /** Read the front word without popping; requires canPop(now). */
    Word front(Cycle now) const;

    /** Discard all contents and reservations (the RESET control line). */
    void reset(Cycle now);

    /**
     * Credit the occupancy level held before cycle @p now, and start
     * the level clock at @p now if it is stopped. Only queues whose
     * owner settles them are sampled: the clock is stopped after
     * construction, loadState() and stopOccupancy(), and
     * push/pop/reset credit a running clock only.
     */
    void
    settle(Cycle now)
    {
        creditLevel(now);
        if (levelSince == cycleNever)
            levelSince = now;
    }

    /** Stop the level clock until the next settle(). */
    void stopOccupancy() { levelSince = cycleNever; }

    // --- superop fast-tier streaming (src/cell/fast_tier.cc) -------

    /**
     * True when the fast tier's specialized executor may bypass this
     * queue's per-call bookkeeping for a burst window starting at
     * @p from: plain words (parity Off, so stored check bits are 0 and
     * reads verify nothing), no tracer, no armed injector fault, and
     * every stored entry already fallen through by @p from.
     * `count >= latency` additionally guarantees that a word pushed
     * mid-window is ready again by the time the steady
     * one-push-one-pop rotation returns to it.
     */
    bool
    streamable(Cycle from) const
    {
        return parityMode == fault::ParityMode::Off && !tracer
               && pendingCorrupt == 0 && !pendingReorder
               && count >= latency && count != 0 && fallenThrough(from);
    }

    /**
     * True when no stored word is still falling through at @p now:
     * every one is poppable. Only the newest entry needs checking:
     * `ready` is nondecreasing along the ring because every mutator
     * stamps `now + latency` with nondecreasing `now`.
     */
    bool
    fallenThrough(Cycle now) const
    {
        return count == 0 || ring[(head + count - 1) & mask].ready <= now;
    }

    /**
     * True when the next push could call the protection handler: a
     * reorder is armed on a protected queue, and the modeled sequence
     * tags report it the moment a push applies it.
     */
    bool
    pushMayFault() const
    {
        return pendingReorder && parityMode != fault::ParityMode::Off;
    }

    /**
     * One steady fast-tier cycle on a queue that takes one writeback
     * and loses one word per cycle: pushReserved(@p landed, @p now)
     * followed by pop(now), with occupancy, reservations, tracing and
     * protection all invariant (the caller checked streamable()).
     * Counters are settled afterwards by streamCommit().
     */
    Word
    streamExchange(Word landed, Cycle now)
    {
        ring[(head + count) & mask] = Entry{landed, now + latency, 0};
        Word w = ring[head].word;
        head = (head + 1) & mask;
        return w;
    }

    /** Steady fast-tier recirculate: head-to-tail rotate with the
     *  re-timestamp recirculate() applies. */
    Word
    streamRotate(Cycle now)
    {
        Word w = ring[head].word;
        head = (head + 1) & mask;
        ring[(head + count - 1) & mask] = Entry{w, now + latency, 0};
        return w;
    }

    /**
     * Settle the counters for @p n streamed cycles of one push plus
     * one pop each. @p observe_high replays the per-push watermark
     * observation of streamExchange() cycles (the push lands before
     * the pop, so every push saw depth count + 1); streamRotate()
     * cycles pass false — recirculate() never observes the watermark.
     */
    void
    streamCommit(std::uint64_t n, bool observe_high)
    {
        pushes += n;
        pops += n;
        if (observe_high)
            highWaterMark.observe(count + 1);
    }

    /** Register this FIFO's stats under @p parent. */
    void addStats(stats::StatGroup &parent);

    /**
     * Start emitting push/pop/recirculate/reset events into @p t as a
     * track of component @p comp. Pass nullptr to stop tracing.
     */
    void attachTracer(trace::Tracer *t, std::uint16_t comp);

    /** Lifetime totals, usable without a StatGroup. */
    std::uint64_t totalPushes() const { return pushes.value(); }
    std::uint64_t totalPops() const { return pops.value(); }

    /** Deepest occupancy ever reached (exact, tracked at each push). */
    std::uint64_t highWater() const { return highWaterMark.value(); }

    // --- word protection (fault detection / correction) ------------

    /**
     * Select the protection level for words stored here. Off stores
     * bare words (the fast path); Detect/Correct compute SECDED check
     * bits at push and verify them at pop/recirculate.
     */
    void setParity(fault::ParityMode m) { parityMode = m; }
    fault::ParityMode parity() const { return parityMode; }

    /**
     * Called (with the current cycle) whenever protection notices an
     * error it cannot silently repair: any error in Detect mode, a
     * double-bit error in Correct mode, or an applied reorder fault
     * (caught by the modeled link-layer sequence tags). The owner of
     * the queue uses this to flag the attached cell as faulted.
     */
    using FaultHandler = std::function<void(Cycle)>;
    void setProtectionHandler(FaultHandler fn)
    {
        protHandler = std::move(fn);
    }

    // --- fault-injection hooks (driven by fault::Injector) ---------

    /**
     * XOR @p xor_mask into the stored front word, or into the next
     * word pushed when the queue is empty. Models a bit flip in the
     * FIFO RAM: the check bits keep their original value, so
     * protection sees a mismatch at pop.
     */
    void faultCorrupt(Word xor_mask, Cycle now);

    /**
     * Swap the two newest stored words (or the next two pushed when
     * fewer than two are stored). With protection on, the link-layer
     * sequence check reports the reorder through the protection
     * handler at the cycle it happens.
     */
    void faultReorder(Cycle now);

    // --- snapshot / restore ----------------------------------------

    /**
     * Serialize the stored words (in pop order, with fall-through
     * timestamps and check bits), outstanding reservations, and any
     * armed-but-unapplied fault state. Registered statistics travel
     * with the owning stats tree, not here.
     */
    void saveState(snap::Writer &w) const;

    /**
     * Restore state saved by saveState() into a freshly constructed
     * queue of the same capacity/latency. The ring is repacked from
     * index 0 — the head position is not architectural.
     */
    void loadState(snap::Reader &r);

    std::uint64_t totalFaultsInjected() const
    {
        return faultsInjected.value();
    }
    std::uint64_t totalParityCorrected() const
    {
        return parityCorrected.value();
    }
    std::uint64_t totalParityDetected() const
    {
        return parityDetected.value();
    }

  private:
    struct Entry
    {
        Word word;
        Cycle ready;
        std::uint8_t ecc;
    };

    /** Verify a stored word against its check bits at read time. */
    Word checkProtected(Word w, std::uint8_t ecc, Cycle now);

    /** Check bits for @p w under the current parity mode. */
    std::uint8_t
    encodeWord(Word w) const
    {
        return parityMode != fault::ParityMode::Off
                   ? fault::secdedEncode(w)
                   : std::uint8_t(0);
    }

    /** Apply armed corrupt/reorder faults to freshly pushed words. */
    void applyPendingFaults(Cycle now);

    /** Credit the current level with the cycles it held before @p now,
     *  if the level clock runs; called before every change of count. */
    void
    creditLevel(Cycle now)
    {
        if (now > levelSince) {
            occupancy.sample(double(count), now - levelSince);
            levelSince = now;
        }
    }

    std::string _name;
    std::size_t _capacity;
    unsigned latency;
    std::size_t _reserved = 0;

    // Fixed-capacity ring buffer, sized (to a power of two) at
    // construction: no per-push allocation on the simulator hot path.
    // count <= _capacity is enforced by the push/reserve assertions.
    std::vector<Entry> ring;
    std::size_t mask = 0;  //!< ring.size() - 1
    std::size_t head = 0;  //!< index of the front entry
    std::size_t count = 0; //!< entries stored
    /** Cycle the current level was first held; cycleNever: stopped. */
    Cycle levelSince = cycleNever;

    trace::Tracer *tracer = nullptr;
    std::uint16_t traceComp = 0;
    std::uint16_t traceTrack = 0;

    fault::ParityMode parityMode = fault::ParityMode::Off;
    FaultHandler protHandler;
    Word pendingCorrupt = 0;     //!< XOR mask armed for the next push
    bool pendingReorder = false; //!< swap armed for the next two pushes

    stats::Counter pushes;
    stats::Counter pops;
    stats::Counter resets;
    stats::Counter faultsInjected;
    stats::Counter parityCorrected;
    stats::Counter parityDetected;
    stats::Watermark highWaterMark;
    stats::Distribution occupancy;
};

} // namespace opac

#endif // OPAC_FIFO_TIMED_FIFO_HH
