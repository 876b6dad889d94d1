/**
 * @file
 * Cycle-driven simulation engine.
 *
 * All OPAC components (host, bus, cells) advance in lock step on a common
 * clock, which matches the synchronous prototype. Components are ticked in
 * registration order every cycle; cross-component visibility is one cycle
 * (a FIFO word pushed in cycle t becomes poppable in a later cycle), so
 * results do not depend on tick order.
 *
 * A watchdog aborts the run with a per-component status dump when no
 * component reports progress for a configurable number of cycles — FIFO
 * protocol deadlocks (host and cell each waiting on the other) are the
 * characteristic failure mode of this architecture, and silent hangs are
 * useless.
 *
 * The engine has two run loops, bit-identical in simulated cycles,
 * statistics and trace output (EngineMode):
 *
 *  - Spin: tick every component every cycle. The reference model.
 *  - Skip: the default. After a tick round in which no component
 *          reported progress, the engine asks every component for the
 *          earliest future cycle at which it could act on its own
 *          (nextEventAt) and jumps the clock to the minimum hint. The
 *          jump moves the clock and nothing else: countdowns are
 *          stored as the absolute cycle they end at, and each skipped
 *          round would only have spent time in the state the round
 *          before the jump entered. A component that cannot predict
 *          its wake-up returns `now` (the default), which disables
 *          skipping while it is live; `noEvent` means it only ever
 *          reacts to other components. A traced cell or host returns
 *          `now` too, so a traced run ticks every round and emits
 *          every per-cycle event itself.
 *          With the fast tier on and no tracer attached, Skip also
 *          runs a streaming component's burst quantum (burstQuantum /
 *          burstRun) in one step, in a cell-local window: one that no
 *          other component can intrude on before it ends
 *          (intrudesAt). The burster runs the window ahead at once
 *          and is not ticked until it ends, while everyone else keeps
 *          ticking — a host pacing the bus while cells stream their
 *          local loops. Its progress in each of those rounds comes
 *          from the window's bitmap, so idle and watchdog accounting
 *          stay exact, and the clock still jumps whenever every
 *          component outside a window is passive.
 *
 * Time statistics — busy, idle, stall and hang cycles, FIFO occupancy
 * — are credited when a component's state changes, not per tick
 * (stats::StateClock), so a skipped or burst window costs them
 * nothing. They are exact after Component::settle(): at every run()
 * exit (so in every snapshot, which is taken between runs), at each
 * sampler boundary and in a PMU readback.
 */

#ifndef OPAC_SIM_ENGINE_HH
#define OPAC_SIM_ENGINE_HH

#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"

namespace opac::trace
{
class Tracer;
}

namespace opac::snap
{
class Writer;
class Reader;
} // namespace opac::snap

namespace opac::sim
{

class Engine;

/** How Engine::run() advances the clock. Both modes are bit-identical. */
enum class EngineMode
{
    Spin, //!< tick everything every cycle (reference model)
    Skip, //!< idle-cycle skipping and fast-tier bursts (default)
};

/** Lower-case mode name as used on --engine= command lines. */
const char *engineModeName(EngineMode m);

/** Parse an --engine= value; returns false on an unknown name. */
bool parseEngineMode(const std::string &text, EngineMode &out);

/** Anything that advances once per clock cycle. */
class Component
{
  public:
    explicit Component(std::string name) : _name(std::move(name)) {}
    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** The hint value meaning "I only ever react to other components". */
    static constexpr Cycle noEvent = cycleNever;

    /** Advance one cycle. Call Engine::noteProgress() if work was done. */
    virtual void tick(Engine &engine) = 0;

    /** True once this component has nothing left to do. */
    virtual bool done() const = 0;

    /**
     * Earliest future cycle at which this component could act on its
     * own, assuming no other component does anything before then:
     * a FIFO front falling through, a countdown (a cell's call
     * dispatch, the host's cooldown or scalar compute) ending, an FP
     * pipeline result landing. A round whose clock state changes
     * counts as an event (stats::StateClock): a skip jump moves the
     * clock and nothing else, so every round it skips must do nothing
     * but spend time in the state the round before the jump entered.
     * Only consulted after a tick round with no progress. Return
     * `now` when the wake-up cannot be predicted or a round emits
     * trace events (disables skipping while this component is live —
     * the safe default), or noEvent when this component only waits
     * on others. HintMin and frontReadyHint below are the shared
     * pieces of the answer.
     */
    virtual Cycle nextEventAt(Cycle now) const { return now; }

    /**
     * Earliest cycle at which this component could read or change
     * another component's non-interface state — sequencer, registers,
     * local queues, fault latches, statistics — whatever the other
     * components do: a stats sample, an armed fault, a reset line, a
     * protected link faulting its cell. Words moved through a cell's
     * interface queues do not count; a cell in a burst window touches
     * none of them. Bounds the burst windows, which run one component
     * ahead while the others keep ticking. Return `now` when this
     * cannot be bounded (the default: no burst window while this
     * component is registered), noEvent when this component never
     * reaches into another's state.
     */
    virtual Cycle intrudesAt(Cycle now) const { return now; }

    /**
     * Superop fast tier: number of cycles this component could
     * execute in bulk starting at @p now without touching any state
     * another component observes (for a cell: a steady-state
     * innermost hardware-loop body reading and writing only its local
     * queues and registers). 0 — the default and the common case —
     * means "cannot burst". A positive quantum is a guarantee: for
     * any engine grant w <= the quantum, burstRun(now, w, ...)
     * reproduces byte-exactly what w consecutive live tick() rounds
     * would have done, every externally observable queue stays
     * untouched for the whole window, and nothing the component did
     * before the window becomes visible to another component inside
     * it (no queue word still falling through toward a consumer).
     * Only consulted when the engine's fast tier is on and no tracer
     * is attached.
     */
    virtual Cycle burstQuantum(Cycle now)
    {
        (void)now;
        return 0;
    }

    /**
     * Execute @p cycles tick rounds in bulk starting at cycle
     * @p from, against a preceding burstQuantum(from) guarantee. Must
     * leave every counter, FIFO and architectural register exactly as
     * @p cycles live tick() rounds would have, in a window where no
     * other component intrudes (see intrudesAt) while the others keep
     * ticking. For each bulk cycle from + k in which a live tick would
     * have reported progress, set bit k in @p progress_bits (the
     * window's zeroed, engine-owned bitmap of at least @p cycles
     * bits) — the engine derives idle-cycle and watchdog accounting
     * from it.
     */
    virtual void burstRun(Cycle from, Cycle cycles, Engine &engine,
                          std::uint64_t *progress_bits)
    {
        (void)from;
        (void)cycles;
        (void)engine;
        (void)progress_bits;
    }

    /**
     * Credit every time statistic through cycle @p now - 1. A tick
     * charges its cycle by entering a state (stats::StateClock), and
     * the state's cycles are added up when it changes; settle() adds
     * them up without a change. The rounds a skip jump passes over
     * need nothing more: each stays in the state the round before the
     * jump entered (see nextEventAt). Engine::run() settles every
     * component at entry, which also starts the clocks after
     * construction or a snapshot restore, and at every exit, thrown
     * ones included; the stats sampler settles before each snapshot
     * (Engine::settle()).
     */
    virtual void settle(Cycle now) { (void)now; }

    /** One-line state description, used in deadlock reports. */
    virtual std::string statusLine() const { return "(no status)"; }

    /**
     * Version tag stamped on this component's saveState() payload.
     * Bump it when the payload layout changes; loadState() receives
     * the version the snapshot was written with and may translate or
     * reject old layouts.
     */
    virtual std::uint32_t stateVersion() const { return 1; }

    /**
     * Serialize every piece of mutable state a resumed run needs to
     * be bit-identical to an uninterrupted one: architectural
     * registers, queue contents, in-flight operations, countdowns,
     * fault latches. Registered statistics are saved separately
     * through the stats tree; derived caches that rebuild on demand
     * need not be saved. The default saves nothing (for stateless
     * components).
     */
    virtual void saveState(snap::Writer &w) const;

    /**
     * Restore state saved by saveState() on a freshly constructed,
     * identically configured component. @p version is the payload's
     * stateVersion() at save time. Throws opac::SnapshotError (via
     * Reader::fail) on malformed payloads.
     */
    virtual void loadState(snap::Reader &r, std::uint32_t version);

    const std::string &name() const { return _name; }

  private:
    std::string _name;
};

/** Accumulates the minimum over "earliest event" hints. */
class HintMin
{
  public:
    /** Fold in a hint (noEvent is the identity). */
    void
    note(Cycle at)
    {
        if (at < _at)
            _at = at;
    }

    /**
     * Fold in a hint that only counts when it is not already in the
     * past — pipeline landings with when < now are ordered behind a
     * later entry and must not produce a stale wake-up.
     */
    void
    noteFuture(Cycle at, Cycle now)
    {
        if (at >= now)
            note(at);
    }

    Cycle value() const { return _at; }

  private:
    Cycle _at = Component::noEvent;
};

/**
 * The FIFO front-ready wake rule shared by every queue-backed hint: a
 * front that became poppable strictly before @p now was already seen
 * by its stalled consumer and cannot wake it; a front becoming ready
 * at or after @p now wakes the consumer at exactly its ready cycle.
 */
inline Cycle
frontReadyHint(Cycle ready, Cycle now)
{
    return ready < now ? Component::noEvent : ready;
}

/** The clock and run loop. */
class Engine
{
  public:
    /**
     * @param watchdog_cycles Abort after this many cycles without any
     *                        component reporting progress (0 = disabled).
     * @param parent_stats    Registry to hold the "engine" stats group.
     */
    explicit Engine(Cycle watchdog_cycles = 100000,
                    stats::StatGroup *parent_stats = nullptr)
        : watchdogCycles(watchdog_cycles),
          statGroup("engine", parent_stats)
    {
        statGroup.addCounter("cycles", &statCycles, "cycles simulated");
        statGroup.addCounter("idleCycles", &statIdleCycles,
                             "cycles in which no component progressed");
    }

    /** Register a component; it must outlive the engine. */
    void add(Component *c) { components.push_back(c); }

    Cycle now() const { return cycle; }

    /** Components call this from tick() when they made forward progress. */
    void noteProgress() { progressed = true; }

    /**
     * Run until every component reports done(), or max_cycles elapse
     * (0 = unbounded). Returns the number of cycles simulated. Throws on
     * watchdog expiry with a full component status dump.
     */
    Cycle run(Cycle max_cycles = 0);

    /**
     * Run until the clock reaches @p stop (or everything is done,
     * whichever comes first) and return the cycles simulated. The
     * machine is left in exactly the state a run() would pass through
     * at cycle @p stop, counters settled, so it can be snapshotted and
     * the run continued (by run() or another runUntil()) with
     * byte-identical results. The idle-time baseline the watchdog and
     * skip hysteresis derive from is carried across the boundary
     * (idleCarry_), so deadlock expiry and jump decisions land on the
     * same cycles as an uninterrupted run.
     */
    Cycle runUntil(Cycle stop, Cycle max_cycles = 0);

    /**
     * Serialize the engine-level mutable state (the clock and the
     * carried idle baseline). Registered stats (cycles/idleCycles)
     * travel with the stats tree; scheduler scratch (burst backoff)
     * re-initializes at run entry and is deliberately not saved —
     * both modes are byte-identical, so a resumed run may even
     * switch modes.
     */
    void saveState(snap::Writer &w) const;
    void loadState(snap::Reader &r);

    /** True when every registered component is done. */
    bool allDone() const;

    /** Settle every component at the current cycle (Component::settle). */
    void settle();

    /**
     * Status dump of every component (used in error reports). When a
     * tracer is attached, the last few trace events of every component
     * are appended, so a deadlock report shows not just where each
     * component is stuck but what it last did.
     */
    std::string statusDump() const;

    /**
     * Attach the trace recorder consulted by error reports. The engine
     * emits no events itself; pass nullptr to detach.
     */
    void setTracer(trace::Tracer *t) { _tracer = t; }
    trace::Tracer *tracer() const { return _tracer; }

    /** The engine's statistics subtree. */
    stats::StatGroup &stats() { return statGroup; }

    /**
     * Install a non-fatal watchdog callback. When the watchdog
     * expires the handler runs first: returning true claims the
     * expiry (the idle counter restarts and the run continues —
     * the recovery path uses this to force a host-side transaction
     * retry), returning false falls through to the fatal
     * DeadlockError. Pass nullptr to restore fatal-only behavior.
     */
    using WatchdogHandler = std::function<bool(Engine &)>;
    void setWatchdogHandler(WatchdogHandler h)
    {
        watchdogHandler = std::move(h);
    }

    /**
     * Select the run mode (default Skip). Results are bit-identical
     * in both modes; Spin is the debugging escape hatch and the
     * reference the golden-equivalence suite compares against.
     */
    void setMode(EngineMode m) { _mode = m; }
    EngineMode mode() const { return _mode; }

    /**
     * Enable the superop fast tier (default off at the engine level;
     * the coprocessor turns it on from its config). When on, the
     * Skip run loop may run a component advertising a burstQuantum()
     * that many cycles ahead in a burst window while the others keep
     * ticking (or skip when they are quiescent). Spin mode
     * never bursts — it stays the pure per-cycle reference — and a
     * run with a tracer attached never bursts either, so every output
     * stays byte-identical with the tier on or off.
     */
    void setFastTier(bool on) { fastTier_ = on; }

    /**
     * Skip diagnostics. Deliberately NOT registered as statistics:
     * the stats JSON must be identical between spin and skip modes.
     */
    std::uint64_t fastForwards() const { return _fastForwards; }
    std::uint64_t skippedCycles() const { return _skippedCycles; }

    /**
     * Fast-tier diagnostics, unregistered for the same reason: burst
     * engagement depends on the run mode, the stats JSON must not.
     * bursts() counts successful attempts (one or more windows opened
     * together); burstCycles() sums the windows' lengths.
     */
    std::uint64_t burstAttempts() const { return _burstAttempts; }
    std::uint64_t bursts() const { return _bursts; }
    std::uint64_t burstCycles() const { return _burstCycles; }

  private:
    /**
     * Superop burst: open a window for every component outside one
     * whose burstQuantum(), clamped to every component's intrudesAt
     * and to the run deadlines (@p start / @p max_cycles, see
     * deadlineBound), reaches minBurstCycles, and run it at once. The
     * clock does not move.
     */
    void attemptBurst(Cycle start, Cycle max_cycles);

    /**
     * Rounds a window starting now may span before the watchdog,
     * max_cycles or a runUntil() stop could fire: each must fire at
     * exactly the cycle a spin run reaches it, with every component
     * at that cycle.
     */
    Cycle deadlineBound(Cycle start, Cycle max_cycles) const;

    /**
     * One tick round while windows are open: components in
     * a window are not ticked, their progress comes from the window's
     * bitmap. Returns true when a window reported progress.
     */
    bool tickAroundWindows();

    /**
     * Count the rounds in [cycle, cycle + n) in which an open window
     * reported progress, and move lastProgress past the last one.
     */
    Cycle windowBusyRounds(Cycle n);

    /** Recount the open windows after the clock moved. */
    void closeWindows();

    /** True while slot @p s runs ahead in a window. */
    bool inWindow(unsigned s) const { return cycle < windows_[s].end; }

    /** Burst windows shorter than this lose to their own setup cost. */
    static constexpr Cycle minBurstCycles = 4;
    /**
     * Live rounds before retrying after a failed attempt. Kept short
     * on every failure path: the steady-state windows are only as
     * long as the innermost loop count (tens of cycles), and the
     * common failure clears within a cycle or two — a sequencer
     * crossing a loop boundary (no quantum to grant) re-enters the
     * body immediately. A long back-off here blanks most of the next
     * window; the attempt itself is one cheap burstQuantum() poll
     * per component (and, at the first grant, one intrudesAt() each).
     */
    static constexpr Cycle burstRetryInterval = 2;
    /**
     * Ceiling for the adaptive retry delay. The first two consecutive
     * misses retry at burstRetryInterval (loop boundaries clear that
     * fast); a longer streak means the machine is in a phase bursts
     * cannot cover at all — no cell in a local loop, or a component
     * that could intrude (recovery on) — where re-probing every other
     * cycle is pure overhead, so the delay doubles per miss up to this
     * cap. One opened window resets the streak.
     */
    static constexpr Cycle burstBackoffMax = 16;

    /** Record a failed burst attempt and schedule the next probe. */
    void burstFailed(Cycle at);

    std::vector<Component *> components;
    Cycle cycle = 0;
    /**
     * Early-stop deadline for runUntil(): the run loop breaks when
     * the clock reaches it, and every skip jump / burst window is
     * clamped to it so the stop lands on the exact cycle. cycleNever
     * when a plain run() is active.
     */
    Cycle stopAt_ = cycleNever;
    /**
     * Cycles of idleness (cycle - lastProgress) carried across a
     * runUntil() boundary. The run loop normally resets its idle
     * baseline at entry; consuming this carry instead keeps watchdog
     * expiry and skip hysteresis on the same cycles as an
     * uninterrupted run. Zero after natural completion, so multi-run
     * callers (the serve shards) are unaffected.
     */
    Cycle idleCarry_ = 0;
    Cycle watchdogCycles;
    WatchdogHandler watchdogHandler;
    bool progressed = false;
    EngineMode _mode = EngineMode::Skip;
    Cycle lastProgress = 0;
    std::uint64_t _fastForwards = 0;
    std::uint64_t _skippedCycles = 0;
    bool fastTier_ = false;
    Cycle nextBurstTry_ = 0;
    unsigned burstFailStreak_ = 0; //!< consecutive failed attempts
    /**
     * A burst window: its component already ran rounds
     * [start, end) and ticks live again from round end; bit k of bits
     * is its progress in round start + k.
     */
    struct Window
    {
        Cycle start = 0;
        Cycle end = 0;
        std::vector<std::uint64_t> bits;
    };
    std::vector<Window> windows_;       //!< per slot; closed: end <= cycle
    unsigned openWindows_ = 0;          //!< windows with end > cycle
    Cycle windowsClose_ = cycleNever;   //!< earliest end of an open one
    /** Like lastProgress, but for progress of ticked components only:
     *  the skip hysteresis counts quiescent rounds outside windows. */
    Cycle lastLiveProgress_ = 0;
    std::uint64_t _burstAttempts = 0;
    std::uint64_t _bursts = 0;
    std::uint64_t _burstCycles = 0;
    trace::Tracer *_tracer = nullptr;
    stats::StatGroup statGroup;
    stats::Counter statCycles;
    stats::Counter statIdleCycles;
};

} // namespace opac::sim

#endif // OPAC_SIM_ENGINE_HH
