#include "sim/engine.hh"

#include <algorithm>
#include <bit>

#include "common/error.hh"
#include "common/logging.hh"
#include "snap/snapshot.hh"
#include "trace/trace.hh"

namespace opac::sim
{

void
Component::saveState(snap::Writer &w) const
{
    (void)w;
}

void
Component::loadState(snap::Reader &r, std::uint32_t version)
{
    (void)version;
    if (!r.atEnd())
        r.fail("component '" + _name +
               "' has no loadState but the snapshot carries a payload");
}

const char *
engineModeName(EngineMode m)
{
    switch (m) {
      case EngineMode::Spin:
        return "spin";
      case EngineMode::Skip:
        return "skip";
    }
    return "?";
}

bool
parseEngineMode(const std::string &text, EngineMode &out)
{
    for (EngineMode m : {EngineMode::Spin, EngineMode::Skip}) {
        if (text == engineModeName(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

bool
Engine::allDone() const
{
    for (const auto *c : components) {
        if (!c->done())
            return false;
    }
    return true;
}

void
Engine::settle()
{
    for (Component *c : components)
        c->settle(cycle);
}

std::string
Engine::statusDump() const
{
    std::string out;
    for (const auto *c : components) {
        out += strfmt("  %-24s %s %s\n", c->name().c_str(),
                      c->done() ? "[done]" : "[busy]",
                      c->statusLine().c_str());
    }
    if (_tracer)
        out += _tracer->recentReport();
    return out;
}

Cycle
Engine::runUntil(Cycle stop, Cycle max_cycles)
{
    opac_assert(stop >= cycle,
                "runUntil target %llu is behind the clock (%llu)",
                static_cast<unsigned long long>(stop),
                static_cast<unsigned long long>(cycle));
    stopAt_ = stop;
    Cycle ran;
    try {
        ran = run(max_cycles);
    } catch (...) {
        stopAt_ = cycleNever;
        throw;
    }
    stopAt_ = cycleNever;
    // Carry the idle baseline over the boundary only when the run was
    // actually cut short; a natural completion leaves the engine in
    // the same state a plain run() would, so multi-run callers see no
    // difference.
    if (!allDone())
        idleCarry_ = cycle - lastProgress;
    return ran;
}

void
Engine::saveState(snap::Writer &w) const
{
    w.u64(cycle);
    w.u64(idleCarry_);
}

void
Engine::loadState(snap::Reader &r)
{
    cycle = r.u64();
    idleCarry_ = r.u64();
    lastProgress = cycle;
}

Cycle
Engine::deadlineBound(Cycle start, Cycle max_cycles) const
{
    Cycle w = Component::noEvent;
    if (watchdogCycles != 0)
        w = std::min(w, lastProgress + watchdogCycles - cycle);
    if (max_cycles != 0)
        w = std::min(w, start + max_cycles - cycle);
    if (stopAt_ != cycleNever)
        w = std::min(w, stopAt_ - cycle);
    return w;
}

void
Engine::attemptBurst(Cycle start, Cycle max_cycles)
{
    ++_burstAttempts;
    // A burster touches nothing another component observes, so the
    // others keep ticking through its window; it only needs the
    // assurance that nobody reaches into its own state before the
    // window ends. Cells report noEvent, so this is the earliest stats
    // sample, injected fault or host reset. Asked at the first grant
    // only: most failed attempts find no cell in a local loop.
    auto intrusionBound = [&] {
        Cycle bound = deadlineBound(start, max_cycles);
        for (const Component *c : components) {
            const Cycle at = c->intrudesAt(cycle);
            if (at <= cycle)
                return Cycle(0);
            if (at != Component::noEvent)
                bound = std::min(bound, at - cycle);
        }
        return bound;
    };
    Cycle bound = 0; // not asked yet
    bool opened = false;
    const unsigned n = static_cast<unsigned>(components.size());
    for (unsigned s = 0; s < n; ++s) {
        if (inWindow(s))
            continue;
        const Cycle q = components[s]->burstQuantum(cycle);
        if (q < minBurstCycles)
            continue;
        if (bound == 0) {
            bound = intrusionBound();
            if (bound < minBurstCycles)
                break;
        }
        const Cycle w = std::min(q, bound);
        Window &win = windows_[s];
        win.start = cycle;
        win.end = cycle + w;
        win.bits.assign(std::size_t((w + 63) / 64), 0);
        components[s]->burstRun(cycle, w, *this, win.bits.data());
        ++openWindows_;
        windowsClose_ = std::min(windowsClose_, win.end);
        _burstCycles += w;
        opened = true;
    }
    if (!opened) {
        burstFailed(cycle);
        return;
    }
    ++_bursts;
    nextBurstTry_ = cycle; // streaming: try again right away
    burstFailStreak_ = 0;
}

void
Engine::burstFailed(Cycle at)
{
    Cycle d = burstRetryInterval;
    if (burstFailStreak_ >= 2) {
        unsigned shift = std::min(burstFailStreak_ - 1, 31u);
        d = burstRetryInterval << shift;
        d = std::min(d, burstBackoffMax);
    }
    ++burstFailStreak_;
    nextBurstTry_ = at + d;
}

bool
Engine::tickAroundWindows()
{
    bool any = false;
    const unsigned n = static_cast<unsigned>(components.size());
    for (unsigned s = 0; s < n; ++s) {
        const Window &win = windows_[s];
        if (cycle < win.end) {
            const Cycle k = cycle - win.start;
            if ((win.bits[k >> 6] >> (k & 63)) & 1)
                any = true;
            continue;
        }
        components[s]->tick(*this);
    }
    return any;
}

Cycle
Engine::windowBusyRounds(Cycle n)
{
    // Every open window spans the whole jump (the jump stops at the
    // first window end), so its bitmap is read 64 rounds at a time
    // from offset cycle - start: the OR over the open windows has a
    // bit for each round in which some window progressed.
    Cycle busy = 0;
    for (Cycle j = 0; j < n; j += 64) {
        std::uint64_t m = 0;
        for (const Window &win : windows_) {
            if (win.end <= cycle)
                continue;
            const Cycle k = cycle + j - win.start;
            const std::size_t i = std::size_t(k >> 6);
            const unsigned sh = unsigned(k & 63);
            m |= win.bits[i] >> sh;
            if (sh != 0 && i + 1 < win.bits.size())
                m |= win.bits[i + 1] << (64 - sh);
        }
        if (n - j < 64)
            m &= (std::uint64_t(1) << (n - j)) - 1;
        busy += Cycle(std::popcount(m));
        if (m != 0)
            lastProgress = cycle + j + Cycle(64 - std::countl_zero(m));
    }
    return busy;
}

void
Engine::closeWindows()
{
    openWindows_ = 0;
    windowsClose_ = cycleNever;
    for (const Window &win : windows_) {
        if (win.end > cycle) {
            ++openWindows_;
            windowsClose_ = std::min(windowsClose_, win.end);
        }
    }
}

Cycle
Engine::run(Cycle max_cycles)
{
    const bool skip = _mode == EngineMode::Skip;
    const unsigned n = static_cast<unsigned>(components.size());
    Cycle start = cycle;
    // Time statistics are exact at every exit, thrown ones included:
    // the serve shards catch a DeadlockError or RecoveryError, may
    // checkpoint the machine, and run it again.
    settle();
    struct SettleOnExit
    {
        Engine &engine;
        ~SettleOnExit() { engine.settle(); }
    } settle_on_exit{*this};
    // The watchdog and the skip hysteresis both derive from engine
    // time (cycles since the last round that made progress), not from
    // tick-loop iterations, so both run modes count idleness the
    // same way no matter how their loop is shaped. A runUntil() stop
    // carries the idle baseline forward so a resumed run counts
    // idleness from the same cycle an uninterrupted one would.
    lastProgress = cycle - std::min(idleCarry_, cycle);
    idleCarry_ = 0;
    // Superop bursts only when skipping (Spin stays the pure per-cycle
    // reference) and untraced (traces need per-cycle event edges).
    const bool burst = skip && fastTier_ && !_tracer;
    if (burst) {
        nextBurstTry_ = cycle;
        burstFailStreak_ = 0;
    }
    // Every exit comes after the last window closed: windows end no
    // later than the watchdog, max_cycles and stopAt_ deadlines.
    windows_.assign(n, Window{});
    openWindows_ = 0;
    windowsClose_ = cycleNever;
    lastLiveProgress_ = lastProgress;
    auto watchdogExpired = [&] {
        if (watchdogHandler && watchdogHandler(*this)) {
            // A recovery handler claimed the expiry; restart the count
            // and give the machine another watchdog period to react.
            lastProgress = cycle;
            lastLiveProgress_ = cycle;
            return;
        }
        throw DeadlockError(
            "engine", cycle,
            strfmt("deadlock: no progress for %llu cycles "
                   "(idle-cycle skipping %s)\n%s",
                   static_cast<unsigned long long>(watchdogCycles),
                   skip ? "on" : "off", statusDump().c_str()));
    };
    while (!allDone() && cycle < stopAt_) {
        if (max_cycles != 0 && cycle - start >= max_cycles) {
            opac_fatal("simulation exceeded max_cycles = %llu "
                       "(%llu cycles simulated)\n%s",
                       static_cast<unsigned long long>(max_cycles),
                       static_cast<unsigned long long>(cycle - start),
                       statusDump().c_str());
        }
        progressed = false;
        bool windowProgress = false;
        if (openWindows_ == 0) {
            for (auto *c : components)
                c->tick(*this);
        } else {
            windowProgress = tickAroundWindows();
        }
        ++cycle;
        ++statCycles;
        if (openWindows_ != 0 && cycle >= windowsClose_)
            closeWindows();
        if (progressed) {
            lastProgress = cycle;
            lastLiveProgress_ = cycle;
            // A streaming component is the burst opportunity: try to
            // open it a window.
            if (burst && cycle >= nextBurstTry_)
                attemptBurst(start, max_cycles);
            continue;
        }
        if (windowProgress) {
            lastProgress = cycle;
        } else {
            ++statIdleCycles;
            if (watchdogCycles != 0
                && cycle - lastProgress >= watchdogCycles)
                watchdogExpired();
        }
        // Attempt a jump only after two consecutive quiescent rounds:
        // workloads that alternate progress and one-cycle stalls (a
        // host feeding at tau = 2) would otherwise pay for hint
        // computation every other cycle and never skip anything.
        if (!skip || cycle - lastLiveProgress_ < 2)
            continue;

        // Quiescent round: every cycle until the earliest next-event
        // hint is an exact replica of the round just executed, so the
        // clock can jump there directly. A component in a cell-local
        // window already ran those rounds and gives no hint: its
        // window touches nothing the others observe. The jump stops
        // where the first window closes, and is clamped to the
        // watchdog and max_cycles deadlines so both fire at exactly
        // the cycle the spin-mode run would reach them.
        Cycle target = windowsClose_;
        for (unsigned s = 0; s < n; ++s) {
            if (openWindows_ != 0 && inWindow(s))
                continue;
            Cycle at = components[s]->nextEventAt(cycle);
            if (at <= cycle) {
                target = cycle;
                break;
            }
            target = std::min(target, at);
        }
        if (watchdogCycles != 0)
            target = std::min(target, lastProgress + watchdogCycles);
        if (max_cycles != 0)
            target = std::min(target, start + max_cycles);
        target = std::min(target, stopAt_);
        // A one-cycle jump is left to a live round: allowing it
        // measured no better overall (a little faster on a τ-paced
        // bus, a little slower on streaming and LU runs).
        if (target == Component::noEvent || target < cycle + 2)
            continue;

        // The jump moves the clock and nothing else; an open window
        // reports its own progress in the skipped rounds.
        const Cycle skip_n = target - cycle;
        const Cycle busy = openWindows_ != 0 ? windowBusyRounds(skip_n) : 0;
        cycle = target;
        statCycles += skip_n;
        statIdleCycles += skip_n - busy;
        ++_fastForwards;
        _skippedCycles += skip_n;
        if (openWindows_ != 0 && cycle >= windowsClose_)
            closeWindows();
        if (watchdogCycles != 0 && cycle - lastProgress >= watchdogCycles)
            watchdogExpired();
    }
    return cycle - start;
}

} // namespace opac::sim
