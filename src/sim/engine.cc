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

bool
Engine::attemptBurst(Cycle start, Cycle max_cycles)
{
    ++_burstAttempts;
    const unsigned n = static_cast<unsigned>(components.size());

    // Who can burst, and for how long? A shared window is the
    // smallest granted quantum.
    grants_.clear();
    Cycle w = Component::noEvent;
    for (unsigned s = 0; s < n; ++s) {
        if (openWindows_ != 0 && inWindow(s))
            continue;
        Cycle q = components[s]->burstQuantum(cycle);
        if (q > 0) {
            grants_.push_back({s, q});
            w = std::min(w, q);
        }
    }
    if (grants_.empty()) {
        burstFailed(cycle);
        return false;
    }
    const Cycle deadline = deadlineBound(start, max_cycles);

    // Shared window: everyone else must be provably passive across it
    // — no progress attributed in the round just executed, and a
    // nextEventAt hint strictly in the future (which then bounds the
    // window: the hint is valid precisely because the bursters touch
    // nothing the passive component observes). A component running
    // ahead in a cell-local window is not passive. The stats
    // sampler's hint is its next boundary, so every sample sees live
    // counters. Where that fails, the bursters may still stream
    // alone.
    bool passive = openWindows_ == 0;
    unsigned nburst = 0;
    for (unsigned s = 0; passive && s < n; ++s) {
        if (nburst < grants_.size() && grants_[nburst].slot == s) {
            ++nburst;
            continue;
        }
        const Cycle at =
            slotProg_[s] ? cycle : components[s]->nextEventAt(cycle);
        if (at <= cycle)
            passive = false;
        else
            w = std::min(w, at - cycle);
    }
    w = std::min(w, deadline);
    if (!passive || w < minBurstCycles) {
        if (openLocalWindows(deadline))
            return true;
        burstFailed(cycle);
        return false;
    }

    // Execute. Bursters run first, then the passives bulk-replay the
    // window; the order is immaterial because the bursters touch no
    // state the passives observe (the burstQuantum contract).
    burstBits_.assign(std::size_t((w + 63) / 64), 0);
    for (const Grant &g : grants_) {
        tickSlot_ = g.slot;
        components[g.slot]->burstRun(cycle, w, *this, burstBits_.data());
    }
    nburst = 0;
    for (unsigned s = 0; s < n; ++s) {
        if (nburst < grants_.size() && grants_[nburst].slot == s) {
            ++nburst;
            continue;
        }
        components[s]->fastForward(cycle, w, *this);
    }

    // Idle/watchdog accounting from the progress bitmap: a window
    // cycle with no progress bit is exactly a round in which no
    // component would have reported progress.
    Cycle busy = 0;
    std::ptrdiff_t lastSet = -1;
    for (std::size_t i = 0; i < burstBits_.size(); ++i) {
        std::uint64_t m = burstBits_[i];
        if (i + 1 == burstBits_.size() && (w & 63))
            m &= (std::uint64_t(1) << (w & 63)) - 1;
        busy += Cycle(std::popcount(m));
        if (m != 0) {
            lastSet = std::ptrdiff_t(i) * 64
                      + (63 - std::countl_zero(m));
        }
    }
    if (lastSet >= 0)
        lastProgress = cycle + Cycle(lastSet) + 1;
    lastLiveProgress_ = lastProgress;
    cycle += w;
    statCycles += w;
    statIdleCycles += w - busy;
    ++_bursts;
    _burstCycles += w;
    nextBurstTry_ = cycle; // streaming: try again right away
    burstFailStreak_ = 0;
    return true;
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
Engine::openLocalWindows(Cycle bound)
{
    // A burster touches nothing another component observes, so the
    // others may keep ticking through its window; it only needs the
    // assurance that nobody reaches into its own state before the
    // window ends. Cells report noEvent, so this is the earliest stats
    // sample, injected fault or host reset.
    for (const Component *c : components) {
        const Cycle at = c->intrudesAt(cycle);
        if (at <= cycle)
            return false;
        if (at != Component::noEvent)
            bound = std::min(bound, at - cycle);
    }
    if (bound < minBurstCycles)
        return false;
    bool opened = false;
    for (const Grant &g : grants_) {
        const Cycle w = std::min(g.quantum, bound);
        if (w < minBurstCycles)
            continue;
        Window &win = windows_[g.slot];
        win.start = cycle;
        win.end = cycle + w;
        win.bits.assign(std::size_t((w + 63) / 64), 0);
        tickSlot_ = g.slot;
        components[g.slot]->burstRun(cycle, w, *this, win.bits.data());
        ++openWindows_;
        windowsClose_ = std::min(windowsClose_, win.end);
        _burstCycles += w;
        opened = true;
    }
    if (!opened)
        return false;
    ++_bursts;
    nextBurstTry_ = cycle;
    burstFailStreak_ = 0;
    return true;
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
            if ((win.bits[k >> 6] >> (k & 63)) & 1) {
                any = true;
                slotProg_[s] = 1;
            }
            continue;
        }
        tickSlot_ = s;
        components[s]->tick(*this);
    }
    return any;
}

Cycle
Engine::windowBusyRounds(Cycle n)
{
    Cycle busy = 0;
    for (Cycle c = cycle; c < cycle + n; ++c) {
        for (const Window &win : windows_) {
            if (c >= win.start && c < win.end) {
                const Cycle k = c - win.start;
                if ((win.bits[k >> 6] >> (k & 63)) & 1) {
                    ++busy;
                    lastProgress = c + 1;
                    break;
                }
            }
        }
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
    attributeProgress_ = burst;
    if (burst) {
        slotProg_.assign(n, 0);
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
        if (burst)
            std::fill(slotProg_.begin(), slotProg_.end(),
                      std::uint8_t(0));
        if (openWindows_ == 0) {
            for (unsigned s = 0; s < n; ++s) {
                tickSlot_ = s;
                components[s]->tick(*this);
            }
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
            // hand it a multi-cycle quantum.
            if (burst && cycle >= nextBurstTry_
                && attemptBurst(start, max_cycles)
                && watchdogCycles != 0
                && cycle - lastProgress >= watchdogCycles)
                watchdogExpired();
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
        // A one-cycle jump costs more than the live round it replaces
        // (fastForward visits every component too); live rounds are
        // always correct, so just run one.
        if (target == Component::noEvent || target < cycle + 2)
            continue;

        Cycle skip_n = target - cycle;
        Cycle busy = 0;
        if (_tracer) {
            // Cycle-major replay keeps trace event order identical to
            // the spin-mode stream. (Traced runs never open windows.)
            for (Cycle k = 0; k < skip_n; ++k) {
                for (auto *c : components)
                    c->fastForward(cycle + k, 1, *this);
            }
        } else if (openWindows_ == 0) {
            for (auto *c : components)
                c->fastForward(cycle, skip_n, *this);
        } else {
            for (unsigned s = 0; s < n; ++s) {
                if (!inWindow(s))
                    components[s]->fastForward(cycle, skip_n, *this);
            }
            busy = windowBusyRounds(skip_n);
        }
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
