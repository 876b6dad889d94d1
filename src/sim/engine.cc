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

bool
Engine::attemptBurst(Cycle start, Cycle max_cycles)
{
    ++_burstAttempts;
    const unsigned n = static_cast<unsigned>(components.size());

    // Who can burst, and for how long? The window is the smallest
    // granted quantum.
    burstSlots_.clear();
    Cycle w = Component::noEvent;
    for (unsigned s = 0; s < n; ++s) {
        Cycle q = components[s]->burstQuantum(cycle);
        if (q > 0) {
            burstSlots_.push_back(s);
            w = std::min(w, q);
        }
    }
    if (burstSlots_.empty()) {
        burstFailed(cycle);
        return false;
    }

    // Everyone else must be provably passive across the window: no
    // progress attributed in the round just executed, and a
    // nextEventAt hint strictly in the future (which then bounds the
    // window — the hint is valid precisely because the bursters touch
    // nothing the passive component observes). The stats sampler's
    // hint is its next boundary, so every sample sees live counters.
    auto passiveFail = [&] {
        burstFailed(cycle);
        return false;
    };
    unsigned nburst = 0;
    for (unsigned s = 0; s < n; ++s) {
        if (nburst < burstSlots_.size() && burstSlots_[nburst] == s) {
            ++nburst;
            continue;
        }
        if (slotProg_[s])
            return passiveFail();
        Cycle at = components[s]->nextEventAt(cycle);
        if (at <= cycle)
            return passiveFail();
        w = std::min(w, at - cycle);
    }

    // Deadline clamps, same as the skip jump: the watchdog and
    // max_cycles must fire at exactly the cycle a spin run reaches
    // them.
    if (watchdogCycles != 0)
        w = std::min(w, lastProgress + watchdogCycles - cycle);
    if (max_cycles != 0)
        w = std::min(w, start + max_cycles - cycle);
    if (stopAt_ != cycleNever)
        w = std::min(w, stopAt_ - cycle);
    if (w < minBurstCycles) {
        burstFailed(cycle);
        return false;
    }

    // Execute. Bursters run first, then the passives bulk-replay the
    // window; the order is immaterial because the bursters touch no
    // state the passives observe (the burstQuantum contract).
    burstBits_.assign(std::size_t((w + 63) / 64), 0);
    for (unsigned s : burstSlots_) {
        tickSlot_ = s;
        components[s]->burstRun(cycle, w, *this, burstBits_.data());
    }
    nburst = 0;
    for (unsigned s = 0; s < n; ++s) {
        if (nburst < burstSlots_.size() && burstSlots_[nburst] == s) {
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
    auto watchdogExpired = [&] {
        if (watchdogHandler && watchdogHandler(*this)) {
            // A recovery handler claimed the expiry; restart the count
            // and give the machine another watchdog period to react.
            lastProgress = cycle;
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
        if (burst)
            std::fill(slotProg_.begin(), slotProg_.end(),
                      std::uint8_t(0));
        for (unsigned s = 0; s < n; ++s) {
            tickSlot_ = s;
            components[s]->tick(*this);
        }
        ++cycle;
        ++statCycles;
        if (progressed) {
            lastProgress = cycle;
            // A streaming component is the burst opportunity: try to
            // hand it a multi-cycle quantum while everyone else is
            // provably passive.
            if (burst && cycle >= nextBurstTry_
                && attemptBurst(start, max_cycles)
                && watchdogCycles != 0
                && cycle - lastProgress >= watchdogCycles)
                watchdogExpired();
            continue;
        }
        ++statIdleCycles;
        if (watchdogCycles != 0 && cycle - lastProgress >= watchdogCycles)
            watchdogExpired();
        // Attempt a jump only after two consecutive quiescent rounds:
        // workloads that alternate progress and one-cycle stalls (a
        // host feeding at tau = 2) would otherwise pay for hint
        // computation every other cycle and never skip anything.
        if (!skip || cycle - lastProgress < 2)
            continue;

        // Quiescent round: every cycle until the earliest next-event
        // hint is an exact replica of the round just executed, so the
        // clock can jump there directly. The jump is clamped to the
        // watchdog and max_cycles deadlines so both fire at exactly
        // the cycle the spin-mode run would reach them.
        Cycle target = Component::noEvent;
        for (const auto *c : components) {
            Cycle at = c->nextEventAt(cycle);
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
        if (_tracer) {
            // Cycle-major replay keeps trace event order identical to
            // the spin-mode stream.
            for (Cycle k = 0; k < skip_n; ++k) {
                for (auto *c : components)
                    c->fastForward(cycle + k, 1, *this);
            }
        } else {
            for (auto *c : components)
                c->fastForward(cycle, skip_n, *this);
        }
        cycle = target;
        statCycles += skip_n;
        statIdleCycles += skip_n;
        ++_fastForwards;
        _skippedCycles += skip_n;
        if (watchdogCycles != 0 && cycle - lastProgress >= watchdogCycles)
            watchdogExpired();
    }
    return cycle - start;
}

} // namespace opac::sim
