#include "fault/injector.hh"

#include "common/logging.hh"
#include "snap/snapshot.hh"

namespace opac::fault
{

Injector::Injector(std::string name, std::vector<FaultEvent> plan,
                   stats::StatGroup *parent)
    : sim::Component(std::move(name)), plan(std::move(plan)),
      statGroup(this->name(), parent)
{
    statGroup.addCounter("injected", &statInjected,
                         "faults armed into the machine");
    for (unsigned k = 0; k < unsigned(FaultKind::numKinds); ++k)
        statGroup.addCounter(faultKindName(FaultKind(k)), &statByKind[k],
                             "faults of this kind armed");
}

void
Injector::tick(sim::Engine &engine)
{
    Cycle now = engine.now();
    while (next < plan.size() && plan[next].at <= now) {
        const FaultEvent &e = plan[next];
        ++statInjected;
        ++statByKind[std::size_t(e.kind)];
        if (tracer)
            tracer->emit(now, trace::EventKind::Fault,
                         std::uint8_t(e.kind), traceComp, 0, e.cell,
                         e.kind == FaultKind::FifoFlip
                             ? e.mask
                             : std::uint32_t(e.arg));
        if (arm)
            arm(e, now);
        ++next;
        // Arming is not noteProgress(): a fault alone must not feed
        // the watchdog — only the machine's reaction to it does.
    }
}

Cycle
Injector::nextEventAt(Cycle now) const
{
    // The engine asks before the round at `now`; every earlier round's
    // tick() consumed what was due then, so a fault due at `now` is
    // this round's event.
    (void)now;
    return next < plan.size() ? plan[next].at : noEvent;
}

void
Injector::saveState(snap::Writer &w) const
{
    w.u64(plan.size());
    w.u64(next);
}

void
Injector::loadState(snap::Reader &r, std::uint32_t version)
{
    (void)version;
    std::uint64_t size = r.u64();
    if (size != plan.size())
        r.fail(name() + ": snapshot plan has " + std::to_string(size) +
               " faults, this machine generated " +
               std::to_string(plan.size()));
    std::uint64_t cursor = r.u64();
    if (cursor > plan.size())
        r.fail(name() + ": arming cursor past the end of the plan");
    next = std::size_t(cursor);
}

std::string
Injector::statusLine() const
{
    if (next >= plan.size())
        return strfmt("armed %zu/%zu faults", next, plan.size());
    return strfmt("armed %zu/%zu faults, next %s", next, plan.size(),
                  describeFault(plan[next]).c_str());
}

} // namespace opac::fault
