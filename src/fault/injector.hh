/**
 * @file
 * The fault injector: a sim::Component that walks a FaultPlan and arms
 * each fault at its scheduled cycle.
 *
 * The injector owns no machine state — it hands every due event to an
 * arm callback installed by the Coprocessor, which routes it to the
 * right hook (TimedFifo corruption, Host bus/memory faults, Cell
 * hangs). Keeping the routing in the Coprocessor keeps this library
 * free of fifo/cell/host dependencies.
 *
 * Fast-forward correctness: nextEventAt() and intrudesAt() report the
 * cycle of the next unarmed fault, so neither the engine's idle-cycle
 * skipping nor a burst window can run past an injection — faulted
 * runs are cycle-identical under --engine=spin and --engine=skip, with
 * the fast tier on or off. Arming a fault is deliberately
 * *not* engine progress: a fault landing in a quiescent window must
 * not keep the watchdog alive by itself.
 */

#ifndef OPAC_FAULT_INJECTOR_HH
#define OPAC_FAULT_INJECTOR_HH

#include <array>
#include <functional>
#include <vector>

#include "fault/fault.hh"
#include "sim/engine.hh"
#include "stats/stats.hh"
#include "trace/trace.hh"

namespace opac::fault
{

class Injector : public sim::Component
{
  public:
    /** Routes one due fault into the machine. */
    using ArmFn = std::function<void(const FaultEvent &, Cycle now)>;

    Injector(std::string name, std::vector<FaultEvent> plan,
             stats::StatGroup *parent);

    void setArmHandler(ArmFn fn) { arm = std::move(fn); }

    void
    attachTracer(trace::Tracer *t)
    {
        tracer = t;
        traceComp = t ? t->internComponent(name()) : 0;
    }

    void tick(sim::Engine &engine) override;
    bool done() const override { return true; }
    Cycle nextEventAt(Cycle now) const override;
    /** A fault reaches into a cell's or the host's state when armed. */
    Cycle intrudesAt(Cycle now) const override { return nextEventAt(now); }
    std::string statusLine() const override;

    /**
     * Snapshot support. The plan itself is a pure function of the
     * FaultSpec (covered by the snapshot's config fingerprint), so only
     * the arming cursor travels; a resumed injector fires exactly the
     * faults the uninterrupted run still had ahead of it.
     */
    std::uint32_t stateVersion() const override { return 1; }
    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r, std::uint32_t version) override;

    std::size_t armedCount() const { return next; }
    std::size_t planSize() const { return plan.size(); }
    std::uint64_t injected() const { return statInjected.value(); }

  private:
    std::vector<FaultEvent> plan;
    std::size_t next = 0;
    ArmFn arm;

    trace::Tracer *tracer = nullptr;
    std::uint16_t traceComp = 0;

    stats::StatGroup statGroup;
    stats::Counter statInjected;
    std::array<stats::Counter, std::size_t(FaultKind::numKinds)> statByKind;
};

} // namespace opac::fault

#endif // OPAC_FAULT_INJECTOR_HH
