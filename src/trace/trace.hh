/**
 * @file
 * Cycle-accurate event tracing for the OPAC simulator.
 *
 * The paper's claims are occupancy claims — one multiply-add per cycle,
 * FIFO queues that never stall the datapath, host-bus bandwidth (tau)
 * bounding multi-cell efficiency — so the simulator records *events*:
 * FIFO push/pop/recirculate with resulting depth, instruction issue and
 * writeback retire in the cell, bus descriptor grant/word/completion in
 * the host, and kernel call begin/end in the sequencer.
 *
 * Components hold a `Tracer *` that is null by default; every emission
 * site is guarded by that single pointer test, so a build without an
 * attached tracer pays one predictable branch per event site and
 * nothing else. When a tracer is attached, events stream to pluggable
 * sinks (Chrome trace-event JSON, CSV, in-memory aggregation) as they
 * are emitted; nothing is buffered centrally except a small per-
 * component ring of recent events used by the deadlock watchdog's
 * abort report.
 *
 * Component and track names are interned to 16-bit ids once, at
 * attach time, so an event is a 24-byte POD and emission is a few
 * stores plus one virtual call per sink.
 */

#ifndef OPAC_TRACE_TRACE_HH
#define OPAC_TRACE_TRACE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.hh"

namespace opac::trace
{

/** What happened. Kind-specific argument meanings are listed inline. */
enum class EventKind : std::uint8_t
{
    FifoPush,    //!< arg: 1 = reserved-slot push; a: depth after; b: word
    FifoPop,     //!< a: depth after; b: word popped
    FifoRecirc,  //!< pop + same-cycle repush; a: depth (unchanged); b: word
    FifoReset,   //!< a: words discarded
    Issue,       //!< arg: OpClass; a: pc; b: result latency (cycles)
    Retire,      //!< writeback landed; a: destination mask; b: value
    Stall,       //!< arg: StallWhy; a: pc (cell) or op progress (host)
    BusBegin,    //!< transfer descriptor granted the bus; a: total words
    BusWord,     //!< one word moved; a: word index; b: bus cycles consumed
    BusEnd,      //!< descriptor complete; a: words moved
    CallBegin,   //!< kernel call dispatched; a: entry id
    CallEnd,     //!< kernel ran to Halt
    Fault,       //!< injected fault armed; arg: FaultKind; a: cell; b: payload
};

/** Issue-event classification (EventKind::Issue, Event::arg). */
enum class OpClass : std::uint8_t
{
    Fma,     //!< chained multiply-add
    Mul,     //!< multiply only
    Add,     //!< add only
    Move,    //!< move-path transfer only
    Control, //!< SetParam / ResetFifo and similar
};

/** Stall-event cause (EventKind::Stall, Event::arg). */
enum class StallWhy : std::uint8_t
{
    SrcEmpty,   //!< waiting on an operand queue
    DstFull,    //!< waiting on space in a result queue
    RegPending, //!< waiting on an in-flight register write
    BusFull,    //!< host blocked: interface queue full
    BusEmpty,   //!< host blocked: tpo drained
};

/** One trace record. POD; meaning of arg/a/b depends on kind. */
struct Event
{
    Cycle cycle;
    EventKind kind;
    std::uint8_t arg;
    std::uint16_t comp;  //!< interned component id
    std::uint16_t track; //!< interned sub-track id, 0 = component itself
    std::uint32_t a;
    std::uint32_t b;
};

const char *eventKindName(EventKind k);
const char *opClassName(OpClass c);
const char *stallWhyName(StallWhy w);

class Tracer;

/** Consumes the event stream; register with Tracer::addSink(). */
class Sink
{
  public:
    virtual ~Sink() = default;

    /** One event, in emission order (cycles are non-decreasing). */
    virtual void event(const Tracer &tracer, const Event &e) = 0;

    /** Called once from Tracer::finish() with the final cycle count. */
    virtual void finish(const Tracer &tracer, Cycle end) { (void)tracer;
                                                           (void)end; }
};

/**
 * The event recorder: intern tables, sink fan-out and the recent-event
 * rings. Components receive a pointer via their attachTracer() methods
 * and must check it for null before emitting.
 */
class Tracer
{
  public:
    explicit Tracer(unsigned recent_depth = 8)
        : recentDepth(recent_depth)
    {
        // Id 0 is the reserved "no track" / unnamed-component slot.
        compNames.push_back("?");
        trackNames.push_back("-");
        trackOwner.push_back(0);
    }

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Intern a component name; same name returns the same id. */
    std::uint16_t internComponent(const std::string &name);

    /** Intern a sub-track (FIFO, kernel, lane) under a component. */
    std::uint16_t internTrack(std::uint16_t comp, const std::string &name);

    const std::string &componentName(std::uint16_t id) const
    {
        return compNames[id];
    }
    const std::string &trackName(std::uint16_t id) const
    {
        return trackNames[id];
    }
    /** Component a track belongs to. */
    std::uint16_t trackComponent(std::uint16_t track) const
    {
        return trackOwner[track];
    }
    std::size_t numComponents() const { return compNames.size(); }
    std::size_t numTracks() const { return trackNames.size(); }

    /** Register a sink; it must outlive the tracer. */
    void addSink(Sink *s) { sinks.push_back(s); }

    /** Record one event and fan it out to every sink. */
    void
    emit(Cycle cycle, EventKind kind, std::uint8_t arg, std::uint16_t comp,
         std::uint16_t track = 0, std::uint32_t a = 0, std::uint32_t b = 0)
    {
        Event e{cycle, kind, arg, comp, track, a, b};
        ++_eventCount;
        noteRecent(e);
        for (Sink *s : sinks)
            s->event(*this, e);
    }

    /** Flush sinks; call once when the simulation ends. */
    void finish(Cycle end);

    std::uint64_t eventCount() const { return _eventCount; }

    /**
     * The last few events of every component, formatted one per line —
     * the deadlock watchdog appends this to its abort report so a hang
     * shows what each side was doing when progress stopped.
     */
    std::string recentReport() const;

    /** Human-readable one-line rendering of an event. */
    std::string formatEvent(const Event &e) const;

  private:
    void noteRecent(const Event &e);

    std::vector<std::string> compNames;
    std::vector<std::string> trackNames;
    std::vector<std::uint16_t> trackOwner;
    std::vector<Sink *> sinks;
    std::vector<std::deque<Event>> recent; //!< indexed by component id
    unsigned recentDepth;
    std::uint64_t _eventCount = 0;
    bool finished = false;
};

/** A sink that retains every event in memory (tests, small runs). */
class VectorSink : public Sink
{
  public:
    void
    event(const Tracer &, const Event &e) override
    {
        events.push_back(e);
    }

    std::vector<Event> events;
};

} // namespace opac::trace

#endif // OPAC_TRACE_TRACE_HH
