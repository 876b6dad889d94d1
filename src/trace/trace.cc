#include "trace/trace.hh"

#include <map>

#include "common/logging.hh"

namespace opac::trace
{

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::FifoPush:
        return "fifo_push";
      case EventKind::FifoPop:
        return "fifo_pop";
      case EventKind::FifoRecirc:
        return "fifo_recirc";
      case EventKind::FifoReset:
        return "fifo_reset";
      case EventKind::Issue:
        return "issue";
      case EventKind::Retire:
        return "retire";
      case EventKind::Stall:
        return "stall";
      case EventKind::BusBegin:
        return "bus_begin";
      case EventKind::BusWord:
        return "bus_word";
      case EventKind::BusEnd:
        return "bus_end";
      case EventKind::CallBegin:
        return "call_begin";
      case EventKind::CallEnd:
        return "call_end";
      case EventKind::Fault:
        return "fault";
    }
    return "?";
}

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::Fma:
        return "fma";
      case OpClass::Mul:
        return "mul";
      case OpClass::Add:
        return "add";
      case OpClass::Move:
        return "move";
      case OpClass::Control:
        return "control";
    }
    return "?";
}

const char *
stallWhyName(StallWhy w)
{
    switch (w) {
      case StallWhy::SrcEmpty:
        return "src-empty";
      case StallWhy::DstFull:
        return "dst-full";
      case StallWhy::RegPending:
        return "reg-pending";
      case StallWhy::BusFull:
        return "bus-full";
      case StallWhy::BusEmpty:
        return "bus-empty";
    }
    return "?";
}

std::uint16_t
Tracer::internComponent(const std::string &name)
{
    for (std::size_t i = 1; i < compNames.size(); ++i) {
        if (compNames[i] == name)
            return std::uint16_t(i);
    }
    opac_assert(compNames.size() < 0xffff, "component id space exhausted");
    compNames.push_back(name);
    return std::uint16_t(compNames.size() - 1);
}

std::uint16_t
Tracer::internTrack(std::uint16_t comp, const std::string &name)
{
    for (std::size_t i = 1; i < trackNames.size(); ++i) {
        if (trackOwner[i] == comp && trackNames[i] == name)
            return std::uint16_t(i);
    }
    opac_assert(trackNames.size() < 0xffff, "track id space exhausted");
    trackNames.push_back(name);
    trackOwner.push_back(comp);
    return std::uint16_t(trackNames.size() - 1);
}

void
Tracer::noteRecent(const Event &e)
{
    if (recentDepth == 0)
        return;
    if (recent.size() <= e.comp)
        recent.resize(e.comp + 1);
    auto &ring = recent[e.comp];
    ring.push_back(e);
    if (ring.size() > recentDepth)
        ring.pop_front();
}

void
Tracer::finish(Cycle end)
{
    if (finished)
        return;
    finished = true;
    for (Sink *s : sinks)
        s->finish(*this, end);
}

std::string
Tracer::formatEvent(const Event &e) const
{
    std::string detail;
    switch (e.kind) {
      case EventKind::Issue:
        detail = strfmt("%s pc=%u latency=%u",
                        opClassName(OpClass(e.arg)), e.a, e.b);
        break;
      case EventKind::Stall:
        detail = strfmt("%s at=%u", stallWhyName(StallWhy(e.arg)), e.a);
        break;
      case EventKind::FifoPush:
      case EventKind::FifoPop:
      case EventKind::FifoRecirc:
        detail = strfmt("depth=%u word=%#x", e.a, e.b);
        break;
      case EventKind::FifoReset:
        detail = strfmt("dropped=%u", e.a);
        break;
      case EventKind::Retire:
        detail = strfmt("mask=%#x value=%#x", e.a, e.b);
        break;
      case EventKind::BusBegin:
      case EventKind::BusEnd:
        detail = strfmt("words=%u", e.a);
        break;
      case EventKind::BusWord:
        detail = strfmt("index=%u cost=%u", e.a, e.b);
        break;
      case EventKind::CallBegin:
        detail = strfmt("entry=%u", e.a);
        break;
      case EventKind::CallEnd:
        break;
      case EventKind::Fault:
        detail = strfmt("kind=%u cell=%u payload=%#x", e.arg, e.a, e.b);
        break;
    }
    return strfmt("%llu %s %s%s%s %s",
                  static_cast<unsigned long long>(e.cycle),
                  componentName(e.comp).c_str(),
                  eventKindName(e.kind),
                  e.track ? " " : "",
                  e.track ? trackName(e.track).c_str() : "",
                  detail.c_str());
}

std::string
Tracer::recentReport() const
{
    std::string out;
    for (std::size_t c = 0; c < recent.size(); ++c) {
        if (recent[c].empty())
            continue;
        out += strfmt("  recent trace events of %s:\n",
                      componentName(std::uint16_t(c)).c_str());
        for (const Event &e : recent[c])
            out += strfmt("    %s\n", formatEvent(e).c_str());
    }
    if (out.empty())
        out = "  (no trace events recorded)\n";
    return out;
}

} // namespace opac::trace
