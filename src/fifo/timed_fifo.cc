#include "fifo/timed_fifo.hh"

#include <bit>
#include <utility>

#include "common/logging.hh"
#include "snap/snapshot.hh"

namespace opac
{

TimedFifo::TimedFifo(std::string name, std::size_t capacity,
                     unsigned latency)
    : _name(std::move(name)), _capacity(capacity), latency(latency)
{
    opac_assert(capacity > 0, "FIFO '%s' with zero capacity",
                _name.c_str());
    ring.resize(std::bit_ceil(capacity));
    mask = ring.size() - 1;
}

std::size_t
TimedFifo::space() const
{
    std::size_t used = count + _reserved;
    return used >= _capacity ? 0 : _capacity - used;
}

void
TimedFifo::push(Word w, Cycle now)
{
    opac_assert(space() > 0, "push on full FIFO '%s' (cap %zu)",
                _name.c_str(), _capacity);
    creditLevel(now);
    ring[(head + count) & mask] = Entry{w, now + latency, encodeWord(w)};
    ++count;
    ++pushes;
    highWaterMark.observe(count);
    if (tracer) {
        tracer->emit(now, trace::EventKind::FifoPush, 0, traceComp,
                     traceTrack, std::uint32_t(count), w);
    }
    if (pendingCorrupt != 0 || pendingReorder)
        applyPendingFaults(now);
}

void
TimedFifo::reserve()
{
    opac_assert(space() > 0, "reserve on full FIFO '%s'", _name.c_str());
    ++_reserved;
}

void
TimedFifo::pushReserved(Word w, Cycle now)
{
    opac_assert(_reserved > 0, "pushReserved without reservation on '%s'",
                _name.c_str());
    --_reserved;
    creditLevel(now);
    ring[(head + count) & mask] = Entry{w, now + latency, encodeWord(w)};
    ++count;
    ++pushes;
    highWaterMark.observe(count);
    if (tracer) {
        tracer->emit(now, trace::EventKind::FifoPush, 1, traceComp,
                     traceTrack, std::uint32_t(count), w);
    }
    if (pendingCorrupt != 0 || pendingReorder)
        applyPendingFaults(now);
}

Word
TimedFifo::pop(Cycle now)
{
    opac_assert(canPop(now), "pop on empty/not-ready FIFO '%s'",
                _name.c_str());
    Word w = ring[head].word;
    if (parityMode != fault::ParityMode::Off)
        w = checkProtected(w, ring[head].ecc, now);
    creditLevel(now);
    head = (head + 1) & mask;
    --count;
    ++pops;
    if (tracer) {
        tracer->emit(now, trace::EventKind::FifoPop, 0, traceComp,
                     traceTrack, std::uint32_t(count), w);
    }
    return w;
}

Word
TimedFifo::recirculate(Cycle now)
{
    opac_assert(canPop(now), "recirculate on empty/not-ready FIFO '%s'",
                _name.c_str());
    Word w = ring[head].word;
    if (parityMode != fault::ParityMode::Off)
        w = checkProtected(w, ring[head].ecc, now);
    head = (head + 1) & mask;
    ring[(head + count - 1) & mask] = Entry{w, now + latency,
                                            encodeWord(w)};
    // Counted as one pop plus one push so lifetime totals match the
    // word traffic the datapath actually performed.
    ++pops;
    ++pushes;
    if (tracer) {
        tracer->emit(now, trace::EventKind::FifoRecirc, 0, traceComp,
                     traceTrack, std::uint32_t(count), w);
    }
    return w;
}

Word
TimedFifo::front(Cycle now) const
{
    opac_assert(canPop(now), "front on empty/not-ready FIFO '%s'",
                _name.c_str());
    // Peeks correct silently in Correct mode; counters and the
    // protection handler only fire on the consuming pop.
    if (parityMode == fault::ParityMode::Correct) {
        Word fixed = ring[head].word;
        if (fault::secdedDecode(fixed, ring[head].ecc)
            != fault::SecdedResult::Uncorrectable)
            return fixed;
    }
    return ring[head].word;
}

void
TimedFifo::reset(Cycle now)
{
    std::size_t dropped = count;
    creditLevel(now);
    head = 0;
    count = 0;
    _reserved = 0;
    pendingCorrupt = 0;
    pendingReorder = false;
    ++resets;
    if (tracer) {
        tracer->emit(now, trace::EventKind::FifoReset, 0, traceComp,
                     traceTrack, std::uint32_t(dropped), 0);
    }
}

void
TimedFifo::attachTracer(trace::Tracer *t, std::uint16_t comp)
{
    tracer = t;
    traceComp = comp;
    traceTrack = t ? t->internTrack(comp, _name) : 0;
}

void
TimedFifo::addStats(stats::StatGroup &parent)
{
    parent.addCounter(_name + ".pushes", &pushes, "words written");
    parent.addCounter(_name + ".pops", &pops, "words read");
    parent.addCounter(_name + ".resets", &resets, "reset operations");
    parent.addCounter(_name + ".faultsInjected", &faultsInjected,
                      "injected corrupt/reorder faults applied");
    parent.addCounter(_name + ".parityCorrected", &parityCorrected,
                      "single-bit errors repaired at read");
    parent.addCounter(_name + ".parityDetected", &parityDetected,
                      "errors detected but not repaired at read");
    parent.addWatermark(_name + ".highWater", &highWaterMark,
                        "deepest occupancy reached");
    parent.addDistribution(_name + ".occupancy", &occupancy,
                           "sampled words held");
}

Word
TimedFifo::checkProtected(Word w, std::uint8_t ecc, Cycle now)
{
    Word fixed = w;
    fault::SecdedResult r = fault::secdedDecode(fixed, ecc);
    if (r == fault::SecdedResult::Ok)
        return w;
    if (r == fault::SecdedResult::Corrected
        && parityMode == fault::ParityMode::Correct) {
        ++parityCorrected;
        return fixed;
    }
    // Detect mode (any error) or an uncorrectable double-bit error:
    // flag the consumer and hand back the raw word.
    ++parityDetected;
    if (protHandler)
        protHandler(now);
    return w;
}

void
TimedFifo::faultCorrupt(Word xor_mask, Cycle now)
{
    if (count == 0) {
        pendingCorrupt ^= xor_mask;
        return;
    }
    ring[head].word ^= xor_mask;
    ++faultsInjected;
    (void)now;
}

void
TimedFifo::faultReorder(Cycle now)
{
    if (count < 2) {
        pendingReorder = true;
        return;
    }
    Entry &a = ring[(head + count - 2) & mask];
    Entry &b = ring[(head + count - 1) & mask];
    // Swap payloads but not ready times: the same slots fall through
    // on schedule, carrying each other's word.
    std::swap(a.word, b.word);
    std::swap(a.ecc, b.ecc);
    ++faultsInjected;
    if (parityMode != fault::ParityMode::Off && protHandler)
        protHandler(now);
}

void
TimedFifo::saveState(snap::Writer &w) const
{
    w.u32(static_cast<std::uint32_t>(count));
    for (std::size_t i = 0; i < count; ++i) {
        const Entry &e = ring[(head + i) & mask];
        w.u32(e.word);
        w.u64(e.ready);
        w.u8(e.ecc);
    }
    w.u32(static_cast<std::uint32_t>(_reserved));
    w.u32(pendingCorrupt);
    w.b(pendingReorder);
}

void
TimedFifo::loadState(snap::Reader &r)
{
    std::uint32_t n = r.u32();
    if (n > _capacity)
        r.fail("FIFO '" + _name + "': snapshot holds " +
               std::to_string(n) + " words, capacity is " +
               std::to_string(_capacity));
    head = 0;
    count = n;
    for (std::uint32_t i = 0; i < n; ++i) {
        Entry &e = ring[i];
        e.word = r.u32();
        e.ready = r.u64();
        e.ecc = r.u8();
    }
    std::uint32_t res = r.u32();
    if (count + res > _capacity)
        r.fail("FIFO '" + _name +
               "': stored words plus reservations exceed capacity");
    _reserved = res;
    pendingCorrupt = r.u32();
    pendingReorder = r.b();
    // The restored level was not held before the restored cycle: the
    // owner's next settle() restarts the clock there.
    stopOccupancy();
}

void
TimedFifo::applyPendingFaults(Cycle now)
{
    if (pendingCorrupt != 0) {
        ring[(head + count - 1) & mask].word ^= pendingCorrupt;
        pendingCorrupt = 0;
        ++faultsInjected;
    }
    if (pendingReorder && count >= 2) {
        pendingReorder = false;
        faultReorder(now);
    }
}

} // namespace opac
