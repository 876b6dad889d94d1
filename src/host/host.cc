#include "host/host.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

#include <map>

#include "common/error.hh"
#include "common/logging.hh"
#include "snap/snapshot.hh"

namespace opac::host
{

HostOp
sendOp(std::uint32_t cell_mask, Region region, SendTarget target)
{
    HostOp op;
    op.kind = HostOp::Kind::Send;
    op.cellMask = cell_mask;
    op.region = region;
    op.target = target;
    return op;
}

HostOp
recvOp(unsigned cell, Region region)
{
    HostOp op;
    op.kind = HostOp::Kind::Recv;
    op.cellMask = 1u << cell;
    op.region = region;
    return op;
}

HostOp
callOp(std::uint32_t cell_mask, Word entry,
       const std::vector<std::int32_t> &params)
{
    HostOp op;
    op.kind = HostOp::Kind::Call;
    op.cellMask = cell_mask;
    op.callWords.push_back(entry);
    for (auto p : params)
        op.callWords.push_back(Word(p));
    return op;
}

HostOp
recipOp(std::size_t dst, std::size_t src)
{
    HostOp op;
    op.kind = HostOp::Kind::Compute;
    op.scalarOp = HostScalarOp::Recip;
    op.scalarDst = dst;
    op.scalarSrc = src;
    return op;
}

HostOp
sqrtRecipOp(std::size_t dst_sqrt, std::size_t dst_recip,
            std::size_t src)
{
    HostOp op;
    op.kind = HostOp::Kind::Compute;
    op.scalarOp = HostScalarOp::SqrtRecip;
    op.scalarDst = dst_sqrt;
    op.scalarDst2 = dst_recip;
    op.scalarSrc = src;
    return op;
}

HostOp
txnBeginOp(std::uint32_t job_id, std::uint32_t cell_mask,
           Cycle timeout_cycles)
{
    HostOp op;
    op.kind = HostOp::Kind::TxnBegin;
    op.jobId = job_id;
    op.cellMask = cell_mask;
    op.timeoutCycles = timeout_cycles;
    return op;
}

HostOp
txnEndOp(std::uint32_t job_id)
{
    HostOp op;
    op.kind = HostOp::Kind::TxnEnd;
    op.jobId = job_id;
    return op;
}

HostOp
resetOp(std::uint32_t cell_mask)
{
    HostOp op;
    op.kind = HostOp::Kind::Reset;
    op.cellMask = cell_mask;
    return op;
}

std::vector<HostOp>
pmuReadProgram(unsigned cell, cell::PmuReg reg, std::size_t dst)
{
    return {
        callOp(1u << cell, cell::pmuCallEntry,
               {std::int32_t(std::uint32_t(reg))}),
        recvOp(cell, Region::vec(dst, 2)),
    };
}

Host::Host(std::string name, const HostConfig &cfg, HostMemory &mem,
           std::vector<cell::Cell *> cells,
           stats::StatGroup *parent_stats)
    : sim::Component(std::move(name)), cfg(cfg), mem(mem),
      cells(std::move(cells)), statGroup(Component::name(), parent_stats)
{
    opac_assert(!this->cells.empty(), "host with no cells");
    opac_assert(this->cells.size() <= 32, "cell mask limited to 32 cells");
    busDrops.assign(this->cells.size(), 0);
    busDups.assign(this->cells.size(), 0);
    statGroup.addCounter("wordsSent", &statWordsSent,
                         "data words host -> cells");
    statGroup.addCounter("wordsReceived", &statWordsRecv,
                         "data words cells -> host");
    statGroup.addCounter("callWords", &statCallWords,
                         "call/parameter words sent");
    statGroup.addCounter("busyCycles", &statBusy,
                         "cycles with program remaining");
    statGroup.addCounter("stallFifoFull", &statStallFull,
                         "cycles blocked on a full interface queue");
    statGroup.addCounter("stallFifoEmpty", &statStallEmpty,
                         "cycles blocked on an empty tpo");
    statGroup.addCounter("opsCompleted", &statOpsDone,
                         "transfer descriptors completed");
    statGroup.addCounter("txnTimeouts", &statTimeouts,
                         "transaction deadline misses");
    statGroup.addCounter("txnRetries", &statRetries,
                         "transaction replays after an abort");
    statGroup.addCounter("cellResets", &statResets,
                         "reset pulses sent to cells");
    statGroup.addCounter("deadCells", &statDeadCells,
                         "cells retired after exhausting retries");
    statGroup.addCounter("txnsCommitted", &statTxnsDone,
                         "transactions committed");
    statGroup.addCounter("busDrops", &statBusDrops,
                         "bus words dropped by injected faults");
    statGroup.addCounter("busDups", &statBusDups,
                         "bus words duplicated by injected faults");
    statGroup.addCounter("memSpikes", &statMemSpikes,
                         "memory latency spikes applied");
    statGroup.addCounter("parityTrips", &statParityTrips,
                         "uncorrectable tpo words seen by the host");
    if (this->cfg.recovery.enabled) {
        // The host is the consumer of every tpo: an uncorrectable word
        // there means a result may be corrupt, which only a
        // transaction abort can undo.
        for (cell::Cell *c : this->cells) {
            c->tpo().setProtectionHandler([this](Cycle) {
                parityTripped = true;
                ++statParityTrips;
            });
        }
    }
}

void
Host::attachTracer(trace::Tracer *t)
{
    tracer = t;
    traceComp = t ? t->internComponent(name()) : 0;
    // Pre-intern one track per descriptor kind so opTrack() is a pure
    // lookup: track ids never depend on which descriptors a program
    // happens to run (identical across engine modes) and nothing
    // appends to the track table mid-run.
    static const char *names[] = {"send",      "recv",      "call",
                                  "compute",   "txn_begin", "txn_end",
                                  "reset"};
    for (std::size_t i = 0; i < std::size(names); ++i)
        kindTracks[i] = t ? t->internTrack(traceComp, names[i]) : 0;
}

std::uint16_t
Host::opTrack(const HostOp &op)
{
    return kindTracks[std::size_t(op.kind)];
}

void
Host::traceWord(Cycle now, unsigned cost)
{
    tracer->emit(now, trace::EventKind::BusWord, 0, traceComp, 0,
                 std::uint32_t(pos), cost);
}

void
Host::enqueue(HostOp op)
{
    if (op.kind == HostOp::Kind::Compute)
        opac_assert(op.scalarDst < mem.size() && op.scalarSrc < mem.size(),
                    "compute op out of memory range");
    if (op.kind == HostOp::Kind::Reset)
        ++resetOps;
    program.push_back(std::move(op));
}

void
Host::countResetOps()
{
    resetOps = std::size_t(std::count_if(
        program.begin(), program.end(), [](const HostOp &op) {
            return op.kind == HostOp::Kind::Reset;
        }));
}

void
Host::enqueue(const std::vector<HostOp> &ops)
{
    for (const auto &op : ops)
        enqueue(op);
}

Word
Host::memLoad(std::size_t addr) const
{
    if (inTxn) {
        auto it = staging.find(addr);
        if (it != staging.end())
            return it->second;
    }
    return mem.load(addr);
}

void
Host::memStore(std::size_t addr, Word w)
{
    opac_assert(addr < mem.size(), "store out of range: %zu", addr);
    if (inTxn)
        staging[addr] = w;
    else
        mem.store(addr, w);
}

unsigned
Host::takeMemSpike()
{
    unsigned s = memSpike;
    memSpike = 0;
    return s;
}

void
Host::armBusFault(unsigned cell, fault::FaultKind kind)
{
    opac_assert(cell < cells.size(), "bus fault on cell %u of %zu", cell,
                cells.size());
    if (kind == fault::FaultKind::BusDrop)
        ++busDrops[cell];
    else
        ++busDups[cell];
}

void
Host::armMemLatency(unsigned cycles)
{
    memSpike += cycles;
    ++statMemSpikes;
}

void
Host::pushFaulty(TimedFifo &q, unsigned c, Word w, Cycle now)
{
    bool protection = q.parity() != fault::ParityMode::Off;
    if (busDrops[c] > 0) {
        --busDrops[c];
        ++statBusDrops;
        // The word goes missing on the link. The modeled sequence tags
        // notice the gap at the receiver when protection is on;
        // without it the loss is silent and only a timeout (or a
        // desynchronized kernel) gives it away.
        if (protection)
            cells[c]->enterFaulted("bus drop", now);
        return;
    }
    q.push(w, now);
    if (busDups[c] > 0) {
        --busDups[c];
        ++statBusDups;
        if (q.canPush())
            q.push(w, now);
        if (protection)
            cells[c]->enterFaulted("bus duplicate", now);
    }
}

bool
Host::tickSend(const HostOp &op, Cycle now)
{
    if (pos >= op.region.count())
        return true;
    // All addressed cells must have room (a broadcast is one bus write).
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (!(op.cellMask & (1u << c)))
            continue;
        TimedFifo &q = op.target == SendTarget::TpX ? cells[c]->tpx()
                                                    : cells[c]->tpy();
        if (!q.canPush()) {
            if (tracer) {
                tracer->emit(now, trace::EventKind::Stall,
                             std::uint8_t(trace::StallWhy::BusFull),
                             traceComp, 0, std::uint32_t(pos), 0);
            }
            return false;
        }
    }
    Word w = memLoad(op.region.addr(pos));
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (!(op.cellMask & (1u << c)))
            continue;
        TimedFifo &q = op.target == SendTarget::TpX ? cells[c]->tpx()
                                                    : cells[c]->tpy();
        pushFaulty(q, unsigned(c), w, now);
    }
    ++statWordsSent;
    ++pos;
    if (tracer)
        traceWord(now, cfg.tau);
    readyAt = now + std::max(cfg.tau, 1u) + takeMemSpike();
    return pos >= op.region.count();
}

bool
Host::tickRecv(const HostOp &op, Cycle now)
{
    if (pos >= op.region.count())
        return true;
    unsigned cell_idx = 0;
    while (!(op.cellMask & (1u << cell_idx)))
        ++cell_idx;
    TimedFifo &q = cells[cell_idx]->tpo();
    if (!q.canPop(now)) {
        if (tracer) {
            tracer->emit(now, trace::EventKind::Stall,
                         std::uint8_t(trace::StallWhy::BusEmpty),
                         traceComp, 0, std::uint32_t(pos), 0);
        }
        return false;
    }
    memStore(op.region.addr(pos), q.pop(now));
    ++statWordsRecv;
    ++pos;
    if (tracer)
        traceWord(now, cfg.tau);
    readyAt = now + std::max(cfg.tau, 1u) + takeMemSpike();
    return pos >= op.region.count();
}

bool
Host::tickCall(const HostOp &op, Cycle now)
{
    if (pos >= op.callWords.size())
        return true;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (!(op.cellMask & (1u << c)))
            continue;
        if (!cells[c]->tpi().canPush()) {
            if (tracer) {
                tracer->emit(now, trace::EventKind::Stall,
                             std::uint8_t(trace::StallWhy::BusFull),
                             traceComp, 0, std::uint32_t(pos), 0);
            }
            return false;
        }
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (!(op.cellMask & (1u << c)))
            continue;
        pushFaulty(cells[c]->tpi(), unsigned(c), op.callWords[pos], now);
    }
    ++statCallWords;
    ++pos;
    if (tracer)
        traceWord(now, cfg.callWordCost);
    readyAt = now + std::max(cfg.callWordCost, 1u);
    return pos >= op.callWords.size();
}

void
Host::applyScalar(const HostOp &op)
{
    switch (op.scalarOp) {
      case HostScalarOp::Recip: {
        float v = wordToFloat(memLoad(op.scalarSrc));
        memStore(op.scalarDst, floatToWord(1.0f / v));
        break;
      }
      case HostScalarOp::SqrtRecip: {
        float v = wordToFloat(memLoad(op.scalarSrc));
        float s = std::sqrt(v);
        memStore(op.scalarDst, floatToWord(s));
        memStore(op.scalarDst2, floatToWord(1.0f / s));
        break;
      }
    }
}

bool
Host::tickCompute(const HostOp &op, Cycle now)
{
    if (computeAt == cycleNever)
        computeAt = now + std::max(cfg.recipCycles, 1u) - 1;
    if (now < computeAt)
        return false;
    applyScalar(op);
    return true;
}

bool
Host::tickTxnBegin(const HostOp &op, Cycle now)
{
    if (!cfg.recovery.enabled)
        return true;
    inTxn = true;
    txnJob = op.jobId;
    txnMask = op.cellMask;
    txnTimeout = op.timeoutCycles != 0 ? op.timeoutCycles
                                       : cfg.recovery.timeoutCycles;
    txnDeadline = now + txnTimeout;
    txnRetries = 0;
    parityTripped = false;
    journal.clear();
    staging.clear();
    return true;
}

bool
Host::tickTxnEnd(const HostOp &op, Cycle now)
{
    (void)now;
    if (!inTxn)
        return true;
    // Commit: the staged stores become visible all at once. Addresses
    // are distinct map keys, so flush order cannot matter.
    for (const auto &[addr, w] : staging)
        mem.store(addr, w);
    staging.clear();
    journal.clear();
    inTxn = false;
    txnDeadline = cycleNever;
    _completedJobs.push_back(op.jobId);
    ++statTxnsDone;
    return true;
}

bool
Host::tickReset(const HostOp &op, Cycle now)
{
    while (pos < cells.size() && !(op.cellMask & (1u << pos)))
        ++pos;
    if (pos >= cells.size())
        return true;
    // The reserved resetCallEntry word is decoded at the tpi write
    // port, so a reset needs no queue space — it works on a wedged
    // cell whose tpi is full.
    cells[pos]->hardReset(now);
    ++statResets;
    ++statCallWords;
    if (tracer)
        traceWord(now, cfg.callWordCost);
    readyAt = now + std::max(cfg.callWordCost, 1u);
    ++pos;
    while (pos < cells.size() && !(op.cellMask & (1u << pos)))
        ++pos;
    return pos >= cells.size();
}

unsigned
Host::blameCell() const
{
    // A cell that has visibly faulted inside the transaction's set is
    // the obvious culprit.
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if ((txnMask & (1u << c)) && !cells[c]->dead()
            && cells[c]->faulted())
            return unsigned(c);
    }
    // Otherwise blame the cell the stalled front descriptor is waiting
    // on (for a Recv that is exactly the producer that went quiet).
    if (!program.empty()) {
        const HostOp &op = program.front();
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if ((op.cellMask & (1u << c)) && !cells[c]->dead())
                return unsigned(c);
        }
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if ((txnMask & (1u << c)) && !cells[c]->dead())
            return unsigned(c);
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (!cells[c]->dead())
            return unsigned(c);
    }
    return 0;
}

void
Host::recoverTxn(Cycle now, Cycle next, sim::Engine &engine)
{
    parityTripped = false;
    staging.clear();
    auto extendCooldown = [&](Cycle cost) {
        readyAt = next + (readyAt > now ? readyAt - now : 0) + cost;
    };
    if (txnRetries >= cfg.recovery.retryBudget) {
        // Degrade: retire the culprit and hand the remaining work to
        // the planner to rebuild on the survivors.
        unsigned victim = blameCell();
        cells[victim]->markDead(now);
        _deadMask |= 1u << victim;
        ++statDeadCells;
        // The survivors' queues still hold words from the aborted
        // attempt: reset them before the re-planned program arrives.
        unsigned nreset = 0;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (!(txnMask & (1u << c)) || cells[c]->dead())
                continue;
            cells[c]->hardReset(now);
            ++statResets;
            ++nreset;
        }
        extendCooldown(cfg.recovery.resetCostCycles * nreset);
        journal.clear();
        program.clear();
        resetOps = 0;
        pos = 0;
        computeAt = cycleNever;
        opAnnounced = false;
        inTxn = false;
        txnDeadline = cycleNever;
        txnRetries = 0;
        if (aliveMask() == 0)
            throw RecoveryError(name(), now, "all cells dead");
        if (!replanFn)
            throw RecoveryError(
                name(), now,
                strfmt("cell %u retired and no replan handler installed",
                       victim));
        replanFn(aliveMask());
        engine.noteProgress();
        return;
    }
    ++txnRetries;
    ++statRetries;
    // Reset every (surviving) cell the transaction touches: their
    // queues may hold words from the aborted attempt.
    unsigned nreset = 0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (!(txnMask & (1u << c)) || cells[c]->dead())
            continue;
        cells[c]->hardReset(now);
        ++statResets;
        ++nreset;
    }
    extendCooldown(cfg.recovery.resetCostCycles * nreset);
    // Replay: the journaled (completed) descriptors go back in front
    // of the still-pending ones, and the partially-done front
    // descriptor restarts from its first word.
    for (auto it = journal.rbegin(); it != journal.rend(); ++it)
        program.push_front(*it);
    countResetOps();
    journal.clear();
    pos = 0;
    computeAt = cycleNever;
    opAnnounced = false;
    txnDeadline = now + txnTimeout + (readyAt - next);
    engine.noteProgress();
}

bool
Host::forceRecovery(sim::Engine &engine)
{
    if (!cfg.recovery.enabled || !inTxn)
        return false;
    ++statTimeouts;
    recoverTxn(engine.now(), engine.now(), engine);
    return true;
}

stats::Counter *
Host::stallCounter(const HostOp &op)
{
    switch (op.kind) {
      case HostOp::Kind::Send:
      case HostOp::Kind::Call:
        return &statStallFull;
      case HostOp::Kind::Recv:
        return &statStallEmpty;
      default:
        return nullptr;
    }
}

void
Host::tick(sim::Engine &engine)
{
    Cycle now = engine.now();
    if (program.empty()) {
        if (idleSince == cycleNever)
            idleSince = now;
        clock.enter(nullptr, nullptr, now);
        return;
    }
    if (idleSince != cycleNever) {
        // Refilled: the cooldown stood still while the program was
        // empty.
        if (readyAt > idleSince)
            readyAt += now - idleSince;
        idleSince = cycleNever;
    }
    if (inTxn && (parityTripped || now >= txnDeadline)) {
        clock.enter(&statBusy, nullptr, now);
        if (!parityTripped)
            ++statTimeouts;
        recoverTxn(now, now + 1, engine);
        return;
    }
    if (now < readyAt) {
        // Waiting out the cooldown is not forward progress: it is
        // fully predictable (see nextEventAt), so the engine may skip
        // it.
        clock.enter(&statBusy, nullptr, now);
        return;
    }
    const HostOp &op = program.front();
    if (tracer && !opAnnounced) {
        opAnnounced = true;
        std::uint32_t total = 0;
        switch (op.kind) {
          case HostOp::Kind::Send:
          case HostOp::Kind::Recv:
            total = std::uint32_t(op.region.count());
            break;
          case HostOp::Kind::Call:
            total = std::uint32_t(op.callWords.size());
            break;
          case HostOp::Kind::Compute:
          case HostOp::Kind::TxnBegin:
          case HostOp::Kind::TxnEnd:
            total = 1;
            break;
          case HostOp::Kind::Reset:
            total = std::uint32_t(std::popcount(op.cellMask));
            break;
        }
        tracer->emit(engine.now(), trace::EventKind::BusBegin, 0,
                     traceComp, opTrack(op), total, 0);
    }
    bool finished = false;
    std::size_t prev_pos = pos;
    switch (op.kind) {
      case HostOp::Kind::Send:
        finished = tickSend(op, now);
        break;
      case HostOp::Kind::Recv:
        finished = tickRecv(op, now);
        break;
      case HostOp::Kind::Call:
        finished = tickCall(op, now);
        break;
      case HostOp::Kind::Compute:
        finished = tickCompute(op, now);
        break;
      case HostOp::Kind::TxnBegin:
        finished = tickTxnBegin(op, now);
        break;
      case HostOp::Kind::TxnEnd:
        finished = tickTxnEnd(op, now);
        break;
      case HostOp::Kind::Reset:
        finished = tickReset(op, now);
        break;
    }
    // A Compute cycle before the finishing one is not progress (it is
    // predictable and skippable, like the cooldown above); moving a
    // word or finishing a descriptor is. A Send, Recv or Call that did
    // neither was blocked on a cell queue: a stall.
    const bool moved = pos != prev_pos || finished;
    clock.enter(&statBusy, moved ? nullptr : stallCounter(op), now);
    if (moved)
        engine.noteProgress();
    // Word movement proves the machine is alive: push the transaction
    // deadline out rather than racing a stalled-from-the-start clock.
    if (inTxn && moved)
        txnDeadline = now + txnTimeout;
    if (finished) {
        if (tracer) {
            tracer->emit(engine.now(), trace::EventKind::BusEnd, 0,
                         traceComp, opTrack(op), std::uint32_t(pos), 0);
        }
        // Inside a transaction every completed descriptor is journaled
        // so an abort can replay the attempt from the top. TxnBegin is
        // excluded: recoverTxn re-establishes its state itself.
        if (inTxn && op.kind != HostOp::Kind::TxnBegin
            && op.kind != HostOp::Kind::TxnEnd)
            journal.push_back(program.front());
        if (op.kind == HostOp::Kind::Reset)
            --resetOps;
        program.pop_front();
        pos = 0;
        computeAt = cycleNever;
        opAnnounced = false;
        ++statOpsDone;
    }
}

Cycle
Host::nextEventAt(Cycle now) const
{
    if (program.empty())
        return noEvent;
    // A blocked round emits a Stall event: a traced host ticks every
    // round.
    if (tracer)
        return now;
    // Inside a transaction the deadline is a hard wake-up: skipping
    // past it would delay recovery and change timing.
    Cycle wake = noEvent;
    if (inTxn)
        wake = txnDeadline > now ? txnDeadline : now;
    // The round at readyAt retries the op after the busy cooldown, so
    // a blocked transfer changes state there: it is an event too.
    // Past it, the round before any jump is already in the state the
    // skipped rounds stay in.
    if (now <= readyAt)
        return std::min(wake, readyAt);
    const HostOp &op = program.front();
    switch (op.kind) {
      case HostOp::Kind::Compute:
        // A Compute op that has not started starts next round.
        return std::min(wake, computeAt == cycleNever ? now : computeAt);
      case HostOp::Kind::TxnBegin:
      case HostOp::Kind::TxnEnd:
      case HostOp::Kind::Reset:
        // Always able to make progress on the next tick.
        return now;
      case HostOp::Kind::Recv: {
        // The cooldown expired during a quiescent round: if the word
        // is already waiting we never stalled on it, so no FIFO hint
        // will announce it — the wake-up is ours to report.
        unsigned cell_idx = 0;
        while (!(op.cellMask & (1u << cell_idx)))
            ++cell_idx;
        if (cells[cell_idx]->tpo().canPop(now))
            return now;
        break;
      }
      case HostOp::Kind::Send:
      case HostOp::Kind::Call: {
        bool room = true;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (!(op.cellMask & (1u << c)))
                continue;
            TimedFifo &q =
                op.kind == HostOp::Kind::Call
                    ? cells[c]->tpi()
                    : (op.target == SendTarget::TpX ? cells[c]->tpx()
                                                    : cells[c]->tpy());
            if (!q.canPush()) {
                room = false;
                break;
            }
        }
        if (room)
            return now;
        break;
      }
    }
    // Genuinely blocked on a cell queue (full interface FIFO or empty
    // tpo): only a cell action can unblock us — or, inside a
    // transaction, the recovery deadline.
    return wake;
}

Cycle
Host::intrudesAt(Cycle now) const
{
    if (program.empty())
        return noEvent;
    if (cfg.recovery.enabled || resetOps != 0)
        return now;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (busDrops[c] != 0 || busDups[c] != 0
            || cells[c]->tpx().pushMayFault()
            || cells[c]->tpy().pushMayFault()
            || cells[c]->tpi().pushMayFault())
            return now;
    }
    return noEvent;
}

bool
Host::done() const
{
    return program.empty();
}

void
HostMemory::saveState(snap::Writer &w) const
{
    w.u64(mem.size());
    w.u64(brk);
    for (std::size_t i = 0; i < brk; ++i)
        w.u32(mem[i]);
}

void
HostMemory::loadState(snap::Reader &r)
{
    std::uint64_t size = r.u64();
    if (size != mem.size())
        r.fail("host memory size mismatch: snapshot has " +
               std::to_string(size) + " words, this machine has " +
               std::to_string(mem.size()));
    std::uint64_t frontier = r.u64();
    if (frontier > mem.size())
        r.fail("host memory frontier past the end");
    brk = std::size_t(frontier);
    for (std::size_t i = 0; i < brk; ++i)
        mem[i] = r.u32();
    std::fill(mem.begin() + std::ptrdiff_t(brk), mem.end(), 0);
}

namespace
{

void
saveRegion(snap::Writer &w, const Region &rg)
{
    w.u64(rg.rawBase());
    w.u64(rg.rawPerCol());
    w.u64(rg.rawStride());
    w.u64(rg.rawCols());
    w.u64(rg.rawLd());
}

Region
loadRegion(snap::Reader &r)
{
    std::size_t base = std::size_t(r.u64());
    std::size_t per_col = std::size_t(r.u64());
    std::size_t stride = std::size_t(r.u64());
    std::size_t cols = std::size_t(r.u64());
    std::size_t ld = std::size_t(r.u64());
    return Region::grid(base, per_col, stride, cols, ld);
}

void
saveOp(snap::Writer &w, const HostOp &op)
{
    w.u8(std::uint8_t(op.kind));
    w.u32(op.cellMask);
    w.u8(std::uint8_t(op.target));
    saveRegion(w, op.region);
    w.u32(std::uint32_t(op.callWords.size()));
    for (Word cw : op.callWords)
        w.u32(cw);
    w.u8(std::uint8_t(op.scalarOp));
    w.u64(op.scalarDst);
    w.u64(op.scalarDst2);
    w.u64(op.scalarSrc);
    w.u32(op.jobId);
    w.u64(op.timeoutCycles);
}

HostOp
loadOp(snap::Reader &r)
{
    HostOp op;
    std::uint8_t kind = r.u8();
    if (kind > std::uint8_t(HostOp::Kind::Reset))
        r.fail("bad host descriptor kind " + std::to_string(kind));
    op.kind = HostOp::Kind(kind);
    op.cellMask = r.u32();
    std::uint8_t target = r.u8();
    if (target > std::uint8_t(SendTarget::TpY))
        r.fail("bad host send target " + std::to_string(target));
    op.target = SendTarget(target);
    op.region = loadRegion(r);
    op.callWords.resize(r.u32());
    for (Word &cw : op.callWords)
        cw = r.u32();
    std::uint8_t scalar = r.u8();
    if (scalar > std::uint8_t(HostScalarOp::SqrtRecip))
        r.fail("bad host scalar op " + std::to_string(scalar));
    op.scalarOp = HostScalarOp(scalar);
    op.scalarDst = std::size_t(r.u64());
    op.scalarDst2 = std::size_t(r.u64());
    op.scalarSrc = std::size_t(r.u64());
    op.jobId = r.u32();
    op.timeoutCycles = r.u64();
    return op;
}

} // anonymous namespace

void
Host::saveState(snap::Writer &w) const
{
    w.u32(std::uint32_t(program.size()));
    for (const HostOp &op : program)
        saveOp(w, op);
    w.u64(pos);
    w.u64(readyAt);
    w.u64(computeAt);
    w.u64(idleSince);

    w.b(inTxn);
    w.u32(txnJob);
    w.u32(txnMask);
    w.u64(txnTimeout);
    w.u64(txnDeadline);
    w.u32(txnRetries);
    w.b(parityTripped);
    w.u32(std::uint32_t(journal.size()));
    for (const HostOp &op : journal)
        saveOp(w, op);
    // The staging overlay is an unordered map: emit it address-sorted
    // so identical state always produces identical bytes.
    std::map<std::size_t, Word> sorted(staging.begin(), staging.end());
    w.u32(std::uint32_t(sorted.size()));
    for (const auto &[addr, word] : sorted) {
        w.u64(addr);
        w.u32(word);
    }
    w.u32(_deadMask);
    w.u32(std::uint32_t(_completedJobs.size()));
    for (std::uint32_t j : _completedJobs)
        w.u32(j);

    w.u32(std::uint32_t(cells.size()));
    for (std::size_t c = 0; c < cells.size(); ++c) {
        w.u32(busDrops[c]);
        w.u32(busDups[c]);
    }
    w.u32(memSpike);
    w.b(opAnnounced);
}

void
Host::loadState(snap::Reader &r, std::uint32_t version)
{
    // Version 1 stored the cooldown and compute as u32 countdowns.
    if (version != stateVersion())
        r.fail(strfmt("%s state version %u, this build reads only %u",
                      name().c_str(), version, stateVersion()));
    program.clear();
    std::uint32_t nprog = r.u32();
    for (std::uint32_t i = 0; i < nprog; ++i)
        program.push_back(loadOp(r));
    countResetOps();
    pos = std::size_t(r.u64());
    readyAt = r.u64();
    computeAt = r.u64();
    idleSince = r.u64();

    inTxn = r.b();
    txnJob = r.u32();
    txnMask = r.u32();
    txnTimeout = r.u64();
    txnDeadline = r.u64();
    txnRetries = r.u32();
    parityTripped = r.b();
    journal.clear();
    std::uint32_t njournal = r.u32();
    for (std::uint32_t i = 0; i < njournal; ++i)
        journal.push_back(loadOp(r));
    staging.clear();
    std::uint32_t nstaged = r.u32();
    for (std::uint32_t i = 0; i < nstaged; ++i) {
        std::size_t addr = std::size_t(r.u64());
        Word word = r.u32();
        if (addr >= mem.size())
            r.fail("staged store out of memory range");
        staging[addr] = word;
    }
    // tickRecv and nextEventAt index cells by a Recv's single mask
    // bit: any other mask would shift or index out of range.
    auto checkRecv = [&](const HostOp &op) {
        if (op.kind == HostOp::Kind::Recv
            && (std::popcount(op.cellMask) != 1
                || unsigned(std::countr_zero(op.cellMask))
                       >= cells.size()))
            r.fail(strfmt("host recv mask %#x does not name exactly one "
                          "of %zu cells",
                          op.cellMask, cells.size()));
    };
    std::for_each(program.begin(), program.end(), checkRecv);
    std::for_each(journal.begin(), journal.end(), checkRecv);
    _deadMask = r.u32();
    _completedJobs.assign(r.u32(), 0);
    for (std::uint32_t &j : _completedJobs)
        j = r.u32();

    if (r.u32() != cells.size())
        r.fail("host snapshot was taken with a different cell count");
    for (std::size_t c = 0; c < cells.size(); ++c) {
        busDrops[c] = r.u32();
        busDups[c] = r.u32();
    }
    memSpike = r.u32();
    opAnnounced = r.b();
    // The clock restarts at the restored cycle (Engine::run settles).
    clock.stop();
}

std::string
Host::statusLine() const
{
    if (program.empty())
        return "program complete";
    const HostOp &op = program.front();
    const char *kind = "?";
    std::size_t total = 0;
    switch (op.kind) {
      case HostOp::Kind::Send:
        kind = "send";
        total = op.region.count();
        break;
      case HostOp::Kind::Recv:
        kind = "recv";
        total = op.region.count();
        break;
      case HostOp::Kind::Call:
        kind = "call";
        total = op.callWords.size();
        break;
      case HostOp::Kind::Compute:
        kind = "compute";
        total = 1;
        break;
      case HostOp::Kind::TxnBegin:
        kind = "txn-begin";
        total = 1;
        break;
      case HostOp::Kind::TxnEnd:
        kind = "txn-end";
        total = 1;
        break;
      case HostOp::Kind::Reset:
        kind = "reset";
        total = std::size_t(std::popcount(op.cellMask));
        break;
    }
    std::string line = strfmt("%s mask=%#x %zu/%zu, %zu ops queued", kind,
                              op.cellMask, pos, total, program.size());
    if (inTxn)
        line += strfmt(" [txn %u retry %u/%u]", txnJob, txnRetries,
                       cfg.recovery.retryBudget);
    return line;
}

} // namespace opac::host
