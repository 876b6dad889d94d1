#include "cell/cell.hh"

#include <algorithm>
#include <bit>

#include "common/error.hh"
#include "common/logging.hh"
#include "isa/encode.hh"
#include "snap/snapshot.hh"

namespace opac::cell
{

using isa::Src;
using isa::Opcode;

Cell::Cell(std::string name, const CellConfig &cfg,
           stats::StatGroup *parent_stats)
    : sim::Component(name),
      cfg(cfg),
      fpu(makeFpUnit(cfg.fp)),
      _tpx("tpx", cfg.interfaceDepth, cfg.fifoLatency),
      _tpy("tpy", cfg.interfaceDepth, cfg.fifoLatency),
      _tpo("tpo", cfg.interfaceDepth, cfg.fifoLatency),
      _tpi("tpi", cfg.tpiDepth, cfg.fifoLatency),
      _sum("sum", cfg.tf, cfg.fifoLatency),
      _ret("ret", cfg.tf, cfg.fifoLatency),
      _reby("reby", cfg.tf, cfg.fifoLatency),
      statGroup(name, parent_stats),
      ftGroup(name + ".fastTier")
{
    // Order matches isa::CellQueue (the decoded-operand queue ids).
    queueTab = {&_sum, &_ret, &_reby, &_tpo, &_tpx, &_tpy};
    statGroup.addCounter("issued", &statIssued, "micro-ops issued");
    statGroup.addCounter("fma", &statFma, "chained multiply-adds");
    statGroup.addCounter("mulOnly", &statMulOnly, "multiplies");
    statGroup.addCounter("addOnly", &statAddOnly, "additions");
    statGroup.addCounter("moves", &statMoves, "move-path transfers");
    statGroup.addCounter("busyCycles", &statBusy, "cycles not idle");
    statGroup.addCounter("idleCycles", &statIdle, "cycles waiting for "
                         "calls");
    statGroup.addCounter("stallSrcEmpty", &statStallSrc,
                         "issue stalls: source queue empty");
    statGroup.addCounter("stallDstFull", &statStallDst,
                         "issue stalls: destination queue full");
    statGroup.addCounter("stallRegPending", &statStallReg,
                         "issue stalls: register write in flight");
    statGroup.addCounter("calls", &statCalls, "kernel calls executed");
    statGroup.addCounter("writePortConflicts", &statWritePortConflicts,
                         "same-cycle writebacks to one queue");
    statGroup.addCounter("hangCycles", &statHangCycles,
                         "cycles frozen by a hang or fault");
    statGroup.addCounter("faults", &statFaults,
                         "times the cell entered the faulted state");
    statGroup.addCounter("hardResets", &statHardResets,
                         "reset-line pulses received");
    // Fast-tier diagnostics live in a detached group: the stats JSON
    // under statGroup must stay byte-identical with the tier on or
    // off, and burst engagement depends on the engine mode.
    ftGroup.addCounter("compiled", &statFtCompiled,
                       "loop bodies analyzed burst-eligible");
    ftGroup.addCounter("ineligible", &statFtIneligible,
                       "loop bodies analyzed and rejected");
    ftGroup.addCounter("bursts", &statFtBursts,
                       "burst windows executed");
    ftGroup.addCounter("burstCycles", &statFtBurstCycles,
                       "cycles executed inside bursts");
    ftGroup.addCounter("burstIssued", &statFtBurstIssued,
                       "micro-ops issued inside bursts");
    ftGroup.addCounter("burstIters", &statFtBurstIters,
                       "loop iterations completed inside bursts");
    ftGroup.addCounter("turboCycles", &statFtTurboCycles,
                       "burst cycles run by the specialized executor");
    ftGroup.addCounter("fallbackObserver", &statFtFallbackObserver,
                       "burst refused: per-cycle observer attached");
    ftGroup.addCounter("fallbackBody", &statFtFallbackBody,
                       "burst refused: body not burst-eligible");
    ftGroup.addCounter("fallbackInflight", &statFtFallbackInflight,
                       "burst refused: interface write in flight");
    _tpx.addStats(statGroup);
    _tpy.addStats(statGroup);
    _tpo.addStats(statGroup);
    _tpi.addStats(statGroup);
    _sum.addStats(statGroup);
    _ret.addStats(statGroup);
    _reby.addStats(statGroup);
    fpu->registerStats(statGroup);

    // Word protection: an unrepairable error on any queue this cell
    // consumes freezes it (the host notices via its call timeout).
    // tpo is consumed by the host, which installs its own handler.
    for (TimedFifo *q : {&_tpx, &_tpy, &_tpi, &_sum, &_ret, &_reby}) {
        q->setParity(cfg.parity);
        q->setProtectionHandler(
            [this, q](Cycle now) { enterFaulted(q->name().c_str(), now); });
    }
    _tpo.setParity(cfg.parity);
}

std::uint64_t
Cell::pmuRead(PmuReg reg) const
{
    switch (reg) {
      case PmuReg::Issued:
        return statIssued.value();
      case PmuReg::Fma:
        return statFma.value();
      case PmuReg::MulOnly:
        return statMulOnly.value();
      case PmuReg::AddOnly:
        return statAddOnly.value();
      case PmuReg::Moves:
        return statMoves.value();
      case PmuReg::BusyCycles:
        return statBusy.value();
      case PmuReg::IdleCycles:
        return statIdle.value();
      case PmuReg::StallSrcEmpty:
        return statStallSrc.value();
      case PmuReg::StallDstFull:
        return statStallDst.value();
      case PmuReg::StallRegPending:
        return statStallReg.value();
      case PmuReg::Calls:
        return statCalls.value();
      case PmuReg::HighWaterTpx:
        return _tpx.highWater();
      case PmuReg::HighWaterTpy:
        return _tpy.highWater();
      case PmuReg::HighWaterTpo:
        return _tpo.highWater();
      case PmuReg::HighWaterTpi:
        return _tpi.highWater();
      case PmuReg::HighWaterSum:
        return _sum.highWater();
      case PmuReg::HighWaterRet:
        return _ret.highWater();
      case PmuReg::HighWaterReby:
        return _reby.highWater();
      case PmuReg::NumRegs:
        break;
    }
    opac_warn_once("%s: PMU read of unknown register %u reads as zero",
                   name().c_str(), unsigned(reg));
    return 0;
}

void
Cell::attachTracer(trace::Tracer *t)
{
    tracer = t;
    traceComp = t ? t->internComponent(name()) : 0;
    _tpx.attachTracer(t, traceComp);
    _tpy.attachTracer(t, traceComp);
    _tpo.attachTracer(t, traceComp);
    _tpi.attachTracer(t, traceComp);
    _sum.attachTracer(t, traceComp);
    _ret.attachTracer(t, traceComp);
    _reby.attachTracer(t, traceComp);
    // Pre-intern every kernel's name track so dispatch-time lookups
    // never append to the track table: track ids stay independent of
    // runtime call order (identical across engine modes).
    if (t) {
        for (const auto &[entry, k] : microcode)
            t->internTrack(traceComp, k.prog.name());
    }
}

void
Cell::loadMicrocode(Word entry, isa::Program prog, unsigned nparams)
{
    prog.validate();
    prog.decode();
    if (nparams > isa::numParams)
        throw MicrocodeError(prog.name(),
                             strfmt("%u parameters exceed %u registers",
                                    nparams, isa::numParams));
    if (entry == pmuCallEntry || entry == resetCallEntry)
        throw MicrocodeError(prog.name(),
                             strfmt("entry id %#x collides with a "
                                    "reserved call",
                                    entry));
    Kernel &k = microcode[entry];
    k = Kernel{std::move(prog), nparams, {}};
    // Reloading an entry reuses the map node, so cached body analyses
    // keyed on the Kernel address would go stale: drop them all.
    fastBodies.clear();
    for (LoopFrame &f : loopStack)
        f.fastBody = noFastBody;
    burstBody = nullptr;
    blocker = {};
    if (tracer)
        tracer->internTrack(traceComp, k.prog.name());
}

TimedFifo *
Cell::queueFor(Src s)
{
    switch (s) {
      case Src::TpX:
        return &_tpx;
      case Src::TpY:
        return &_tpy;
      case Src::Sum:
      case Src::SumR:
        return &_sum;
      case Src::Ret:
      case Src::RetR:
        return &_ret;
      case Src::Reby:
      case Src::RebyR:
        return &_reby;
      default:
        return nullptr;
    }
}

Cell::Blocker
Cell::checkHazards(const isa::DecodedInstr &d, Cycle now) const
{
    // The read list preserves operand order (mulA, mulB, addA, addB,
    // mvSrc), so the first failing check — and with it the reported
    // stall cause — is the same as the un-decoded per-operand scan.
    for (unsigned i = 0; i < d.numReads; ++i) {
        const isa::DecodedRead &r = d.reads[i];
        switch (r.kind) {
          case isa::DecodedRead::Kind::Queue:
            if (!queueTab[r.queue]->canPop(now))
                return {StallCause::SrcEmpty, queueTab[r.queue]};
            break;
          case isa::DecodedRead::Kind::RegAy:
            if (regAyPending)
                return {StallCause::RegPending, nullptr, &regAyPending};
            break;
          case isa::DecodedRead::Kind::Reg:
            if (regPending[r.reg])
                return {StallCause::RegPending, nullptr,
                        &regPending[r.reg]};
            break;
        }
    }

    // WAW interlock: a register with an in-flight write cannot be
    // written again until it lands.
    if (d.wawAy && regAyPending)
        return {StallCause::RegPending, nullptr, &regAyPending};
    for (unsigned i = 0; i < d.numWawRegs; ++i) {
        if (regPending[d.wawRegs[i]])
            return {StallCause::RegPending, nullptr,
                    &regPending[d.wawRegs[i]]};
    }

    // Net space requirement per queue (pushes minus pops, precomputed).
    for (unsigned i = 0; i < d.numNeeds; ++i) {
        const auto &n = d.needs[i];
        if (queueTab[n.queue]->space() < std::size_t(n.amount))
            return {StallCause::DstFull, queueTab[n.queue], nullptr,
                    std::size_t(n.amount)};
    }
    return {};
}

bool
Cell::Blocker::holds(Cycle now) const
{
    switch (cause) {
      case StallCause::None:
        break;
      case StallCause::SrcEmpty:
        return !queue->canPop(now);
      case StallCause::RegPending:
        return *pending;
      case StallCause::DstFull:
        return queue->space() < slots;
    }
    return false;
}

Word
Cell::readOperand(const isa::Operand &op, Cycle now, Word mul_out)
{
    switch (op.kind) {
      case Src::None:
        opac_panic("reading unused operand");
      case Src::MulOut:
        return mul_out;
      case Src::RegAy:
        return regAy;
      case Src::Reg:
        return regs[op.idx];
      case Src::Zero:
        return 0;
      case Src::One:
        return floatToWord(1.0f);
      default: {
        TimedFifo *q = queueFor(op.kind);
        if (isa::isRecirc(op.kind))
            return q->recirculate(now);
        return q->pop(now);
      }
    }
}

void
Cell::scheduleWrite(Cycle when, Word value, std::uint8_t mask,
                    std::uint8_t dst_reg, Cycle now)
{
    if (mask == 0)
        return;
    // Reserve queue slots now so the writeback cannot overflow.
    if (mask & isa::DstSum)
        _sum.reserve();
    if (mask & isa::DstRet)
        _ret.reserve();
    if (mask & isa::DstReby)
        _reby.reserve();
    if (mask & isa::DstTpO)
        _tpo.reserve();
    if (mask & isa::DstRegAy)
        regAyPending = true;
    if (mask & isa::DstReg)
        regPending[dst_reg] = true;
    (void)now;
    wbReadyAt = std::min(wbReadyAt, when);
    inflight.push_back(InFlight{when, value, mask, dst_reg});
}

void
Cell::issueCompute(const isa::Instr &in, const isa::DecodedInstr &d,
                   Cycle now)
{
    bool mul_active = d.mulActive;
    bool add_active = d.addActive;

    Word mul_out = 0;
    unsigned fp_latency = 0;
    if (mul_active) {
        Word a = readOperand(in.mulA, now, 0);
        Word b = readOperand(in.mulB, now, 0);
        mul_out = fpu->mul(a, b);
        fp_latency += cfg.mulLatency;
    }
    Word fp_result = mul_out;
    if (add_active) {
        Word a = d.addAFromMul ? mul_out : readOperand(in.addA, now, 0);
        Word b = readOperand(in.addB, now, 0);
        fp_result = fpu->add(a, b, in.addOp);
        fp_latency += cfg.addLatency;
    }
    if (mul_active || add_active)
        scheduleWrite(now + fp_latency, fp_result, in.dstMask, in.dstReg,
                      now);

    if (d.mvActive) {
        Word v = readOperand(in.mvSrc, now, mul_out);
        scheduleWrite(now + cfg.moveLatency, v, in.mvDstMask, in.mvDstReg,
                      now);
        ++statMoves;
    }

    if (mul_active && add_active)
        ++statFma;
    else if (mul_active)
        ++statMulOnly;
    else if (add_active)
        ++statAddOnly;
    ++statIssued;

    if (tracer) {
        trace::OpClass cls = trace::OpClass::Move;
        unsigned latency = cfg.moveLatency;
        if (mul_active && add_active) {
            cls = trace::OpClass::Fma;
            latency = fp_latency;
        } else if (mul_active) {
            cls = trace::OpClass::Mul;
            latency = fp_latency;
        } else if (add_active) {
            cls = trace::OpClass::Add;
            latency = fp_latency;
        }
        tracer->emit(now, trace::EventKind::Issue, std::uint8_t(cls),
                     traceComp, 0, std::uint32_t(pc), latency);
    }
}

void
Cell::drainWritebacks(Cycle now, sim::Engine &engine)
{
    // Writebacks commit in issue order per destination: a short-latency
    // move issued after a long-latency FP op must not overtake it into
    // the same queue (the queues have one in-order write port). An
    // entry that cannot commit blocks its destinations for every later
    // entry; entries commit atomically. regay and the register file
    // count as one destination.
    //
    // One pass: commit the due, unblocked entries, compact the rest in
    // place in issue order and find the next landing cycle. tickAt
    // calls it only from wbReadyAt on.
    constexpr std::uint8_t regBits = isa::DstRegAy | isa::DstReg;
    constexpr std::uint8_t queueBits =
        isa::DstSum | isa::DstRet | isa::DstReby | isa::DstTpO;
    static_assert(isa::DstSum == 1 << unsigned(isa::CellQueue::Sum)
                      && isa::DstRet == 1 << unsigned(isa::CellQueue::Ret)
                      && isa::DstReby == 1 << unsigned(isa::CellQueue::Reby)
                      && isa::DstTpO == 1 << unsigned(isa::CellQueue::TpO),
                  "queue destination bits index queueTab");
    std::uint8_t blocked = 0; // destinations held by a waiting entry
    std::uint8_t pushed = 0;  // queues written this cycle
    Cycle next = noEvent;
    std::size_t kept = 0;
    for (const InFlight &w : inflight) {
        const std::uint8_t dst =
            (w.dstMask & regBits) ? w.dstMask | regBits : w.dstMask;
        if (w.when > now || (dst & blocked)) {
            blocked |= dst;
            next = std::min(next, w.when);
            inflight[kept++] = w;
            continue;
        }
        const std::uint8_t queues = w.dstMask & queueBits;
        if (const std::uint8_t twice = queues & pushed) {
            statWritePortConflicts += unsigned(std::popcount(twice));
            opac_warn_once("%s: two writebacks into '%s' in one cycle "
                           "(single write port modelled as free)",
                           name().c_str(),
                           queueTab[std::countr_zero(twice)]->name()
                               .c_str());
        }
        pushed |= queues;
        for (std::uint8_t m = queues; m != 0; m &= std::uint8_t(m - 1))
            queueTab[std::countr_zero(m)]->pushReserved(w.value, now);
        if (w.dstMask & isa::DstRegAy) {
            regAy = w.value;
            regAyPending = false;
        }
        if (w.dstMask & isa::DstReg) {
            regs[w.dstReg] = w.value;
            regPending[w.dstReg] = false;
        }
        if (tracer) {
            tracer->emit(now, trace::EventKind::Retire, 0, traceComp, 0,
                         w.dstMask, w.value);
        }
        engine.noteProgress();
    }
    inflight.resize(kept);
    // Entries left blocked behind a later `when` retry next cycle at
    // the earliest.
    wbReadyAt = std::max(next, now + 1);
}

/**
 * Emit the trace event of a stalled issue cycle; returns the stall
 * counter the cycle is charged to.
 */
stats::Counter *
Cell::emitStall(StallCause cause, Cycle now)
{
    trace::StallWhy why = trace::StallWhy::SrcEmpty;
    stats::Counter *charge = &statStallSrc;
    switch (cause) {
      case StallCause::None:
        opac_panic("emitStall without a stall");
      case StallCause::SrcEmpty:
        break;
      case StallCause::DstFull:
        charge = &statStallDst;
        why = trace::StallWhy::DstFull;
        break;
      case StallCause::RegPending:
        charge = &statStallReg;
        why = trace::StallWhy::RegPending;
        break;
    }
    if (tracer) {
        tracer->emit(now, trace::EventKind::Stall, std::uint8_t(why),
                     traceComp, 0, std::uint32_t(pc), 0);
    }
    return charge;
}

/**
 * Execute zero-cost control flow at the current pc: hardware loop
 * begin/end. Returns false when the lookahead budget is exhausted
 * without reaching an issueable instruction.
 */
bool
Cell::stepControl(Cycle now)
{
    (void)now;
    unsigned budget = cfg.controlOpsPerCycle;
    while (budget-- > 0) {
        opac_assert(pc < current->prog.size(), "pc out of range in '%s'",
                    current->prog.name().c_str());
        const isa::Instr &in = current->prog.at(pc);
        switch (in.op) {
          case Opcode::LoopBegin: {
            std::uint32_t count = in.countIsParam
                ? std::uint32_t(std::max<std::int32_t>(
                      0, params[in.countParam]))
                : in.count;
            if (count == 0) {
                // Skip the body: scan for the matching LoopEnd.
                unsigned depth = 1;
                std::size_t scan = pc + 1;
                while (depth > 0) {
                    const isa::Instr &s = current->prog.at(scan);
                    if (s.op == Opcode::LoopBegin)
                        ++depth;
                    else if (s.op == Opcode::LoopEnd)
                        --depth;
                    ++scan;
                }
                pc = scan;
            } else {
                loopStack.push_back(LoopFrame{pc + 1, count - 1});
                ++pc;
            }
            break;
          }
          case Opcode::LoopEnd: {
            opac_assert(!loopStack.empty(), "LoopEnd with empty stack");
            LoopFrame &f = loopStack.back();
            if (f.remaining > 0) {
                --f.remaining;
                pc = f.bodyPc;
            } else {
                loopStack.pop_back();
                ++pc;
            }
            break;
          }
          default:
            return true; // an issueable instruction
        }
    }
    return false; // lookahead bound hit; retry next cycle
}

void
Cell::tickSequencer(Cycle now, sim::Engine &engine)
{
    // The state this cycle is charged to: busy unless a branch below
    // says otherwise, plus the stall cause when nothing could issue.
    stats::Counter *charge = &statBusy;
    stats::Counter *stallCharge = nullptr;
    switch (state) {
      case SeqState::Idle:
        if (_tpi.canPop(now)) {
            Word entry = _tpi.pop(now);
            if (entry == pmuCallEntry) {
                // PMU status call: one parameter word selects the
                // register; the readback is not a kernel call, leaves
                // the kernel counters untouched and this cycle is
                // charged to no bucket.
                pmuCall = true;
                paramsToRead = 1;
                paramIndex = 0;
                state = SeqState::ReadParams;
                charge = nullptr;
                engine.noteProgress();
                break;
            }
            auto it = microcode.find(entry);
            if (it == microcode.end()) {
                // A corrupted or junk call word must not kill the
                // simulation: the sequencer jams and the host-side
                // timeout (or the watchdog) deals with it.
                opac_warn_once("%s: call to unknown microcode entry %u"
                               " (cell faulted)",
                               name().c_str(), entry);
                enterFaulted("unknown call entry", now);
                charge = nullptr;
                engine.noteProgress(); // the pop was progress
                break;
            }
            current = &it->second;
            paramsToRead = current->nparams;
            paramIndex = 0;
            if (paramsToRead > 0) {
                state = SeqState::ReadParams;
            } else {
                state = SeqState::Decode;
                dispatchAt = now + std::max(cfg.callDecodeCycles, 1u);
            }
            ++statCalls;
            if (tracer) {
                callTrack = tracer->internTrack(traceComp,
                                                current->prog.name());
                tracer->emit(now, trace::EventKind::CallBegin, 0,
                             traceComp, callTrack, entry, 0);
            }
            engine.noteProgress();
        } else {
            charge = &statIdle;
        }
        break;

      case SeqState::ReadParams:
        if (_tpi.canPop(now)) {
            params[paramIndex++] = std::int32_t(_tpi.pop(now));
            if (--paramsToRead == 0) {
                state = pmuCall ? SeqState::PmuRespond : SeqState::Decode;
                dispatchAt = now + std::max(cfg.callDecodeCycles, 1u);
            }
            engine.noteProgress();
        }
        break;

      case SeqState::PmuRespond: {
        if (_tpo.space() >= 2) {
            // The value returned includes this busy cycle.
            clock.enter(&statBusy, nullptr, now);
            clock.settle(now + 1);
            std::uint64_t v = pmuRead(PmuReg(std::uint32_t(params[0])));
            _tpo.push(Word(v), now);
            _tpo.push(Word(v >> 32), now);
            pmuCall = false;
            state = SeqState::Idle;
            engine.noteProgress();
        } else {
            stallCharge = &statStallDst;
        }
        break;
      }

      case SeqState::Decode:
        // Waiting for the dispatch cycle is not forward progress: it
        // is fully predictable (see nextEventAt), so the engine may
        // skip it. Completing the dispatch is.
        if (now >= dispatchAt) {
            pc = 0;
            loopStack.clear();
            state = SeqState::Run;
            engine.noteProgress();
        }
        break;

      case SeqState::Run: {
        // A stalled instruction stays stalled while the check that
        // failed still fails (Blocker): charge the stall again
        // without the control step or the hazard scan.
        if (blocker.cause != StallCause::None) {
            if (blocker.holds(now)) {
                stallCharge = emitStall(blocker.cause, now);
                break;
            }
            blocker = {};
        }
        if (!stepControl(now)) {
            engine.noteProgress(); // control scan is progress
            break;
        }
        const isa::Instr &in = current->prog.at(pc);
        switch (in.op) {
          case Opcode::Compute: {
            const isa::DecodedInstr &d = current->prog.decodedAt(pc);
            blocker = checkHazards(d, now);
            if (blocker.cause == StallCause::None) {
                issueCompute(in, d, now);
                ++pc;
                engine.noteProgress();
            } else {
                stallCharge = emitStall(blocker.cause, now);
            }
            break;
          }
          case Opcode::SetParam: {
            std::int32_t &d = params[in.dstParam];
            switch (in.paramOp) {
              case isa::ParamOp::LoadImm:
                d = in.imm;
                break;
              case isa::ParamOp::Copy:
                d = params[in.srcParam];
                break;
              case isa::ParamOp::Inc:
                ++d;
                break;
              case isa::ParamOp::Dec:
                --d;
                break;
              case isa::ParamOp::Mul2:
                d *= 2;
                break;
              case isa::ParamOp::Div2:
                d /= 2;
                break;
              case isa::ParamOp::AddImm:
                d += in.imm;
                break;
            }
            ++pc;
            ++statIssued;
            if (tracer) {
                tracer->emit(now, trace::EventKind::Issue,
                             std::uint8_t(trace::OpClass::Control),
                             traceComp, 0, std::uint32_t(pc - 1), 0);
            }
            engine.noteProgress();
            break;
          }
          case Opcode::ResetFifo: {
            // A reset must let in-flight writebacks to the queue land
            // first, or their reserved slots would be destroyed.
            std::uint8_t bit = in.fifo == isa::LocalFifo::Sum
                ? isa::DstSum
                : in.fifo == isa::LocalFifo::Ret ? isa::DstRet
                                                 : isa::DstReby;
            bool write_in_flight = false;
            for (const auto &w : inflight) {
                if (w.dstMask & bit) {
                    write_in_flight = true;
                    break;
                }
            }
            if (write_in_flight) {
                stallCharge = emitStall(StallCause::DstFull, now);
                break;
            }
            switch (in.fifo) {
              case isa::LocalFifo::Sum:
                _sum.reset(now);
                break;
              case isa::LocalFifo::Ret:
                _ret.reset(now);
                break;
              case isa::LocalFifo::Reby:
                _reby.reset(now);
                break;
            }
            ++pc;
            ++statIssued;
            if (tracer) {
                tracer->emit(now, trace::EventKind::Issue,
                             std::uint8_t(trace::OpClass::Control),
                             traceComp, 0, std::uint32_t(pc - 1), 0);
            }
            engine.noteProgress();
            break;
          }
          case Opcode::Halt:
            if (tracer) {
                tracer->emit(now, trace::EventKind::CallEnd, 0,
                             traceComp, callTrack, 0, 0);
            }
            state = SeqState::Idle;
            current = nullptr;
            engine.noteProgress();
            break;
          default:
            opac_panic("control op leaked to issue stage");
        }
        break;
      }
    }
    clock.enter(charge, stallCharge, now);
}

void
Cell::tick(sim::Engine &engine)
{
    tickAt(engine.now(), engine);
}

void
Cell::tickAt(Cycle now, sim::Engine &engine)
{
    if (_dead)
        return;
    if (_faulted || now < hangUntil) {
        // Frozen: sequencer and writeback stand still, the queues keep
        // accepting pushes from the host (and their occupancy clocks
        // keep running, so a faulted run's stats stay comparable).
        clock.enter(&statHangCycles, nullptr, now);
        return;
    }
    if (now >= wbReadyAt)
        drainWritebacks(now, engine);
    tickSequencer(now, engine);
}

Cycle
Cell::nextEventAt(Cycle now) const
{
    if (_dead)
        return noEvent;
    // A stalled round emits a Stall event: a traced cell ticks every
    // round.
    if (tracer)
        return now;
    sim::HintMin at;
    // Any queue front falling through can unblock the sequencer or
    // the host (tpo feeds the host's Recv), so all seven count.
    for (const TimedFifo *q : queueTab)
        at.note(q->nextReadyAt(now));
    at.note(_tpi.nextReadyAt(now));
    // A faulted cell acts on nothing itself; only its queue fronts
    // matter (the host may still drain tpo). A hung cell additionally
    // wakes when the hang expires; its call dispatch waits out the
    // hang (injectHang).
    if (_faulted)
        return at.value();
    if (now < hangUntil) {
        at.note(hangUntil);
        return at.value();
    }
    // At exact hang expiry the freeze lifts this very cycle: the
    // sequencer resumes whatever it was doing (a control op, a stale
    // but still poppable queue front, a landable writeback) with no
    // queue event to announce it. Report `now`; an early wake is
    // always safe — a genuinely stalled cell reports a fresh hint
    // past the hang on the next quiescent round.
    if (hangUntil != 0 && now == hangUntil)
        return now;
    // Pipeline results landing unblock RegPending/ResetFifo stalls and
    // writeback-ordering blocks. when == now counts (it lands in the
    // round at `now`); entries with when < now that did not commit
    // are ordered behind one with when >= now, which covers them.
    for (const auto &w : inflight)
        at.noteFuture(w.when, now);
    if (state == SeqState::Decode)
        at.note(dispatchAt);
    return at.value();
}

void
Cell::settle(Cycle now)
{
    if (_dead)
        return;
    clock.settle(now);
    _sum.settle(now);
    _ret.settle(now);
    _reby.settle(now);
}

bool
Cell::done() const
{
    if (_dead)
        return true;
    if (_faulted)
        return false; // stuck: recovery resets us or the watchdog fires
    return state == SeqState::Idle && _tpi.empty() && inflight.empty();
}

void
Cell::hardReset(Cycle now)
{
    for (TimedFifo *q : queueTab)
        q->reset(now);
    _tpi.reset(now);
    state = SeqState::Idle;
    current = nullptr;
    pc = 0;
    paramsToRead = 0;
    paramIndex = 0;
    dispatchAt = 0;
    pmuCall = false;
    loopStack.clear();
    blocker = {};
    inflight.clear();
    wbReadyAt = noEvent;
    regPending = {};
    regAyPending = false;
    _faulted = false;
    hangUntil = 0;
    faultWhy.clear();
    if (_broken) {
        // A hard (permanent) fault re-asserts itself the moment the
        // reset line is released: only markDead() silences it.
        _faulted = true;
        faultWhy = "hard fault";
    }
    ++statHardResets;
}

void
Cell::markDead(Cycle now)
{
    hardReset(now);
    // This cell ticked last in the cycle before: credit its clocks
    // through there and stop them. settle() leaves a dead cell alone,
    // and a later reset of its queues credits nothing.
    settle(now);
    for (TimedFifo *q : {&_sum, &_ret, &_reby})
        q->stopOccupancy();
    _dead = true;
    opac_warn_once("%s: marked dead at cycle %llu", name().c_str(),
                   (unsigned long long)now);
}

void
Cell::injectHang(Cycle now, Cycle duration)
{
    if (_dead)
        return;
    if (duration == 0) {
        _broken = true;
        enterFaulted("injected permanent hang", now);
        return;
    }
    // A decoding call waits out every round this hang adds.
    const Cycle from = std::max(hangUntil, now);
    if (state == SeqState::Decode && now + duration > from)
        dispatchAt += now + duration - from;
    hangUntil = std::max(hangUntil, now + duration);
}

void
Cell::injectSpuriousHalt(Cycle now)
{
    if (_dead || _faulted || state == SeqState::Idle)
        return;
    // The sequencer drops everything mid-kernel. Unconsumed parameter
    // or data words stay in the queues and will desynchronize the
    // next call — exactly the cascade a real control-logic upset
    // causes. In-flight pipeline results still land.
    if (tracer && state == SeqState::Run)
        tracer->emit(now, trace::EventKind::CallEnd, 0, traceComp,
                     callTrack, 0, 0);
    state = SeqState::Idle;
    current = nullptr;
    paramsToRead = 0;
    pmuCall = false;
    loopStack.clear();
    blocker = {};
}

void
Cell::enterFaulted(const char *why, Cycle now)
{
    (void)now;
    if (_dead || _faulted)
        return;
    _faulted = true;
    faultWhy = why;
    ++statFaults;
}

void
Cell::saveState(snap::Writer &w) const
{
    static_assert(isa::numRegs <= 64, "regPending saved as a u64 mask");
    // The complete microcode store, as encoded images: kernels can be
    // installed at runtime, so the snapshot cannot assume the fresh
    // machine it restores into has the same store. std::map iterates
    // in entry-id order — stable across install order. Images are
    // encoded once per installed kernel (Kernel::image), not once per
    // checkpoint.
    w.u32(std::uint32_t(microcode.size()));
    for (const auto &[entry, k] : microcode) {
        w.u32(entry);
        w.u32(k.nparams);
        w.str(k.prog.name());
        if (k.image.empty())
            k.image = isa::encode(k.prog);
        w.u32(std::uint32_t(k.image.size()));
        for (std::uint32_t word : k.image)
            w.u32(word);
    }
    for (Word v : regs)
        w.u32(v);
    std::uint64_t pend = 0;
    for (unsigned i = 0; i < isa::numRegs; ++i) {
        if (regPending[i])
            pend |= std::uint64_t(1) << i;
    }
    w.u64(pend);
    w.u32(regAy);
    w.b(regAyPending);

    w.u8(static_cast<std::uint8_t>(state));
    // The running kernel is named by its microcode entry id; the
    // Kernel pointer itself is process-local.
    bool running = current != nullptr;
    Word entry = 0;
    if (running) {
        for (const auto &[e, k] : microcode) {
            if (&k == current) {
                entry = e;
                break;
            }
        }
    }
    w.b(running);
    w.u32(entry);
    w.u64(pc);
    w.u32(paramsToRead);
    w.u32(paramIndex);
    w.u64(dispatchAt);
    w.b(pmuCall);
    for (std::int32_t p : params)
        w.i32(p);
    w.u32(static_cast<std::uint32_t>(loopStack.size()));
    for (const LoopFrame &f : loopStack) {
        w.u64(f.bodyPc);
        w.u32(f.remaining);
    }
    w.u32(static_cast<std::uint32_t>(inflight.size()));
    for (const InFlight &f : inflight) {
        w.u64(f.when);
        w.u32(f.value);
        w.u8(f.dstMask);
        w.u8(f.dstReg);
    }
    w.u64(wbReadyAt);

    w.b(_faulted);
    w.b(_broken);
    w.b(_dead);
    w.u64(hangUntil);
    w.str(faultWhy);
    w.u16(callTrack);
    w.u8(fpu->flags());

    for (const TimedFifo *q :
         {&_tpx, &_tpy, &_tpo, &_tpi, &_sum, &_ret, &_reby})
        q->saveState(w);
}

void
Cell::loadState(snap::Reader &r, std::uint32_t version)
{
    // Version 1 stored the call decode as a u32 countdown.
    if (version != stateVersion())
        r.fail(strfmt("%s state version %u, this build reads only %u",
                      name().c_str(), version, stateVersion()));
    std::uint32_t nkernels = r.u32();
    microcode.clear();
    current = nullptr;
    for (std::uint32_t i = 0; i < nkernels; ++i) {
        Word entry = r.u32();
        unsigned nparams = r.u32();
        std::string kname = r.str();
        std::vector<std::uint32_t> image(r.u32());
        for (std::uint32_t &word : image)
            word = r.u32();
        try {
            loadMicrocode(entry, isa::decode(image, kname), nparams);
        } catch (const Error &e) {
            r.fail(name() + ": snapshot microcode entry " +
                   std::to_string(entry) + " rejected: " + e.what());
        }
    }
    for (Word &v : regs)
        v = r.u32();
    std::uint64_t pend = r.u64();
    for (unsigned i = 0; i < isa::numRegs; ++i)
        regPending[i] = (pend >> i) & 1;
    regAy = r.u32();
    regAyPending = r.b();

    std::uint8_t st = r.u8();
    if (st > static_cast<std::uint8_t>(SeqState::PmuRespond))
        r.fail(name() + ": bad sequencer state " + std::to_string(st));
    state = static_cast<SeqState>(st);
    bool running = r.b();
    Word entry = r.u32();
    current = nullptr;
    if (running) {
        auto it = microcode.find(entry);
        if (it == microcode.end())
            r.fail(name() + ": running microcode entry " +
                   std::to_string(entry) + " is not installed");
        current = &it->second;
    }
    pc = r.u64();
    if (current && pc >= current->prog.size())
        r.fail(name() + ": pc " + std::to_string(pc) +
               " out of range for kernel '" + current->prog.name() +
               "'");
    paramsToRead = r.u32();
    paramIndex = r.u32();
    dispatchAt = r.u64();
    pmuCall = r.b();
    if (paramIndex > isa::numParams || paramsToRead > isa::numParams)
        r.fail(name() + ": parameter cursor out of range");
    // The next tick must be able to run the restored state: a kernel
    // call past Idle dereferences the running kernel, and ReadParams
    // pops into params[paramIndex] until paramsToRead reaches zero.
    bool needsKernel = state == SeqState::Decode || state == SeqState::Run
                       || (state == SeqState::ReadParams && !pmuCall);
    if (needsKernel && !current)
        r.fail(name() + ": sequencer state " + std::to_string(st) +
               " without a running kernel");
    if (state == SeqState::ReadParams
        && (paramsToRead == 0
            || paramIndex + paramsToRead > isa::numParams))
        r.fail(name() + ": parameter cursor out of range for "
                        "ReadParams");
    for (std::int32_t &p : params)
        p = r.i32();
    loopStack.assign(r.u32(), LoopFrame{});
    for (LoopFrame &f : loopStack) {
        f.bodyPc = r.u64();
        f.remaining = r.u32();
        if (current && f.bodyPc >= current->prog.size())
            r.fail(name() + ": loop frame pc out of range");
    }
    inflight.assign(r.u32(), InFlight{});
    for (InFlight &f : inflight) {
        f.when = r.u64();
        f.value = r.u32();
        f.dstMask = r.u8();
        f.dstReg = r.u8();
        if ((f.dstMask & isa::DstReg) && f.dstReg >= isa::numRegs)
            r.fail(name() + ": in-flight writeback register out of "
                            "range");
    }
    wbReadyAt = r.u64();

    _faulted = r.b();
    _broken = r.b();
    _dead = r.b();
    hangUntil = r.u64();
    faultWhy = r.str();
    callTrack = r.u16();
    fpu->setFlags(r.u8());

    for (TimedFifo *q :
         {&_tpx, &_tpy, &_tpo, &_tpi, &_sum, &_ret, &_reby})
        q->loadState(r);

    // Derived caches rebuild lazily against the restored state, and
    // the clock restarts at the restored cycle (Engine::run settles).
    fastBodies.clear();
    burstBody = nullptr;
    blocker = {};
    clock.stop();
}

std::string
Cell::statusLine() const
{
    const char *st = "?";
    switch (state) {
      case SeqState::Idle: st = "idle"; break;
      case SeqState::ReadParams: st = "read-params"; break;
      case SeqState::Decode: st = "decode"; break;
      case SeqState::Run: st = "run"; break;
      case SeqState::PmuRespond: st = "pmu-respond"; break;
    }
    std::string health;
    if (_dead)
        health = " DEAD";
    else if (_faulted)
        health = strfmt(" FAULTED(%s)", faultWhy.c_str());
    else if (hangUntil != 0)
        health = strfmt(" hung-until=%llu",
                        (unsigned long long)hangUntil);
    return strfmt("state=%s%s kernel=%s pc=%zu tpi=%zu tpx=%zu tpo=%zu "
                  "sum=%zu ret=%zu reby=%zu inflight=%zu",
                  st, health.c_str(),
                  current ? current->prog.name().c_str() : "-", pc,
                  _tpi.size(), _tpx.size(), _tpo.size(), _sum.size(),
                  _ret.size(), _reby.size(), inflight.size());
}

} // namespace opac::cell
