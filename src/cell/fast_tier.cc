/**
 * @file
 * Superop fast tier of the cell sequencer.
 *
 * The compute-bound phase of every OPAC kernel is an innermost hardware
 * loop whose body reads and writes only cell-local state: the sum, ret
 * and reby queues, the register file and regay (the matupdate /
 * convolution fma bodies of section 7). While the sequencer streams
 * such a body, per-cycle lock-step with the rest of the machine buys
 * nothing — the host cannot observe anything the body touches — so the
 * cell advertises a multi-cycle quantum to the engine (burstQuantum)
 * and, when no other component can reach into the cell before the
 * window ends (Component::intrudesAt), executes the window in one call
 * (burstRun) while the rest of the machine keeps ticking.
 *
 * The contract is byte-exactness: burstRun must leave every counter,
 * queue and register exactly as the same number of live tick() rounds
 * would have. Two executors share a window, tried in this order on
 * every cycle:
 *
 *  - turboRun, the one specialized executor, recognizes the canonical
 *    steady-state body of the compute-bound kernels — one chained
 *    `fma(<recirculating local queue>, <register/constant>, <popped
 *    local queue>, Dst<same queue>)`, matupdate's column update and
 *    the convolution passes — and, after verifying sufficient
 *    conditions for the rest of the window to be dense (full FP
 *    pipeline landing one result per cycle, both queues streamable,
 *    no stall possible), executes each cycle as two ring rotations
 *    plus the FP ops, settling the issue and queue-traffic counters
 *    and the watermark in bulk afterwards. Every cycle of the window
 *    is busy, so the cell's clock enters the busy state once; the
 *    queue levels hold still, so occupancy needs nothing. This is
 *    where the speedup comes from;
 *  - otherwise the cycle is the interpreter's own (tickAt, the body
 *    of tick()): no copy of the sequencer lives here. Such cycles fill
 *    the FP pipeline inside a window until turbo can take over, and
 *    carry the whole window where turbo refuses (protected queues).
 *
 * Eligibility ("compilation") is a one-time analysis per loop body,
 * cached in Cell::fastBodies and invalidated by loadMicrocode(); each
 * loop frame keeps the index of its body's analysis from its first
 * probe, so burstQuantum() searches nothing while the loop runs:
 *
 *  - every instruction in [bodyPc, endPc) is a Compute op (no nested
 *    LoopBegin, no SetParam / ResetFifo / Halt — the body is the
 *    innermost, straight-line steady state);
 *  - no operand pops tpx or tpy, and no destination (compute or move)
 *    targets tpo: the four interface queues are provably untouched, so
 *    nothing the window does is visible to the components that keep
 *    ticking across it;
 *  - controlOpsPerCycle >= 2, so the interpreter's zero-overhead wrap
 *    (LoopEnd consumed, then the body's first Compute reached) fits in
 *    one cycle's control budget and never costs a cycle of its own.
 */

#include "cell/cell.hh"

#include <algorithm>

#include "common/logging.hh"

namespace opac::cell
{

using isa::Opcode;
using isa::Src;

namespace
{

/** True when @p op pops an interface queue (burst-ineligible read). */
bool
readsInterface(const isa::Operand &op)
{
    return op.used() && (op.kind == Src::TpX || op.kind == Src::TpY);
}

/** Deepest FP pipeline turboRun() handles (mulLatency + addLatency). */
constexpr unsigned kMaxTurboDepth = 16;

/** The destination bit writing back into the queue @p pop reads. */
std::uint8_t
dstBitFor(Src pop)
{
    switch (pop) {
      case Src::Sum:
        return isa::DstSum;
      case Src::Ret:
        return isa::DstRet;
      case Src::Reby:
        return isa::DstReby;
      default:
        return 0;
    }
}

/** True for the register/constant operand kinds readOperand() serves
 *  without queue traffic (stable across a window with no register
 *  writes in flight). */
bool
isScalarOperand(Src s)
{
    return s == Src::RegAy || s == Src::Reg || s == Src::Zero
           || s == Src::One;
}

} // namespace

std::uint32_t
Cell::fastBodyFor(std::size_t body_pc)
{
    for (std::size_t i = 0; i < fastBodies.size(); ++i) {
        if (fastBodies[i].kernel == current
            && fastBodies[i].bodyPc == body_pc)
            return std::uint32_t(i);
    }

    FastBody b{current, body_pc, body_pc, false};
    bool eligible = cfg.controlOpsPerCycle >= 2;
    std::size_t scan = body_pc;
    for (;; ++scan) {
        opac_assert(scan < current->prog.size(),
                    "unterminated loop body in '%s'",
                    current->prog.name().c_str());
        const isa::Instr &in = current->prog.at(scan);
        if (in.op == Opcode::LoopEnd)
            break;
        if (in.op != Opcode::Compute) {
            // Nested loop or sequencer op: not a straight-line
            // steady-state body.
            eligible = false;
            break;
        }
        if (readsInterface(in.mulA) || readsInterface(in.mulB)
            || readsInterface(in.addA) || readsInterface(in.addB)
            || readsInterface(in.mvSrc)
            || ((in.dstMask | in.mvDstMask) & isa::DstTpO)) {
            eligible = false;
            break;
        }
    }
    b.endPc = scan;
    b.eligible = eligible;

    // Specialize the canonical single-instruction chained-fma body.
    // Anything here is a pure strengthening: a body that fails these
    // checks still bursts, one interpreted cycle at a time.
    if (eligible && scan == body_pc + 1
        && cfg.mulLatency + cfg.addLatency >= 1
        && cfg.mulLatency + cfg.addLatency <= kMaxTurboDepth) {
        const isa::Instr &in = current->prog.at(body_pc);
        const isa::DecodedInstr &d = current->prog.decodedAt(body_pc);
        if (d.mulActive && d.addActive && d.addAFromMul && !d.mvActive
            && d.numNeeds == 0 && !d.wawAy && d.numWawRegs == 0
            && isa::isRecirc(in.mulA.kind) && isScalarOperand(in.mulB.kind)
            && dstBitFor(in.addB.kind) != 0
            && in.dstMask == dstBitFor(in.addB.kind)
            && in.mvDstMask == 0
            && queueFor(in.mulA.kind) != queueFor(in.addB.kind)) {
            b.turbo = true;
            b.turboRotQ = queueFor(in.mulA.kind);
            b.turboPopQ = queueFor(in.addB.kind);
            b.turboDstMask = in.dstMask;
            b.turboMulB = in.mulB;
            b.turboAddOp = in.addOp;
        }
    }

    if (eligible)
        ++statFtCompiled;
    else
        ++statFtIneligible;
    fastBodies.push_back(b);
    return std::uint32_t(fastBodies.size() - 1);
}

std::uint64_t
Cell::turboRun(Cycle from, Cycle cycles, sim::Engine &engine)
{
    const FastBody *b = burstBody;

    // Sufficient conditions for a dense, stall-free window. With the
    // body a single instruction, every cycle of the per-cycle path
    // from this state is: drain the one writeback landing this cycle
    // (when == now, pushReserved into the pop queue), wrap (LoopEnd +
    // re-entry inside the control budget), recirculate the mul
    // operand, pop the addend, issue (reserve + one new in-flight
    // entry landing mulLatency + addLatency cycles out). The checks
    // pin exactly that shape; anything else falls back.
    if (pc != b->endPc && pc != b->bodyPc)
        return 0;
    const unsigned depth = cfg.mulLatency + cfg.addLatency;
    if (inflight.size() != depth || wbReadyAt > from)
        return 0;
    for (unsigned i = 0; i < depth; ++i) {
        if (inflight[i].when != from + Cycle(i)
            || inflight[i].dstMask != b->turboDstMask)
            return 0;
    }
    TimedFifo *const popq = b->turboPopQ;
    TimedFifo *const rotq = b->turboRotQ;
    if (!popq->streamable(from) || !rotq->streamable(from)
        || popq->space() == 0)
        return 0;

    const std::uint64_t w = cycles;
    clock.enter(&statBusy, nullptr, from);
    // No register write is in flight (every entry's dstMask is the
    // queue bit), so the scalar operand is constant over the window.
    const Word bval = readOperand(b->turboMulB, from, 0);
    const bool token = fpu->valueFree();

    Word vals[kMaxTurboDepth];
    for (unsigned i = 0; i < depth; ++i)
        vals[i] = inflight[i].value;

    unsigned vi = 0;
    for (std::uint64_t k = 0; k < w; ++k) {
        const Cycle now = from + Cycle(k);
        const Word s = popq->streamExchange(vals[vi], now);
        const Word a = rotq->streamRotate(now);
        vals[vi] = token
                       ? 0
                       : fpu->add(fpu->mul(a, bval), s, b->turboAddOp);
        if (++vi == depth)
            vi = 0;
    }

    // Settle everything the per-cycle path would have left behind.
    popq->streamCommit(w, true);
    rotq->streamCommit(w, false);
    if (token)
        fpu->countBulk(w);
    for (unsigned j = 0; j < depth; ++j) {
        inflight[j].when = from + Cycle(w) + Cycle(j);
        inflight[j].value = vals[(vi + j) % depth];
    }
    wbReadyAt = from + Cycle(w);
    const std::uint64_t wraps = w - (pc == b->bodyPc ? 1 : 0);
    LoopFrame &f = loopStack.back();
    f.remaining -= std::uint32_t(wraps);
    pc = b->endPc;
    statFma += w;
    statIssued += w;
    statFtTurboCycles += w;
    engine.noteProgress();
    return w;
}

Cycle
Cell::burstQuantum(Cycle now)
{
    // Not in a streamable state: silent (no fallback counter) — this
    // is the ordinary non-steady-state case, not a refused burst.
    if (_dead || _faulted || now < hangUntil
        || state != SeqState::Run || loopStack.empty())
        return 0;
    if (tracer) {
        // Observers need the per-cycle event edges of the interpreter.
        ++statFtFallbackObserver;
        return 0;
    }
    // The body's analysis is looked up once per loop entry, and a
    // refused body is counted once per entry, not once per probe.
    LoopFrame &f = loopStack.back();
    if (f.fastBody == noFastBody) {
        f.fastBody = fastBodyFor(f.bodyPc);
        if (!fastBodies[f.fastBody].eligible)
            ++statFtFallbackBody;
    }
    const FastBody *b = &fastBodies[f.fastBody];
    if (!b->eligible)
        return 0;
    if (pc < b->bodyPc || pc > b->endPc)
        return 0;
    // A result in flight toward tpo would mutate an interface queue
    // mid-window, and a word still falling through tpo would become
    // visible to the host inside it: wait for both on the per-cycle
    // path.
    if (!_tpo.fallenThrough(now)
        || std::any_of(inflight.begin(), inflight.end(),
                       [](const InFlight &w) {
                           return w.dstMask & isa::DstTpO;
                       })) {
        ++statFtFallbackInflight;
        return 0;
    }

    // The quantum is the number of issues left in the loop region:
    // the tail of the current iteration plus `remaining` full bodies.
    // Any window w <= quantum keeps pc inside [bodyPc, endPc] with
    // every wrap taken on remaining > 0 — loop exit, and whatever
    // follows it, happens outside the window.
    const std::size_t len = b->endPc - b->bodyPc;
    burstBody = b;
    return Cycle(b->endPc - pc) + Cycle(f.remaining) * Cycle(len);
}

void
Cell::burstRun(Cycle from, Cycle cycles, sim::Engine &engine,
               std::uint64_t *progress_bits)
{
    const FastBody *b = burstBody;
    opac_assert(b && b->kernel == current,
                "%s: burstRun without a validated body", name().c_str());
    ++statFtBursts;
    statFtBurstCycles += cycles;
    // The quantum keeps every wrap inside the window on remaining > 0,
    // so the innermost frame survives the window.
    const std::uint64_t issued0 = statIssued.value();
    const std::uint32_t remaining0 = loopStack.back().remaining;

    for (Cycle k = 0; k < cycles;) {
        // Specialized executor first: it consumes the whole remaining
        // window when the steady state is dense, which it stays for —
        // nothing inside the window can perturb it. It needs
        // unprotected queues, so it never meets a cell frozen by a
        // mid-window protection fault.
        if (b->turbo) {
            const Cycle t = Cycle(turboRun(from + k, cycles - k, engine));
            if (t != 0) {
                // Every turbo cycle progressed: fill its span of the
                // window's progress bitmap.
                for (Cycle c = k; c < k + t;) {
                    if ((c & 63) == 0 && c + 64 <= k + t) {
                        progress_bits[c >> 6] = ~std::uint64_t(0);
                        c += 64;
                    } else {
                        progress_bits[c >> 6] |=
                            std::uint64_t(1) << (c & 63);
                        ++c;
                    }
                }
                k += t;
                continue;
            }
        }

        // The interpreter's own cycle, frozen branch included. An
        // eligible body is straight-line Compute ops and its wrap fits
        // one cycle's control budget, so the only progress a live tick
        // can report here is an issue or a landed writeback.
        const std::uint64_t issued = statIssued.value();
        const std::size_t pending = inflight.size();
        tickAt(from + k, engine);
        if (statIssued.value() != issued || inflight.size() < pending)
            progress_bits[k >> 6] |= std::uint64_t(1) << (k & 63);
        ++k;
    }
    statFtBurstIssued += statIssued.value() - issued0;
    statFtBurstIters += remaining0 - loopStack.back().remaining;
    burstBody = nullptr;
    // turboRun moves pc without the interpreter's issue path.
    blocker = {};
}

} // namespace opac::cell
