#include "isa/program.hh"

#include <array>

#include "common/error.hh"
#include "common/logging.hh"

namespace opac::isa
{

namespace
{


/**
 * Structured validation failure: site "<program>[<pc>]", no abort —
 * callers (firmware install, the fuzzer) catch and report it.
 */
template <typename... Args>
[[noreturn]] void
vfail(const std::string &prog, std::size_t pc, const char *fmt,
      Args... args)
{
    throw ValidationError(strfmt("%s[%zu]", prog.c_str(), pc),
                          strfmt(fmt, args...));
}

/** Queue identifiers used for port-conflict accounting. */
enum QueueId : unsigned
{
    QTpX, QTpY, QSum, QRet, QReby, QTpO, QCount
};

struct PortUse
{
    std::array<int, QCount> pops{};
    std::array<int, QCount> pushes{};
};

void
notePops(const Operand &op, PortUse &use)
{
    switch (op.kind) {
      case Src::TpX:
        ++use.pops[QTpX];
        break;
      case Src::TpY:
        ++use.pops[QTpY];
        break;
      case Src::Sum:
        ++use.pops[QSum];
        break;
      case Src::SumR:
        ++use.pops[QSum];
        ++use.pushes[QSum];
        break;
      case Src::Ret:
        ++use.pops[QRet];
        break;
      case Src::RetR:
        ++use.pops[QRet];
        ++use.pushes[QRet];
        break;
      case Src::Reby:
        ++use.pops[QReby];
        break;
      case Src::RebyR:
        ++use.pops[QReby];
        ++use.pushes[QReby];
        break;
      default:
        break;
    }
}

void
noteDstPushes(std::uint8_t mask, PortUse &use)
{
    if (mask & DstSum)
        ++use.pushes[QSum];
    if (mask & DstRet)
        ++use.pushes[QRet];
    if (mask & DstReby)
        ++use.pushes[QReby];
    if (mask & DstTpO)
        ++use.pushes[QTpO];
}

const char *queueNames[QCount] = {"tpx", "tpy", "sum", "ret", "reby",
                                  "tpo"};

void
checkOperandIdx(const Operand &op, const char *what, std::size_t pc,
                const std::string &prog)
{
    if (op.kind == Src::Reg && op.idx >= numRegs)
        vfail(prog, pc, "%s register index %u out of range", what,
              op.idx);
    if (op.kind == Src::MulOut && std::string(what) != "addA")
        vfail(prog, pc, "MulOut only valid as adder input A");
}

void
validateCompute(const Instr &in, std::size_t pc, const std::string &prog)
{
    bool mul_active = in.mulA.used() || in.mulB.used();
    bool add_active = in.addA.used() || in.addB.used();
    bool mv_active = in.mvActive();

    if (!mul_active && !add_active && !mv_active)
        vfail(prog, pc, "empty compute instruction");

    if (mul_active && (!in.mulA.used() || !in.mulB.used()))
        vfail(prog, pc, "multiplier needs both operands");
    if (add_active && (!in.addA.used() || !in.addB.used()))
        vfail(prog, pc, "adder needs both operands");
    if (in.mulA.kind == Src::MulOut || in.mulB.kind == Src::MulOut
        || in.addB.kind == Src::MulOut || in.mvSrc.kind == Src::MulOut)
        vfail(prog, pc, "MulOut only valid as adder input A");
    if (in.addA.kind == Src::MulOut && !mul_active)
        vfail(prog, pc, "MulOut used with idle multiplier");
    if (mul_active && !add_active && in.dstMask == 0)
        vfail(prog, pc,
              "multiplier result dropped (no adder, no destination)");
    if ((in.dstMask & DstReg) && in.dstReg >= numRegs)
        vfail(prog, pc, "destination register %u out of range",
              in.dstReg);
    if ((in.mvDstMask & DstReg) && in.mvDstReg >= numRegs)
        vfail(prog, pc, "move destination register %u out of range",
              in.mvDstReg);
    if (add_active && in.dstMask == 0)
        vfail(prog, pc, "adder result dropped (no destination)");
    if (mv_active && in.mvDstMask == 0)
        vfail(prog, pc, "move with no destination");
    if (!in.fpActive() && in.dstMask != 0)
        vfail(prog, pc, "FP destinations with idle FP section");

    checkOperandIdx(in.mulA, "mulA", pc, prog);
    checkOperandIdx(in.mulB, "mulB", pc, prog);
    checkOperandIdx(in.addA, "addA", pc, prog);
    checkOperandIdx(in.addB, "addB", pc, prog);
    checkOperandIdx(in.mvSrc, "mvSrc", pc, prog);

    // Dual-port rule: at most one pop and one push per queue per cycle.
    PortUse use;
    notePops(in.mulA, use);
    notePops(in.mulB, use);
    if (in.addA.kind != Src::MulOut)
        notePops(in.addA, use);
    notePops(in.addB, use);
    notePops(in.mvSrc, use);
    noteDstPushes(in.dstMask, use);
    noteDstPushes(in.mvDstMask, use);

    for (unsigned q = 0; q < QCount; ++q) {
        if (use.pops[q] > 1) {
            vfail(prog, pc,
                  "%d pops from queue %s in one cycle (single read "
                  "port)", use.pops[q], queueNames[q]);
        }
        if (use.pushes[q] > 1) {
            vfail(prog, pc,
                  "%d pushes to queue %s in one cycle (single write "
                  "port)", use.pushes[q], queueNames[q]);
        }
    }
}

} // anonymous namespace

void
Program::validate() const
{
    if (_instrs.empty())
        throw ValidationError(_name, "empty program");

    unsigned depth = 0;
    bool halted = false;
    for (std::size_t pc = 0; pc < _instrs.size(); ++pc) {
        const Instr &in = _instrs[pc];
        if (halted)
            vfail(_name, pc, "instruction after Halt");
        switch (in.op) {
          case Opcode::Compute:
            validateCompute(in, pc, _name);
            break;
          case Opcode::LoopBegin:
            ++depth;
            if (depth > maxLoopDepth)
                vfail(_name, pc, "loop nesting exceeds %u", maxLoopDepth);
            if (in.countIsParam && in.countParam >= numParams) {
                vfail(_name, pc, "loop count parameter %u out of range",
                      in.countParam);
            }
            break;
          case Opcode::LoopEnd:
            if (depth == 0)
                vfail(_name, pc, "LoopEnd without LoopBegin");
            --depth;
            break;
          case Opcode::SetParam:
            if (in.dstParam >= numParams || in.srcParam >= numParams)
                vfail(_name, pc, "parameter index out of range");
            break;
          case Opcode::ResetFifo:
            break;
          case Opcode::Halt:
            halted = true;
            break;
        }
    }
    if (depth != 0) {
        throw ValidationError(_name,
                              strfmt("%u unclosed loop(s)", depth));
    }
    if (!halted)
        throw ValidationError(_name, "missing Halt");
}

namespace
{

/** The queue an operand kind pops, or numCellQueues for none. */
unsigned
cellQueueOf(Src s)
{
    switch (s) {
      case Src::TpX:
        return unsigned(CellQueue::TpX);
      case Src::TpY:
        return unsigned(CellQueue::TpY);
      case Src::Sum:
      case Src::SumR:
        return unsigned(CellQueue::Sum);
      case Src::Ret:
      case Src::RetR:
        return unsigned(CellQueue::Ret);
      case Src::Reby:
      case Src::RebyR:
        return unsigned(CellQueue::Reby);
      default:
        return numCellQueues;
    }
}

DecodedInstr
decodeCompute(const Instr &in)
{
    DecodedInstr d;
    d.mulActive = in.mulA.used();
    d.addActive = in.addA.used();
    d.mvActive = in.mvSrc.used();
    d.addAFromMul = in.addA.kind == Src::MulOut;

    // Read checks in operand order, so the first failing check (and
    // with it the reported stall cause) matches the un-decoded scan.
    // MulOut and constant operands need no check at all.
    const Operand *reads[] = {&in.mulA, &in.mulB, &in.addA, &in.addB,
                              &in.mvSrc};
    int need[numCellQueues] = {0, 0, 0, 0, 0, 0};
    for (const Operand *op : reads) {
        if (op->kind == Src::MulOut)
            continue;
        DecodedRead r;
        if (unsigned q = cellQueueOf(op->kind); q < numCellQueues) {
            r.kind = DecodedRead::Kind::Queue;
            r.queue = std::uint8_t(q);
            --need[q];               // the pop frees a slot at issue
            if (isRecirc(op->kind))
                ++need[q];           // ... which the repush reclaims
        } else if (op->kind == Src::RegAy) {
            r.kind = DecodedRead::Kind::RegAy;
        } else if (op->kind == Src::Reg) {
            r.kind = DecodedRead::Kind::Reg;
            r.reg = op->idx;
        } else {
            continue; // None / Zero / One: nothing to check
        }
        d.reads[d.numReads++] = r;
    }

    // WAW interlock targets.
    if ((in.dstMask | in.mvDstMask) & DstRegAy)
        d.wawAy = true;
    if (in.dstMask & DstReg)
        d.wawRegs[d.numWawRegs++] = in.dstReg;
    if (in.mvDstMask & DstReg)
        d.wawRegs[d.numWawRegs++] = in.mvDstReg;

    // Net space requirement per queue: pushes minus pops.
    auto notePush = [&](std::uint8_t mask) {
        if (mask & DstSum)
            ++need[unsigned(CellQueue::Sum)];
        if (mask & DstRet)
            ++need[unsigned(CellQueue::Ret)];
        if (mask & DstReby)
            ++need[unsigned(CellQueue::Reby)];
        if (mask & DstTpO)
            ++need[unsigned(CellQueue::TpO)];
    };
    notePush(in.dstMask);
    notePush(in.mvDstMask);
    for (unsigned q = 0; q < numCellQueues; ++q) {
        if (need[q] > 0) {
            d.needs[d.numNeeds++] =
                DecodedInstr::Need{std::uint8_t(q),
                                   std::uint8_t(need[q])};
        }
    }
    return d;
}

} // anonymous namespace

void
Program::decode()
{
    if (decoded())
        return;
    _decoded.clear();
    _decoded.reserve(_instrs.size());
    for (const Instr &in : _instrs) {
        _decoded.push_back(in.op == Opcode::Compute ? decodeCompute(in)
                                                    : DecodedInstr{});
    }
}

} // namespace opac::isa
