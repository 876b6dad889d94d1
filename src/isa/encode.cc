#include "isa/encode.hh"

#include "common/error.hh"
#include "common/logging.hh"

namespace opac::isa
{

namespace
{

constexpr unsigned wordsPerInstr = 4;
constexpr std::uint8_t maxSrcKind = std::uint8_t(Src::One);

/**
 * Little bit-field writer/reader over one 32-bit word. Overflows
 * throw MicrocodeError rather than aborting: a malformed instruction
 * or image reaching pack/unpack is caller input, not a simulator
 * invariant, so it must surface as a catchable, named error.
 */
struct FieldWriter
{
    std::uint32_t word = 0;
    unsigned pos = 0;

    void
    put(std::uint32_t v, unsigned bits)
    {
        if (pos + bits > 32) {
            throw MicrocodeError(
                "microcode.pack",
                strfmt("field overflow: %u bits at position %u",
                       bits, pos));
        }
        if (v >= (1u << bits)) {
            throw MicrocodeError(
                "microcode.pack",
                strfmt("field value %u exceeds %u bits", v, bits));
        }
        word |= v << pos;
        pos += bits;
    }
};

struct FieldReader
{
    std::uint32_t word;
    unsigned pos = 0;

    std::uint32_t
    get(unsigned bits)
    {
        if (pos + bits > 32) {
            throw MicrocodeError(
                "microcode.unpack",
                strfmt("field overflow: %u bits at position %u",
                       bits, pos));
        }
        std::uint32_t v = (word >> pos) & ((1u << bits) - 1);
        pos += bits;
        return v;
    }
};

void
putOperand(FieldWriter &w, const Operand &op)
{
    w.put(std::uint8_t(op.kind), 4);
    w.put(op.idx, 5);
}

Operand
getOperand(FieldReader &r)
{
    Operand op;
    std::uint32_t kind = r.get(4);
    if (kind > maxSrcKind) {
        throw MicrocodeError("microcode",
                             strfmt("bad operand kind %u", kind));
    }
    op.kind = Src(kind);
    op.idx = std::uint8_t(r.get(5));
    return op;
}

} // anonymous namespace

std::vector<std::uint32_t>
encode(const Program &prog)
{
    std::vector<std::uint32_t> image;
    image.reserve(prog.size() * wordsPerInstr);
    for (const Instr &in : prog.instrs()) {
        FieldWriter w0, w1, w2;
        w0.put(std::uint8_t(in.op), 3);
        putOperand(w0, in.mulA);
        putOperand(w0, in.mulB);
        w0.put(std::uint8_t(in.addA.kind), 4);
        w0.put(std::uint8_t(in.addOp), 2);
        w0.put(in.countIsParam ? 1 : 0, 1);
        w0.put(std::uint8_t(in.fifo), 2);

        putOperand(w1, in.addB);
        w1.put(in.dstMask, 6);
        w1.put(in.dstReg, 5);
        putOperand(w1, in.mvSrc);

        w2.put(in.mvDstMask, 6);
        w2.put(in.mvDstReg, 5);
        w2.put(in.countParam, 4);
        w2.put(std::uint8_t(in.paramOp), 3);
        w2.put(in.dstParam, 4);
        w2.put(in.srcParam, 4);
        w2.put(in.addA.idx, 5);

        std::uint32_t w3 = 0;
        if (in.op == Opcode::LoopBegin)
            w3 = in.count;
        else if (in.op == Opcode::SetParam)
            w3 = std::uint32_t(in.imm);

        image.push_back(w0.word);
        image.push_back(w1.word);
        image.push_back(w2.word);
        image.push_back(w3);
    }
    return image;
}

Program
decode(const std::vector<std::uint32_t> &image, const std::string &name)
{
    if (image.size() % wordsPerInstr != 0) {
        throw MicrocodeError(name,
                             strfmt("truncated image: %zu words",
                                    image.size()));
    }
    Program prog(name);
    for (std::size_t i = 0; i < image.size(); i += wordsPerInstr) {
        FieldReader r0{image[i]};
        FieldReader r1{image[i + 1]};
        FieldReader r2{image[i + 2]};
        std::uint32_t w3 = image[i + 3];

        Instr in;
        std::uint32_t op = r0.get(3);
        if (op > std::uint8_t(Opcode::Halt))
            throw MicrocodeError(name, strfmt("bad opcode %u", op));
        in.op = Opcode(op);
        in.mulA = getOperand(r0);
        in.mulB = getOperand(r0);
        std::uint32_t add_a = r0.get(4);
        if (add_a > maxSrcKind) {
            throw MicrocodeError(name,
                                 strfmt("bad addA kind %u", add_a));
        }
        in.addA.kind = Src(add_a);
        std::uint32_t add_op = r0.get(2);
        if (add_op > std::uint8_t(AddOp::SubBA))
            throw MicrocodeError(name, strfmt("bad addOp %u", add_op));
        in.addOp = AddOp(add_op);
        in.countIsParam = r0.get(1) != 0;
        std::uint32_t fifo = r0.get(2);
        if (fifo > std::uint8_t(LocalFifo::Reby))
            throw MicrocodeError(name, strfmt("bad local fifo %u", fifo));
        in.fifo = LocalFifo(fifo);

        in.addB = getOperand(r1);
        in.dstMask = std::uint8_t(r1.get(6));
        in.dstReg = std::uint8_t(r1.get(5));
        in.mvSrc = getOperand(r1);

        in.mvDstMask = std::uint8_t(r2.get(6));
        in.mvDstReg = std::uint8_t(r2.get(5));
        in.countParam = std::uint8_t(r2.get(4));
        std::uint32_t param_op = r2.get(3);
        if (param_op > std::uint8_t(ParamOp::AddImm)) {
            throw MicrocodeError(name,
                                 strfmt("bad paramOp %u", param_op));
        }
        in.paramOp = ParamOp(param_op);
        in.dstParam = std::uint8_t(r2.get(4));
        in.srcParam = std::uint8_t(r2.get(4));
        in.addA.idx = std::uint8_t(r2.get(5));

        if (in.op == Opcode::LoopBegin)
            in.count = w3;
        else if (in.op == Opcode::SetParam)
            in.imm = std::int32_t(w3);

        prog.append(in);
    }
    prog.validate();
    return prog;
}

} // namespace opac::isa
