/**
 * @file
 * Operand, destination and micro-operation encodings of the OPAC
 * micro-ISA.
 *
 * The cell's computation block (paper fig. 4) exposes these storage
 * elements to the microcode:
 *
 *  - interface FIFO queues tpx, tpy (in) and tpo (out),
 *  - local FIFO queues sum (adder-output -> adder-input), ret
 *    (adder-output -> multiplier-input) and reby (reusable multiply
 *    operands),
 *  - the scalar register regay (typically a loop-invariant multiplier
 *    operand) and a small multiport register file.
 *
 * Reading a FIFO operand pops it; the *recirculating* variants pop and
 * immediately repush the same word at the tail, which is how OPAC reuses
 * a vector stored in a queue with stride one.
 */

#ifndef OPAC_ISA_OPERAND_HH
#define OPAC_ISA_OPERAND_HH

#include <cstdint>
#include <string>

namespace opac::isa
{

/** Where a datapath operand comes from. */
enum class Src : std::uint8_t
{
    None,   //!< operand unused
    TpX,    //!< pop interface queue tpx
    TpY,    //!< pop interface queue tpy
    Sum,    //!< pop local queue sum
    SumR,   //!< pop local queue sum and repush (recirculate)
    Ret,    //!< pop local queue ret
    RetR,   //!< pop local queue ret and repush
    Reby,   //!< pop local queue reby
    RebyR,  //!< pop local queue reby and repush
    RegAy,  //!< read register regay (not consumed)
    Reg,    //!< read multiport register file entry [idx]
    MulOut, //!< the multiplier output (adder input A only)
    Zero,   //!< constant +0.0
    One,    //!< constant +1.0
};

/** True for the recirculating read kinds (pop + repush at the tail). */
inline bool
isRecirc(Src s)
{
    return s == Src::SumR || s == Src::RetR || s == Src::RebyR;
}

/** A source with its register index (used only when kind == Src::Reg). */
struct Operand
{
    Src kind = Src::None;
    std::uint8_t idx = 0;

    bool used() const { return kind != Src::None; }
};

/** Adder function: the second operand may be subtracted either way. */
enum class AddOp : std::uint8_t
{
    Add,   //!< a + b
    SubAB, //!< a - b
    SubBA, //!< b - a
};

/** Destination bit-mask values for a produced result. */
enum Dst : std::uint8_t
{
    DstSum   = 1 << 0,
    DstRet   = 1 << 1,
    DstReby  = 1 << 2,
    DstTpO   = 1 << 3,
    DstRegAy = 1 << 4,
    DstReg   = 1 << 5, //!< register file entry [dst_reg]
};

/** Parameter-ALU operations — the paper's "very limited manipulations". */
enum class ParamOp : std::uint8_t
{
    LoadImm, //!< P[dst] = imm
    Copy,    //!< P[dst] = P[src]
    Inc,     //!< P[dst] += 1
    Dec,     //!< P[dst] -= 1 (triangular solves)
    Mul2,    //!< P[dst] *= 2 (FFTs)
    Div2,    //!< P[dst] /= 2 (FFTs)
    AddImm,  //!< P[dst] += imm
};

/** The local FIFO queues that a ResetFifo micro-op can clear. */
enum class LocalFifo : std::uint8_t
{
    Sum,
    Ret,
    Reby,
};

/** Human-readable names (for the disassembler and error messages). */
std::string srcName(Src s);
std::string operandName(const Operand &op);
std::string addOpName(AddOp op);
std::string dstMaskName(std::uint8_t mask, std::uint8_t dst_reg);
std::string paramOpName(ParamOp op);
std::string localFifoName(LocalFifo f);

} // namespace opac::isa

#endif // OPAC_ISA_OPERAND_HH
