/**
 * @file
 * Binary microcode image format.
 *
 * The paper emphasizes that implicit FIFO addressing keeps the microcode
 * word narrow ("for each FIFO queue, only the READ and WRITE information
 * has to be coded"). This module packs each microinstruction into a
 * fixed four-word (32-bit) control-store format -- the image a host
 * program downloads into a cell's microcode store -- and unpacks it back.
 * encode/decode round-trips exactly and decode rejects malformed words.
 *
 *   word 0: opcode(3) | mulA(4+5) | mulB(4+5) | addA kind(4) |
 *           addOp(2) | countIsParam(1) | fifo(2)
 *   word 1: addB(4+5) | dstMask(6) | dstReg(5) | mvSrc(4+5)
 *   word 2: mvDstMask(6) | mvDstReg(5) | countParam(4) | paramOp(3) |
 *           dstParam(4) | srcParam(4) | addA index(5)
 *   word 3: loop count (LoopBegin) or immediate (SetParam), else 0
 *
 * Word 0 is full, so addA's register index lives in word 2's spare
 * bits; images written before it moved there carry zeros in those
 * bits and decode exactly as they always did.
 */

#ifndef OPAC_ISA_ENCODE_HH
#define OPAC_ISA_ENCODE_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"

namespace opac::isa
{

/** Pack a program into its control-store image. */
std::vector<std::uint32_t> encode(const Program &prog);

/**
 * Unpack a control-store image. @p name is attached to the resulting
 * program. Throws (fatal) on truncated or malformed images.
 */
Program decode(const std::vector<std::uint32_t> &image,
               const std::string &name);

} // namespace opac::isa

#endif // OPAC_ISA_ENCODE_HH
