/**
 * @file
 * Tests for the micro-ISA: builder, validation rules, disassembler and
 * the binary control-store encoding.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "isa/encode.hh"

using namespace opac;
using namespace opac::isa;

namespace
{

/** The fig. 5 matrix-update kernel, used as a representative program. */
Program
matUpdateProgram()
{
    // p0 = K, p1 = M, p2 = N
    ProgramBuilder b("matupdate");
    b.loopParam(1, [&] { b.mov(Src::TpX, DstSum); }); // load A column 1
    b.loopParam(0, [&] {
        b.loopParam(1, [&] { b.mov(Src::TpX, DstReby); });
        b.loopParam(2, [&] {
            b.mov(Src::TpX, DstRegAy);
            b.loopParam(1, [&] {
                b.fma(Src::RebyR, Src::RegAy, Src::Sum, DstSum);
            });
        });
        b.resetFifo(LocalFifo::Reby);
    });
    b.loopParam(1, [&] { b.mov(Src::Sum, DstTpO); });
    return b.finish();
}

} // anonymous namespace

TEST(Builder, EmitsValidProgram)
{
    Program p = matUpdateProgram();
    EXPECT_EQ(p.name(), "matupdate");
    EXPECT_GT(p.size(), 10u);
    EXPECT_NO_THROW(p.validate());
    EXPECT_EQ(p.at(p.size() - 1).op, Opcode::Halt);
}

TEST(Builder, ParamOpsEmitCorrectInstrs)
{
    ProgramBuilder b("params");
    b.setParamImm(3, 42);
    b.copyParam(4, 3);
    b.incParam(4);
    b.decParam(4);
    b.mul2Param(4);
    b.div2Param(4);
    b.addParamImm(4, -7);
    Program p = b.finish();
    ASSERT_EQ(p.size(), 8u);
    EXPECT_EQ(p.at(0).paramOp, ParamOp::LoadImm);
    EXPECT_EQ(p.at(0).imm, 42);
    EXPECT_EQ(p.at(1).paramOp, ParamOp::Copy);
    EXPECT_EQ(p.at(1).srcParam, 3);
    EXPECT_EQ(p.at(6).paramOp, ParamOp::AddImm);
    EXPECT_EQ(p.at(6).imm, -7);
}

TEST(Builder, WithMoveAttachesParallelMove)
{
    ProgramBuilder b("par");
    b.fma(Src::RebyR, Src::RegAy, Src::Sum, DstSum)
        .withMove(src(Src::TpX), DstRet);
    Program p = b.finish();
    const Instr &in = p.at(0);
    EXPECT_TRUE(in.fpActive());
    EXPECT_TRUE(in.mvActive());
    EXPECT_EQ(in.mvSrc.kind, Src::TpX);
    EXPECT_EQ(in.mvDstMask, DstRet);
}

TEST(Validate, RejectsDoublePopSameQueue)
{
    ProgramBuilder b("bad");
    // Both multiplier inputs pop tpx: two reads of a single-ported queue.
    b.mul(Src::TpX, Src::TpX, DstSum);
    EXPECT_THROW(b.finish(), std::runtime_error);
}

TEST(Validate, RejectsDoublePushSameQueue)
{
    ProgramBuilder b("bad");
    // Recirculating sum while also writing the FP result to sum.
    b.fma(Src::SumR, Src::RegAy, Src::Reby, DstSum);
    EXPECT_THROW(b.finish(), std::runtime_error);
}

TEST(Validate, RejectsMulOutMisuse)
{
    Program p("bad");
    Instr in;
    in.op = Opcode::Compute;
    in.mulA = src(Src::MulOut);
    in.mulB = src(Src::TpX);
    in.dstMask = DstSum;
    p.append(in);
    Instr halt;
    halt.op = Opcode::Halt;
    p.append(halt);
    EXPECT_THROW(p.validate(), std::runtime_error);
}

TEST(Validate, RejectsMulOutWithIdleMultiplier)
{
    Program p("bad");
    Instr in;
    in.op = Opcode::Compute;
    in.addA = src(Src::MulOut);
    in.addB = src(Src::Sum);
    in.dstMask = DstTpO;
    p.append(in);
    Instr halt;
    halt.op = Opcode::Halt;
    p.append(halt);
    EXPECT_THROW(p.validate(), std::runtime_error);
}

TEST(Validate, RejectsDroppedResults)
{
    {
        ProgramBuilder b("bad");
        b.mul(Src::TpX, Src::TpY, 0); // nowhere to go
        EXPECT_THROW(b.finish(), std::runtime_error);
    }
    {
        ProgramBuilder b("bad2");
        b.add(Src::TpX, Src::TpY, 0);
        EXPECT_THROW(b.finish(), std::runtime_error);
    }
}

TEST(Validate, RejectsUnmatchedLoops)
{
    Program p("bad");
    Instr begin;
    begin.op = Opcode::LoopBegin;
    begin.count = 3;
    p.append(begin);
    Instr halt;
    halt.op = Opcode::Halt;
    p.append(halt);
    EXPECT_THROW(p.validate(), std::runtime_error);
}

TEST(Validate, RejectsLoopEndWithoutBegin)
{
    Program p("bad");
    Instr end;
    end.op = Opcode::LoopEnd;
    p.append(end);
    Instr halt;
    halt.op = Opcode::Halt;
    p.append(halt);
    EXPECT_THROW(p.validate(), std::runtime_error);
}

TEST(Validate, RejectsExcessiveNesting)
{
    ProgramBuilder b("deep");
    std::function<void(unsigned)> nest = [&](unsigned d) {
        if (d == 0) {
            b.mov(Src::TpX, DstTpO);
            return;
        }
        b.loopImm(2, [&] { nest(d - 1); });
    };
    nest(maxLoopDepth + 1);
    EXPECT_THROW(b.finish(), std::runtime_error);
}

TEST(Validate, RejectsMissingHalt)
{
    Program p("bad");
    Instr in;
    in.op = Opcode::Compute;
    in.mvSrc = src(Src::TpX);
    in.mvDstMask = DstTpO;
    p.append(in);
    EXPECT_THROW(p.validate(), std::runtime_error);
}

TEST(Validate, RejectsInstructionAfterHalt)
{
    Program p("bad");
    Instr halt;
    halt.op = Opcode::Halt;
    p.append(halt);
    Instr in;
    in.op = Opcode::Compute;
    in.mvSrc = src(Src::TpX);
    in.mvDstMask = DstTpO;
    p.append(in);
    EXPECT_THROW(p.validate(), std::runtime_error);
}

TEST(Validate, RejectsBadRegisterIndex)
{
    ProgramBuilder b("bad");
    b.mov(reg(numRegs), DstTpO);
    EXPECT_THROW(b.finish(), std::runtime_error);
}

TEST(Validate, AcceptsRecirculationFanout)
{
    // One pop with repush plus an FP write to a *different* queue.
    ProgramBuilder b("ok");
    b.fma(Src::RebyR, Src::RegAy, Src::Sum, DstSum);
    EXPECT_NO_THROW(b.finish());
}

TEST(Disasm, RendersRepresentativeOps)
{
    ProgramBuilder b("demo");
    b.fma(Src::RebyR, Src::RegAy, Src::Sum, DstSum);
    b.mul(Src::TpX, Src::RegAy, DstRet);
    b.add(Src::Sum, Src::Ret, DstTpO, AddOp::SubAB);
    b.mov(Src::TpX, DstRegAy);
    Program p = b.finish();

    EXPECT_EQ(disasm(p.at(0)), "fma reby* regay + sum -> sum");
    EXPECT_EQ(disasm(p.at(1)), "mul tpx regay -> ret");
    EXPECT_EQ(disasm(p.at(2)), "add sum - ret -> tpo");
    EXPECT_EQ(disasm(p.at(3)), "mov tpx -> regay");
    EXPECT_EQ(disasm(p.at(4)), "halt");
}

TEST(Disasm, ProgramIndentsLoops)
{
    ProgramBuilder b("loops");
    b.loopImm(4, [&] {
        b.loopParam(2, [&] { b.mov(Src::TpX, DstTpO); });
    });
    std::string text = disasm(b.finish());
    EXPECT_NE(text.find("loop 4 {"), std::string::npos);
    EXPECT_NE(text.find("loop p2 {"), std::string::npos);
    EXPECT_NE(text.find("mov tpx -> tpo"), std::string::npos);
}

TEST(Encode, RoundTripsRepresentativeProgram)
{
    Program p = matUpdateProgram();
    auto image = encode(p);
    EXPECT_EQ(image.size(), p.size() * 4);
    Program q = decode(image, "matupdate");
    ASSERT_EQ(q.size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
        EXPECT_EQ(disasm(p.at(i)), disasm(q.at(i))) << "instr " << i;
    }
}

TEST(Encode, RoundTripsAllFieldKinds)
{
    ProgramBuilder b("all");
    b.setParamImm(5, -123456);
    b.loopImm(1000000, [&] {
        b.fma(reg(17), src(Src::RegAy), src(Src::TpY), DstReg, AddOp::SubBA,
              31);
    });
    b.loopParam(7, [&] {
        b.add(Src::Sum, Src::Ret, DstTpO, AddOp::SubAB);
        b.decParam(7);
    });
    b.resetFifo(LocalFifo::Ret);
    Program p = b.finish();

    Program q = decode(encode(p), "all");
    ASSERT_EQ(q.size(), p.size());
    EXPECT_EQ(q.at(0).imm, -123456);
    EXPECT_EQ(q.at(1).count, 1000000u);
    EXPECT_EQ(q.at(2).mulA.idx, 17);
    EXPECT_EQ(q.at(2).dstReg, 31);
    EXPECT_EQ(q.at(2).addOp, AddOp::SubBA);
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_EQ(disasm(p.at(i)), disasm(q.at(i))) << "instr " << i;
}

TEST(Builder, WithMoveOnMoveIsRejected)
{
    ProgramBuilder b("bad");
    b.mov(Src::TpX, DstSum);
    EXPECT_THROW(b.withMove(src(Src::TpY), DstRet),
                 opac::MicrocodeError);
}

TEST(Builder, WithMoveCreatingPortConflictFailsValidation)
{
    // fma recirculates reby while the parallel move also writes reby:
    // two pushes on one write port.
    ProgramBuilder b("bad");
    b.fma(Src::RebyR, Src::RegAy, Src::Sum, DstSum)
        .withMove(src(Src::TpX), DstReby);
    EXPECT_THROW(b.finish(), std::runtime_error);
}

TEST(OperandNames, CoverEveryKind)
{
    for (int k = 0; k <= int(Src::One); ++k)
        EXPECT_FALSE(srcName(Src(k)).empty());
    EXPECT_EQ(operandName(reg(7)), "r7");
    EXPECT_EQ(dstMaskName(0, 0), "none");
    EXPECT_EQ(dstMaskName(DstSum | DstTpO, 0), "sum,tpo");
    EXPECT_EQ(dstMaskName(DstReg, 11), "r11");
    EXPECT_EQ(localFifoName(LocalFifo::Reby), "reby");
}

TEST(Encode, FifoFieldRoundTrips)
{
    ProgramBuilder b("resets");
    b.mov(Src::TpX, DstSum);
    b.resetFifo(LocalFifo::Sum);
    b.resetFifo(LocalFifo::Ret);
    b.resetFifo(LocalFifo::Reby);
    Program p = b.finish();
    Program q = decode(encode(p), "resets");
    EXPECT_EQ(q.at(1).fifo, LocalFifo::Sum);
    EXPECT_EQ(q.at(2).fifo, LocalFifo::Ret);
    EXPECT_EQ(q.at(3).fifo, LocalFifo::Reby);
}

TEST(Encode, ParallelMoveRoundTrips)
{
    ProgramBuilder b("pm");
    b.fma(Src::Reby, Src::RegAy, Src::Sum, DstSum)
        .withMove(src(Src::TpX), DstReby);
    Program p = b.finish();
    Program q = decode(encode(p), "pm");
    EXPECT_TRUE(q.at(0).mvActive());
    EXPECT_EQ(q.at(0).mvSrc.kind, Src::TpX);
    EXPECT_EQ(q.at(0).mvDstMask, DstReby);
}

TEST(Encode, RejectsTruncatedImage)
{
    Program p = matUpdateProgram();
    auto image = encode(p);
    image.pop_back();
    EXPECT_THROW(decode(image, "trunc"), std::runtime_error);
}

/**
 * Fuzz: random *valid* programs (generated through the builder from a
 * safe op menu) must round-trip bit-exactly through encode/decode.
 */
TEST(EncodeFuzz, RandomValidProgramsRoundTrip)
{
    Rng rng(0xf022);
    const Src pop_srcs[] = {Src::TpX, Src::TpY, Src::Sum, Src::SumR,
                            Src::Ret, Src::RetR, Src::Reby, Src::RebyR};
    for (int trial = 0; trial < 300; ++trial) {
        ProgramBuilder b(strfmt("fuzz%d", trial));
        int depth = 0;
        int len = int(rng.range(1, 40));
        for (int i = 0; i < len; ++i) {
            switch (rng.range(0, 7)) {
              case 0:
                b.mov(pop_srcs[rng.range(0, 7)],
                      DstTpO); // pop -> out, always valid
                break;
              case 1:
                b.fma(src(Src::RebyR),
                      reg(std::uint8_t(rng.range(0, 31))),
                      src(Src::Sum), DstSum,
                      rng.range(0, 1) ? AddOp::Add : AddOp::SubBA);
                break;
              case 2:
                b.mul(src(Src::TpX), src(Src::RegAy),
                      std::uint8_t(DstReg),
                      std::uint8_t(rng.range(0, 31)));
                break;
              case 3:
                b.setParamImm(std::uint8_t(rng.range(0, 15)),
                              std::int32_t(rng.next()));
                break;
              case 4:
                b.resetFifo(LocalFifo(rng.range(0, 2)));
                break;
              case 5:
                if (depth < int(maxLoopDepth) - 1) {
                    ++depth;
                    b.loopImm(std::uint32_t(rng.range(0, 100000)), [&] {
                        b.mov(Src::TpX, DstTpO);
                    });
                    --depth;
                } else {
                    b.decParam(std::uint8_t(rng.range(0, 15)));
                }
                break;
              case 6:
                // A register first operand: its index must survive
                // the round trip (FFT's butterflies add r2 + r6).
                b.add(reg(std::uint8_t(rng.range(0, 31))), src(Src::TpY),
                      DstRet, AddOp(rng.range(0, 2)));
                break;
              default:
                b.add(src(Src::Sum), src(Src::TpY), DstRet,
                      AddOp(rng.range(0, 2)));
                break;
            }
        }
        Program p = b.finish();
        Program q = decode(encode(p), p.name());
        ASSERT_EQ(p.size(), q.size());
        for (std::size_t i = 0; i < p.size(); ++i) {
            EXPECT_EQ(disasm(p.at(i)), disasm(q.at(i)))
                << "trial " << trial << " instr " << i;
        }
        // And the re-encoding is bit-identical.
        EXPECT_EQ(encode(p), encode(q)) << "trial " << trial;
        if (HasFailure())
            break;
    }
}

TEST(Encode, RejectsBadOpcode)
{
    std::vector<std::uint32_t> image = {0x7u, 0, 0, 0}; // opcode 7
    EXPECT_THROW(decode(image, "bad"), std::runtime_error);
}
