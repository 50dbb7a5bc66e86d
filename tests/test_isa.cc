/**
 * @file
 * Unit and property tests for the µRISC ISA: encode/decode round
 * trips, classification predicates, and operand semantics.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "isa/instruction.h"

namespace tcsim::isa
{
namespace
{

std::vector<Opcode>
allOpcodes()
{
    std::vector<Opcode> ops;
    for (unsigned o = 0; o < static_cast<unsigned>(Opcode::NumOpcodes);
         ++o) {
        ops.push_back(static_cast<Opcode>(o));
    }
    return ops;
}

/** Build a canonical, encodable instruction for @p op. */
Instruction
sampleInst(Opcode op, Rng &rng)
{
    Instruction inst;
    inst.op = op;
    const auto reg = [&] {
        return static_cast<RegIndex>(rng.below(kNumArchRegs));
    };
    if (isCondBranch(op)) {
        inst.rs1 = reg();
        inst.rs2 = reg();
        inst.imm = static_cast<std::int32_t>(rng.range(-32768, 32767));
    } else if (op == Opcode::J || op == Opcode::Call) {
        inst.imm = static_cast<std::int32_t>(
            rng.range(-(1 << 25), (1 << 25) - 1));
        if (op == Opcode::Call)
            inst.rd = kRegRa;
    } else if (op == Opcode::Jr) {
        inst.rs1 = reg();
    } else if (op == Opcode::Ret) {
        inst.rs1 = kRegRa;
    } else if (op == Opcode::Ld) {
        inst.rd = reg();
        inst.rs1 = reg();
        inst.imm = static_cast<std::int32_t>(rng.range(-32768, 32767));
    } else if (op == Opcode::St) {
        inst.rs1 = reg();
        inst.rs2 = reg();
        inst.imm = static_cast<std::int32_t>(rng.range(-32768, 32767));
    } else if (op == Opcode::Trap || op == Opcode::Halt ||
               op == Opcode::Nop) {
        // no operands
    } else if (instClass(op) == InstClass::IntAlu ||
               instClass(op) == InstClass::IntMult ||
               instClass(op) == InstClass::IntDiv) {
        inst.rd = reg();
        inst.rs1 = reg();
        const bool is_imm = op >= Opcode::Addi && op <= Opcode::Lui;
        const bool logical = op == Opcode::Andi || op == Opcode::Ori ||
                             op == Opcode::Xori || op == Opcode::Lui;
        if (logical)
            inst.imm = static_cast<std::int32_t>(rng.range(0, 65535));
        else if (is_imm)
            inst.imm = static_cast<std::int32_t>(rng.range(-32768, 32767));
        else
            inst.rs2 = reg();
        if (op == Opcode::Lui)
            inst.rs1 = 0;
    }
    return inst;
}

class OpcodeRoundTrip : public ::testing::TestWithParam<Opcode>
{
};

TEST_P(OpcodeRoundTrip, EncodeDecodeIsIdentity)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 1);
    for (int i = 0; i < 64; ++i) {
        const Instruction inst = sampleInst(GetParam(), rng);
        const Instruction round = decode(encode(inst));
        EXPECT_EQ(round, inst)
            << "opcode " << opcodeName(GetParam()) << " iteration " << i;
    }
}

TEST_P(OpcodeRoundTrip, DisassemblesNonEmpty)
{
    Rng rng(7);
    const Instruction inst = sampleInst(GetParam(), rng);
    EXPECT_FALSE(disassemble(inst, 0x1000).empty());
    EXPECT_NE(disassemble(inst, 0x1000).find(opcodeName(GetParam())),
              std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeRoundTrip,
    ::testing::ValuesIn(allOpcodes()),
    [](const ::testing::TestParamInfo<Opcode> &param_info) {
        std::string name = opcodeName(param_info.param);
        return name;
    });

TEST(IsaClassify, ControlPredicatesArePartition)
{
    for (const Opcode op : allOpcodes()) {
        const int classes = isCondBranch(op) + isUncondDirect(op) +
                            isReturn(op) + isIndirectJump(op) +
                            isSerializing(op);
        EXPECT_LE(classes, 1) << opcodeName(op);
        EXPECT_EQ(isControl(op), classes == 1) << opcodeName(op);
    }
}

TEST(IsaClassify, BranchRange)
{
    EXPECT_TRUE(isCondBranch(Opcode::Beq));
    EXPECT_TRUE(isCondBranch(Opcode::Bgeu));
    EXPECT_FALSE(isCondBranch(Opcode::J));
    EXPECT_FALSE(isCondBranch(Opcode::Addi));
}

TEST(IsaClassify, MemoryPredicates)
{
    EXPECT_TRUE(isLoad(Opcode::Ld));
    EXPECT_TRUE(isStore(Opcode::St));
    EXPECT_TRUE(isMem(Opcode::Ld));
    EXPECT_TRUE(isMem(Opcode::St));
    EXPECT_FALSE(isMem(Opcode::Add));
}

TEST(IsaClassify, InstClassLatencyBuckets)
{
    EXPECT_EQ(instClass(Opcode::Mul), InstClass::IntMult);
    EXPECT_EQ(instClass(Opcode::Div), InstClass::IntDiv);
    EXPECT_EQ(instClass(Opcode::Ld), InstClass::Load);
    EXPECT_EQ(instClass(Opcode::St), InstClass::Store);
    EXPECT_EQ(instClass(Opcode::Beq), InstClass::Control);
    EXPECT_EQ(instClass(Opcode::Trap), InstClass::Serialize);
    EXPECT_EQ(instClass(Opcode::Add), InstClass::IntAlu);
    EXPECT_EQ(instClass(Opcode::Nop), InstClass::IntAlu);
}

TEST(IsaOperands, WritesReg)
{
    Instruction add{Opcode::Add, 5, 1, 2, 0};
    EXPECT_TRUE(writesReg(add));
    add.rd = kRegZero;
    EXPECT_FALSE(writesReg(add)); // r0 writes are discarded

    Instruction store{Opcode::St, 0, 1, 2, 8};
    EXPECT_FALSE(writesReg(store));

    Instruction call{Opcode::Call, kRegRa, 0, 0, 10};
    EXPECT_TRUE(writesReg(call));

    Instruction jump{Opcode::J, 0, 0, 0, 10};
    EXPECT_FALSE(writesReg(jump));
}

TEST(IsaOperands, ReadsSources)
{
    Instruction add{Opcode::Add, 5, 1, 2, 0};
    EXPECT_TRUE(readsRs1(add));
    EXPECT_TRUE(readsRs2(add));

    Instruction addi{Opcode::Addi, 5, 1, 0, 4};
    EXPECT_TRUE(readsRs1(addi));
    EXPECT_FALSE(readsRs2(addi));

    Instruction lui{Opcode::Lui, 5, 0, 0, 4};
    EXPECT_FALSE(readsRs1(lui));

    Instruction store{Opcode::St, 0, 1, 2, 8};
    EXPECT_TRUE(readsRs1(store));
    EXPECT_TRUE(readsRs2(store));

    Instruction ret{Opcode::Ret, 0, kRegRa, 0, 0};
    EXPECT_TRUE(readsRs1(ret));
}

/** Encoding format families, as the file comment of instruction.h
 * lays them out. */
enum class Format { R, I, B, J, JR, None };

Format
formatOf(Opcode op)
{
    if (op >= Opcode::Add && op <= Opcode::Sltu)
        return Format::R;
    if (op >= Opcode::Addi && op <= Opcode::St)
        return Format::I;
    if (isCondBranch(op))
        return Format::B;
    if (isUncondDirect(op))
        return Format::J;
    if (op == Opcode::Jr || op == Opcode::Ret)
        return Format::JR;
    return Format::None;
}

TEST(IsaOperands, TablePredicatesMatchFormatRules)
{
    // The per-opcode table behind writesReg/readsRs1/readsRs2/
    // instClass must agree with the operand rules of each encoding
    // format, for every opcode, with and without an r0 destination.
    for (const Opcode op : allOpcodes()) {
        SCOPED_TRACE(opcodeName(op));
        const Format f = formatOf(op);
        for (const RegIndex rd : {RegIndex{0}, RegIndex{7}}) {
            const Instruction inst{op, rd, 3, 4, 0};
            const bool writes =
                f == Format::R || (f == Format::I && op != Opcode::St) ||
                (f == Format::J && op == Opcode::Call);
            EXPECT_EQ(writesReg(inst), rd != kRegZero && writes);
            EXPECT_EQ(readsRs1(inst),
                      f == Format::R || f == Format::B ||
                          f == Format::JR ||
                          (f == Format::I && op != Opcode::Lui));
            EXPECT_EQ(readsRs2(inst),
                      f == Format::R || f == Format::B ||
                          (f == Format::I && op == Opcode::St));
        }
        InstClass cls = isControl(op) ? InstClass::Control
                                      : InstClass::IntAlu;
        if (op == Opcode::Mul)
            cls = InstClass::IntMult;
        else if (op == Opcode::Div)
            cls = InstClass::IntDiv;
        else if (isLoad(op))
            cls = InstClass::Load;
        else if (isStore(op))
            cls = InstClass::Store;
        else if (isSerializing(op))
            cls = InstClass::Serialize;
        EXPECT_EQ(instClass(op), cls);
    }
}

TEST(IsaOperands, DirectTargetArithmetic)
{
    Instruction branch{Opcode::Beq, 0, 1, 2, 4};
    EXPECT_EQ(directTarget(branch, 0x1000), 0x1010u);
    branch.imm = -4;
    EXPECT_EQ(directTarget(branch, 0x1000), 0xff0u);
    Instruction jump{Opcode::J, 0, 0, 0, 1 << 20};
    EXPECT_EQ(directTarget(jump, 0x1000), 0x1000u + (1u << 22));
}

TEST(IsaOperands, RetDecodesToRaSource)
{
    Instruction ret;
    ret.op = Opcode::Ret;
    ret.rs1 = kRegRa;
    const Instruction round = decode(encode(ret));
    EXPECT_EQ(round.rs1, kRegRa);
}

} // namespace
} // namespace tcsim::isa
