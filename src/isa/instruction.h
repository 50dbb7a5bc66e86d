/**
 * @file
 * The µRISC instruction set.
 *
 * µRISC is a small, fixed-width (32-bit) load/store ISA in the MIPS
 * mold, rich enough to express the control-flow structures the trace
 * cache cares about: conditional branches, unconditional jumps, calls,
 * returns, indirect jumps, and serializing traps.
 *
 * Encoding formats (bit 31 is the MSB):
 *   R-type:  [31:26] op  [25:21] rd   [20:16] rs1  [15:11] rs2  [10:0] 0
 *   I-type:  [31:26] op  [25:21] rd   [20:16] rs1  [15:0]  imm16 (signed)
 *   B-type:  [31:26] op  [25:21] rs1  [20:16] rs2  [15:0]  imm16 (signed,
 *            in instruction-word units, PC-relative to the branch)
 *   J-type:  [31:26] op  [25:0]  imm26 (signed, instruction-word units)
 *   JR/RET:  [31:26] op  [20:16] rs1
 *
 * Register conventions: r0 is hardwired zero, r1 is the link register
 * (ra), r2 is the stack pointer by convention.
 */

#ifndef TCSIM_ISA_INSTRUCTION_H
#define TCSIM_ISA_INSTRUCTION_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "common/log.h"
#include "common/types.h"

namespace tcsim::isa
{

/** Number of architectural integer registers. */
constexpr unsigned kNumArchRegs = 32;

/** The hardwired-zero register. */
constexpr RegIndex kRegZero = 0;

/** The link register written by CALL and read by RET. */
constexpr RegIndex kRegRa = 1;

/** Size of one instruction in bytes. */
constexpr unsigned kInstBytes = 4;

/** All µRISC opcodes. */
enum class Opcode : std::uint8_t
{
    // R-type ALU.
    Add, Sub, Mul, Div, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu,
    // I-type ALU.
    Addi, Andi, Ori, Xori, Slli, Srli, Slti, Lui,
    // Memory: Ld rd, imm(rs1); St rs2, imm(rs1).
    Ld, St,
    // B-type conditional branches: B?? rs1, rs2, imm.
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    // J-type: J imm; Call imm (writes ra).
    J, Call,
    // Indirect: Jr rs1; Ret (Jr ra).
    Jr, Ret,
    // System.
    Trap, Halt, Nop,

    NumOpcodes
};

/** Coarse classification used for functional-unit latencies. */
enum class InstClass : std::uint8_t
{
    IntAlu,
    IntMult,
    IntDiv,
    Load,
    Store,
    Control,
    Serialize,
};

/** A decoded µRISC instruction. */
struct Instruction
{
    Opcode op = Opcode::Nop;
    RegIndex rd = 0;
    RegIndex rs1 = 0;
    RegIndex rs2 = 0;
    /**
     * Immediate. For branches and jumps this is the signed displacement
     * in instruction words relative to the instruction's own PC.
     */
    std::int32_t imm = 0;

    bool operator==(const Instruction &other) const = default;
};

/** @return the machine-word encoding of @p inst. */
std::uint32_t encode(const Instruction &inst);

/** @return the decoded form of machine word @p word. */
Instruction decode(std::uint32_t word);

/** @return the mnemonic for @p op. */
const char *opcodeName(Opcode op);

/** @return a human-readable disassembly of @p inst at address @p pc. */
std::string disassemble(const Instruction &inst, Addr pc = 0);

/** @return true for conditional branches (Beq..Bgeu). */
constexpr bool
isCondBranch(Opcode op)
{
    return op >= Opcode::Beq && op <= Opcode::Bgeu;
}

/** @return true for direct unconditional control (J, Call). */
constexpr bool
isUncondDirect(Opcode op)
{
    return op == Opcode::J || op == Opcode::Call;
}

/** @return true for subroutine calls. */
constexpr bool
isCall(Opcode op)
{
    return op == Opcode::Call;
}

/** @return true for subroutine returns. */
constexpr bool
isReturn(Opcode op)
{
    return op == Opcode::Ret;
}

/** @return true for indirect jumps that are not returns. */
constexpr bool
isIndirectJump(Opcode op)
{
    return op == Opcode::Jr;
}

/** @return true for serializing instructions. */
constexpr bool
isSerializing(Opcode op)
{
    return op == Opcode::Trap || op == Opcode::Halt;
}

/** @return true for any control-flow instruction. */
constexpr bool
isControl(Opcode op)
{
    return isCondBranch(op) || isUncondDirect(op) || isReturn(op) ||
           isIndirectJump(op) || isSerializing(op);
}

/** @return true for loads. */
constexpr bool
isLoad(Opcode op)
{
    return op == Opcode::Ld;
}

/** @return true for stores. */
constexpr bool
isStore(Opcode op)
{
    return op == Opcode::St;
}

/** @return true for any memory operation. */
constexpr bool
isMem(Opcode op)
{
    return isLoad(op) || isStore(op);
}

namespace detail
{

/** Per-opcode decode facts, indexed by Opcode. */
struct OpInfo
{
    InstClass cls;
    bool writesRd; ///< writes rd (unless rd is r0)
    bool readsRs1;
    bool readsRs2;
};

// Rows follow the Opcode order: class, writes rd, reads rs1, reads rs2.
constexpr OpInfo kOpInfo[] = {
    {InstClass::IntAlu, true, true, true},              // Add
    {InstClass::IntAlu, true, true, true},              // Sub
    {InstClass::IntMult, true, true, true},             // Mul
    {InstClass::IntDiv, true, true, true},              // Div
    {InstClass::IntAlu, true, true, true},              // And
    {InstClass::IntAlu, true, true, true},              // Or
    {InstClass::IntAlu, true, true, true},              // Xor
    {InstClass::IntAlu, true, true, true},              // Sll
    {InstClass::IntAlu, true, true, true},              // Srl
    {InstClass::IntAlu, true, true, true},              // Sra
    {InstClass::IntAlu, true, true, true},              // Slt
    {InstClass::IntAlu, true, true, true},              // Sltu
    {InstClass::IntAlu, true, true, false},             // Addi
    {InstClass::IntAlu, true, true, false},             // Andi
    {InstClass::IntAlu, true, true, false},             // Ori
    {InstClass::IntAlu, true, true, false},             // Xori
    {InstClass::IntAlu, true, true, false},             // Slli
    {InstClass::IntAlu, true, true, false},             // Srli
    {InstClass::IntAlu, true, true, false},             // Slti
    {InstClass::IntAlu, true, false, false},            // Lui
    {InstClass::Load, true, true, false},               // Ld
    {InstClass::Store, false, true, true},              // St
    {InstClass::Control, false, true, true},            // Beq
    {InstClass::Control, false, true, true},            // Bne
    {InstClass::Control, false, true, true},            // Blt
    {InstClass::Control, false, true, true},            // Bge
    {InstClass::Control, false, true, true},            // Bltu
    {InstClass::Control, false, true, true},            // Bgeu
    {InstClass::Control, false, false, false},          // J
    {InstClass::Control, true, false, false},           // Call
    {InstClass::Control, false, true, false},           // Jr
    {InstClass::Control, false, true, false},           // Ret
    {InstClass::Serialize, false, false, false},        // Trap
    {InstClass::Serialize, false, false, false},        // Halt
    {InstClass::IntAlu, false, false, false},           // Nop
};
static_assert(std::size(kOpInfo) ==
                  static_cast<std::size_t>(Opcode::NumOpcodes),
              "one kOpInfo row per opcode");

constexpr const OpInfo &
opInfo(Opcode op)
{
    return kOpInfo[static_cast<std::size_t>(op)];
}

} // namespace detail

/** @return the latency/issue classification of @p op. */
constexpr InstClass
instClass(Opcode op)
{
    return detail::opInfo(op).cls;
}

/** @return true if the instruction writes its destination register. */
constexpr bool
writesReg(const Instruction &inst)
{
    return inst.rd != kRegZero && detail::opInfo(inst.op).writesRd;
}

/** @return true if the instruction reads rs1. */
constexpr bool
readsRs1(const Instruction &inst)
{
    return detail::opInfo(inst.op).readsRs1;
}

/** @return true if the instruction reads rs2. */
constexpr bool
readsRs2(const Instruction &inst)
{
    return detail::opInfo(inst.op).readsRs2;
}

/**
 * @return the target address of a direct control instruction (branch,
 * J, Call) located at @p pc. Must not be called for indirect control.
 */
inline Addr
directTarget(const Instruction &inst, Addr pc)
{
    TCSIM_ASSERT(isCondBranch(inst.op) || isUncondDirect(inst.op),
                 "directTarget on non-direct-control instruction");
    return pc + static_cast<std::int64_t>(inst.imm) * kInstBytes;
}

} // namespace tcsim::isa

#endif // TCSIM_ISA_INSTRUCTION_H
