#include "isa/instruction.h"

#include <array>
#include <sstream>

#include "common/bitutils.h"
#include "common/log.h"

namespace tcsim::isa
{

namespace
{

/** Encoding format families. */
enum class Format { R, I, B, J, JR, None };

Format
formatOf(Opcode op)
{
    switch (op) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::Div: case Opcode::And: case Opcode::Or:
      case Opcode::Xor: case Opcode::Sll: case Opcode::Srl:
      case Opcode::Sra: case Opcode::Slt: case Opcode::Sltu:
        return Format::R;
      case Opcode::Addi: case Opcode::Andi: case Opcode::Ori:
      case Opcode::Xori: case Opcode::Slli: case Opcode::Srli:
      case Opcode::Slti: case Opcode::Lui:
      case Opcode::Ld: case Opcode::St:
        return Format::I;
      case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
      case Opcode::Bge: case Opcode::Bltu: case Opcode::Bgeu:
        return Format::B;
      case Opcode::J: case Opcode::Call:
        return Format::J;
      case Opcode::Jr: case Opcode::Ret:
        return Format::JR;
      case Opcode::Trap: case Opcode::Halt: case Opcode::Nop:
        return Format::None;
      default:
        panic("formatOf: bad opcode %u", static_cast<unsigned>(op));
    }
}

constexpr std::array<const char *,
                     static_cast<std::size_t>(Opcode::NumOpcodes)>
    kOpcodeNames = {
        "add", "sub", "mul", "div", "and", "or", "xor", "sll", "srl",
        "sra", "slt", "sltu",
        "addi", "andi", "ori", "xori", "slli", "srli", "slti", "lui",
        "ld", "st",
        "beq", "bne", "blt", "bge", "bltu", "bgeu",
        "j", "call",
        "jr", "ret",
        "trap", "halt", "nop",
    };

} // namespace

std::uint32_t
encode(const Instruction &inst)
{
    const auto op = static_cast<std::uint32_t>(inst.op);
    TCSIM_ASSERT(op < static_cast<std::uint32_t>(Opcode::NumOpcodes));
    std::uint32_t word = op << 26;
    switch (formatOf(inst.op)) {
      case Format::R:
        word |= std::uint32_t{inst.rd} << 21;
        word |= std::uint32_t{inst.rs1} << 16;
        word |= std::uint32_t{inst.rs2} << 11;
        break;
      case Format::I: {
        // Logical immediates are zero-extended 16-bit values; the
        // arithmetic ones are sign-extended.
        const bool logical = inst.op == Opcode::Andi ||
                             inst.op == Opcode::Ori ||
                             inst.op == Opcode::Xori ||
                             inst.op == Opcode::Lui;
        if (logical) {
            TCSIM_ASSERT(inst.imm >= 0 && inst.imm <= 65535,
                         "logical immediate out of range");
        } else {
            TCSIM_ASSERT(inst.imm >= -32768 && inst.imm <= 32767,
                         "I-type immediate out of range");
        }
        // Stores carry their data register where other I-types carry rd.
        const RegIndex top = inst.op == Opcode::St ? inst.rs2 : inst.rd;
        word |= std::uint32_t{top} << 21;
        word |= std::uint32_t{inst.rs1} << 16;
        word |= static_cast<std::uint16_t>(inst.imm);
        break;
      }
      case Format::B:
        TCSIM_ASSERT(inst.imm >= -32768 && inst.imm <= 32767,
                     "branch displacement out of range");
        word |= std::uint32_t{inst.rs1} << 21;
        word |= std::uint32_t{inst.rs2} << 16;
        word |= static_cast<std::uint16_t>(inst.imm);
        break;
      case Format::J:
        TCSIM_ASSERT(inst.imm >= -(1 << 25) && inst.imm < (1 << 25),
                     "jump displacement out of range");
        word |= static_cast<std::uint32_t>(inst.imm) & mask(26);
        break;
      case Format::JR:
        word |= std::uint32_t{inst.rs1} << 16;
        break;
      case Format::None:
        break;
    }
    return word;
}

Instruction
decode(std::uint32_t word)
{
    Instruction inst;
    const std::uint32_t op_field = word >> 26;
    TCSIM_ASSERT(op_field < static_cast<std::uint32_t>(Opcode::NumOpcodes),
                 "undecodable opcode field");
    inst.op = static_cast<Opcode>(op_field);
    switch (formatOf(inst.op)) {
      case Format::R:
        inst.rd = static_cast<RegIndex>(bits(word, 25, 21));
        inst.rs1 = static_cast<RegIndex>(bits(word, 20, 16));
        inst.rs2 = static_cast<RegIndex>(bits(word, 15, 11));
        break;
      case Format::I:
        if (inst.op == Opcode::St)
            inst.rs2 = static_cast<RegIndex>(bits(word, 25, 21));
        else
            inst.rd = static_cast<RegIndex>(bits(word, 25, 21));
        inst.rs1 = static_cast<RegIndex>(bits(word, 20, 16));
        if (inst.op == Opcode::Andi || inst.op == Opcode::Ori ||
            inst.op == Opcode::Xori || inst.op == Opcode::Lui) {
            inst.imm = static_cast<std::int32_t>(bits(word, 15, 0));
        } else {
            inst.imm = static_cast<std::int32_t>(
                signExtend(bits(word, 15, 0), 16));
        }
        break;
      case Format::B:
        inst.rs1 = static_cast<RegIndex>(bits(word, 25, 21));
        inst.rs2 = static_cast<RegIndex>(bits(word, 20, 16));
        inst.imm = static_cast<std::int32_t>(
            signExtend(bits(word, 15, 0), 16));
        break;
      case Format::J:
        inst.imm = static_cast<std::int32_t>(
            signExtend(bits(word, 25, 0), 26));
        if (inst.op == Opcode::Call)
            inst.rd = kRegRa; // implicit link register
        break;
      case Format::JR:
        inst.rs1 = static_cast<RegIndex>(bits(word, 20, 16));
        if (inst.op == Opcode::Ret)
            inst.rs1 = kRegRa;
        break;
      case Format::None:
        break;
    }
    return inst;
}

const char *
opcodeName(Opcode op)
{
    const auto idx = static_cast<std::size_t>(op);
    TCSIM_ASSERT(idx < kOpcodeNames.size());
    return kOpcodeNames[idx];
}

std::string
disassemble(const Instruction &inst, Addr pc)
{
    std::ostringstream os;
    os << opcodeName(inst.op);
    switch (formatOf(inst.op)) {
      case Format::R:
        os << " r" << unsigned{inst.rd} << ", r" << unsigned{inst.rs1}
           << ", r" << unsigned{inst.rs2};
        break;
      case Format::I:
        if (inst.op == Opcode::Ld) {
            os << " r" << unsigned{inst.rd} << ", " << inst.imm << "(r"
               << unsigned{inst.rs1} << ")";
        } else if (inst.op == Opcode::St) {
            os << " r" << unsigned{inst.rs2} << ", " << inst.imm << "(r"
               << unsigned{inst.rs1} << ")";
        } else if (inst.op == Opcode::Lui) {
            os << " r" << unsigned{inst.rd} << ", " << inst.imm;
        } else {
            os << " r" << unsigned{inst.rd} << ", r" << unsigned{inst.rs1}
               << ", " << inst.imm;
        }
        break;
      case Format::B:
        os << " r" << unsigned{inst.rs1} << ", r" << unsigned{inst.rs2}
           << ", 0x" << std::hex << directTarget(inst, pc);
        break;
      case Format::J:
        os << " 0x" << std::hex << directTarget(inst, pc);
        break;
      case Format::JR:
        os << " r" << unsigned{inst.rs1};
        break;
      case Format::None:
        break;
    }
    return os.str();
}

} // namespace tcsim::isa
