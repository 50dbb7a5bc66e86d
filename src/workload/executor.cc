#include "workload/executor.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/log.h"

namespace tcsim::workload
{

using isa::Instruction;
using isa::Opcode;

void
SparseMemory::initFrom(const Program &program)
{
    pages_.clear();
    pages_.reserve(program.dataPages().size());
    for (const DataPage &page : program.dataPages())
        pages_[page.index].bytes = &page.bytes;
}

void
SparseMemory::own(Slot &slot)
{
    slot.owned = slot.bytes ? std::make_unique<PageBytes>(*slot.bytes)
                            : std::make_unique<PageBytes>();
    slot.bytes = slot.owned.get();
}

std::vector<Addr>
SparseMemory::pageIndices() const
{
    std::vector<Addr> indices;
    indices.reserve(pages_.size());
    for (const auto &[index, page] : pages_)
        indices.push_back(index);
    std::sort(indices.begin(), indices.end());
    return indices;
}

void
SparseMemory::copyFrom(const SparseMemory &other)
{
    pages_.clear();
    pages_.reserve(other.pages_.size());
    for (const auto &[index, other_slot] : other.pages_) {
        Slot &slot = pages_[index];
        if (other_slot.owned) {
            slot.owned = std::make_unique<PageBytes>(*other_slot.owned);
            slot.bytes = slot.owned.get();
        } else {
            slot.bytes = other_slot.bytes;
        }
    }
}

FunctionalExecutor::FunctionalExecutor(const Program &program)
    : program_(program), pc_(program.entry())
{
    memory_.initFrom(program);
    setReg(2, kStackTop); // conventional stack pointer
}

void
FunctionalExecutor::computeResult(const Instruction &inst, Addr pc,
                                  RegVal src1, RegVal src2,
                                  std::uint64_t mem_value, RegVal &result,
                                  Addr &next_pc, bool &taken)
{
    const auto s1 = static_cast<std::int64_t>(src1);
    const auto s2 = static_cast<std::int64_t>(src2);
    result = 0;
    taken = false;
    next_pc = pc + isa::kInstBytes;

    switch (inst.op) {
      case Opcode::Add: result = src1 + src2; break;
      case Opcode::Sub: result = src1 - src2; break;
      case Opcode::Mul: result = src1 * src2; break;
      case Opcode::Div:
        result = src2 == 0 ? ~std::uint64_t{0}
                           : static_cast<std::uint64_t>(
                                 s2 == -1 ? -s1 : s1 / s2);
        break;
      case Opcode::And: result = src1 & src2; break;
      case Opcode::Or: result = src1 | src2; break;
      case Opcode::Xor: result = src1 ^ src2; break;
      case Opcode::Sll: result = src1 << (src2 & 63); break;
      case Opcode::Srl: result = src1 >> (src2 & 63); break;
      case Opcode::Sra: result = static_cast<std::uint64_t>(
                            s1 >> (src2 & 63));
        break;
      case Opcode::Slt: result = s1 < s2 ? 1 : 0; break;
      case Opcode::Sltu: result = src1 < src2 ? 1 : 0; break;

      case Opcode::Addi:
        result = src1 + static_cast<std::int64_t>(inst.imm);
        break;
      case Opcode::Andi:
        result = src1 & static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(inst.imm) & 0xffff);
        break;
      case Opcode::Ori:
        result = src1 | static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(inst.imm) & 0xffff);
        break;
      case Opcode::Xori:
        result = src1 ^ static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(inst.imm) & 0xffff);
        break;
      case Opcode::Slli: result = src1 << (inst.imm & 63); break;
      case Opcode::Srli: result = src1 >> (inst.imm & 63); break;
      case Opcode::Slti:
        result = s1 < static_cast<std::int64_t>(inst.imm) ? 1 : 0;
        break;
      case Opcode::Lui:
        result = static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(inst.imm) & 0xffff)
                 << 16;
        break;

      case Opcode::Ld: result = mem_value; break;
      case Opcode::St: break;

      case Opcode::Beq: taken = src1 == src2; break;
      case Opcode::Bne: taken = src1 != src2; break;
      case Opcode::Blt: taken = s1 < s2; break;
      case Opcode::Bge: taken = s1 >= s2; break;
      case Opcode::Bltu: taken = src1 < src2; break;
      case Opcode::Bgeu: taken = src1 >= src2; break;

      case Opcode::J:
        next_pc = isa::directTarget(inst, pc);
        break;
      case Opcode::Call:
        result = pc + isa::kInstBytes; // link value
        next_pc = isa::directTarget(inst, pc);
        break;
      case Opcode::Jr:
      case Opcode::Ret:
        next_pc = src1 & ~Addr{isa::kInstBytes - 1};
        break;

      case Opcode::Trap:
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        next_pc = pc; // machine stops advancing
        break;
      default:
        panic("computeResult: bad opcode");
    }

    if (isa::isCondBranch(inst.op) && taken)
        next_pc = isa::directTarget(inst, pc);
}

StepResult
FunctionalExecutor::step()
{
    StepResult step_result;
    step_result.pc = pc_;
    step_result.halted = halted_;
    if (halted_) {
        step_result.nextPc = pc_;
        return step_result;
    }

    const Instruction &inst = program_.fetch(pc_);
    step_result.inst = inst;

    const RegVal src1 = isa::readsRs1(inst) ? regs_[inst.rs1] : 0;
    const RegVal src2 = isa::readsRs2(inst) ? regs_[inst.rs2] : 0;

    std::uint64_t mem_value = 0;
    if (isa::isMem(inst.op)) {
        step_result.memAddr = effectiveAddr(inst, src1);
        if (isa::isLoad(inst.op))
            mem_value = memory_.load(step_result.memAddr);
    }

    RegVal result = 0;
    Addr next_pc = 0;
    bool taken = false;
    computeResult(inst, pc_, src1, src2, mem_value, result, next_pc,
                  taken);

    if (isa::isStore(inst.op))
        memory_.store(step_result.memAddr, src2);
    if (isa::writesReg(inst))
        setReg(inst.rd, result);
    step_result.result = result;

    step_result.taken = taken;
    step_result.nextPc = next_pc;
    if (inst.op == Opcode::Halt) {
        halted_ = true;
        step_result.halted = true;
    }

    pc_ = next_pc;
    ++instCount_;
    return step_result;
}

} // namespace tcsim::workload
