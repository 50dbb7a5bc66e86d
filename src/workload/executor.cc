#include "workload/executor.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/log.h"

namespace tcsim::workload
{

using isa::Instruction;
using isa::Opcode;

void
SparseMemory::resetTable(std::size_t slots)
{
    TCSIM_ASSERT(std::has_single_bit(slots) && slots >= kMinSlots);
    slots_.clear();
    slots_.resize(slots);
    hashShift_ = static_cast<unsigned>(64 - std::countr_zero(slots));
}

void
SparseMemory::initFrom(const Program &program)
{
    // Room for the program's pages (distinct, ascending) plus the stack
    // page every run writes before the table first grows.
    const std::size_t pages = program.dataPages().size();
    resetTable(std::bit_ceil(std::max(kMinSlots, 2 * (pages + 1))));
    for (const DataPage &page : program.dataPages()) {
        Slot &slot = slots_[probe(page.index)];
        slot.index = page.index;
        slot.bytes = &page.bytes;
    }
    numPages_ = pages;
}

PageBytes &
SparseMemory::own(std::size_t pos, Addr index)
{
    if (slots_[pos].index == kNoPage) {
        if (2 * (numPages_ + 1) > slots_.size()) {
            std::vector<Slot> old = std::move(slots_);
            resetTable(2 * old.size());
            for (Slot &slot : old) {
                if (slot.index != kNoPage)
                    slots_[probe(slot.index)] = std::move(slot);
            }
            pos = probe(index);
        }
        slots_[pos].index = index;
        ++numPages_;
    }
    Slot &slot = slots_[pos];
    slot.owned = slot.bytes ? std::make_unique<PageBytes>(*slot.bytes)
                            : std::make_unique<PageBytes>();
    slot.bytes = slot.owned.get();
    return *slot.owned;
}

std::vector<Addr>
SparseMemory::pageIndices() const
{
    std::vector<Addr> indices;
    indices.reserve(numPages_);
    for (const Slot &slot : slots_) {
        if (slot.index != kNoPage)
            indices.push_back(slot.index);
    }
    std::sort(indices.begin(), indices.end());
    return indices;
}

void
SparseMemory::copyFrom(const SparseMemory &other)
{
    // Same size, same hash: every page keeps its position.
    std::vector<Slot> slots(other.slots_.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const Slot &from = other.slots_[i];
        Slot &to = slots[i];
        to.index = from.index;
        if (from.owned) {
            to.owned = std::make_unique<PageBytes>(*from.owned);
            to.bytes = to.owned.get();
        } else {
            to.bytes = from.bytes;
        }
    }
    slots_ = std::move(slots);
    hashShift_ = other.hashShift_;
    numPages_ = other.numPages_;
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
