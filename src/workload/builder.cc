#include "workload/builder.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/log.h"

namespace tcsim::workload
{

using isa::Instruction;
using isa::Opcode;

ProgramBuilder::ProgramBuilder(std::string name, Addr code_base,
                               Addr data_base)
    : name_(std::move(name)), codeBase_(code_base), dataBase_(data_base),
      dataNext_(data_base), entry_(code_base)
{
    TCSIM_ASSERT((code_base & (isa::kInstBytes - 1)) == 0);
    TCSIM_ASSERT((data_base & 7) == 0);
}

Label
ProgramBuilder::newLabel()
{
    const auto id = static_cast<std::uint32_t>(labelAddrs_.size());
    labelAddrs_.push_back(kInvalidAddr);
    labelBound_.push_back(false);
    return Label(id);
}

void
ProgramBuilder::bind(Label label)
{
    const std::uint32_t id = requireValid(label);
    TCSIM_ASSERT(!labelBound_[id], "label bound twice");
    labelAddrs_[id] = pc();
    labelBound_[id] = true;
}

Label
ProgramBuilder::here()
{
    Label label = newLabel();
    bind(label);
    return label;
}

Addr
ProgramBuilder::addressOf(Label label) const
{
    const std::uint32_t id = requireValid(label);
    TCSIM_ASSERT(labelBound_[id], "addressOf on unbound label");
    return labelAddrs_[id];
}

void
ProgramBuilder::emit(const Instruction &inst)
{
    TCSIM_ASSERT(!built_, "emit after build()");
    code_.push_back(inst);
}

Addr
ProgramBuilder::pc() const
{
    return codeBase_ + code_.size() * isa::kInstBytes;
}

namespace
{

Instruction
rtype(Opcode op, RegIndex rd, RegIndex rs1, RegIndex rs2)
{
    Instruction inst;
    inst.op = op;
    inst.rd = rd;
    inst.rs1 = rs1;
    inst.rs2 = rs2;
    return inst;
}

Instruction
itype(Opcode op, RegIndex rd, RegIndex rs1, std::int32_t imm)
{
    Instruction inst;
    inst.op = op;
    inst.rd = rd;
    inst.rs1 = rs1;
    inst.imm = imm;
    return inst;
}

} // namespace

// R-type emitters.
void ProgramBuilder::add(RegIndex rd, RegIndex rs1, RegIndex rs2)
{ emit(rtype(Opcode::Add, rd, rs1, rs2)); }
void ProgramBuilder::sub(RegIndex rd, RegIndex rs1, RegIndex rs2)
{ emit(rtype(Opcode::Sub, rd, rs1, rs2)); }
void ProgramBuilder::mul(RegIndex rd, RegIndex rs1, RegIndex rs2)
{ emit(rtype(Opcode::Mul, rd, rs1, rs2)); }
void ProgramBuilder::div(RegIndex rd, RegIndex rs1, RegIndex rs2)
{ emit(rtype(Opcode::Div, rd, rs1, rs2)); }
void ProgramBuilder::and_(RegIndex rd, RegIndex rs1, RegIndex rs2)
{ emit(rtype(Opcode::And, rd, rs1, rs2)); }
void ProgramBuilder::or_(RegIndex rd, RegIndex rs1, RegIndex rs2)
{ emit(rtype(Opcode::Or, rd, rs1, rs2)); }
void ProgramBuilder::xor_(RegIndex rd, RegIndex rs1, RegIndex rs2)
{ emit(rtype(Opcode::Xor, rd, rs1, rs2)); }
void ProgramBuilder::sll(RegIndex rd, RegIndex rs1, RegIndex rs2)
{ emit(rtype(Opcode::Sll, rd, rs1, rs2)); }
void ProgramBuilder::srl(RegIndex rd, RegIndex rs1, RegIndex rs2)
{ emit(rtype(Opcode::Srl, rd, rs1, rs2)); }
void ProgramBuilder::sra(RegIndex rd, RegIndex rs1, RegIndex rs2)
{ emit(rtype(Opcode::Sra, rd, rs1, rs2)); }
void ProgramBuilder::slt(RegIndex rd, RegIndex rs1, RegIndex rs2)
{ emit(rtype(Opcode::Slt, rd, rs1, rs2)); }
void ProgramBuilder::sltu(RegIndex rd, RegIndex rs1, RegIndex rs2)
{ emit(rtype(Opcode::Sltu, rd, rs1, rs2)); }

// I-type emitters.
void ProgramBuilder::addi(RegIndex rd, RegIndex rs1, std::int32_t imm)
{ emit(itype(Opcode::Addi, rd, rs1, imm)); }
void ProgramBuilder::andi(RegIndex rd, RegIndex rs1, std::int32_t imm)
{ emit(itype(Opcode::Andi, rd, rs1, imm)); }
void ProgramBuilder::ori(RegIndex rd, RegIndex rs1, std::int32_t imm)
{ emit(itype(Opcode::Ori, rd, rs1, imm)); }
void ProgramBuilder::xori(RegIndex rd, RegIndex rs1, std::int32_t imm)
{ emit(itype(Opcode::Xori, rd, rs1, imm)); }
void ProgramBuilder::slli(RegIndex rd, RegIndex rs1, std::int32_t imm)
{ emit(itype(Opcode::Slli, rd, rs1, imm)); }
void ProgramBuilder::srli(RegIndex rd, RegIndex rs1, std::int32_t imm)
{ emit(itype(Opcode::Srli, rd, rs1, imm)); }
void ProgramBuilder::slti(RegIndex rd, RegIndex rs1, std::int32_t imm)
{ emit(itype(Opcode::Slti, rd, rs1, imm)); }
void ProgramBuilder::lui(RegIndex rd, std::int32_t imm)
{ emit(itype(Opcode::Lui, rd, 0, imm)); }

void
ProgramBuilder::loadImm64(RegIndex rd, std::uint64_t value)
{
    // Lui shifts its 16-bit immediate left by 16; build 32-bit values
    // in two instructions and wider values with explicit shifts. Data
    // addresses in generated programs fit in 32 bits.
    TCSIM_ASSERT(value <= 0xffffffffULL,
                 "loadImm64 only supports 32-bit values");
    const auto hi = static_cast<std::int32_t>((value >> 16) & 0xffff);
    const auto lo = static_cast<std::int32_t>(value & 0xffff);
    lui(rd, hi);
    if (lo != 0)
        ori(rd, rd, lo);
}

void ProgramBuilder::ld(RegIndex rd, std::int32_t imm, RegIndex rs1)
{ emit(itype(Opcode::Ld, rd, rs1, imm)); }

void
ProgramBuilder::st(RegIndex rs2, std::int32_t imm, RegIndex rs1)
{
    Instruction inst;
    inst.op = Opcode::St;
    inst.rs1 = rs1;
    inst.rs2 = rs2;
    inst.imm = imm;
    emit(inst);
}

void
ProgramBuilder::emitBranch(Opcode op, RegIndex rs1, RegIndex rs2,
                           Label target)
{
    Instruction inst;
    inst.op = op;
    inst.rs1 = rs1;
    inst.rs2 = rs2;
    fixups_.push_back({code_.size(), requireValid(target)});
    emit(inst);
}

void ProgramBuilder::beq(RegIndex rs1, RegIndex rs2, Label target)
{ emitBranch(Opcode::Beq, rs1, rs2, target); }
void ProgramBuilder::bne(RegIndex rs1, RegIndex rs2, Label target)
{ emitBranch(Opcode::Bne, rs1, rs2, target); }
void ProgramBuilder::blt(RegIndex rs1, RegIndex rs2, Label target)
{ emitBranch(Opcode::Blt, rs1, rs2, target); }
void ProgramBuilder::bge(RegIndex rs1, RegIndex rs2, Label target)
{ emitBranch(Opcode::Bge, rs1, rs2, target); }
void ProgramBuilder::bltu(RegIndex rs1, RegIndex rs2, Label target)
{ emitBranch(Opcode::Bltu, rs1, rs2, target); }
void ProgramBuilder::bgeu(RegIndex rs1, RegIndex rs2, Label target)
{ emitBranch(Opcode::Bgeu, rs1, rs2, target); }

void
ProgramBuilder::j(Label target)
{
    Instruction inst;
    inst.op = Opcode::J;
    fixups_.push_back({code_.size(), requireValid(target)});
    emit(inst);
}

void
ProgramBuilder::call(Label target)
{
    Instruction inst;
    inst.op = Opcode::Call;
    inst.rd = isa::kRegRa;
    fixups_.push_back({code_.size(), requireValid(target)});
    emit(inst);
}

void
ProgramBuilder::jr(RegIndex rs1)
{
    Instruction inst;
    inst.op = Opcode::Jr;
    inst.rs1 = rs1;
    emit(inst);
}

void
ProgramBuilder::ret()
{
    Instruction inst;
    inst.op = Opcode::Ret;
    inst.rs1 = isa::kRegRa;
    emit(inst);
}

void ProgramBuilder::trap() { emit(Instruction{Opcode::Trap, 0, 0, 0, 0}); }
void ProgramBuilder::halt() { emit(Instruction{Opcode::Halt, 0, 0, 0, 0}); }
void ProgramBuilder::nop() { emit(Instruction{Opcode::Nop, 0, 0, 0, 0}); }

Addr
ProgramBuilder::allocData(std::size_t bytes)
{
    const Addr base = dataNext_;
    dataNext_ += (bytes + 7) & ~std::size_t{7};
    return base;
}

void
ProgramBuilder::setData(Addr addr, std::uint64_t value)
{
    TCSIM_ASSERT((addr & 7) == 0, "unaligned data word");
    data_.push_back({addr, value});
}

void
ProgramBuilder::setDataLabel(Addr addr, Label label)
{
    TCSIM_ASSERT((addr & 7) == 0, "unaligned data word");
    dataFixups_.push_back({data_.size(), requireValid(label)});
    data_.push_back({addr, 0});
}

void
ProgramBuilder::setEntry(Label label)
{
    entry_ = addressOf(label);
    entrySet_ = true;
}

Program
ProgramBuilder::build()
{
    TCSIM_ASSERT(!built_, "build() called twice");
    built_ = true;

    for (const Fixup &fixup : fixups_) {
        TCSIM_ASSERT(labelBound_[fixup.labelId],
                     "unbound label referenced by instruction %zu",
                     fixup.instIndex);
        const Addr inst_pc =
            codeBase_ + fixup.instIndex * isa::kInstBytes;
        const Addr target = labelAddrs_[fixup.labelId];
        const std::int64_t disp =
            (static_cast<std::int64_t>(target) -
             static_cast<std::int64_t>(inst_pc)) /
            static_cast<std::int64_t>(isa::kInstBytes);
        code_[fixup.instIndex].imm = static_cast<std::int32_t>(disp);
    }
    for (const DataFixup &fixup : dataFixups_) {
        TCSIM_ASSERT(labelBound_[fixup.labelId],
                     "unbound label referenced by data word");
        data_[fixup.slot].value = labelAddrs_[fixup.labelId];
    }
    const auto out_of_order = [](const DataWord &a, const DataWord &b) {
        return a.addr >= b.addr;
    };
    if (std::adjacent_find(data_.begin(), data_.end(), out_of_order) !=
        data_.end()) {
        data_ = sortedData();
    }

    return Program(std::move(name_), codeBase_, std::move(code_),
                   std::move(data_), entrySet_ ? entry_ : codeBase_);
}

std::vector<DataWord>
ProgramBuilder::sortedData() const
{
    // Stable-sort by address, label words after plain ones, and keep
    // the last write of each address: the last setData wins, and a
    // label word wins over every setData.
    std::vector<bool> is_label(data_.size(), false);
    for (const DataFixup &fixup : dataFixups_)
        is_label[fixup.slot] = true;
    std::vector<std::size_t> order(data_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return std::pair(data_[a].addr, is_label[a]) <
                                std::pair(data_[b].addr, is_label[b]);
                     });
    std::vector<DataWord> sorted;
    for (const std::size_t i : order) {
        if (!sorted.empty() && sorted.back().addr == data_[i].addr)
            sorted.back() = data_[i];
        else
            sorted.push_back(data_[i]);
    }
    return sorted;
}

std::uint32_t
ProgramBuilder::requireValid(Label label) const
{
    TCSIM_ASSERT(label.valid_, "use of default-constructed label");
    TCSIM_ASSERT(label.id_ < labelAddrs_.size());
    return label.id_;
}

} // namespace tcsim::workload
