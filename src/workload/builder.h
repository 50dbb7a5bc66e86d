/**
 * @file
 * ProgramBuilder: an in-memory assembler for µRISC programs.
 *
 * Supports forward references through labels with fixups, data
 * allocation, and data words that hold code addresses (for jump
 * tables). The CFG-based workload generator and all hand-written test
 * programs are built through this interface.
 */

#ifndef TCSIM_WORKLOAD_BUILDER_H
#define TCSIM_WORKLOAD_BUILDER_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "workload/program.h"

namespace tcsim::workload
{

/** An opaque label handle; valid only for the builder that made it. */
class Label
{
  public:
    Label() = default;

  private:
    friend class ProgramBuilder;
    explicit Label(std::uint32_t id) : id_(id), valid_(true) {}
    std::uint32_t id_ = 0;
    bool valid_ = false;
};

/** Incrementally builds a Program. */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name,
                            Addr code_base = kCodeBase,
                            Addr data_base = kDataBase);

    // ------------------------------------------------------------------
    // Labels.
    // ------------------------------------------------------------------

    /** Create a fresh, unbound label. */
    Label newLabel();

    /** Bind @p label to the current code position. */
    void bind(Label label);

    /** Create a label already bound to the current position. */
    Label here();

    /** @return the address a bound label resolves to. */
    Addr addressOf(Label label) const;

    // ------------------------------------------------------------------
    // Raw emission.
    // ------------------------------------------------------------------

    /** Append a fully formed instruction. */
    void emit(const isa::Instruction &inst);

    /** @return the address the next emitted instruction will occupy. */
    Addr pc() const;

    /** @return the number of instructions emitted so far. */
    std::size_t size() const { return code_.size(); }

    // ------------------------------------------------------------------
    // ALU convenience emitters.
    // ------------------------------------------------------------------

    void add(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void sub(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void mul(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void div(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void and_(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void or_(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void xor_(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void sll(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void srl(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void sra(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void slt(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void sltu(RegIndex rd, RegIndex rs1, RegIndex rs2);

    void addi(RegIndex rd, RegIndex rs1, std::int32_t imm);
    void andi(RegIndex rd, RegIndex rs1, std::int32_t imm);
    void ori(RegIndex rd, RegIndex rs1, std::int32_t imm);
    void xori(RegIndex rd, RegIndex rs1, std::int32_t imm);
    void slli(RegIndex rd, RegIndex rs1, std::int32_t imm);
    void srli(RegIndex rd, RegIndex rs1, std::int32_t imm);
    void slti(RegIndex rd, RegIndex rs1, std::int32_t imm);
    void lui(RegIndex rd, std::int32_t imm);

    /** Load a full 64-bit constant with a short instruction sequence. */
    void loadImm64(RegIndex rd, std::uint64_t value);

    // ------------------------------------------------------------------
    // Memory.
    // ------------------------------------------------------------------

    void ld(RegIndex rd, std::int32_t imm, RegIndex rs1);
    void st(RegIndex rs2, std::int32_t imm, RegIndex rs1);

    // ------------------------------------------------------------------
    // Control flow.
    // ------------------------------------------------------------------

    void beq(RegIndex rs1, RegIndex rs2, Label target);
    void bne(RegIndex rs1, RegIndex rs2, Label target);
    void blt(RegIndex rs1, RegIndex rs2, Label target);
    void bge(RegIndex rs1, RegIndex rs2, Label target);
    void bltu(RegIndex rs1, RegIndex rs2, Label target);
    void bgeu(RegIndex rs1, RegIndex rs2, Label target);
    void j(Label target);
    void call(Label target);
    void jr(RegIndex rs1);
    void ret();
    void trap();
    void halt();
    void nop();

    // ------------------------------------------------------------------
    // Data segment.
    // ------------------------------------------------------------------

    /**
     * Reserve @p bytes of zero-initialized data, 8-byte aligned.
     * @return the allocation's base address.
     */
    Addr allocData(std::size_t bytes);

    /**
     * Set the 64-bit word at @p addr in the initial data image. Of
     * several writes to one address the last wins.
     */
    void setData(Addr addr, std::uint64_t value);

    /**
     * Arrange for the data word at @p addr to hold the address of
     * @p label once it is bound (jump-table support). A label word
     * wins over any setData to the same address.
     */
    void setDataLabel(Addr addr, Label label);

    // ------------------------------------------------------------------
    // Finalization.
    // ------------------------------------------------------------------

    /** Set the entry point (defaults to the code base). */
    void setEntry(Label label);

    /**
     * Resolve all fixups and produce the program. All referenced
     * labels must be bound. The builder must not be reused afterward.
     */
    Program build();

  private:
    struct Fixup
    {
        std::size_t instIndex;
        std::uint32_t labelId;
    };

    struct DataFixup
    {
        std::size_t slot; // index into data_
        std::uint32_t labelId;
    };

    void emitBranch(isa::Opcode op, RegIndex rs1, RegIndex rs2,
                    Label target);
    std::uint32_t requireValid(Label label) const;
    std::vector<DataWord> sortedData() const;

    std::string name_;
    Addr codeBase_;
    Addr dataBase_;
    Addr dataNext_;
    Addr entry_;
    bool entrySet_ = false;
    bool built_ = false;
    std::vector<isa::Instruction> code_;
    std::vector<Addr> labelAddrs_;
    std::vector<bool> labelBound_;
    std::vector<Fixup> fixups_;
    std::vector<DataFixup> dataFixups_;
    /** Data writes in call order; build() sorts them if needed. */
    std::vector<DataWord> data_;
};

} // namespace tcsim::workload

#endif // TCSIM_WORKLOAD_BUILDER_H
