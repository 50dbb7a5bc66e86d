/**
 * @file
 * Architectural (functional) execution of µRISC programs.
 *
 * The FunctionalExecutor is used three ways:
 *  - as the golden reference in tests (the timing processor's retired
 *    stream must match it instruction-for-instruction),
 *  - as the statistics oracle that classifies fetched instructions as
 *    correct-path or wrong-path,
 *  - standalone, to characterize generated workloads.
 */

#ifndef TCSIM_WORKLOAD_EXECUTOR_H
#define TCSIM_WORKLOAD_EXECUTOR_H

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"
#include "workload/program.h"

namespace tcsim::workload
{

/**
 * Byte-addressable sparse memory backed by 4 KB pages.
 *
 * All accesses are 64-bit and are force-aligned to 8 bytes (generated
 * programs only perform aligned accesses; wrong-path garbage addresses
 * are aligned rather than faulting). Reads of unmapped memory return
 * zero.
 *
 * Pages are copy-on-write: initFrom maps the program's page images
 * without copying them, and the first write to a page makes the
 * memory's own copy. A memory must not outlive the Program it was
 * initialized (or copied) from.
 */
class SparseMemory
{
  public:
    static constexpr unsigned kPageBytes = workload::kPageBytes;

    /** Read the 64-bit word containing @p addr. */
    std::uint64_t
    load(Addr addr) const
    {
        addr &= ~Addr{7};
        const auto it = pages_.find(pageOf(addr));
        if (it == pages_.end())
            return 0;
        std::uint64_t value;
        std::memcpy(&value, it->second.bytes->data() + offsetOf(addr),
                    sizeof(value));
        return value;
    }

    /** Write the 64-bit word containing @p addr. */
    void
    store(Addr addr, std::uint64_t value)
    {
        addr &= ~Addr{7};
        PageBytes &page = pageFor(addr);
        std::memcpy(page.data() + offsetOf(addr), &value, sizeof(value));
    }

    /**
     * Replace this image with @p program's initial data image. The
     * program's pages are shared until written.
     */
    void initFrom(const Program &program);

    /** The memory would outlive the pages it shares; rejected. */
    void initFrom(Program &&) = delete;

    /** @return the number of mapped pages. */
    std::size_t numPages() const { return pages_.size(); }

    /** @return mapped page indices in ascending order. */
    std::vector<Addr> pageIndices() const;

    /** @return the raw bytes of mapped page @p page_index (or null). */
    const std::uint8_t *
    pageData(Addr page_index) const
    {
        const auto it = pages_.find(page_index);
        return it == pages_.end() ? nullptr : it->second.bytes->data();
    }

    /**
     * Replace this image with a copy of @p other: pages @p other
     * shares stay shared, pages it owns are copied.
     */
    void copyFrom(const SparseMemory &other);

  private:
    /**
     * A mapped page: @c bytes points at a shared program page until
     * the first write, then at the page's own copy in @c owned.
     */
    struct Slot
    {
        const PageBytes *bytes = nullptr;
        std::unique_ptr<PageBytes> owned;
    };

    static Addr pageOf(Addr addr) { return addr / kPageBytes; }
    static std::size_t offsetOf(Addr addr) { return addr % kPageBytes; }

    /**
     * Give @p slot its own copy of the page it shares, or a zero page.
     * Out of line, since it runs once per page: the inline store path
     * in the simulators' hot loops stays small.
     */
    static void own(Slot &slot);

    PageBytes &
    pageFor(Addr addr)
    {
        Slot &slot = pages_[pageOf(addr)];
        if (!slot.owned)
            own(slot);
        return *slot.owned;
    }

    std::unordered_map<Addr, Slot> pages_;
};

/** The record of one architecturally executed instruction. */
struct StepResult
{
    Addr pc = 0;
    isa::Instruction inst;
    Addr nextPc = 0;
    /** For conditional branches: the resolved direction. */
    bool taken = false;
    /** For loads/stores: the effective (aligned) address. */
    Addr memAddr = kInvalidAddr;
    /** Destination register value (when the instruction writes one). */
    RegVal result = 0;
    /** True once a Halt has executed; pc no longer advances. */
    bool halted = false;
};

/** Architectural register file + memory + PC. */
class FunctionalExecutor
{
  public:
    /** Bind to @p program; memory is initialized from its data image. */
    explicit FunctionalExecutor(const Program &program);

    /** The executor stores a reference; temporaries are rejected. */
    explicit FunctionalExecutor(Program &&) = delete;

    /** Execute one instruction and return its record. */
    StepResult step();

    /** @return true once Halt has executed. */
    bool halted() const { return halted_; }

    /** @return the current PC. */
    Addr pc() const { return pc_; }

    /** @return architectural register @p idx. */
    RegVal reg(RegIndex idx) const { return regs_[idx]; }

    /** Set architectural register @p idx (r0 writes are ignored). */
    void
    setReg(RegIndex idx, RegVal value)
    {
        if (idx != isa::kRegZero)
            regs_[idx] = value;
    }

    /** @return the memory image. */
    SparseMemory &memory() { return memory_; }
    const SparseMemory &memory() const { return memory_; }

    /** @return instructions executed so far. */
    std::uint64_t instCount() const { return instCount_; }

    /**
     * Pure computation of an instruction's results against arbitrary
     * operand values; shared with the timing core's execute stage so
     * functional and speculative execution can never diverge.
     *
     * @param inst the instruction
     * @param pc its address
     * @param src1 value of rs1 (0 if unused)
     * @param src2 value of rs2 (0 if unused)
     * @param mem_value for loads: the loaded value
     * @param[out] result destination register value (if any)
     * @param[out] next_pc the successor PC
     * @param[out] taken branch direction (conditional branches)
     */
    static void computeResult(const isa::Instruction &inst, Addr pc,
                              RegVal src1, RegVal src2,
                              std::uint64_t mem_value, RegVal &result,
                              Addr &next_pc, bool &taken);

    /** @return the effective address of a memory instruction. */
    static Addr
    effectiveAddr(const isa::Instruction &inst, RegVal src1)
    {
        return (src1 + static_cast<std::int64_t>(inst.imm)) & ~Addr{7};
    }

  private:
    const Program &program_;
    SparseMemory memory_;
    std::array<RegVal, isa::kNumArchRegs> regs_{};
    Addr pc_;
    bool halted_ = false;
    std::uint64_t instCount_ = 0;
};

} // namespace tcsim::workload

#endif // TCSIM_WORKLOAD_EXECUTOR_H
