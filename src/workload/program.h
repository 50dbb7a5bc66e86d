/**
 * @file
 * A µRISC program image: code, initial data, and entry point.
 *
 * The image is the simulator's "executable": fetch engines read
 * instructions from it by address (including down wrong paths), and
 * both the functional executor and the timing processor initialize
 * simulated memory from its data segment.
 */

#ifndef TCSIM_WORKLOAD_PROGRAM_H
#define TCSIM_WORKLOAD_PROGRAM_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"

namespace tcsim::workload
{

/** Default base address of the code segment. */
constexpr Addr kCodeBase = 0x10000;

/** Default base address of the data segment. */
constexpr Addr kDataBase = 0x4000000;

/** Default initial stack pointer (stack grows down). */
constexpr Addr kStackTop = 0x8000000;

/** Bytes per page of a data image and of simulated memory. */
constexpr unsigned kPageBytes = 4096;

/** The bytes of one page. */
using PageBytes = std::array<std::uint8_t, kPageBytes>;

/** One initialized 64-bit word of a data image. */
struct DataWord
{
    Addr addr;
    std::uint64_t value;

    bool operator==(const DataWord &) const = default;
};

/** One page of a data image: its index (address / kPageBytes). */
struct DataPage
{
    Addr index;
    PageBytes bytes;
};

/** An immutable program image. */
class Program
{
  public:
    /**
     * @param name human-readable benchmark name
     * @param code_base address of the first instruction
     * @param code decoded instructions, contiguous from code_base
     * @param init_data initial data image: 8-byte-aligned words in
     *        strictly ascending address order
     * @param entry the entry-point address
     */
    Program(std::string name, Addr code_base,
            std::vector<isa::Instruction> code,
            std::vector<DataWord> init_data, Addr entry);

    /** @return the benchmark name. */
    const std::string &name() const { return name_; }

    /** @return the entry-point address. */
    Addr entry() const { return entry_; }

    /** @return the address of the first instruction. */
    Addr codeBase() const { return codeBase_; }

    /** @return one past the last instruction address. */
    Addr codeLimit() const
    {
        return codeBase_ + code_.size() * isa::kInstBytes;
    }

    /** @return the number of static instructions. */
    std::size_t codeSize() const { return code_.size(); }

    /** @return true if @p addr holds an instruction. */
    bool
    isCode(Addr addr) const
    {
        return addr >= codeBase_ && addr < codeLimit() &&
               (addr & (isa::kInstBytes - 1)) == 0;
    }

    /**
     * @return the instruction at @p addr. Fetches outside the code
     * segment (possible on wrong paths) return a Nop so the machine
     * can keep speculating harmlessly.
     */
    const isa::Instruction &
    fetch(Addr addr) const
    {
        if (!isCode(addr))
            return nopInst_;
        return code_[(addr - codeBase_) / isa::kInstBytes];
    }

    /** @return the initial data words, ascending by address. */
    const std::vector<DataWord> &initData() const { return data_; }

    /**
     * @return the initial data image as pages, ascending by index:
     * every page holding an initialized word, zero elsewhere. Built
     * once by the constructor and never changed, so simulated
     * memories share them (SparseMemory::initFrom).
     */
    const std::vector<DataPage> &dataPages() const { return pages_; }

  private:
    std::string name_;
    Addr codeBase_;
    Addr entry_;
    std::vector<isa::Instruction> code_;
    std::vector<DataWord> data_;
    std::vector<DataPage> pages_;
    isa::Instruction nopInst_;
};

} // namespace tcsim::workload

#endif // TCSIM_WORKLOAD_PROGRAM_H
