#include "workload/program.h"

#include <cstring>
#include <utility>

#include "common/log.h"

namespace tcsim::workload
{

Program::Program(std::string name, Addr code_base,
                 std::vector<isa::Instruction> code,
                 std::vector<DataWord> init_data, Addr entry)
    : name_(std::move(name)), codeBase_(code_base), entry_(entry),
      code_(std::move(code)), data_(std::move(init_data))
{
    TCSIM_ASSERT(!code_.empty(), "program has no code");
    TCSIM_ASSERT((codeBase_ & (isa::kInstBytes - 1)) == 0,
                 "misaligned code base");
    TCSIM_ASSERT(isCode(entry_), "entry point outside code segment");

    // Count the pages first, so the page vector is allocated once, at
    // its final size.
    std::size_t num_pages = 0;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        const Addr addr = data_[i].addr;
        TCSIM_ASSERT((addr & 7) == 0, "unaligned data word");
        TCSIM_ASSERT(i == 0 || data_[i - 1].addr < addr,
                     "data words not strictly ascending");
        if (i == 0 || data_[i - 1].addr / kPageBytes != addr / kPageBytes)
            ++num_pages;
    }
    pages_.reserve(num_pages);
    DataPage *page = nullptr;
    for (const DataWord &word : data_) {
        const Addr index = word.addr / kPageBytes;
        if (!page || page->index != index) {
            page = &pages_.emplace_back();
            page->index = index;
        }
        std::memcpy(page->bytes.data() + word.addr % kPageBytes,
                    &word.value, sizeof(word.value));
    }
}

} // namespace tcsim::workload
