#include "workload/serialize.h"

#include <cstring>
#include <fstream>
#include <optional>
#include <vector>

#include "common/log.h"
#include "isa/instruction.h"

namespace tcsim::workload
{

namespace
{

constexpr char kMagic[8] = {'T', 'C', 'S', 'I', 'M', 'P', 'R', 'G'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void
writeScalar(std::ostream &os, T value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

template <typename T>
bool
readScalar(std::istream &is, T &value)
{
    is.read(reinterpret_cast<char *>(&value), sizeof(value));
    return static_cast<bool>(is);
}

} // namespace

bool
saveProgram(const Program &program, std::ostream &os)
{
    os.write(kMagic, sizeof(kMagic));
    writeScalar<std::uint32_t>(os, kVersion);

    const std::string &name = program.name();
    writeScalar<std::uint32_t>(os,
                               static_cast<std::uint32_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));

    writeScalar<std::uint64_t>(os, program.codeBase());
    writeScalar<std::uint64_t>(os, program.entry());
    writeScalar<std::uint64_t>(os, program.codeSize());
    for (Addr addr = program.codeBase(); addr < program.codeLimit();
         addr += isa::kInstBytes) {
        writeScalar<std::uint32_t>(os, isa::encode(program.fetch(addr)));
    }

    writeScalar<std::uint64_t>(os, program.initData().size());
    for (const auto &[addr, value] : program.initData()) {
        writeScalar<std::uint64_t>(os, addr);
        writeScalar<std::uint64_t>(os, value);
    }
    return static_cast<bool>(os);
}

bool
saveProgram(const Program &program, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    return os && saveProgram(program, os);
}

std::optional<Program>
loadProgram(std::istream &is)
{
    char magic[8];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return std::nullopt;
    std::uint32_t version = 0;
    if (!readScalar(is, version) || version != kVersion)
        return std::nullopt;

    std::uint32_t name_len = 0;
    if (!readScalar(is, name_len) || name_len > 4096)
        return std::nullopt;
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);

    std::uint64_t code_base = 0, entry = 0, code_size = 0;
    if (!readScalar(is, code_base) || !readScalar(is, entry) ||
        !readScalar(is, code_size) || code_size == 0 ||
        code_size > (1ULL << 26)) {
        return std::nullopt;
    }
    // Program's constructor asserts these; a corrupt image must be
    // rejected here instead.
    const std::uint64_t code_bytes = code_size * isa::kInstBytes;
    if ((code_base & (isa::kInstBytes - 1)) != 0 ||
        code_base > ~std::uint64_t{0} - code_bytes || entry < code_base ||
        entry - code_base >= code_bytes ||
        (entry & (isa::kInstBytes - 1)) != 0) {
        return std::nullopt;
    }
    std::vector<isa::Instruction> code;
    code.reserve(code_size);
    for (std::uint64_t i = 0; i < code_size; ++i) {
        std::uint32_t word = 0;
        if (!readScalar(is, word))
            return std::nullopt;
        code.push_back(isa::decode(word));
    }

    std::uint64_t data_count = 0;
    if (!readScalar(is, data_count) || data_count > (1ULL << 28))
        return std::nullopt;
    std::vector<DataWord> data;
    for (std::uint64_t i = 0; i < data_count; ++i) {
        DataWord word{};
        if (!readScalar(is, word.addr) || !readScalar(is, word.value))
            return std::nullopt;
        // saveProgram writes aligned words in strictly ascending order.
        if ((word.addr & 7) != 0 ||
            (!data.empty() && word.addr <= data.back().addr)) {
            return std::nullopt;
        }
        data.push_back(word);
    }
    // No trailing bytes.
    is.peek();
    if (!is.eof())
        return std::nullopt;

    return Program(std::move(name), code_base, std::move(code),
                   std::move(data), entry);
}

std::optional<Program>
loadProgram(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    return loadProgram(is);
}

} // namespace tcsim::workload
