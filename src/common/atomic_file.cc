#include "common/atomic_file.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

namespace tcsim
{

namespace
{

/** @return "<path>.tmp.<pid>.<n>": no other call in any process gets
 * the same name, so concurrent writers never share a temp file. */
std::string
uniqueTempPath(const std::string &path)
{
    static std::atomic<std::uint64_t> counter{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1));
}

} // namespace

bool
writeFileAtomic(const std::string &path, std::string_view bytes)
{
    if (path == "-") {
        return std::fwrite(bytes.data(), 1, bytes.size(), stdout) ==
                   bytes.size() &&
               std::fflush(stdout) == 0;
    }
    const std::string tmp = uniqueTempPath(path);
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    std::error_code ec;
    if (out)
        std::filesystem::rename(tmp, path, ec);
    if (!out || ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace tcsim
