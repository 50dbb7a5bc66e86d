#include "bench/store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"

namespace tcsim::bench
{

namespace fs = std::filesystem;

bool
isValidStoreName(std::string_view name)
{
    if (name.empty() || name.size() > 512)
        return false;
    unsigned slashes = 0;
    for (const char c : name) {
        if (c == '/') {
            ++slashes;
            continue;
        }
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        if (!ok)
            return false;
    }
    if (slashes > 1)
        return false;
    // No empty segments, no dot-only segments (".." traversal).
    std::size_t start = 0;
    while (start <= name.size()) {
        const std::size_t slash = name.find('/', start);
        const std::size_t end =
            slash == std::string_view::npos ? name.size() : slash;
        const std::string_view segment = name.substr(start, end - start);
        if (segment.empty() ||
            segment.find_first_not_of('.') == std::string_view::npos)
            return false;
        if (slash == std::string_view::npos)
            break;
        start = slash + 1;
    }
    return true;
}

std::string
LocalDirStore::pathFor(const std::string &name) const
{
    return dir_ + "/" + name;
}

bool
LocalDirStore::put(const std::string &name, std::string_view bytes,
                   bool overwrite)
{
    if (!isValidStoreName(name))
        return false;
    const std::string path = pathFor(name);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec)
        return false;
    if (!overwrite && fs::exists(path, ec))
        return true; // first-wins: the racing duplicate is dropped
    return writeFileAtomic(path, bytes);
}

std::optional<std::string>
LocalDirStore::get(const std::string &name) const
{
    if (!isValidStoreName(name))
        return std::nullopt;
    std::ifstream in(pathFor(name), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return std::move(bytes).str();
}

bool
LocalDirStore::remove(const std::string &name)
{
    if (!isValidStoreName(name))
        return false;
    std::error_code ec;
    fs::remove(pathFor(name), ec);
    return !fs::exists(pathFor(name), ec);
}

std::vector<std::string>
LocalDirStore::list() const
{
    std::vector<std::string> names;
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
        std::string name = it->path().filename().string();
        if (it->is_regular_file(ec) && isValidStoreName(name))
            names.push_back(std::move(name));
    }
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace tcsim::bench
