#include "bench/artifact_cache.h"

#include <cstdlib>
#include <sstream>

#include "common/binio.h"
#include "common/fnv.h"

namespace tcsim::bench
{

namespace
{

constexpr char kWrapperMagic[8] = {'T', 'C', 'A', 'R', 'T', 'F', 'C', '1'};

thread_local ArtifactCacheStats t_threadStats;

/**
 * Parse a wrapper file's bytes; @return the payload when the magic,
 * embedded key and payload checksum all verify.
 */
std::optional<std::string>
unwrap(const std::string &bytes, std::string_view key)
{
    std::istringstream is(bytes);
    if (!binio::expectMagic(is, kWrapperMagic))
        return std::nullopt;
    std::uint32_t key_len = 0;
    if (!binio::readScalar(is, key_len) || key_len != key.size())
        return std::nullopt;
    std::string stored_key(key_len, '\0');
    is.read(stored_key.data(), key_len);
    if (!is || stored_key != key)
        return std::nullopt;
    std::uint64_t payload_hash = 0, payload_len = 0;
    if (!binio::readScalar(is, payload_hash) ||
        !binio::readScalar(is, payload_len)) {
        return std::nullopt;
    }
    // The remaining bytes must be exactly the payload: a truncated or
    // padded file is corrupt even if the checksum happens to pass.
    const auto header_end = static_cast<std::size_t>(is.tellg());
    if (bytes.size() - header_end != payload_len)
        return std::nullopt;
    std::string payload = bytes.substr(header_end);
    if (fnv1a(payload) != payload_hash)
        return std::nullopt;
    return payload;
}

std::string
wrap(std::string_view key, std::string_view payload)
{
    std::ostringstream os;
    binio::writeMagic(os, kWrapperMagic);
    binio::writeScalar<std::uint32_t>(
        os, static_cast<std::uint32_t>(key.size()));
    os.write(key.data(), static_cast<std::streamsize>(key.size()));
    binio::writeScalar<std::uint64_t>(os, fnv1a(payload));
    binio::writeScalar<std::uint64_t>(os, payload.size());
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    return std::move(os).str();
}

} // namespace

std::string
ArtifactCache::objectName(std::string_view kind, std::string_view key)
{
    std::string name;
    name.append(kind);
    name += '/';
    name += hashHex(fnv1a(key));
    name += ".art";
    return name;
}

std::string
ArtifactCache::pathFor(std::string_view kind, std::string_view key) const
{
    return dir() + "/" + objectName(kind, key);
}

std::optional<std::string>
ArtifactCache::load(std::string_view kind, std::string_view key)
{
    if (!enabled())
        return std::nullopt;
    const std::string name = objectName(kind, key);

    std::optional<std::string> payload;
    bool rejected = false;
    if (std::optional<std::string> bytes = store_.get(name)) {
        payload = unwrap(*bytes, key);
        if (!payload) {
            // Corrupt wrapper: evict it so the regenerated artifact
            // replaces it instead of being rejected again next run.
            rejected = true;
            store_.remove(name);
        }
    }

    ++(payload ? t_threadStats.hits : t_threadStats.misses);
    std::lock_guard<std::mutex> lock(mutex_);
    ++(payload ? stats_.hits : stats_.misses);
    if (rejected)
        ++stats_.rejected;
    return payload;
}

bool
ArtifactCache::store(std::string_view kind, std::string_view key,
                     std::string_view payload)
{
    if (!enabled())
        return false;
    // First-wins put: concurrent stores of the same content-addressed
    // key race benignly (identical bytes), and the store guarantees
    // readers never observe a torn object.
    if (!store_.put(objectName(kind, key), wrap(key, payload)))
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
    return true;
}

std::string
ArtifactCache::getOrCreate(std::string_view kind, std::string_view key,
                           const std::function<std::string()> &produce)
{
    if (enabled()) {
        if (std::optional<std::string> payload = load(kind, key))
            return *std::move(payload);
    }
    std::string payload = produce();
    if (enabled())
        store(kind, key, payload);
    return payload;
}

ArtifactCacheStats
ArtifactCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

ArtifactCacheStats
ArtifactCache::threadStats()
{
    return t_threadStats;
}

ArtifactCache &
ArtifactCache::process()
{
    static ArtifactCache cache = [] {
        const char *dir = std::getenv("TCSIM_CACHE_DIR");
        return ArtifactCache(dir != nullptr ? dir : "");
    }();
    return cache;
}

} // namespace tcsim::bench
