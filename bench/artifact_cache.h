/**
 * @file
 * Content-addressed artifact cache for the one expensive
 * deterministic byproduct of the replay units: the recorded btrace of
 * a benchmark, shared by every configuration. Full units look nothing
 * up; a program is generated once per process (bench::programFor),
 * which costs less than reading and parsing a cached image.
 *
 * Every artifact is addressed by a canonical key string that encodes
 * everything its bytes depend on (btraceArtifactKey: btrace format
 * version, generator version, profile fingerprint, budget). The cache
 * file name is the FNV-1a hash of the key; the key itself plus a
 * payload checksum are embedded in a wrapper header, so
 *
 *  - a key-hash collision can never return the wrong artifact (the
 *    embedded key is compared before the payload is trusted), and
 *  - a corrupted or truncated file is detected by checksum and
 *    treated as a miss (and rejected), never handed to a payload
 *    parser that may abort on malformed input.
 *
 * Artifacts live in a LocalDirStore (bench/store.h) rooted at the
 * cache directory, as "<kind>/<keyhash>.art". Stores are atomic (write
 * to a temp file, then rename), so a worker killed mid-store leaves no
 * partial artifact behind. Cache hits only ever substitute for
 * re-running a deterministic producer, so they can change wall-clock
 * time but never simulation results.
 *
 * Wrapper layout (little-endian):
 *   magic "TCARTFC1", u32 key length, key bytes,
 *   u64 payload FNV-1a hash, u64 payload length, payload bytes.
 */

#ifndef TCSIM_BENCH_ARTIFACT_CACHE_H
#define TCSIM_BENCH_ARTIFACT_CACHE_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "bench/store.h"

namespace tcsim::bench
{

/** Hit/miss accounting, reported into benchmark result documents. */
struct ArtifactCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    /** Files discarded for a bad magic, key mismatch or checksum. */
    std::uint64_t rejected = 0;
};

/** The cache proper. A default-constructed cache is disabled. */
class ArtifactCache
{
  public:
    /** @param dir cache root; empty disables the cache. */
    explicit ArtifactCache(std::string dir = {}) : store_(std::move(dir)) {}

    bool enabled() const { return !store_.dir().empty(); }
    /** The cache root; empty when disabled. */
    const std::string &dir() const { return store_.dir(); }

    /**
     * Look up the artifact for @p key under @p kind.
     * @return the payload bytes on a verified hit.
     */
    std::optional<std::string> load(std::string_view kind,
                                    std::string_view key);

    /**
     * Store @p payload for @p key (atomically; concurrent stores of
     * the same key are safe and idempotent).
     * @return false on I/O failure (the cache stays consistent).
     */
    bool store(std::string_view kind, std::string_view key,
               std::string_view payload);

    /**
     * Memoize: return the cached payload for @p key, or run
     * @p produce, store its result, and return it. With the cache
     * disabled this simply calls @p produce.
     */
    std::string getOrCreate(std::string_view kind, std::string_view key,
                            const std::function<std::string()> &produce);

    /** @return the store object name for @p key under @p kind. */
    static std::string objectName(std::string_view kind,
                                  std::string_view key);

    /** @return the file an artifact would live at (for tests). */
    std::string pathFor(std::string_view kind, std::string_view key) const;

    ArtifactCacheStats stats() const;

    /** @return the hits and misses of this thread on any cache. A
     * unit runs on one thread, so runUnits' difference around it is
     * the unit's own count while other units run beside it. */
    static ArtifactCacheStats threadStats();

    /** @return the process-wide cache rooted at TCSIM_CACHE_DIR;
     * disabled when it is unset or empty. */
    static ArtifactCache &process();

  private:
    LocalDirStore store_;
    mutable std::mutex mutex_;
    ArtifactCacheStats stats_;
};

} // namespace tcsim::bench

#endif // TCSIM_BENCH_ARTIFACT_CACHE_H
