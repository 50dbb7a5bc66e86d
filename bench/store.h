/**
 * @file
 * Local-directory blob store shared by the sweep fragments and the
 * artifact cache.
 *
 * Everything the sweep persists — result fragments and cached btrace
 * artifacts — is a named blob under content-hashed names in a
 * directory. LocalDirStore is the one place that writes them:
 *
 *  - put() is atomic (writeFileAtomic, common/atomic_file.h): it writes
 *    a temp file unique to the process and the call, then renames it
 *    into place, so a reader never observes a torn object and a writer
 *    killed mid-store leaves only a temp file that is never read back.
 *  - By default put() is first-wins: storing over an existing object
 *    is a successful no-op (content-hashed names mean a racing
 *    duplicate carries the same canonical payload). Pass
 *    overwrite=true where a retry must replace what is there.
 *  - Names are restricted to [A-Za-z0-9._-] with at most one '/'
 *    separator ("kind/object"), rejecting path traversal at the
 *    interface instead of trusting callers.
 *
 * Blob integrity is the layer above: fragments embed their unit hash
 * and artifacts carry the TCARTFC1 checksum wrapper, so a corrupted
 * object is detected and rejected by the consumer.
 */

#ifndef TCSIM_BENCH_STORE_H
#define TCSIM_BENCH_STORE_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tcsim::bench
{

/** @return whether @p name is a valid store object name. */
bool isValidStoreName(std::string_view name);

/** A directory of named blobs (see the file comment). */
class LocalDirStore
{
  public:
    explicit LocalDirStore(std::string dir) : dir_(std::move(dir)) {}

    /**
     * Atomically store @p bytes under @p name. First-wins unless
     * @p overwrite: storing over an existing object succeeds without
     * touching it. @return false on an invalid name or I/O failure.
     */
    bool put(const std::string &name, std::string_view bytes,
             bool overwrite = false);

    /** @return the object's bytes, or empty optional when absent. */
    std::optional<std::string> get(const std::string &name) const;

    /** Remove @p name (used to drop corrupt artifacts). @return true
     * when the object is gone afterwards (also when it never was). */
    bool remove(const std::string &name);

    /** The names of the top-level objects, sorted. In-flight temp
     * files ("<name>.tmp.<pid>.<n>") are listed like any other name;
     * readers pick their objects by suffix. */
    std::vector<std::string> list() const;

    const std::string &dir() const { return dir_; }

  private:
    std::string pathFor(const std::string &name) const;
    std::string dir_;
};

} // namespace tcsim::bench

#endif // TCSIM_BENCH_STORE_H
