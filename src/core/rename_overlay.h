/**
 * @file
 * A copy-on-write overlay over a fixed-size rename table.
 *
 * Forking a shadow rename context used to copy the whole RAT (32
 * entries, ~768 bytes) even though an inactive-issue tail typically
 * touches only a handful of registers. The overlay makes the fork
 * O(1): it records a pointer to the base table and a dirty bitmask,
 * reads fall through to the base until a slot is written, and writes
 * land in a sparse local array. Nothing is copied until (and unless)
 * a slot is actually overwritten, and then only that slot.
 */

#ifndef TCSIM_CORE_RENAME_OVERLAY_H
#define TCSIM_CORE_RENAME_OVERLAY_H

#include <array>
#include <cstdint>
#include <memory>

#include "common/log.h"

namespace tcsim::core
{

/** Copy-on-write view over a std::array<Entry, N> (N <= 64). */
template <typename Entry, unsigned N>
class RenameOverlay
{
    static_assert(N >= 1 && N <= 64,
                  "dirty mask is one 64-bit word");

  public:
    /** Start a fork of @p base. O(1): no entries are copied. */
    void
    fork(const std::array<Entry, N> &base)
    {
        base_ = &base;
        dirty_ = 0;
    }

    /** @return whether a fork is active. */
    bool active() const { return base_ != nullptr; }

    /** Read slot @p index: local copy if written, else the base. */
    const Entry &
    get(unsigned index) const
    {
        TCSIM_ASSERT(base_ != nullptr && index < N);
        return (dirty_ >> index) & 1u ? local_[index].entry
                                      : (*base_)[index];
    }

    /** Write slot @p index in the overlay (the base is untouched). */
    void
    set(unsigned index, const Entry &entry)
    {
        TCSIM_ASSERT(base_ != nullptr && index < N);
        std::construct_at(&local_[index].entry, entry);
        dirty_ |= std::uint64_t{1} << index;
    }

  private:
    /** Storage for one local slot, left uninitialized: an overlay is
     * built on every dispatch, and only dirty slots are ever read. */
    union Slot
    {
        Slot() {}
        Entry entry;
    };

    const std::array<Entry, N> *base_ = nullptr;
    std::uint64_t dirty_ = 0;
    std::array<Slot, N> local_;
};

} // namespace tcsim::core

#endif // TCSIM_CORE_RENAME_OVERLAY_H
