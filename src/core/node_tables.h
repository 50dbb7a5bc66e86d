/**
 * @file
 * Node tables (reservation stations) and functional-unit scheduling
 * bookkeeping for the HPS-style execution core: 16 universal
 * functional units, each fed by a 64-entry node table (paper
 * section 3). Instructions occupy an entry from dispatch until they
 * fire; each unit starts at most one operation per cycle.
 */

#ifndef TCSIM_CORE_NODE_TABLES_H
#define TCSIM_CORE_NODE_TABLES_H

#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace tcsim::core
{

/** Configuration for the execution resources. */
struct NodeTableParams
{
    std::uint32_t numUnits = 16;
    std::uint32_t entriesPerUnit = 64;
};

/**
 * One ready-queue entry: the instruction's seq plus, for a parked
 * load, a cached park. The cache holds while the store's ring slot
 * still carries @c slotVersion and the processor's park generation
 * still equals @c parkGen (see Processor::scheduleStage); generation
 * 0 never matches, so a fresh entry has no cache.
 */
struct ReadyEntry
{
    InstSeqNum seq = kInvalidSeqNum;
    std::uint64_t parkGen = 0;
    std::uint32_t parkSlot = 0;
    std::uint32_t slotVersion = 0;
};

/** A FIFO of ready entries on a power-of-two ring that doubles when
 * full (stale entries can outnumber the unit's table entries). A
 * rotation can be deferred: the next push_back() or settle() applies
 * it, so a queue that only rotates for many cycles moves its entries
 * once. */
class ReadyQueue
{
  public:
    explicit ReadyQueue(std::uint32_t capacity)
        : ring_(std::bit_ceil(capacity)), mask_(ring_.size() - 1)
    {
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /** The first entry; no rotation may be pending (see settle()). */
    ReadyEntry &front() { return ring_[head_ & mask_]; }

    /** The @p i-th entry from the front, counting a pending rotation. */
    const ReadyEntry &
    at(std::size_t i) const
    {
        return ring_[(head_ + (pending_ + i) % size_) & mask_];
    }

    void
    push_back(const ReadyEntry &entry)
    {
        settle();
        if (size_ == ring_.size())
            grow();
        ring_[(head_ + size_) & mask_] = entry;
        ++size_;
    }

    void
    pop_front()
    {
        TCSIM_ASSERT(size_ > 0 && pending_ == 0);
        ++head_;
        --size_;
    }

    /** Move the first @p n entries to the back, keeping their order. */
    void
    rotate(std::size_t n)
    {
        for (; n > 0; --n) {
            ring_[(head_ + size_) & mask_] = ring_[head_ & mask_];
            ++head_;
        }
    }

    /** rotate(@p n), applied at the next push_back() or settle(). The
     * queue must not be empty. */
    void deferRotate(std::size_t n) { pending_ += n; }

    /** Apply the deferred rotation (mod the size, which cannot change
     * while one is pending). */
    void
    settle()
    {
        if (pending_ != 0) {
            rotate(pending_ % size_);
            pending_ = 0;
        }
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
        pending_ = 0;
    }

  private:
    void
    grow()
    {
        std::vector<ReadyEntry> bigger(ring_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = ring_[(head_ + i) & mask_];
        ring_ = std::move(bigger);
        mask_ = ring_.size() - 1;
        head_ = 0;
    }

    std::vector<ReadyEntry> ring_;
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t pending_ = 0; ///< deferred rotation
};

/** Occupancy tracking plus per-unit ready queues. */
class NodeTables
{
  public:
    explicit NodeTables(const NodeTableParams &params = NodeTableParams{})
        : params_(params), occupancy_(params.numUnits, 0),
          readyQueues_(params.numUnits, ReadyQueue(params.entriesPerUnit))
    {
        TCSIM_ASSERT(params_.numUnits >= 1 && params_.numUnits <= 64,
                     "the ready-unit mask is one 64-bit word");
        TCSIM_ASSERT(params_.entriesPerUnit >= 1);
    }

    std::uint32_t numUnits() const { return params_.numUnits; }

    /**
     * Reserve an entry in some unit's table (round-robin among units
     * with space).
     * @param[out] unit the chosen unit
     * @return false if every table is full
     */
    bool
    allocate(std::uint8_t &unit)
    {
        std::uint32_t u = allocNext_;
        for (std::uint32_t i = 0; i < params_.numUnits; ++i) {
            if (occupancy_[u] < params_.entriesPerUnit) {
                ++occupancy_[u];
                ++totalOccupied_;
                unit = static_cast<std::uint8_t>(u);
                allocNext_ = u + 1 == params_.numUnits ? 0 : u + 1;
                return true;
            }
            if (++u == params_.numUnits)
                u = 0;
        }
        return false;
    }

    /** Release an entry (at fire or squash). */
    void
    release(std::uint8_t unit)
    {
        TCSIM_ASSERT(occupancy_[unit] > 0);
        TCSIM_ASSERT(totalOccupied_ > 0);
        --occupancy_[unit];
        --totalOccupied_;
    }

    /** Add a ready instruction to its unit's queue. */
    void
    markReady(std::uint8_t unit, InstSeqNum seq)
    {
        readyQueues_[unit].push_back(ReadyEntry{seq});
        readyUnits_ |= std::uint64_t{1} << unit;
    }

    /** @return a mask with bit u set for every unit u whose ready queue
     * may hold entries: set at every push, cleared by clearReadyUnit(),
     * so a unit whose bit is clear has an empty queue. */
    std::uint64_t readyUnits() const { return readyUnits_; }

    /** Clear @p unit's readyUnits() bit; its queue must be empty. */
    void
    clearReadyUnit(std::uint8_t unit)
    {
        readyUnits_ &= ~(std::uint64_t{1} << unit);
    }

    /** @return the ready queue for @p unit (oldest first). */
    ReadyQueue &readyQueue(std::uint8_t unit)
    {
        return readyQueues_[unit];
    }

    /** Total occupied entries across all tables (O(1): maintained
     * on allocate/release — dispatch checks this every cycle). */
    std::uint32_t totalOccupied() const { return totalOccupied_; }

    /** Drop all state (full squash helper for tests). */
    void
    clear()
    {
        for (auto &occ : occupancy_)
            occ = 0;
        for (auto &queue : readyQueues_)
            queue.clear();
        readyUnits_ = 0;
        totalOccupied_ = 0;
    }

  private:
    NodeTableParams params_;
    std::vector<std::uint32_t> occupancy_;
    std::vector<ReadyQueue> readyQueues_;
    std::uint64_t readyUnits_ = 0;
    std::uint32_t allocNext_ = 0;
    std::uint32_t totalOccupied_ = 0;
};

} // namespace tcsim::core

#endif // TCSIM_CORE_NODE_TABLES_H
