/**
 * @file
 * A generic set-associative, write-back, LRU cache level, composable
 * into a hierarchy. Timing is modeled as a per-access latency returned
 * to the caller; caches are blocking (the era's simulators, including
 * the paper's SimpleScalar 2.0 baseline, modeled fetch stalls the same
 * way). The last level may be backed by a contended Dram model, in
 * which case the caller's current cycle (threaded through access())
 * determines queueing delay on the memory bus.
 */

#ifndef TCSIM_MEMORY_CACHE_H
#define TCSIM_MEMORY_CACHE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "common/types.h"
#include "memory/dram.h"
#include "obs/trace.h"

namespace tcsim::memory
{

/** Geometry and latency parameters for one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 4096;
    std::uint32_t assoc = 4;
    std::uint32_t lineBytes = 64;
    /** Extra cycles charged when this level must be consulted. */
    std::uint32_t accessLatency = 0;
    /**
     * Issue dirty-victim writebacks to the next level (or DRAM when
     * last-level) so eviction traffic is seen — and charged — below.
     * Defaults to the legacy zero-cost path (count only), which keeps
     * pre-existing golden stats byte-identical; contended-memory
     * configs switch it on.
     */
    bool writebackToNext = false;
};

/** One cache level; misses are forwarded to the next level. */
class Cache
{
  public:
    /**
     * @param params geometry/latency
     * @param next the next level, or nullptr if backed by memory
     * @param memory_latency cycles charged when next == nullptr misses
     *        here (i.e., this is the last level before DRAM) and no
     *        Dram model is attached
     */
    Cache(const CacheParams &params, Cache *next,
          std::uint32_t memory_latency = 50);

    /**
     * Back this (last-level) cache with a contended Dram model:
     * misses and issued writebacks queue on its bus instead of paying
     * the flat memory latency. Ignored while @p dram is null or when
     * this level has a next cache.
     */
    void setBackingDram(Dram *dram) { dram_ = dram; }

    /**
     * Access the line containing @p addr, allocating it on miss.
     * @param write true for stores (sets the dirty bit)
     * @param now current cycle; only consulted by a backing Dram model
     *        (flat-latency timing is cycle-independent)
     * @return total extra latency in cycles (0 for an L1 hit when
     *         accessLatency is 0)
     */
    std::uint32_t access(Addr addr, bool write, Cycle now = 0);

    /** @return true if the line containing @p addr is resident. */
    bool probe(Addr addr) const;

    /**
     * Invalidate all lines, counting (and tracing) a writeback for
     * every dirty valid line dropped. With writebackToNext set the
     * victims' data is actually issued below — to the next level, or
     * to the backing Dram at @p now so flush traffic queues on the
     * contended bus like any other writeback — and the cost lands in
     * writebackCycles() exactly once per dirty line (a line is clean
     * once flushed, so a second flush adds nothing).
     */
    void flush(Cycle now = 0);

    /** @return the line size in bytes. */
    std::uint32_t lineBytes() const { return params_.lineBytes; }

    /** @return the number of sets. */
    std::uint32_t numSets() const { return numSets_; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    /** Cycles spent issuing writeback traffic below (0 on the legacy
     * zero-cost path). */
    std::uint64_t writebackCycles() const { return writebackCycles_; }

    /** Miss ratio over all accesses (0 when never accessed). */
    double
    missRatio() const
    {
        return accesses_ == 0
                   ? 0.0
                   : static_cast<double>(misses_) / accesses_;
    }

    /**
     * Append this level's statistics to @p dump. Canonical-document
     * policy: integer counters only — derived ratios (miss_ratio and
     * friends) are recomputed by the shared renderer at display time
     * (see printStatsWithDerivedRatios in sim/accounting).
     */
    void dumpStats(StatDump &dump) const;

    void resetStats();

    /**
     * Serialize / reload the tag array (tags, valid/dirty bits, LRU
     * state) for warm-start checkpoints. Statistics counters are NOT
     * part of the state — checkpoint consumers open their measurement
     * window with resetStats() anyway. restoreState() rejects a blob
     * from a different geometry.
     */
    void saveState(std::ostream &os) const;
    bool restoreState(std::istream &is);

    /** Attach a tracer for `mem` trace points (null disables). */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    const std::string &name() const { return params_.name; }

  private:
    struct Line
    {
        Addr tag = kInvalidAddr;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    // Line size and set count are powers of two (the constructor
    // asserts both), so indexing is shifts and masks.
    Addr lineAddr(Addr addr) const { return addr >> lineShift_; }
    std::uint32_t setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(lineAddr(addr) & setMask_);
    }
    Addr tagOf(Addr addr) const { return lineAddr(addr) >> setShift_; }
    /** Reconstruct the byte address of a resident line. */
    Addr
    addrOfLine(Addr tag, std::uint32_t set) const
    {
        return ((tag << setShift_) | set) << lineShift_;
    }

    CacheParams params_;
    Cache *next_;
    std::uint32_t memoryLatency_;
    Dram *dram_ = nullptr;
    std::uint32_t numSets_;
    unsigned lineShift_;
    unsigned setShift_;
    Addr setMask_;
    std::vector<Line> lines_; // numSets_ * assoc, set-major
    std::uint64_t tick_ = 0;
    /**
     * Repeat-line memo: the line address of the previous access and
     * the lines_ index of the way it touched. access() re-checks that
     * way's valid bit and tag before trusting it, so flush(),
     * restoreState() and evictions need not clear it.
     */
    Addr lastLine_ = kInvalidAddr;
    std::size_t lastWay_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t writebackCycles_ = 0;

    obs::Tracer *tracer_ = nullptr;
};

} // namespace tcsim::memory

#endif // TCSIM_MEMORY_CACHE_H
