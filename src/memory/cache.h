/**
 * @file
 * A generic set-associative, write-back, LRU cache level, composable
 * into a hierarchy. Timing is modeled as a per-access latency returned
 * to the caller; caches are blocking (the era's simulators, including
 * the paper's SimpleScalar 2.0 baseline, modeled fetch stalls the same
 * way). A miss in the last level pays the flat memory latency.
 */

#ifndef TCSIM_MEMORY_CACHE_H
#define TCSIM_MEMORY_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "common/types.h"
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
};

/** One cache level; misses are forwarded to the next level. */
class Cache
{
  public:
    /**
     * @param params geometry/latency
     * @param next the next level, or nullptr if backed by memory
     * @param memory_latency cycles charged when next == nullptr misses
     *        here (i.e., this is the last level before memory)
     */
    Cache(const CacheParams &params, Cache *next,
          std::uint32_t memory_latency = 50);

    /**
     * Access the line containing @p addr, allocating it on miss.
     * @param write true for stores (sets the dirty bit)
     * @return total extra latency in cycles (0 for an L1 hit when
     *         accessLatency is 0)
     */
    std::uint32_t
    access(Addr addr, bool write)
    {
        // Repeat-line fast path: the way the previous access touched
        // is the only one in its set that can hold its line, so if it
        // still does (the re-check), this is that hit without the set
        // search.
        const Addr line_addr = lineAddr(addr);
        if (line_addr == lastLine_) {
            Line &line = lines_[lastWay_];
            if (line.valid && line.tag == (line_addr >> setShift_)) {
                ++accesses_;
                line.lruStamp = ++tick_;
                line.dirty = line.dirty || write;
                return params_.accessLatency;
            }
        }
        return accessSet(addr, write);
    }

    /** @return true if the line containing @p addr is resident. */
    bool probe(Addr addr) const;

    /**
     * Invalidate all lines, counting (and tracing) a writeback for
     * every dirty valid line dropped. Like an eviction's, the
     * writeback is counted, not charged.
     */
    void flush();

    /** @return the line size in bytes. */
    std::uint32_t lineBytes() const { return params_.lineBytes; }

    /** @return the number of sets. */
    std::uint32_t numSets() const { return numSets_; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

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

    /** access() past the repeat-line path: search the set, and on a
     * miss fetch from below and allocate over the LRU victim. */
    std::uint32_t accessSet(Addr addr, bool write);

    CacheParams params_;
    Cache *next_;
    std::uint32_t memoryLatency_;
    std::uint32_t numSets_;
    unsigned lineShift_;
    unsigned setShift_;
    Addr setMask_;
    std::vector<Line> lines_; // numSets_ * assoc, set-major
    std::uint64_t tick_ = 0;
    /**
     * Repeat-line memo: the line address of the previous access and
     * the lines_ index of the way it touched. access() re-checks that
     * way's valid bit and tag before trusting it, so flush() and
     * evictions need not clear it.
     */
    Addr lastLine_ = kInvalidAddr;
    std::size_t lastWay_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;

    obs::Tracer *tracer_ = nullptr;
};

} // namespace tcsim::memory

#endif // TCSIM_MEMORY_CACHE_H
