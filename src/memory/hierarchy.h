/**
 * @file
 * The paper's memory hierarchy, assembled: a 4 KB 4-way L1 instruction
 * cache, a 64 KB 4-way L1 data cache, and a unified 1 MB second-level
 * cache with 6-cycle latency backed by >= 50-cycle memory. Memory is
 * a flat latency with free bandwidth, as in the paper.
 */

#ifndef TCSIM_MEMORY_HIERARCHY_H
#define TCSIM_MEMORY_HIERARCHY_H

#include "memory/cache.h"

namespace tcsim::memory
{

/** Parameters for the full hierarchy (paper defaults). */
struct HierarchyParams
{
    CacheParams icache{"l1i", 4 * 1024, 4, 64, 0};
    CacheParams dcache{"l1d", 64 * 1024, 4, 64, 0};
    CacheParams l2{"l2", 1024 * 1024, 8, 64, 6};
    std::uint32_t memoryLatency = 50;
};

/** Owns the cache levels and wires them together. */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyParams &params = HierarchyParams{})
        : l2_(params.l2, nullptr, params.memoryLatency),
          icache_(params.icache, &l2_),
          dcache_(params.dcache, &l2_)
    {
    }

    Cache &icache() { return icache_; }
    Cache &dcache() { return dcache_; }
    Cache &l2() { return l2_; }
    const Cache &icache() const { return icache_; }
    const Cache &dcache() const { return dcache_; }
    const Cache &l2() const { return l2_; }

    /** Append all levels' statistics to @p dump. */
    void
    dumpStats(StatDump &dump) const
    {
        icache_.dumpStats(dump);
        dcache_.dumpStats(dump);
        l2_.dumpStats(dump);
    }

  private:
    Cache l2_;
    Cache icache_;
    Cache dcache_;
};

} // namespace tcsim::memory

#endif // TCSIM_MEMORY_HIERARCHY_H
