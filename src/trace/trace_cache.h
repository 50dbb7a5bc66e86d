/**
 * @file
 * Trace cache storage: 2K segments, 4-way set associative (~128 KB of
 * instruction storage), indexed by segment start address.
 *
 * No path associativity is modeled (paper section 3): at most one
 * segment with a given start address is resident, so inserting a
 * segment replaces any existing segment with the same start.
 */

#ifndef TCSIM_TRACE_TRACE_CACHE_H
#define TCSIM_TRACE_TRACE_CACHE_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "obs/trace.h"
#include "trace/segment.h"

namespace tcsim::trace
{

/** Geometry parameters for the trace cache. */
struct TraceCacheParams
{
    std::uint32_t numSegments = 2048;
    std::uint32_t assoc = 4;
    /**
     * Path associativity: allow several segments with the same start
     * address (differing in embedded path) to be resident at once.
     * The paper's configurations do not use it (section 3); it is
     * provided for the cited comparison.
     */
    bool pathAssociativity = false;
};

/** The trace cache proper. */
class TraceCache
{
  public:
    explicit TraceCache(const TraceCacheParams &params = TraceCacheParams{});

    /**
     * @return the resident segment starting at @p addr, or nullptr.
     * Records hit/miss statistics.
     */
    const TraceSegment *lookup(Addr addr);

    /** @return the resident segment without touching statistics/LRU. */
    const TraceSegment *peek(Addr addr) const;

    /**
     * Collect every resident segment starting at @p addr (more than
     * one only under path associativity). Counts as one lookup; a hit
     * is recorded if any candidate exists.
     */
    void lookupAll(Addr addr,
                   std::vector<const TraceSegment *> &candidates);

    /**
     * Insert @p segment, replacing any same-start segment in its set,
     * else the LRU way. The argument is consumed by swapping with the
     * replaced way, handing its instruction buffer back to the caller:
     * a fill unit that resets and reuses the same segment object
     * recycles capacity instead of allocating per insert. The
     * segment's contents after the call are unspecified.
     */
    void insert(TraceSegment &&segment);

    /** Invalidate everything. */
    void flush();

    /** Visit every resident segment (inspection/debugging). */
    template <typename Fn>
    void
    forEachResident(Fn &&fn) const
    {
        for (const Way &way : ways_) {
            if (way.valid)
                fn(way.segment);
        }
    }

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t inserts() const { return inserts_; }
    std::uint64_t sameStartReplacements() const
    {
        return sameStartReplacements_;
    }

    double
    hitRatio() const
    {
        return lookups_ == 0 ? 0.0
                             : static_cast<double>(hits_) / lookups_;
    }

    void dumpStats(StatDump &dump) const;

    /** Attach a tracer for `tc` trace points (null disables). */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /** Zero the statistics counters (contents untouched). */
    void
    resetStats()
    {
        lookups_ = hits_ = inserts_ = sameStartReplacements_ = 0;
    }

  private:
    struct Way
    {
        TraceSegment segment;
        bool valid = false;
        std::uint64_t lruStamp = 0;
    };

    std::uint32_t setOf(Addr addr) const;

    TraceCacheParams params_;
    std::uint32_t numSets_;
    std::uint32_t setMask_; ///< numSets_ - 1, hoisted off the lookup path
    std::vector<Way> ways_; // numSets_ * assoc, set-major
    std::uint64_t tick_ = 0;

    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t sameStartReplacements_ = 0;

    obs::Tracer *tracer_ = nullptr;
};

} // namespace tcsim::trace

#endif // TCSIM_TRACE_TRACE_CACHE_H
