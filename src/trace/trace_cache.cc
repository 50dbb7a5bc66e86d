#include "trace/trace_cache.h"

#include <utility>

#include "common/bitutils.h"
#include "common/log.h"
#include "isa/instruction.h"

namespace tcsim::trace
{

TraceCache::TraceCache(const TraceCacheParams &params) : params_(params)
{
    TCSIM_ASSERT(params_.assoc >= 1);
    TCSIM_ASSERT(params_.numSegments % params_.assoc == 0);
    numSets_ = params_.numSegments / params_.assoc;
    TCSIM_ASSERT(isPowerOf2(numSets_));
    setMask_ = numSets_ - 1;
    ways_.resize(params_.numSegments);
}

std::uint32_t
TraceCache::setOf(Addr addr) const
{
    return static_cast<std::uint32_t>(addr / isa::kInstBytes) & setMask_;
}

const TraceSegment *
TraceCache::lookup(Addr addr)
{
    ++lookups_;
    ++tick_;
    Way *base = &ways_[static_cast<std::size_t>(setOf(addr)) *
                       params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Way &way = base[w];
        if (way.valid && way.segment.startAddr == addr) {
            ++hits_;
            way.lruStamp = tick_;
            TCSIM_TPOINT(tracer_, TC, "hit", "addr=0x%llx size=%u",
                         static_cast<unsigned long long>(addr),
                         way.segment.size());
            return &way.segment;
        }
    }
    TCSIM_TPOINT(tracer_, TC, "miss", "addr=0x%llx",
                 static_cast<unsigned long long>(addr));
    return nullptr;
}

const TraceSegment *
TraceCache::peek(Addr addr) const
{
    const Way *base = &ways_[static_cast<std::size_t>(setOf(addr)) *
                             params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        const Way &way = base[w];
        if (way.valid && way.segment.startAddr == addr)
            return &way.segment;
    }
    return nullptr;
}

void
TraceCache::insert(TraceSegment &&segment)
{
    TCSIM_ASSERT(!segment.empty());
    TCSIM_ASSERT(segment.size() <= kMaxSegmentInsts);
    ++inserts_;
    ++tick_;

    Way *base = &ways_[static_cast<std::size_t>(setOf(segment.startAddr)) *
                       params_.assoc];

    // No path associativity: a same-start segment is always replaced.
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Way &way = base[w];
        if (way.valid && way.segment.startAddr == segment.startAddr) {
            ++sameStartReplacements_;
            TCSIM_TPOINT(tracer_, TC, "insert",
                         "addr=0x%llx size=%u same_start=1",
                         static_cast<unsigned long long>(
                             segment.startAddr),
                         segment.size());
            std::swap(way.segment, segment);
            way.lruStamp = tick_;
            return;
        }
    }

    Way *victim = base;
    for (std::uint32_t w = 1; w < params_.assoc; ++w) {
        Way &way = base[w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.lruStamp < victim->lruStamp)
            victim = &way;
    }
    TCSIM_TPOINT(tracer_, TC, "insert",
                 "addr=0x%llx size=%u same_start=0 evict=%d",
                 static_cast<unsigned long long>(segment.startAddr),
                 segment.size(), victim->valid ? 1 : 0);
    std::swap(victim->segment, segment);
    victim->valid = true;
    victim->lruStamp = tick_;
}

void
TraceCache::flush()
{
    for (Way &way : ways_)
        way.valid = false;
}

void
TraceCache::dumpStats(StatDump &dump) const
{
    dump.add("trace_cache.lookups", static_cast<double>(lookups_));
    dump.add("trace_cache.hits", static_cast<double>(hits_));
    dump.add("trace_cache.hit_ratio", hitRatio());
    dump.add("trace_cache.inserts", static_cast<double>(inserts_));
    dump.add("trace_cache.same_start_replacements",
             static_cast<double>(sameStartReplacements_));
}

} // namespace tcsim::trace
