#include "memory/cache.h"
#include "common/bitutils.h"


namespace tcsim::memory
{

Cache::Cache(const CacheParams &params, Cache *next,
             std::uint32_t memory_latency)
    : params_(params), next_(next), memoryLatency_(memory_latency)
{
    TCSIM_ASSERT(isPowerOf2(params_.lineBytes), "line size not pow2");
    TCSIM_ASSERT(params_.assoc >= 1);
    TCSIM_ASSERT(params_.sizeBytes % (params_.lineBytes * params_.assoc) ==
                     0,
                 "size not divisible by way size");
    numSets_ = params_.sizeBytes / (params_.lineBytes * params_.assoc);
    TCSIM_ASSERT(isPowerOf2(numSets_), "set count not pow2");
    lineShift_ = floorLog2(params_.lineBytes);
    setShift_ = floorLog2(numSets_);
    setMask_ = numSets_ - 1;
    lines_.resize(static_cast<std::size_t>(numSets_) * params_.assoc);
}

std::uint32_t
Cache::access(Addr addr, bool write)
{
    ++accesses_;
    ++tick_;

    const std::uint32_t set = setIndex(addr);
    const Addr tag = tagOf(addr);

    // Repeat-line fast path: the way the previous access touched is
    // the only one in its set that can hold its line, so if it still
    // does (the re-check), this is that hit without the set search.
    const Addr line_addr = lineAddr(addr);
    if (line_addr == lastLine_) {
        Line &line = lines_[lastWay_];
        if (line.valid && line.tag == tag) {
            line.lruStamp = tick_;
            line.dirty = line.dirty || write;
            return params_.accessLatency;
        }
    }
    lastLine_ = line_addr;
    const std::size_t base = static_cast<std::size_t>(set) * params_.assoc;
    Line *line_base = &lines_[base];

    // Hit?
    for (std::uint32_t way = 0; way < params_.assoc; ++way) {
        Line &line = line_base[way];
        if (line.valid && line.tag == tag) {
            line.lruStamp = tick_;
            line.dirty = line.dirty || write;
            lastWay_ = base + way;
            return params_.accessLatency;
        }
    }

    // Miss: fetch from below, then allocate over the LRU victim.
    ++misses_;
    TCSIM_TPOINT(tracer_, Mem, "miss", "%s addr=0x%llx write=%d",
                 params_.name.c_str(),
                 static_cast<unsigned long long>(addr), write ? 1 : 0);
    const std::uint32_t below =
        next_ != nullptr ? next_->access(addr, false) : memoryLatency_;

    Line *victim = line_base;
    for (std::uint32_t way = 1; way < params_.assoc; ++way) {
        Line &line = line_base[way];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    if (victim->valid && victim->dirty) {
        ++writebacks_;
        TCSIM_TPOINT(tracer_, Mem, "writeback", "%s victim_tag=0x%llx",
                     params_.name.c_str(),
                     static_cast<unsigned long long>(victim->tag));
    }
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = write;
    victim->lruStamp = tick_;
    lastWay_ = static_cast<std::size_t>(victim - lines_.data());

    return params_.accessLatency + below;
}

bool
Cache::probe(Addr addr) const
{
    const std::uint32_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const Line *line_base =
        &lines_[static_cast<std::size_t>(set) * params_.assoc];
    for (std::uint32_t way = 0; way < params_.assoc; ++way) {
        const Line &line = line_base[way];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (Line &line : lines_) {
        if (line.valid && line.dirty) {
            ++writebacks_;
            TCSIM_TPOINT(tracer_, Mem, "flush_writeback",
                         "%s victim_tag=0x%llx", params_.name.c_str(),
                         static_cast<unsigned long long>(line.tag));
        }
        line = Line{};
    }
}

void
Cache::dumpStats(StatDump &dump) const
{
    dump.add(params_.name + ".accesses", static_cast<double>(accesses_));
    dump.add(params_.name + ".misses", static_cast<double>(misses_));
    dump.add(params_.name + ".writebacks",
             static_cast<double>(writebacks_));
}

void
Cache::resetStats()
{
    accesses_ = 0;
    misses_ = 0;
    writebacks_ = 0;
}

} // namespace tcsim::memory
