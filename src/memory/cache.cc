#include "memory/cache.h"
#include "common/binio.h"
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
Cache::access(Addr addr, bool write, Cycle now)
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
    std::uint32_t below;
    if (next_ != nullptr)
        below = next_->access(addr, false, now);
    else if (dram_ != nullptr)
        below = dram_->access(addr, false, params_.lineBytes, now);
    else
        below = memoryLatency_;

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
        if (params_.writebackToNext) {
            // The victim's data must reach the next level (or memory):
            // charge the traffic where it lands. The store lands after
            // the demand fill, so it sees the post-miss cycle.
            const Addr victim_addr = addrOfLine(victim->tag, set);
            const Cycle wb_now = now + params_.accessLatency + below;
            std::uint32_t wb_cost = 0;
            if (next_ != nullptr)
                wb_cost = next_->access(victim_addr, true, wb_now);
            else if (dram_ != nullptr)
                wb_cost = dram_->access(victim_addr, true,
                                        params_.lineBytes, wb_now);
            writebackCycles_ += wb_cost;
        }
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
Cache::flush(Cycle now)
{
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        Line &line = lines_[i];
        if (line.valid && line.dirty) {
            ++writebacks_;
            TCSIM_TPOINT(tracer_, Mem, "flush_writeback",
                         "%s victim_tag=0x%llx", params_.name.c_str(),
                         static_cast<unsigned long long>(line.tag));
            if (params_.writebackToNext) {
                // Mirror the eviction path in access(): the victim's
                // data must reach the next level (or memory), and the
                // cost lands in writebackCycles_ exactly once — the
                // line is invalidated below, so a later flush cannot
                // charge it again.
                const std::uint32_t set =
                    static_cast<std::uint32_t>(i / params_.assoc);
                const Addr victim_addr = addrOfLine(line.tag, set);
                std::uint32_t wb_cost = 0;
                if (next_ != nullptr)
                    wb_cost = next_->access(victim_addr, true, now);
                else if (dram_ != nullptr)
                    wb_cost = dram_->access(victim_addr, true,
                                            params_.lineBytes, now);
                writebackCycles_ += wb_cost;
            }
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
    if (params_.writebackToNext)
        dump.add(params_.name + ".writeback_cycles",
                 static_cast<double>(writebackCycles_));
}

void
Cache::resetStats()
{
    accesses_ = 0;
    misses_ = 0;
    writebacks_ = 0;
    writebackCycles_ = 0;
}

void
Cache::saveState(std::ostream &os) const
{
    binio::writeScalar(os, params_.sizeBytes);
    binio::writeScalar(os, params_.assoc);
    binio::writeScalar(os, params_.lineBytes);
    binio::writeScalar(os, tick_);
    for (const Line &line : lines_) {
        binio::writeScalar(os, line.tag);
        binio::writeScalar<std::uint8_t>(os, line.valid ? 1 : 0);
        binio::writeScalar<std::uint8_t>(os, line.dirty ? 1 : 0);
        binio::writeScalar(os, line.lruStamp);
    }
}

bool
Cache::restoreState(std::istream &is)
{
    std::uint32_t size_bytes = 0, assoc = 0, line_bytes = 0;
    if (!binio::readScalar(is, size_bytes) ||
        !binio::readScalar(is, assoc) ||
        !binio::readScalar(is, line_bytes) ||
        size_bytes != params_.sizeBytes || assoc != params_.assoc ||
        line_bytes != params_.lineBytes) {
        return false;
    }
    if (!binio::readScalar(is, tick_))
        return false;
    for (Line &line : lines_) {
        std::uint8_t valid = 0, dirty = 0;
        if (!binio::readScalar(is, line.tag) ||
            !binio::readScalar(is, valid) ||
            !binio::readScalar(is, dirty) ||
            !binio::readScalar(is, line.lruStamp)) {
            return false;
        }
        line.valid = valid != 0;
        line.dirty = dirty != 0;
    }
    return true;
}

} // namespace tcsim::memory
