#include "bpred/bias_table.h"

#include <bit>
#include <cstring>

#include "common/bitutils.h"
#include "common/log.h"
#include "isa/instruction.h"

namespace tcsim::bpred
{

BranchBiasTable::BranchBiasTable(const BiasTableParams &params)
    : params_(params)
{
    TCSIM_ASSERT(isPowerOf2(params_.entries));
    TCSIM_ASSERT(params_.promoteThreshold >= 1);
    TCSIM_ASSERT(params_.counterMax >= params_.promoteThreshold);
    TCSIM_ASSERT(params_.counterMax <= Entry::kCountMask,
                 "consecutive counter must fit the packed word");
    indexMask_ = params_.entries - 1;
    tagShift_ = static_cast<std::uint32_t>(
        std::countr_zero(params_.entries));
    entries_.resize(params_.entries);
}

std::uint32_t
BranchBiasTable::indexOf(Addr pc) const
{
    return static_cast<std::uint32_t>((pc / isa::kInstBytes) &
                                      indexMask_);
}

std::uint32_t
BranchBiasTable::tagOf(Addr pc) const
{
    const std::uint64_t tag = (pc / isa::kInstBytes) >> tagShift_;
    TCSIM_ASSERT(tag < Entry::kNoTag,
                 "branch pc beyond the 32-bit tag range");
    return static_cast<std::uint32_t>(tag);
}

void
BranchBiasTable::update(Addr pc, bool taken)
{
    Entry &entry = entries_[indexOf(pc)];
    const std::uint32_t tag = tagOf(pc);

    if (entry.tag != tag) {
        // Miss: the displaced branch loses any promoted status.
        if (entry.promoted()) {
            TCSIM_TPOINT(tracer_, Promote, "displace", "pc=0x%llx",
                         static_cast<unsigned long long>(pc));
        }
        entry.tag = tag;
        entry.meta = 1; // count=1, lastOutcome/promoted/dir clear
        entry.setFlag(Entry::kLastOutcomeBit, taken);
        return;
    }

    if (entry.lastOutcome() == taken) {
        if (entry.count() < params_.counterMax)
            entry.setCount(entry.count() + 1);
    } else {
        entry.setFlag(Entry::kLastOutcomeBit, taken);
        entry.setCount(1);
    }

    if (!entry.promoted() && entry.count() >= params_.promoteThreshold) {
        entry.setFlag(Entry::kPromotedBit, true);
        entry.setFlag(Entry::kPromotedDirBit, taken);
        ++promotions_;
        TCSIM_TPOINT(tracer_, Promote, "promote", "pc=0x%llx dir=%d",
                     static_cast<unsigned long long>(pc), taken ? 1 : 0);
    } else if (entry.promoted() && taken != entry.promotedDir() &&
               entry.count() >= 2) {
        entry.setFlag(Entry::kPromotedBit, false);
        ++demotions_;
        TCSIM_TPOINT(tracer_, Promote, "demote", "pc=0x%llx dir=%d",
                     static_cast<unsigned long long>(pc), taken ? 1 : 0);
    }
}

PromotionAdvice
BranchBiasTable::advice(Addr pc) const
{
    const Entry &entry = entries_[indexOf(pc)];
    PromotionAdvice result;
    if (entry.tag == tagOf(pc) && entry.promoted()) {
        result.promote = true;
        result.direction = entry.promotedDir();
    }
    return result;
}

} // namespace tcsim::bpred
