/**
 * @file
 * A last-target predictor for indirect jumps.
 *
 * The paper does not detail its indirect-target mechanism; indirect
 * jumps that miss here produce "misfetch" cycles (Figure 12's small
 * Misfetches component). A simple untagged last-target table is the
 * era-appropriate choice.
 */

#ifndef TCSIM_BPRED_INDIRECT_H
#define TCSIM_BPRED_INDIRECT_H

#include <cstdint>
#include <vector>

#include "common/bitutils.h"
#include "common/log.h"
#include "common/types.h"
#include "isa/instruction.h"

namespace tcsim::bpred
{

/** Untagged last-target table for indirect jumps. */
class IndirectPredictor
{
  public:
    explicit IndirectPredictor(std::uint32_t entries = 512)
        : entries_(entries)
    {
        TCSIM_ASSERT(isPowerOf2(entries));
        targets_.resize(entries, kInvalidAddr);
    }

    /**
     * @return the predicted target of the indirect jump at @p pc, or
     * kInvalidAddr if the site has never resolved (a guaranteed
     * misfetch).
     */
    Addr
    predict(Addr pc) const
    {
        return targets_[indexOf(pc)];
    }

    /** Record the resolved target. */
    void
    update(Addr pc, Addr target)
    {
        targets_[indexOf(pc)] = target;
    }

  private:
    std::uint32_t
    indexOf(Addr pc) const
    {
        return static_cast<std::uint32_t>((pc / isa::kInstBytes) &
                                          (entries_ - 1));
    }

    std::uint32_t entries_;
    std::vector<Addr> targets_;
};

} // namespace tcsim::bpred

#endif // TCSIM_BPRED_INDIRECT_H
