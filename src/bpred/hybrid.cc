#include "bpred/hybrid.h"

#include "common/bitutils.h"
#include "common/log.h"
#include "isa/instruction.h"

namespace tcsim::bpred
{

HybridPredictor::HybridPredictor(const HybridParams &params)
    : params_(params)
{
    TCSIM_ASSERT(params_.historyBits >= 1 && params_.historyBits <= 24);
    TCSIM_ASSERT(isPowerOf2(params_.bhtEntries));
    tableMask_ =
        static_cast<std::uint32_t>(mask(params_.historyBits));
    localMask_ =
        static_cast<std::uint32_t>(mask(params_.localHistoryBits));
    bhtMask_ = params_.bhtEntries - 1;
    gshare_.assign(tableMask_ + 1, SaturatingCounter(2, 1));
    pasPattern_.assign(static_cast<std::size_t>(localMask_) + 1,
                       SaturatingCounter(2, 1));
    selector_.assign(tableMask_ + 1, SaturatingCounter(2, 1));
    localHistory_.assign(params_.bhtEntries, 0);
}

std::uint32_t
HybridPredictor::gshareIndex(Addr pc, std::uint64_t ghist) const
{
    return static_cast<std::uint32_t>(
               (pc / isa::kInstBytes) ^ ghist) &
           tableMask_;
}

std::uint32_t
HybridPredictor::bhtIndex(Addr pc) const
{
    return static_cast<std::uint32_t>(pc / isa::kInstBytes) & bhtMask_;
}

HybridCtx
HybridPredictor::predict(Addr pc, std::uint64_t ghist) const
{
    HybridCtx ctx;
    ctx.gshareIdx = gshareIndex(pc, ghist);
    ctx.selectorIdx = ctx.gshareIdx;
    const std::uint32_t local = localHistory_[bhtIndex(pc)];
    ctx.pasPatternIdx = local & localMask_;
    ctx.gsharePred = gshare_[ctx.gshareIdx].predictTaken();
    ctx.pasPred = pasPattern_[ctx.pasPatternIdx].predictTaken();
    ctx.prediction = selector_[ctx.selectorIdx].predictTaken()
                         ? ctx.pasPred
                         : ctx.gsharePred;
    return ctx;
}

void
HybridPredictor::update(Addr pc, const HybridCtx &ctx, bool taken)
{
    gshare_[ctx.gshareIdx].update(taken);
    pasPattern_[ctx.pasPatternIdx].update(taken);
    if (ctx.gsharePred != ctx.pasPred)
        selector_[ctx.selectorIdx].update(ctx.pasPred == taken);

    std::uint32_t &local = localHistory_[bhtIndex(pc)];
    local = ((local << 1) | static_cast<std::uint32_t>(taken)) &
            localMask_;
}

} // namespace tcsim::bpred
