#include "bpred/multi.h"

#include "common/bitutils.h"
#include "common/log.h"
#include "isa/instruction.h"

namespace tcsim::bpred
{

TreeMbp::TreeMbp(std::uint32_t entries)
    : entries_(entries), indexMask_(entries - 1)
{
    TCSIM_ASSERT(isPowerOf2(entries_));
    counters_.assign(static_cast<std::size_t>(entries_) * 7,
                     SaturatingCounter(2, 1));
}

std::uint32_t
TreeMbp::indexOf(Addr fetch_addr, std::uint64_t history) const
{
    return static_cast<std::uint32_t>(
               (fetch_addr / isa::kInstBytes) ^ history) &
           indexMask_;
}

bool
TreeMbp::predict(Addr fetch_addr, std::uint64_t history,
                 unsigned position, unsigned path) const
{
    TCSIM_ASSERT(position < 3);
    const std::size_t base =
        static_cast<std::size_t>(indexOf(fetch_addr, history)) * 7;
    return counters_[base + counterOf(position, path)].predictTaken();
}

void
TreeMbp::update(const MbpCtx &ctx, bool taken)
{
    const std::size_t base =
        static_cast<std::size_t>(indexOf(ctx.fetchAddr, ctx.history)) * 7;
    counters_[base + counterOf(ctx.position, ctx.path)].update(taken);
}

SplitMbp::SplitMbp(std::uint32_t first, std::uint32_t second,
                   std::uint32_t third)
{
    const std::uint32_t sizes[3] = {first, second, third};
    for (unsigned t = 0; t < 3; ++t) {
        TCSIM_ASSERT(isPowerOf2(sizes[t]));
        tables_[t].assign(sizes[t], SaturatingCounter(2, 1));
        indexMasks_[t] = sizes[t] - 1;
    }
}

std::uint32_t
SplitMbp::indexOf(Addr fetch_addr, std::uint64_t history,
                  unsigned position) const
{
    return static_cast<std::uint32_t>(
               (fetch_addr / isa::kInstBytes) ^ history) &
           indexMasks_[position];
}

bool
SplitMbp::predict(Addr fetch_addr, std::uint64_t history,
                  unsigned position, unsigned path) const
{
    TCSIM_ASSERT(position < 3);
    (void)path; // independent tables do not condition on the path
    return tables_[position][indexOf(fetch_addr, history, position)]
        .predictTaken();
}

void
SplitMbp::update(const MbpCtx &ctx, bool taken)
{
    tables_[ctx.position]
           [indexOf(ctx.fetchAddr, ctx.history, ctx.position)]
               .update(taken);
}

} // namespace tcsim::bpred
