#include "trace/fill_unit.h"

#include <algorithm>

#include "common/log.h"

namespace tcsim::trace
{

const char *
packingPolicyName(PackingPolicy policy)
{
    switch (policy) {
      case PackingPolicy::Atomic: return "atomic";
      case PackingPolicy::Unregulated: return "unregulated";
      case PackingPolicy::NRegulated: return "n-regulated";
      case PackingPolicy::CostRegulated: return "cost-regulated";
    }
    return "?";
}

FillUnit::FillUnit(const FillUnitParams &params, TraceCache &cache)
    : params_(params), cache_(cache), biasTable_(params.biasTable)
{
    TCSIM_ASSERT(params_.packingGranule >= 1);
    // Segment assembly runs on every retired instruction; size the
    // scratch buffers once so the steady state never reallocates.
    pending_.insts.reserve(kMaxSegmentInsts);
    curBlock_.reserve(2 * kMaxSegmentInsts);
}

void
FillUnit::noteFetchMiss(Addr pc)
{
    if (missSet_.size() > 65536)
        missSet_.clear();
    missSet_.insert(pc);
}

void
FillUnit::retire(const RetiredInst &retired)
{
    // Resynchronize segment construction with the fetch stream: if the
    // front end missed at this address and we are at a block boundary,
    // close out the pending segment so the next one starts here. (The
    // functional walker records no misses: its set stays empty.)
    if (!pending_.empty() && curBlock_.empty() &&
        pending_.startAddr != retired.pc && !missSet_.empty() &&
        missSet_.erase(retired.pc) > 0) {
        ++resyncs_;
        TCSIM_TPOINT(tracer_, Fill, "resync", "pc=0x%llx pending=0x%llx",
                     static_cast<unsigned long long>(retired.pc),
                     static_cast<unsigned long long>(pending_.startAddr));
        finalize(FillReason::Resync);
    }

    // Build the slot in place: a stack TraceInst copied in afterwards
    // reloads its byte-sized flag stores as wider words, which defeats
    // store-to-load forwarding on every retired instruction.
    TraceInst &ti = curBlock_.emplace_back();
    ti.inst = retired.inst;
    ti.pc = retired.pc;

    bool block_end = false;
    bool segment_end = false;

    const isa::Opcode op = retired.inst.op;
    if (isa::isCondBranch(op)) {
        ti.builtTaken = retired.taken;
        if (params_.staticPromotion) {
            const auto it = params_.staticPromotions.find(retired.pc);
            if (it != params_.staticPromotions.end() &&
                it->second == retired.taken) {
                ti.promoted = true;
                ti.promotedDir = it->second;
            }
        }
        if (!ti.promoted && params_.promotion) {
            // The bias table is updated at retire; the freshly updated
            // state then advises the promotion decision.
            biasTable_.update(retired.pc, retired.taken);
            const bpred::PromotionAdvice advice =
                biasTable_.advice(retired.pc);
            // Promote only when the static direction matches this
            // retirement's actual direction; otherwise the segment
            // content (built from the retired stream) would contradict
            // the embedded static prediction.
            if (advice.promote && advice.direction == retired.taken) {
                ti.promoted = true;
                ti.promotedDir = advice.direction;
            }
        }
        if (!ti.promoted) {
            ti.endsBlock = true;
            block_end = true;
        }
    } else if (isa::isReturn(op) || isa::isIndirectJump(op) ||
               isa::isSerializing(op)) {
        block_end = true;
        segment_end = true;
    }

    if (block_end)
        closeBlock(segment_end);
    else if (curBlock_.size() >= kMaxSegmentInsts)
        spillOversized();
}

unsigned
FillUnit::packAllowance(unsigned free) const
{
    switch (params_.packing) {
      case PackingPolicy::Atomic:
        return 0;
      case PackingPolicy::Unregulated:
        return free;
      case PackingPolicy::NRegulated:
        return free / params_.packingGranule * params_.packingGranule;
      case PackingPolicy::CostRegulated:
        if (2 * free >= pending_.size() ||
            pending_.hasTightBackwardBranch) {
            return free;
        }
        return 0;
    }
    return 0;
}

void
FillUnit::appendToPending(const TraceInst &ti)
{
    if (pending_.empty())
        pending_.startAddr = ti.pc;
    pending_.insts.push_back(ti);
    if (ti.promoted) {
        ++promotedEmbedded_;
        TCSIM_TPOINT(tracer_, Promote, "embed", "pc=0x%llx dir=%d",
                     static_cast<unsigned long long>(ti.pc),
                     ti.promotedDir ? 1 : 0);
    }
    if (ti.endsBlock)
        ++pending_.numBlockBranches;
    if (isa::isCondBranch(ti.inst.op) && ti.inst.imm < 0 &&
        -ti.inst.imm <= 32) {
        pending_.hasTightBackwardBranch = true;
    }
}

void
FillUnit::closeBlock(bool ends_segment)
{
    std::size_t consumed = 0;
    while (consumed < curBlock_.size()) {
        const unsigned remaining =
            static_cast<unsigned>(curBlock_.size() - consumed);
        const unsigned free = kMaxSegmentInsts - pending_.size();

        if (remaining <= free) {
            // The (rest of the) block fits entirely.
            for (std::size_t i = consumed; i < curBlock_.size(); ++i)
                appendToPending(curBlock_[i]);
            consumed = curBlock_.size();
            if (pending_.size() == kMaxSegmentInsts)
                finalize(FillReason::MaxSize);
            else if (pending_.numBlockBranches >= kMaxSegmentBranches)
                finalize(FillReason::MaxBranches);
            break;
        }

        // The block does not fit; the policy decides how much (if
        // anything) spills into the pending segment.
        const unsigned take = packAllowance(free);
        if (take == 0) {
            TCSIM_ASSERT(!pending_.empty(),
                         "empty pending cannot refuse a fitting block");
            finalize(FillReason::AtomicBlock);
            continue;
        }
        for (unsigned i = 0; i < take; ++i)
            appendToPending(curBlock_[consumed + i]);
        consumed += take;
        if (pending_.size() == kMaxSegmentInsts)
            finalize(FillReason::MaxSize);
        // Otherwise loop: a reduced allowance (e.g. an n-regulated
        // remainder) finalizes as AtomicBlock on the next round.
    }

    curBlock_.clear();
    if (ends_segment)
        finalize(FillReason::RetIndirTrap);
}

void
FillUnit::spillOversized()
{
    // The accumulating block reached line size without a terminator
    // (a long payload run or a promoted-branch-extended block). Every
    // policy must split such blocks.
    std::size_t consumed = 0;
    while (curBlock_.size() - consumed >= kMaxSegmentInsts) {
        const unsigned free = kMaxSegmentInsts - pending_.size();
        if (free == 0) {
            finalize(FillReason::MaxSize);
            continue;
        }
        unsigned take = free;
        if (!pending_.empty()) {
            take = packAllowance(free);
            if (take == 0) {
                finalize(FillReason::AtomicBlock);
                continue;
            }
        }
        for (unsigned i = 0; i < take; ++i)
            appendToPending(curBlock_[consumed + i]);
        consumed += take;
        if (pending_.size() == kMaxSegmentInsts)
            finalize(FillReason::MaxSize);
    }
    curBlock_.erase(curBlock_.begin(),
                    curBlock_.begin() + static_cast<long>(consumed));
}

void
FillUnit::finalize(FillReason reason)
{
    if (pending_.empty())
        return;
    pending_.reason = reason;
    ++segmentsBuilt_;
    instsFilled_ += pending_.size();
    TCSIM_TPOINT(tracer_, Fill, "finalize",
                 "start=0x%llx size=%u branches=%u reason=%s",
                 static_cast<unsigned long long>(pending_.startAddr),
                 pending_.size(), pending_.numBlockBranches,
                 fillReasonName(reason));
    ++reasonCounts_[static_cast<unsigned>(reason)];
    // insert() swaps the replaced way's segment back into pending_;
    // resetForReuse() keeps that buffer's capacity for the next
    // segment instead of allocating one per insert.
    cache_.insert(std::move(pending_));
    pending_.resetForReuse();
}

void
FillUnit::dumpStats(StatDump &dump) const
{
    dump.add("fill_unit.segments_built",
             static_cast<double>(segmentsBuilt_));
    dump.add("fill_unit.mean_segment_size", meanSegmentSize());
    dump.add("fill_unit.promoted_embedded",
             static_cast<double>(promotedEmbedded_));
    dump.add("fill_unit.resyncs", static_cast<double>(resyncs_));
    for (unsigned r = 0; r < 5; ++r) {
        dump.add(std::string("fill_unit.reason_") +
                     fillReasonName(static_cast<FillReason>(r)),
                 static_cast<double>(reasonCounts_[r]));
    }
    if (params_.promotion)
        biasTable_.dumpStats(dump);
}

} // namespace tcsim::trace
