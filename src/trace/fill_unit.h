/**
 * @file
 * The fill unit: builds trace segments from the retired instruction
 * stream and writes them into the trace cache (paper sections 4-5).
 *
 * Both of the paper's techniques live here:
 *
 *  - Branch promotion: when a retiring conditional branch's bias-table
 *    entry says it is strongly biased, it is embedded in the segment
 *    as a promoted branch with a static direction. Promoted branches
 *    do not end fetch blocks and do not count against the 3-branch
 *    segment limit.
 *
 *  - Trace packing: policy for merging an incoming fetch block into
 *    the pending segment when the block does not fit entirely:
 *      Atomic        - never split (finalize pending, start fresh);
 *      Unregulated   - split anywhere, greedily fill to 16;
 *      NRegulated(n) - split only at multiples of n instructions;
 *      CostRegulated - split only when free slots >= half the pending
 *                      segment's size OR the pending segment contains
 *                      a backward branch with displacement <= 32.
 *    Blocks larger than 16 instructions are split in every policy.
 */

#ifndef TCSIM_TRACE_FILL_UNIT_H
#define TCSIM_TRACE_FILL_UNIT_H

#include <cstdint>
#include <optional>
#include <unordered_set>

#include "bpred/bias_table.h"
#include "common/stats.h"
#include "obs/trace.h"
#include "trace/segment.h"
#include "trace/trace_cache.h"

namespace tcsim::trace
{

/** Trace packing policies (paper section 5). */
enum class PackingPolicy : std::uint8_t
{
    Atomic,
    Unregulated,
    NRegulated,
    CostRegulated,
};

/** @return a short printable name for @p policy. */
const char *packingPolicyName(PackingPolicy policy);

/** Fill unit configuration. */
struct FillUnitParams
{
    PackingPolicy packing = PackingPolicy::Atomic;
    /** Chunk granularity for NRegulated. */
    std::uint32_t packingGranule = 2;
    /** Enable dynamic branch promotion (the bias table). */
    bool promotion = false;
    /** Bias table geometry/threshold (used when promotion is on). */
    bpred::BiasTableParams biasTable;
};

/** A retired instruction, as seen by the fill unit. */
struct RetiredInst
{
    isa::Instruction inst;
    Addr pc = 0;
    /** Resolved direction for conditional branches. */
    bool taken = false;
};

/** The fill unit proper. */
class FillUnit
{
  public:
    /** @param cache destination for finalized segments. */
    FillUnit(const FillUnitParams &params, TraceCache &cache);

    /** Feed one retired instruction. */
    void retire(const RetiredInst &inst);

    /**
     * Record a trace-cache miss at fetch address @p pc. When the
     * retired stream next reaches @p pc at a block boundary, the
     * pending segment is finalized so a new segment starts exactly at
     * the address the front end will look up. Without this
     * resynchronization, packed segments can drift permanently out of
     * alignment with the fetch stream (e.g. a 12-instruction loop
     * packed into 16-instruction segments never yields a segment
     * starting at the loop head).
     */
    void noteFetchMiss(Addr pc);

    /** @return promotion advice for a branch (for fetch-side stats). */
    const bpred::BranchBiasTable &biasTable() const { return biasTable_; }

    /**
     * Attach a tracer for `fill`/`promote` trace points; also forwards
     * to the embedded bias table (null disables).
     */
    void
    setTracer(obs::Tracer *tracer)
    {
        tracer_ = tracer;
        biasTable_.setTracer(tracer);
    }

    std::uint64_t segmentsBuilt() const { return segmentsBuilt_; }
    std::uint64_t promotedEmbedded() const { return promotedEmbedded_; }

    /** Count of segments finalized for @p reason. */
    std::uint64_t
    reasonCount(FillReason reason) const
    {
        return reasonCounts_[static_cast<unsigned>(reason)];
    }

    /** Mean instruction count of finalized segments. */
    double
    meanSegmentSize() const
    {
        return segmentsBuilt_ == 0
                   ? 0.0
                   : static_cast<double>(instsFilled_) / segmentsBuilt_;
    }

    void dumpStats(StatDump &dump) const;

    /** Zero the statistics counters (fill state untouched). */
    void
    resetStats()
    {
        segmentsBuilt_ = instsFilled_ = promotedEmbedded_ = 0;
        resyncs_ = 0;
        for (auto &count : reasonCounts_)
            count = 0;
    }

  private:
    /** Close the currently accumulating fetch block and merge it. */
    void closeBlock(bool ends_segment);

    /** Handle a block that reached line size without terminating. */
    void spillOversized();

    /**
     * @return how many instructions of a non-fitting block the policy
     * allows into the pending segment (given @p free slots).
     */
    unsigned packAllowance(unsigned free) const;

    /** Append one instruction to the pending segment. */
    void appendToPending(const TraceInst &inst);

    /** Finalize the pending segment (no-op when empty). */
    void finalize(FillReason reason);

    FillUnitParams params_;
    TraceCache &cache_;
    bpred::BranchBiasTable biasTable_;

    TraceSegment pending_;
    std::vector<TraceInst> curBlock_;

    std::unordered_set<Addr> missSet_;

    std::uint64_t segmentsBuilt_ = 0;
    std::uint64_t instsFilled_ = 0;
    std::uint64_t promotedEmbedded_ = 0;
    std::uint64_t resyncs_ = 0;
    std::uint64_t reasonCounts_[5] = {0, 0, 0, 0, 0};

    obs::Tracer *tracer_ = nullptr;
};

} // namespace tcsim::trace

#endif // TCSIM_TRACE_FILL_UNIT_H
