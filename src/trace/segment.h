/**
 * @file
 * Trace segments: the unit of storage and fetch in the trace cache.
 *
 * A segment holds up to 16 instructions comprising at most three fetch
 * blocks. Blocks end at non-promoted conditional branches; promoted
 * branches are embedded mid-block with a static direction. Returns,
 * indirect jumps and serializing instructions terminate a segment;
 * unconditional jumps and calls are embedded.
 */

#ifndef TCSIM_TRACE_SEGMENT_H
#define TCSIM_TRACE_SEGMENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"

namespace tcsim::trace
{

/** Maximum instructions per trace segment (one fetch line). */
constexpr unsigned kMaxSegmentInsts = 16;

/** Maximum fetch blocks (non-promoted conditional branches). */
constexpr unsigned kMaxSegmentBranches = 3;

/** Why the fill unit finalized a segment. */
enum class FillReason : std::uint8_t
{
    MaxSize,     ///< reached 16 instructions
    MaxBranches, ///< reached 3 conditional branches
    AtomicBlock, ///< next block would not fit and policy refused a split
    RetIndirTrap, ///< return / indirect jump / serializing instruction
    Resync       ///< finalized early to restart at a trace-cache miss
};

/** @return a short printable name for @p reason. */
const char *fillReasonName(FillReason reason);

/** One instruction slot within a segment. */
struct TraceInst
{
    isa::Instruction inst;
    Addr pc = 0;
    /** Conditional branch embedded with a static prediction. */
    bool promoted = false;
    /** Static direction of a promoted branch (true = taken). */
    bool promotedDir = false;
    /** Non-promoted conditional branch: ends a fetch block. */
    bool endsBlock = false;
    /** Direction the branch took when the segment was built. */
    bool builtTaken = false;

    /** @return the successor PC along the segment's embedded path. */
    Addr
    embeddedNextPc() const
    {
        if (isa::isCondBranch(inst.op)) {
            const bool dir = promoted ? promotedDir : builtTaken;
            return dir ? isa::directTarget(inst, pc)
                       : pc + isa::kInstBytes;
        }
        if (isa::isUncondDirect(inst.op))
            return isa::directTarget(inst, pc);
        return pc + isa::kInstBytes;
    }
};

/** An immutable-after-build trace segment. */
struct TraceSegment
{
    Addr startAddr = kInvalidAddr;
    std::vector<TraceInst> insts;
    FillReason reason = FillReason::MaxSize;
    /** Number of block-ending (non-promoted conditional) branches. */
    unsigned numBlockBranches = 0;
    /** Any conditional branch with backward displacement <= 32. */
    bool hasTightBackwardBranch = false;

    unsigned size() const { return static_cast<unsigned>(insts.size()); }
    bool empty() const { return insts.empty(); }

    /**
     * Reset to the freshly-constructed state while keeping the insts
     * vector's capacity, so a builder reusing one segment object does
     * not allocate per segment.
     */
    void resetForReuse();

    /** @return a one-line summary for debugging. */
    std::string toString() const;
};

} // namespace tcsim::trace

#endif // TCSIM_TRACE_SEGMENT_H
