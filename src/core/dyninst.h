/**
 * @file
 * DynInst: the record of one in-flight dynamic instruction, carried
 * from fetch through retire. The processor allocates these in a
 * power-of-two ring sized to the window (it doubles when the live seq
 * span reaches its size); stale references (in ready queues or waiter
 * lists) are detected by sequence-number mismatch after reuse.
 */

#ifndef TCSIM_CORE_DYNINST_H
#define TCSIM_CORE_DYNINST_H

#include <cstdint>
#include <vector>

#include "bpred/hybrid.h"
#include "bpred/multi.h"
#include "common/types.h"
#include "fetch/fetch_types.h"
#include "isa/instruction.h"

namespace tcsim::core
{

/** One in-flight instruction. */
struct DynInst
{
    // ------------------------------------------------------------------
    // Identity.
    // ------------------------------------------------------------------
    InstSeqNum seq = kInvalidSeqNum;
    isa::Instruction inst;
    Addr pc = 0;
    std::uint64_t fetchGroup = 0;
    /** Seq of the first instruction of this fetch group. Groups
     * dispatch atomically, so [groupStartSeq, ...] is contiguous;
     * recovery uses it to find fetch-block boundaries without
     * scanning the window. */
    InstSeqNum groupStartSeq = kInvalidSeqNum;
    Cycle fetchCycle = 0;
    fetch::FetchSource source = fetch::FetchSource::ICache;

    // ------------------------------------------------------------------
    // Fetch-time speculation state.
    // ------------------------------------------------------------------
    /** False for inactive-issued trace-segment instructions. */
    bool active = true;
    /** Inactive instruction whose path lost; retires as a no-op. */
    bool discarded = false;
    bool promoted = false;
    bool promotedDir = false;
    bool endsBlock = false;
    /** Direction the machine fetched along (see FetchedInst). */
    bool followedDir = false;
    bool embeddedTaken = false;
    bool predictionValid = false;
    bool usedHybrid = false;
    bpred::MbpCtx mbpCtx;
    bpred::HybridCtx hybridCtx;
    Addr followedNextPc = 0;

    // ------------------------------------------------------------------
    // Oracle (statistics + perfect disambiguation) state.
    // ------------------------------------------------------------------
    bool onCorrectPath = false;
    std::uint64_t oracleIdx = 0;
    Addr oracleMemAddr = kInvalidAddr;

    // ------------------------------------------------------------------
    // Rename / execution state.
    // ------------------------------------------------------------------
    bool srcReady[2] = {true, true};
    RegVal srcVal[2] = {0, 0};
    InstSeqNum srcDep[2] = {kInvalidSeqNum, kInvalidSeqNum};
    /** Consumers waiting on this instruction's result. */
    std::vector<InstSeqNum> waiters;

    std::uint8_t rsTable = 0;
    bool inReadyQueue = false;
    bool fired = false;     ///< left its reservation station
    bool executed = false;  ///< result available
    Cycle readyCycle = 0;   ///< earliest schedule cycle
    Cycle completeCycle = 0;

    RegVal result = 0;
    Addr memAddr = kInvalidAddr;
    bool memAddrKnown = false;
    RegVal storeData = 0;
    /** Blocked load: the store it waits for and the processor's
     * memory-order epoch when it parked (see Processor::loadParked). */
    InstSeqNum parkedOn = kInvalidSeqNum;
    std::uint64_t parkEpoch = 0;

    // ------------------------------------------------------------------
    // Resolution state.
    // ------------------------------------------------------------------
    bool taken = false;
    Addr actualNextPc = 0;
    bool resolvedMispredict = false;
    bool resolvedFault = false;
    bool resolvedMisfetch = false;
    /** Set when a recovery originating here was actually applied
     * (recovery requests can lose arbitration to older ones whose
     * squash does not cover this instruction; the retire stage then
     * re-issues the request). */
    bool recoveryApplied = false;
    Cycle resolveCycle = 0;

    bool isLoad() const { return isa::isLoad(inst.op); }
    bool isStore() const { return isa::isStore(inst.op); }
    bool isCondBranch() const { return isa::isCondBranch(inst.op); }

    /**
     * Reinitialize a recycled storage slot for sequence number
     * @p new_seq, keeping the waiters allocation so slot reuse does
     * not reallocate on every dispatched instruction.
     */
    void
    reset(InstSeqNum new_seq)
    {
        std::vector<InstSeqNum> recycled = std::move(waiters);
        recycled.clear();
        *this = DynInst{};
        waiters = std::move(recycled);
        seq = new_seq;
    }
};

} // namespace tcsim::core

#endif // TCSIM_CORE_DYNINST_H
