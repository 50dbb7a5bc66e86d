/**
 * @file
 * DynInst: the record of one in-flight dynamic instruction, carried
 * from fetch through retire. The processor allocates these in a
 * power-of-two ring sized to the window (it doubles when the live seq
 * span reaches its size); stale references (in ready queues or waiter
 * lists) are detected by sequence-number mismatch after reuse.
 *
 * Layout: everything the ready-queue poll and the parked-load check
 * read shares the record's first 64-byte line, and the record is
 * line-aligned, so polling a queued instruction touches one line.
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
struct alignas(64) DynInst
{
    // ------------------------------------------------------------------
    // Scheduler-hot line: identity, the schedule gate and the parked-
    // load state.
    // ------------------------------------------------------------------
    InstSeqNum seq = kInvalidSeqNum;
    Cycle readyCycle = 0;   ///< earliest schedule cycle
    Addr memAddr = kInvalidAddr;
    /** Blocked load: the store it waits for and the processor's
     * memory-order epoch when it parked (see Processor::loadParked). */
    InstSeqNum parkedOn = kInvalidSeqNum;
    std::uint64_t parkEpoch = 0;
    std::uint64_t fetchGroup = 0;
    isa::Instruction inst;
    std::uint8_t rsTable = 0;
    bool inReadyQueue = false;
    bool fired = false;     ///< left its reservation station
    bool executed = false;  ///< result available
    bool memAddrKnown = false;
    /** Inactive instruction whose path lost; retires as a no-op. */
    bool discarded = false;
    /** False for inactive-issued trace-segment instructions. */
    bool active = true;

    // ------------------------------------------------------------------
    // Fetch-time state.
    // ------------------------------------------------------------------
    Addr pc = 0;
    /** Seq of the first instruction of this fetch group. Groups
     * dispatch atomically, so [groupStartSeq, ...] is contiguous;
     * recovery uses it to find fetch-block boundaries without
     * scanning the window. */
    InstSeqNum groupStartSeq = kInvalidSeqNum;
    Cycle fetchCycle = 0;
    fetch::FetchSource source = fetch::FetchSource::ICache;
    bool promoted = false;
    bool promotedDir = false;
    bool endsBlock = false;
    /** Direction the machine fetched along (see FetchedInst). */
    bool followedDir = false;
    bool embeddedTaken = false;
    bool predictionValid = false;
    bool usedHybrid = false;
    /** Training context: only the one usedHybrid selects, and only
     * when predictionValid is set, holds a value. */
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

    Cycle completeCycle = 0;
    RegVal result = 0;
    RegVal storeData = 0;

    // ------------------------------------------------------------------
    // Resolution state.
    // ------------------------------------------------------------------
    bool taken = false;
    bool resolvedMispredict = false;
    bool resolvedFault = false;
    bool resolvedMisfetch = false;
    /** Set when a recovery originating here was actually applied
     * (recovery requests can lose arbitration to older ones whose
     * squash does not cover this instruction; the retire stage then
     * re-issues the request). */
    bool recoveryApplied = false;
    Addr actualNextPc = 0;
    Cycle resolveCycle = 0;

    bool isLoad() const { return isa::isLoad(inst.op); }
    bool isStore() const { return isa::isStore(inst.op); }
    bool isCondBranch() const { return isa::isCondBranch(inst.op); }

    /**
     * Reinitialize a recycled storage slot for sequence number
     * @p new_seq. Writes only the fields dispatch does not: dispatch
     * always writes inst, pc, fetchGroup, groupStartSeq, fetchCycle,
     * source, active, the promotion/direction flags, predictionValid,
     * usedHybrid, followedNextPc, onCorrectPath, srcReady, srcVal,
     * rsTable and readyCycle, and it writes the one training context
     * usedHybrid selects when predictionValid is set (nothing reads a
     * context otherwise). waiters keeps its allocation, so slot reuse
     * does not reallocate on every dispatched instruction.
     */
    void
    reset(InstSeqNum new_seq)
    {
        seq = new_seq;
        memAddr = kInvalidAddr;
        parkedOn = kInvalidSeqNum;
        parkEpoch = 0;
        inReadyQueue = false;
        fired = false;
        executed = false;
        memAddrKnown = false;
        discarded = false;
        oracleIdx = 0;
        oracleMemAddr = kInvalidAddr;
        srcDep[0] = kInvalidSeqNum;
        srcDep[1] = kInvalidSeqNum;
        waiters.clear();
        completeCycle = 0;
        result = 0;
        storeData = 0;
        taken = false;
        resolvedMispredict = false;
        resolvedFault = false;
        resolvedMisfetch = false;
        recoveryApplied = false;
        actualNextPc = 0;
        resolveCycle = 0;
    }
};

// A new field must be classified for reset(): restored there, or
// written by every dispatch (and listed in reset()'s comment). This
// trips once new fields outgrow the record's five cache lines.
static_assert(sizeof(DynInst) == 320, "new DynInst field: revisit reset()");

} // namespace tcsim::core

#endif // TCSIM_CORE_DYNINST_H
