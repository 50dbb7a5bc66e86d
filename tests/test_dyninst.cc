/**
 * @file
 * DynInst contracts the dispatch hot path relies on: reset() restores
 * every field dispatch does not write, and the fields the ready-queue
 * poll and the parked-load check read share the record's first line.
 */

#include <cstddef>

#include <gtest/gtest.h>

#include "core/dyninst.h"

namespace tcsim::core
{
namespace
{

/** Byte offset of @p field within @p d. */
template <typename T>
std::size_t
offsetIn(const DynInst &d, const T &field)
{
    return static_cast<std::size_t>(
        reinterpret_cast<const char *>(&field) -
        reinterpret_cast<const char *>(&d));
}

TEST(DynInst, ResetRestoresEveryFieldDispatchDoesNotWrite)
{
    DynInst d;
    d.seq = 7;

    // Written by every dispatch (so reset() may leave them alone); the
    // training contexts are written whenever they are read.
    d.readyCycle = 11;
    d.fetchGroup = 12;
    d.inst = isa::Instruction{isa::Opcode::St, 0, 3, 4, 8};
    d.rsTable = 5;
    d.active = false;
    d.pc = 0x400;
    d.groupStartSeq = 6;
    d.fetchCycle = 13;
    d.source = fetch::FetchSource::TraceCache;
    d.promoted = true;
    d.promotedDir = true;
    d.endsBlock = true;
    d.followedDir = true;
    d.embeddedTaken = true;
    d.predictionValid = true;
    d.usedHybrid = true;
    d.mbpCtx.fetchAddr = 0x404;
    d.hybridCtx.gshareIdx = 9;
    d.followedNextPc = 0x408;
    d.onCorrectPath = true;
    d.srcReady[0] = d.srcReady[1] = false;
    d.srcVal[0] = d.srcVal[1] = 14;

    // Everything else must come back to its DynInst{} value.
    d.memAddr = 0x1000;
    d.parkedOn = 3;
    d.parkEpoch = 4;
    d.inReadyQueue = true;
    d.fired = true;
    d.executed = true;
    d.memAddrKnown = true;
    d.discarded = true;
    d.oracleIdx = 15;
    d.oracleMemAddr = 0x2000;
    d.srcDep[0] = d.srcDep[1] = 2;
    d.waiters.assign({20, 21, 22});
    d.completeCycle = 16;
    d.result = 17;
    d.storeData = 18;
    d.taken = true;
    d.resolvedMispredict = true;
    d.resolvedFault = true;
    d.resolvedMisfetch = true;
    d.recoveryApplied = true;
    d.actualNextPc = 0x40c;
    d.resolveCycle = 19;

    const std::size_t capacity = d.waiters.capacity();
    d.reset(42);
    const DynInst fresh{};

    EXPECT_EQ(d.seq, 42u);
    EXPECT_EQ(d.memAddr, fresh.memAddr);
    EXPECT_EQ(d.parkedOn, fresh.parkedOn);
    EXPECT_EQ(d.parkEpoch, fresh.parkEpoch);
    EXPECT_EQ(d.inReadyQueue, fresh.inReadyQueue);
    EXPECT_EQ(d.fired, fresh.fired);
    EXPECT_EQ(d.executed, fresh.executed);
    EXPECT_EQ(d.memAddrKnown, fresh.memAddrKnown);
    EXPECT_EQ(d.discarded, fresh.discarded);
    EXPECT_EQ(d.oracleIdx, fresh.oracleIdx);
    EXPECT_EQ(d.oracleMemAddr, fresh.oracleMemAddr);
    EXPECT_EQ(d.srcDep[0], fresh.srcDep[0]);
    EXPECT_EQ(d.srcDep[1], fresh.srcDep[1]);
    EXPECT_TRUE(d.waiters.empty());
    EXPECT_EQ(d.waiters.capacity(), capacity);
    EXPECT_EQ(d.completeCycle, fresh.completeCycle);
    EXPECT_EQ(d.result, fresh.result);
    EXPECT_EQ(d.storeData, fresh.storeData);
    EXPECT_EQ(d.taken, fresh.taken);
    EXPECT_EQ(d.resolvedMispredict, fresh.resolvedMispredict);
    EXPECT_EQ(d.resolvedFault, fresh.resolvedFault);
    EXPECT_EQ(d.resolvedMisfetch, fresh.resolvedMisfetch);
    EXPECT_EQ(d.recoveryApplied, fresh.recoveryApplied);
    EXPECT_EQ(d.actualNextPc, fresh.actualNextPc);
    EXPECT_EQ(d.resolveCycle, fresh.resolveCycle);
}

TEST(DynInst, SchedulerHotFieldsShareTheFirstLine)
{
    static_assert(alignof(DynInst) == 64);
    const DynInst d;
    const auto in_first_line = [&](const auto &field) {
        return offsetIn(d, field) + sizeof(field) <= 64;
    };
    EXPECT_TRUE(in_first_line(d.seq));
    EXPECT_TRUE(in_first_line(d.readyCycle));
    EXPECT_TRUE(in_first_line(d.memAddr));
    EXPECT_TRUE(in_first_line(d.parkedOn));
    EXPECT_TRUE(in_first_line(d.parkEpoch));
    EXPECT_TRUE(in_first_line(d.inst));
    EXPECT_TRUE(in_first_line(d.fetchGroup));
    EXPECT_TRUE(in_first_line(d.rsTable));
    EXPECT_TRUE(in_first_line(d.inReadyQueue));
    EXPECT_TRUE(in_first_line(d.fired));
    EXPECT_TRUE(in_first_line(d.executed));
    EXPECT_TRUE(in_first_line(d.memAddrKnown));
    EXPECT_TRUE(in_first_line(d.discarded));
    EXPECT_TRUE(in_first_line(d.active));
}

} // namespace
} // namespace tcsim::core
