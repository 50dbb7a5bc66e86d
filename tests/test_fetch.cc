/**
 * @file
 * Tests for the fetch engine: icache fetch-block termination, split
 * lines, trace-cache hits with partial matching and inactive issue,
 * promoted branches and fault overrides, RAS and indirect targets.
 */

#include <gtest/gtest.h>

#include <memory>

#include "fetch/fetch_engine.h"
#include "memory/hierarchy.h"
#include "workload/builder.h"

namespace tcsim::fetch
{
namespace
{

using isa::Opcode;
using workload::Label;
using workload::ProgramBuilder;

/** Everything needed to drive a FetchEngine by hand. */
struct Rig
{
    explicit Rig(workload::Program prog, bool use_tc = true)
        : program(std::move(prog))
    {
        traceCache = std::make_unique<trace::TraceCache>(
            trace::TraceCacheParams{64, 4});
        mbp = std::make_unique<bpred::TreeMbp>(1024);
        hybrid = std::make_unique<bpred::HybridPredictor>();
        FetchEngineParams params;
        params.useTraceCache = use_tc;
        engine = std::make_unique<FetchEngine>(
            params, program, use_tc ? traceCache.get() : nullptr,
            hierarchy.icache(), use_tc ? mbp.get() : nullptr,
            use_tc ? nullptr : hybrid.get(), state);
    }

    FetchBatch &
    fetch(Addr pc)
    {
        engine->fetchCycle(pc, batch);
        return batch;
    }

    /** Fetch, absorbing icache-miss stalls. */
    FetchBatch &
    fetchWarm(Addr pc)
    {
        engine->fetchCycle(pc, batch);
        if (batch.icacheStall > 0)
            engine->fetchCycle(pc, batch);
        return batch;
    }

    workload::Program program;
    memory::Hierarchy hierarchy;
    std::unique_ptr<trace::TraceCache> traceCache;
    std::unique_ptr<bpred::TreeMbp> mbp;
    std::unique_ptr<bpred::HybridPredictor> hybrid;
    FrontEndState state;
    std::unique_ptr<FetchEngine> engine;
    FetchBatch batch;
};

workload::Program
straightLineProgram(unsigned alu_count, Opcode terminator = Opcode::Halt)
{
    ProgramBuilder b("t");
    for (unsigned i = 0; i < alu_count; ++i)
        b.add(10, 11, 12);
    if (terminator == Opcode::Ret)
        b.ret();
    else if (terminator == Opcode::Jr)
        b.jr(5);
    else
        b.halt();
    return b.build();
}

// ----------------------------------------------------------------------
// ICache path.
// ----------------------------------------------------------------------

TEST(FetchICache, MissStallsThenDelivers)
{
    Rig rig(straightLineProgram(4), false);
    FetchBatch &cold = rig.fetch(workload::kCodeBase);
    EXPECT_GT(cold.icacheStall, 0u);
    EXPECT_TRUE(cold.insts.empty());
    FetchBatch &warm = rig.fetch(workload::kCodeBase);
    EXPECT_EQ(warm.icacheStall, 0u);
    EXPECT_FALSE(warm.insts.empty());
    EXPECT_EQ(warm.source, FetchSource::ICache);
}

TEST(FetchICache, BlockEndsAtControl)
{
    ProgramBuilder b("t");
    b.add(10, 11, 12);
    b.add(10, 11, 12);
    Label target = b.newLabel();
    b.beq(0, 0, target); // always taken
    b.add(13, 11, 12);   // not fetched: after control
    b.bind(target);
    b.halt();
    Rig rig(b.build(), false);
    FetchBatch &batch = rig.fetchWarm(workload::kCodeBase);
    EXPECT_EQ(batch.insts.size(), 3u);
    EXPECT_TRUE(batch.insts.back().endsBlock);
    EXPECT_EQ(batch.predictionsUsed, 1u);
}

TEST(FetchICache, FullWidthIsMaxSixteen)
{
    Rig rig(straightLineProgram(40), false);
    rig.fetchWarm(workload::kCodeBase); // fills line 1
    // Line 2 not resident: fetch stops at the boundary.
    FetchBatch &batch = rig.fetch(workload::kCodeBase);
    EXPECT_EQ(batch.insts.size(), 16u);
    EXPECT_EQ(batch.nextFetchPc, workload::kCodeBase + 16 * 4);
}

TEST(FetchICache, SplitLineBoundaryTerminatesOnMiss)
{
    Rig rig(straightLineProgram(40), false);
    // Fetch mid-line: [base+8*4 .. ) crosses into the next 64B line.
    const Addr pc = workload::kCodeBase + 8 * 4;
    rig.fetchWarm(workload::kCodeBase); // line 1 resident
    FetchBatch &batch = rig.fetch(pc);
    // Only the 8 instructions to the line boundary are supplied.
    EXPECT_EQ(batch.insts.size(), 8u);
}

TEST(FetchICache, SplitLineCrossesWhenResident)
{
    Rig rig(straightLineProgram(40), false);
    rig.fetchWarm(workload::kCodeBase);
    rig.fetchWarm(workload::kCodeBase + 64); // line 2 resident too
    FetchBatch &batch = rig.fetch(workload::kCodeBase + 8 * 4);
    EXPECT_EQ(batch.insts.size(), 16u);
}

TEST(FetchICache, CallPushesRasAndRedirects)
{
    ProgramBuilder b("t");
    Label fn = b.newLabel();
    b.call(fn);
    b.halt();
    b.bind(fn);
    b.ret();
    Rig rig(b.build(), false);
    FetchBatch &batch = rig.fetchWarm(workload::kCodeBase);
    EXPECT_EQ(batch.insts.size(), 1u);
    EXPECT_EQ(batch.nextFetchPc, workload::kCodeBase + 8);
    EXPECT_EQ(rig.state.ras.depth(), 1u);

    // Fetch the return: pops the RAS back to the call site + 4.
    FetchBatch &ret_batch = rig.fetchWarm(batch.nextFetchPc);
    EXPECT_EQ(ret_batch.nextFetchPc, workload::kCodeBase + 4);
    EXPECT_EQ(rig.state.ras.depth(), 0u);
}

TEST(FetchICache, IndirectUsesLastTarget)
{
    Rig rig(straightLineProgram(2, Opcode::Jr), false);
    const Addr jr_pc = workload::kCodeBase + 2 * 4;
    FetchBatch &cold = rig.fetchWarm(workload::kCodeBase);
    // Never-seen indirect: falls through (a guaranteed misfetch).
    EXPECT_EQ(cold.nextFetchPc, jr_pc + 4);
    rig.state.indirect.update(jr_pc, 0x4000);
    FetchBatch &warm = rig.fetch(workload::kCodeBase);
    EXPECT_EQ(warm.nextFetchPc, 0x4000u);
}

TEST(FetchICache, SerializeStopsBatch)
{
    ProgramBuilder b("t");
    b.add(10, 11, 12);
    b.trap();
    b.add(10, 11, 12);
    b.halt();
    Rig rig(b.build(), false);
    FetchBatch &batch = rig.fetchWarm(workload::kCodeBase);
    EXPECT_TRUE(batch.sawSerialize);
    EXPECT_EQ(batch.insts.size(), 2u);
}

TEST(FetchICache, HistoryUpdatedSpeculatively)
{
    ProgramBuilder b("t");
    Label t = b.newLabel();
    b.beq(0, 0, t);
    b.bind(t);
    b.halt();
    Rig rig(b.build(), false);
    rig.state.history.restore(0x1);
    rig.fetchWarm(workload::kCodeBase);
    // One outcome shifted in: value is 0b10 or 0b11.
    EXPECT_GE(rig.state.history.value(), 0x2u);
    EXPECT_LE(rig.state.history.value(), 0x3u);
}

// ----------------------------------------------------------------------
// Trace-cache path.
// ----------------------------------------------------------------------

/** Build a 3-block segment with the given embedded directions. */
trace::TraceSegment
makeSegment(Addr start, std::initializer_list<bool> dirs,
            unsigned payload = 2)
{
    trace::TraceSegment seg;
    seg.startAddr = start;
    Addr pc = start;
    for (const bool dir : dirs) {
        for (unsigned i = 0; i < payload; ++i) {
            trace::TraceInst ti;
            ti.inst = isa::Instruction{Opcode::Add, 10, 11, 12, 0};
            ti.pc = pc;
            pc += 4;
            seg.insts.push_back(ti);
        }
        trace::TraceInst br;
        br.inst = isa::Instruction{Opcode::Bne, 0, 4, 0, 16};
        br.pc = pc;
        br.endsBlock = true;
        br.builtTaken = dir;
        // The segment's embedded path: on taken, the next block's pcs
        // continue at the branch target.
        pc = dir ? isa::directTarget(br.inst, pc) : pc + 4;
        seg.insts.push_back(br);
        ++seg.numBlockBranches;
    }
    seg.reason = trace::FillReason::MaxBranches;
    return seg;
}

/** Train the rig's MBP so position @p pos predicts @p dir. */
void
train(Rig &rig, Addr fetch_addr, unsigned pos, unsigned path, bool dir)
{
    for (int i = 0; i < 8; ++i) {
        bpred::MbpCtx ctx;
        ctx.fetchAddr = fetch_addr;
        ctx.history = rig.state.history.value();
        ctx.position = static_cast<std::uint8_t>(pos);
        ctx.path = static_cast<std::uint8_t>(path);
        rig.mbp->update(ctx, dir);
    }
}

TEST(FetchTrace, FullMatchDeliversWholeSegment)
{
    Rig rig(straightLineProgram(4));
    const Addr start = 0x20000;
    rig.traceCache->insert(makeSegment(start, {false, false, false}));
    train(rig, start, 0, 0, false);
    train(rig, start, 1, 0, false);
    train(rig, start, 2, 0, false);

    FetchBatch &batch = rig.fetch(start);
    EXPECT_EQ(batch.source, FetchSource::TraceCache);
    EXPECT_EQ(batch.insts.size(), 9u);
    EXPECT_EQ(batch.activeCount, 9u);
    EXPECT_FALSE(batch.partialMatch);
    EXPECT_EQ(batch.predictionsUsed, 3u);
    // Fall-through continuation after the last not-taken branch.
    EXPECT_EQ(batch.nextFetchPc, batch.insts.back().pc + 4);
}

TEST(FetchTrace, PartialMatchInactivatesSuffix)
{
    Rig rig(straightLineProgram(4));
    const Addr start = 0x20000;
    rig.traceCache->insert(makeSegment(start, {false, false, false}));
    train(rig, start, 0, 0, true); // diverge at the first branch

    FetchBatch &batch = rig.fetch(start);
    EXPECT_TRUE(batch.partialMatch);
    EXPECT_EQ(batch.insts.size(), 9u); // inactive issue: all delivered
    EXPECT_EQ(batch.activeCount, 3u);
    EXPECT_TRUE(batch.insts[2].active);
    EXPECT_FALSE(batch.insts[3].active);
    // Redirect along the predicted (taken) path.
    EXPECT_EQ(batch.nextFetchPc,
              isa::directTarget(batch.insts[2].inst, batch.insts[2].pc));
}

TEST(FetchTrace, MissFallsBackToICache)
{
    Rig rig(straightLineProgram(6));
    FetchBatch &batch = rig.fetchWarm(workload::kCodeBase);
    EXPECT_EQ(batch.source, FetchSource::ICache);
}

TEST(FetchTrace, PromotedBranchConsumesNoPrediction)
{
    Rig rig(straightLineProgram(4));
    const Addr start = 0x20000;
    trace::TraceSegment seg;
    seg.startAddr = start;
    trace::TraceInst alu;
    alu.inst = isa::Instruction{Opcode::Add, 10, 11, 12, 0};
    alu.pc = start;
    seg.insts.push_back(alu);
    trace::TraceInst promoted;
    promoted.inst = isa::Instruction{Opcode::Bne, 0, 4, 0, 1};
    promoted.pc = start + 4;
    promoted.promoted = true;
    promoted.promotedDir = true;
    promoted.builtTaken = true;
    seg.insts.push_back(promoted);
    trace::TraceInst tail;
    tail.inst = isa::Instruction{Opcode::Add, 10, 11, 12, 0};
    tail.pc = isa::directTarget(promoted.inst, promoted.pc);
    seg.insts.push_back(tail);
    rig.traceCache->insert(std::move(seg));

    FetchBatch &batch = rig.fetch(start);
    EXPECT_EQ(batch.predictionsUsed, 0u);
    EXPECT_EQ(batch.activeCount, 3u);
    EXPECT_TRUE(batch.insts[1].promoted);
    EXPECT_TRUE(batch.insts[1].followedDir);
}

TEST(FetchTrace, OverrideFlipsPromotedBranchOnce)
{
    Rig rig(straightLineProgram(4));
    const Addr start = 0x20000;
    trace::TraceSegment seg;
    seg.startAddr = start;
    trace::TraceInst promoted;
    promoted.inst = isa::Instruction{Opcode::Bne, 0, 4, 0, 4};
    promoted.pc = start;
    promoted.promoted = true;
    promoted.promotedDir = true;
    promoted.builtTaken = true;
    seg.insts.push_back(promoted);
    trace::TraceInst tail;
    tail.inst = isa::Instruction{Opcode::Add, 10, 11, 12, 0};
    tail.pc = isa::directTarget(promoted.inst, promoted.pc);
    seg.insts.push_back(tail);
    rig.traceCache->insert(std::move(seg));

    rig.state.overrides[start] = FrontEndState::Override{0, false};
    FetchBatch &batch = rig.fetch(start);
    // The override flips the branch off the embedded path: suffix
    // inactive, redirect to the fall-through.
    EXPECT_FALSE(batch.insts[0].followedDir);
    EXPECT_FALSE(batch.insts[1].active);
    EXPECT_EQ(batch.nextFetchPc, start + 4);
    EXPECT_TRUE(rig.state.overrides.empty());

    // Second fetch: override consumed, back to the static direction.
    FetchBatch &again = rig.fetch(start);
    EXPECT_TRUE(again.insts[0].followedDir);
}

TEST(FetchTrace, OverrideSkipPassesEarlierInstance)
{
    Rig rig(straightLineProgram(4));
    const Addr start = 0x20000;
    trace::TraceSegment seg;
    seg.startAddr = start;
    trace::TraceInst promoted;
    promoted.inst = isa::Instruction{Opcode::Bne, 0, 4, 0, 4};
    promoted.pc = start;
    promoted.promoted = true;
    promoted.promotedDir = true;
    promoted.builtTaken = true;
    seg.insts.push_back(promoted);
    rig.traceCache->insert(std::move(seg));

    rig.state.overrides[start] = FrontEndState::Override{1, false};
    FetchBatch &first = rig.fetch(start);
    EXPECT_TRUE(first.insts[0].followedDir) << "skip must pass instance";
    FetchBatch &second = rig.fetch(start);
    EXPECT_FALSE(second.insts[0].followedDir);
}

TEST(FetchTrace, SegmentEndingInReturnUsesRas)
{
    Rig rig(straightLineProgram(4));
    const Addr start = 0x20000;
    trace::TraceSegment seg;
    seg.startAddr = start;
    trace::TraceInst ret;
    ret.inst = isa::Instruction{Opcode::Ret, 0, isa::kRegRa, 0, 0};
    ret.pc = start;
    seg.insts.push_back(ret);
    seg.reason = trace::FillReason::RetIndirTrap;
    rig.traceCache->insert(std::move(seg));

    rig.state.ras.push(0xabc0);
    FetchBatch &batch = rig.fetch(start);
    EXPECT_EQ(batch.nextFetchPc, 0xabc0u);
    EXPECT_EQ(rig.state.ras.depth(), 0u);
}

TEST(FetchTrace, InactiveCallDoesNotTouchRas)
{
    Rig rig(straightLineProgram(4));
    const Addr start = 0x20000;
    trace::TraceSegment seg;
    seg.startAddr = start;
    trace::TraceInst br;
    br.inst = isa::Instruction{Opcode::Bne, 0, 4, 0, 16};
    br.pc = start;
    br.endsBlock = true;
    br.builtTaken = false;
    seg.insts.push_back(br);
    trace::TraceInst call;
    call.inst = isa::Instruction{Opcode::Call, isa::kRegRa, 0, 0, 32};
    call.pc = start + 4;
    seg.insts.push_back(call);
    seg.numBlockBranches = 1;
    rig.traceCache->insert(std::move(seg));

    train(rig, start, 0, 0, true); // diverge: the call is inactive
    FetchBatch &batch = rig.fetch(start);
    ASSERT_EQ(batch.insts.size(), 2u);
    EXPECT_FALSE(batch.insts[1].active);
    EXPECT_EQ(rig.state.ras.depth(), 0u);
}

} // namespace
} // namespace tcsim::fetch
