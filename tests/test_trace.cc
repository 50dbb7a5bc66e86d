/**
 * @file
 * Tests for the trace cache and the fill unit: segment construction
 * rules, finalize reasons, promotion embedding, and all four packing
 * policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "trace/fill_unit.h"
#include "trace/segment.h"
#include "trace/trace_cache.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace tcsim::trace
{
namespace
{

using isa::Instruction;
using isa::Opcode;

Instruction
alu()
{
    return Instruction{Opcode::Add, 10, 11, 12, 0};
}

/** Drives a fill unit with a synthetic retire stream. */
class FillDriver
{
  public:
    FillDriver(const FillUnitParams &params)
        : cache_(TraceCacheParams{64, 4}), unit_(params, cache_)
    {
    }

    /** Retire @p payload ALU instructions then one block terminator. */
    void
    block(unsigned payload, Opcode term = Opcode::Bne, bool taken = false,
          std::int32_t disp = 8)
    {
        for (unsigned i = 0; i < payload; ++i)
            inst(alu());
        Instruction t;
        t.op = term;
        t.rs1 = 4;
        t.imm = disp;
        if (term == Opcode::Ret)
            t.rs1 = isa::kRegRa;
        inst(t, taken);
    }

    void
    inst(const Instruction &instruction, bool taken = false)
    {
        RetiredInst retired;
        retired.inst = instruction;
        retired.pc = nextPc_;
        retired.taken = taken;
        nextPc_ += isa::kInstBytes;
        unit_.retire(retired);
    }

    TraceCache cache_;
    FillUnit unit_;
    Addr nextPc_ = 0x1000;
};

FillUnitParams
params(PackingPolicy policy, unsigned granule = 2, bool promotion = false,
       unsigned threshold = 4)
{
    FillUnitParams p;
    p.packing = policy;
    p.packingGranule = granule;
    p.promotion = promotion;
    p.biasTable.entries = 256;
    p.biasTable.promoteThreshold = threshold;
    return p;
}

// ----------------------------------------------------------------------
// TraceCache storage.
// ----------------------------------------------------------------------

TraceSegment
segmentAt(Addr start, unsigned len = 4)
{
    TraceSegment seg;
    seg.startAddr = start;
    for (unsigned i = 0; i < len; ++i) {
        TraceInst ti;
        ti.inst = alu();
        ti.pc = start + Addr{i} * isa::kInstBytes;
        seg.insts.push_back(ti);
    }
    return seg;
}

TEST(TraceCacheStore, LookupMissThenHit)
{
    TraceCache tc(TraceCacheParams{64, 4});
    EXPECT_EQ(tc.lookup(0x1000), nullptr);
    tc.insert(segmentAt(0x1000));
    const TraceSegment *seg = tc.lookup(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->startAddr, 0x1000u);
    EXPECT_EQ(tc.hits(), 1u);
    EXPECT_EQ(tc.lookups(), 2u);
}

TEST(TraceCacheStore, NoPathAssociativity)
{
    TraceCache tc(TraceCacheParams{64, 4});
    tc.insert(segmentAt(0x1000, 4));
    tc.insert(segmentAt(0x1000, 7)); // same start: replaces in place
    EXPECT_EQ(tc.sameStartReplacements(), 1u);
    const TraceSegment *seg = tc.lookup(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 7u);
}

TEST(TraceCacheStore, LruEvictionWithinSet)
{
    TraceCache tc(TraceCacheParams{8, 2}); // 4 sets x 2 ways
    // Three segments in the same set (stride = numSets * 4 bytes).
    const Addr stride = 4 * isa::kInstBytes;
    tc.insert(segmentAt(0x1000));
    tc.insert(segmentAt(0x1000 + stride));
    tc.lookup(0x1000); // refresh
    tc.insert(segmentAt(0x1000 + 2 * stride));
    EXPECT_NE(tc.peek(0x1000), nullptr);
    EXPECT_EQ(tc.peek(0x1000 + stride), nullptr); // LRU victim
}

TEST(TraceCacheStore, PeekDoesNotCountStats)
{
    TraceCache tc(TraceCacheParams{64, 4});
    tc.insert(segmentAt(0x1000));
    tc.peek(0x1000);
    EXPECT_EQ(tc.lookups(), 0u);
}

TEST(TraceCacheStore, Flush)
{
    TraceCache tc(TraceCacheParams{64, 4});
    tc.insert(segmentAt(0x1000));
    tc.flush();
    EXPECT_EQ(tc.peek(0x1000), nullptr);
}

// ----------------------------------------------------------------------
// Fill unit: atomic policy.
// ----------------------------------------------------------------------

TEST(FillAtomic, ThreeBlocksFinalizeOnMaxBranches)
{
    FillDriver d(params(PackingPolicy::Atomic));
    d.block(3); // 4 insts each
    d.block(3);
    d.block(3);
    EXPECT_EQ(d.unit_.segmentsBuilt(), 1u);
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 12u);
    EXPECT_EQ(seg->numBlockBranches, 3u);
    EXPECT_EQ(seg->reason, FillReason::MaxBranches);
}

TEST(FillAtomic, OversizedMergeRefused)
{
    FillDriver d(params(PackingPolicy::Atomic));
    d.block(9);  // 10 insts pending
    d.block(8);  // 9 insts: does not fit in 6 free slots
    EXPECT_EQ(d.unit_.segmentsBuilt(), 1u);
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 10u);
    EXPECT_EQ(seg->reason, FillReason::AtomicBlock);
    // The second block starts a fresh pending segment (not yet final).
    EXPECT_EQ(d.cache_.peek(0x1000 + 10 * isa::kInstBytes), nullptr);
}

TEST(FillAtomic, ExactFitFinalizesMaxSize)
{
    FillDriver d(params(PackingPolicy::Atomic));
    d.block(7);
    d.block(7); // 8 + 8 = 16
    EXPECT_EQ(d.unit_.segmentsBuilt(), 1u);
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 16u);
    EXPECT_EQ(seg->reason, FillReason::MaxSize);
}

TEST(FillAtomic, ReturnTerminatesSegment)
{
    FillDriver d(params(PackingPolicy::Atomic));
    d.block(2);
    d.block(1, Opcode::Ret);
    EXPECT_EQ(d.unit_.segmentsBuilt(), 1u);
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->reason, FillReason::RetIndirTrap);
    EXPECT_EQ(seg->size(), 5u);
}

TEST(FillAtomic, IndirectAndTrapTerminate)
{
    for (const Opcode op : {Opcode::Jr, Opcode::Trap}) {
        FillDriver d(params(PackingPolicy::Atomic));
        d.block(1, op);
        EXPECT_EQ(d.unit_.segmentsBuilt(), 1u);
        EXPECT_EQ(d.unit_.reasonCount(FillReason::RetIndirTrap), 1u);
    }
}

TEST(FillAtomic, CallsAndJumpsEmbedded)
{
    FillDriver d(params(PackingPolicy::Atomic));
    d.inst(alu());
    d.inst(Instruction{Opcode::Call, isa::kRegRa, 0, 0, 100});
    d.inst(alu());
    d.inst(Instruction{Opcode::J, 0, 0, 0, 50});
    d.inst(alu());
    d.block(0); // terminating branch
    d.block(0, Opcode::Ret); // flush the pending segment
    EXPECT_EQ(d.unit_.segmentsBuilt(), 1u);
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 7u);
    EXPECT_EQ(seg->numBlockBranches, 1u);
}

TEST(FillAtomic, HugeBlockForcedSplit)
{
    FillDriver d(params(PackingPolicy::Atomic));
    // 40 payload + branch: blocks > 16 must split in every policy.
    d.block(40);
    EXPECT_GE(d.unit_.segmentsBuilt(), 2u);
    const TraceSegment *first = d.cache_.peek(0x1000);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->size(), 16u);
    EXPECT_EQ(first->reason, FillReason::MaxSize);
}

TEST(FillAtomic, EmbeddedDirectionRecorded)
{
    FillDriver d(params(PackingPolicy::Atomic));
    d.block(2, Opcode::Bne, true, -2);
    d.block(2, Opcode::Bne, false);
    d.block(2, Opcode::Bne, true);
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_TRUE(seg->insts[2].builtTaken);
    EXPECT_FALSE(seg->insts[5].builtTaken);
    EXPECT_TRUE(seg->hasTightBackwardBranch);
}

// ----------------------------------------------------------------------
// Fill unit: packing policies.
// ----------------------------------------------------------------------

TEST(FillPacking, UnregulatedSplitsAnywhere)
{
    FillDriver d(params(PackingPolicy::Unregulated));
    d.block(9); // 10 insts
    d.block(8); // 9 insts: 6 spill into the pending segment
    EXPECT_EQ(d.unit_.segmentsBuilt(), 1u);
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 16u);
    EXPECT_EQ(seg->reason, FillReason::MaxSize);
}

TEST(FillPacking, RemainderBeginsNextSegment)
{
    FillDriver d(params(PackingPolicy::Unregulated));
    d.block(9);
    d.block(8);
    d.block(1, Opcode::Ret); // flush the remainder
    EXPECT_EQ(d.unit_.segmentsBuilt(), 2u);
    // Remainder segment starts exactly where the split happened.
    const Addr second_start = 0x1000 + 16 * isa::kInstBytes;
    const TraceSegment *seg = d.cache_.peek(second_start);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 3u + 2u);
}

TEST(FillPacking, NRegulatedPacksMultiplesOnly)
{
    FillDriver d(params(PackingPolicy::NRegulated, 4));
    d.block(9);  // pending 10, free 6
    d.block(8);  // 9 insts: allowance = 4 (granule 4)
    EXPECT_EQ(d.unit_.segmentsBuilt(), 1u);
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 14u); // 10 + 4
    EXPECT_EQ(seg->reason, FillReason::AtomicBlock);
}

TEST(FillPacking, NRegulatedGranuleTwo)
{
    FillDriver d(params(PackingPolicy::NRegulated, 2));
    d.block(8);  // pending 9, free 7
    d.block(9);  // allowance = 6
    EXPECT_EQ(d.unit_.segmentsBuilt(), 1u);
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 15u); // 9 + 6
}

TEST(FillPacking, CostRegulatedPacksWhenHalfFree)
{
    // Pending 8 insts: free = 8 >= pending/2 -> pack.
    FillDriver d(params(PackingPolicy::CostRegulated));
    d.block(7);  // pending 8
    d.block(10); // 11 insts, does not fit entirely
    EXPECT_EQ(d.unit_.segmentsBuilt(), 1u);
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 16u);
}

TEST(FillPacking, CostRegulatedRefusesWhenNearlyFull)
{
    // Pending 13: free = 3 < 13/2 and no tight backward branch.
    FillDriver d(params(PackingPolicy::CostRegulated));
    d.block(5);
    d.block(6); // pending 13
    d.block(8); // does not fit; cost rule refuses
    EXPECT_EQ(d.unit_.segmentsBuilt(), 1u);
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 13u);
    EXPECT_EQ(seg->reason, FillReason::AtomicBlock);
}

TEST(FillPacking, CostRegulatedPacksTightLoops)
{
    // Same shape, but the pending segment holds a tight backward
    // branch (displacement <= 32): the loop-unrolling payoff rule.
    FillDriver d(params(PackingPolicy::CostRegulated));
    d.block(5, Opcode::Bne, true, -4);
    d.block(6); // pending 13, tight backward branch present
    d.block(8); // packs 3 despite the near-full pending segment
    EXPECT_EQ(d.unit_.segmentsBuilt(), 1u);
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 16u);
    EXPECT_EQ(seg->reason, FillReason::MaxSize);
}

// ----------------------------------------------------------------------
// Fill unit: promotion.
// ----------------------------------------------------------------------

TEST(FillPromotion, EmbedsPromotedBranchMidBlock)
{
    FillDriver d(params(PackingPolicy::Atomic, 2, true, 3));
    const Addr branch_pc = d.nextPc_ + 2 * isa::kInstBytes;
    // Execute the same 3-inst block (alu alu branch-taken) repeatedly
    // by replaying the same pc range.
    for (int rep = 0; rep < 6; ++rep) {
        d.nextPc_ = 0x1000;
        d.block(2, Opcode::Bne, true);
    }
    // Flush the open block so the promoted copies reach a segment.
    d.inst(Instruction{Opcode::Ret, 0, isa::kRegRa, 0, 0});
    // After threshold is reached, the branch stops ending blocks and
    // segments embed it as promoted.
    EXPECT_GT(d.unit_.promotedEmbedded(), 0u);
    EXPECT_TRUE(d.unit_.biasTable().advice(branch_pc).promote);
}

TEST(FillPromotion, PromotedBranchDoesNotCountAgainstLimit)
{
    FillUnitParams p = params(PackingPolicy::Atomic, 2, true, 2);
    FillDriver d(p);
    // Warm the bias table: run the loop body twice.
    for (int rep = 0; rep < 3; ++rep) {
        d.nextPc_ = 0x1000;
        d.block(1, Opcode::Bne, true);
    }
    // Now the branch at 0x1004 is promoted. Replay a longer stream:
    // four copies of the block all fit one segment (no block-ending
    // branches at all), finalized only by size or a terminator.
    d.nextPc_ = 0x1000;
    for (int rep = 0; rep < 4; ++rep) {
        d.nextPc_ = 0x1000;
        d.block(1, Opcode::Bne, true);
    }
    d.inst(Instruction{Opcode::Ret, 0, isa::kRegRa, 0, 0});
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    EXPECT_GT(seg->size(), 6u) << "promoted branches must not end blocks";
    unsigned promoted = 0;
    for (const TraceInst &ti : seg->insts)
        promoted += ti.promoted;
    EXPECT_GE(promoted, 2u);
}

TEST(FillPromotion, DirectionMismatchEmbedsAsNormalBranch)
{
    // A promoted-taken branch retiring not-taken must be embedded as a
    // normal block-ending branch (the segment continues on the
    // not-taken path, contradicting the static direction).
    FillDriver d(params(PackingPolicy::Atomic, 2, true, 2));
    for (int rep = 0; rep < 4; ++rep) {
        d.nextPc_ = 0x1000;
        d.block(1, Opcode::Bne, true);
    }
    // Final iteration: the branch falls through.
    d.nextPc_ = 0x1000;
    d.block(1, Opcode::Bne, false);
    d.inst(Instruction{Opcode::Ret, 0, isa::kRegRa, 0, 0});
    const TraceSegment *seg = d.cache_.peek(0x1000);
    ASSERT_NE(seg, nullptr);
    // The last embedded copy of the branch ends a block.
    bool found_normal = false;
    for (const TraceInst &ti : seg->insts) {
        if (isa::isCondBranch(ti.inst.op) && !ti.builtTaken) {
            EXPECT_FALSE(ti.promoted);
            EXPECT_TRUE(ti.endsBlock);
            found_normal = true;
        }
    }
    EXPECT_TRUE(found_normal);
}

TEST(FillPromotion, MeanSegmentSizeGrowsWithPromotion)
{
    // With promotion, segments are longer on the same biased stream.
    auto run = [](bool promotion) {
        FillDriver d(params(PackingPolicy::Atomic, 2, promotion, 2));
        for (int rep = 0; rep < 200; ++rep) {
            d.nextPc_ = 0x1000 + (rep % 4) * 0x40;
            d.block(2, Opcode::Bne, true);
            d.block(2, Opcode::Bne, true);
        }
        return d.unit_.meanSegmentSize();
    };
    EXPECT_GT(run(true), run(false));
}

} // namespace
} // namespace tcsim::trace

namespace tcsim::trace
{
namespace
{

TEST(FillResync, MissAddressStartsFreshSegment)
{
    FillDriver d(params(PackingPolicy::Unregulated));
    d.unit_.noteFetchMiss(0x1000 + 3 * isa::kInstBytes);
    d.block(2); // block [0x1000..0x1008]; next block starts at 0x100c
    d.block(2);
    d.inst(Instruction{Opcode::Ret, 0, isa::kRegRa, 0, 0});
    // The pending segment was finalized at the miss address, so a
    // segment starting exactly there exists.
    EXPECT_NE(d.cache_.peek(0x1000 + 3 * isa::kInstBytes), nullptr);
    EXPECT_NE(d.cache_.peek(0x1000), nullptr);
}

} // namespace
} // namespace tcsim::trace

namespace tcsim::trace
{
namespace
{

/**
 * Property test: drive the fill unit with the architectural retire
 * stream of a real generated benchmark under every policy combination
 * and check the structural invariants of every resident segment.
 */
class FillProperty
    : public ::testing::TestWithParam<std::tuple<PackingPolicy, bool>>
{
};

TEST_P(FillProperty, SegmentInvariantsHold)
{
    const auto &[policy, promotion] = GetParam();

    workload::BenchmarkProfile profile =
        workload::findProfile("compress");
    profile.numFunctions = 10;
    workload::Program program = workload::generateProgram(profile);
    workload::FunctionalExecutor exec(program);

    FillUnitParams fill_params;
    fill_params.packing = policy;
    fill_params.packingGranule = 2;
    fill_params.promotion = promotion;
    fill_params.biasTable.promoteThreshold = 16;
    TraceCache cache(TraceCacheParams{256, 4});
    FillUnit unit(fill_params, cache);

    for (int i = 0; i < 150000 && !exec.halted(); ++i) {
        const workload::StepResult step = exec.step();
        RetiredInst retired;
        retired.inst = step.inst;
        retired.pc = step.pc;
        retired.taken = step.taken;
        unit.retire(retired);
    }

    unsigned segments = 0;
    cache.forEachResident([&](const TraceSegment &seg) {
        ++segments;
        ASSERT_GE(seg.size(), 1u);
        ASSERT_LE(seg.size(), kMaxSegmentInsts);

        unsigned block_branches = 0;
        for (unsigned i = 0; i < seg.size(); ++i) {
            const TraceInst &ti = seg.insts[i];
            // Classification consistency.
            if (isa::isCondBranch(ti.inst.op)) {
                EXPECT_NE(ti.promoted, ti.endsBlock)
                    << "a conditional branch either ends a block or "
                       "is promoted";
                if (ti.promoted) {
                    EXPECT_EQ(ti.promotedDir, ti.builtTaken);
                }
            } else {
                EXPECT_FALSE(ti.endsBlock);
                EXPECT_FALSE(ti.promoted);
            }
            block_branches += ti.endsBlock;

            // Segment terminators appear only in the last slot.
            const bool terminator = isa::isReturn(ti.inst.op) ||
                                    isa::isIndirectJump(ti.inst.op) ||
                                    isa::isSerializing(ti.inst.op);
            if (i + 1 < seg.size()) {
                EXPECT_FALSE(terminator)
                    << "terminator mid-segment at " << i;
                // Physical contiguity of the embedded path.
                EXPECT_EQ(seg.insts[i + 1].pc, ti.embeddedNextPc())
                    << "path break at slot " << i << " of "
                    << seg.toString();
            }
        }
        EXPECT_EQ(block_branches, seg.numBlockBranches);
        EXPECT_LE(block_branches, kMaxSegmentBranches);
        EXPECT_EQ(seg.startAddr, seg.insts.front().pc);
        if (!promotion) {
            EXPECT_EQ(unit.promotedEmbedded(), 0u);
        }

        switch (seg.reason) {
          case FillReason::MaxSize:
            EXPECT_EQ(seg.size(), kMaxSegmentInsts);
            break;
          case FillReason::MaxBranches:
            EXPECT_EQ(seg.numBlockBranches, kMaxSegmentBranches);
            break;
          case FillReason::RetIndirTrap: {
            const isa::Opcode last = seg.insts.back().inst.op;
            EXPECT_TRUE(isa::isReturn(last) ||
                        isa::isIndirectJump(last) ||
                        isa::isSerializing(last));
            break;
          }
          case FillReason::AtomicBlock:
          case FillReason::Resync:
            break;
        }
    });
    EXPECT_GT(segments, 10u);
    EXPECT_GT(unit.segmentsBuilt(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, FillProperty,
    ::testing::Combine(
        ::testing::Values(PackingPolicy::Atomic,
                          PackingPolicy::Unregulated,
                          PackingPolicy::NRegulated,
                          PackingPolicy::CostRegulated),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<PackingPolicy, bool>>
           &param_info) {
        std::string name =
            packingPolicyName(std::get<0>(param_info.param));
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name + (std::get<1>(param_info.param) ? "_promo" : "_plain");
    });

/** Canonical dump of every field the simulator reads from a segment. */
std::string
dumpSegment(const TraceSegment &seg)
{
    std::ostringstream os;
    os << std::hex << seg.startAddr << std::dec << '/'
       << static_cast<unsigned>(seg.reason) << '/'
       << seg.numBlockBranches << '/' << seg.hasTightBackwardBranch;
    for (const TraceInst &ti : seg.insts) {
        os << '|' << isa::encode(ti.inst) << ',' << ti.pc << ','
           << ti.promoted << ti.promotedDir << ti.endsBlock
           << ti.builtTaken;
    }
    return os.str();
}

TEST(FillBufferReuse, RecycledBuffersLeaveNoStaleState)
{
    // The fill unit recycles the pending segment's instruction buffer
    // through TraceCache::insert instead of allocating per segment.
    // Build the same stream on a fresh unit and on one whose buffers
    // have already cycled through hundreds of varied segments: the
    // resulting resident segments must match field for field.
    auto stream = [](FillDriver &d) {
        for (unsigned i = 0; i < 64; ++i) {
            d.block(3 + i % 9, Opcode::Bne, i % 2 == 0,
                    i % 5 == 0 ? -8 : 8);
            if (i % 7 == 0)
                d.block(2, Opcode::Ret);
        }
        d.block(0, Opcode::Ret); // drain the pending segment
    };
    auto collect = [](const FillDriver &d) {
        std::vector<std::string> segs;
        d.cache_.forEachResident([&](const TraceSegment &seg) {
            segs.push_back(dumpSegment(seg));
        });
        std::sort(segs.begin(), segs.end());
        return segs;
    };

    FillDriver fresh(params(PackingPolicy::CostRegulated));
    stream(fresh);

    FillDriver reused(params(PackingPolicy::CostRegulated));
    for (unsigned i = 0; i < 300; ++i)
        reused.block(i % 14, i % 3 == 0 ? Opcode::Ret : Opcode::Bne,
                     i % 2 == 1, i % 4 == 0 ? -8 : 8);
    reused.block(0, Opcode::Ret);
    reused.cache_.flush();
    reused.nextPc_ = 0x1000;
    stream(reused);

    EXPECT_EQ(collect(fresh), collect(reused));
}

} // namespace
} // namespace tcsim::trace
