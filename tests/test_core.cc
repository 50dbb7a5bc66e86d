/**
 * @file
 * Processor-level behaviour tests on hand-written programs: the
 * retired stream always equals the functional oracle (enforced by
 * internal invariants), so these tests focus on timing-visible
 * behaviour: recovery, forwarding, disambiguation modes, promotion
 * faults and serialization.
 */

#include <gtest/gtest.h>

#include "sim/processor.h"
#include "workload/generator.h"
#include "workload/profile.h"
#include "workload/builder.h"
#include "workload/executor.h"

namespace tcsim::sim
{
namespace
{

using isa::Opcode;
using workload::Label;
using workload::ProgramBuilder;

/** Run @p program to completion under @p config. */
SimResult
run(const workload::Program &program, ProcessorConfig config,
    std::uint64_t max_insts = 0)
{
    Processor proc(config, program);
    return proc.run(max_insts);
}

/** A loop summing 1..n with a data-driven exit. */
workload::Program
loopProgram(int trip)
{
    ProgramBuilder b("loop");
    b.addi(3, 0, trip);
    b.addi(4, 0, 0);
    Label top = b.here();
    b.add(4, 4, 3);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    return b.build();
}

TEST(Core, RunsToCompletionAndCountsInstructions)
{
    workload::Program p = loopProgram(10);
    workload::FunctionalExecutor golden(p);
    while (!golden.halted())
        golden.step();

    const SimResult r = run(p, baselineConfig());
    EXPECT_EQ(r.instructions, golden.instCount());
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(Core, MaxInstsStopsEarly)
{
    workload::Program p = loopProgram(1000);
    Processor proc(baselineConfig(), p);
    const SimResult r = proc.run(100);
    EXPECT_GE(r.instructions, 100u);
    EXPECT_LT(r.instructions, 130u); // one retire burst of slack
}

TEST(Core, IcacheAndTraceCacheConfigsAgreeArchitecturally)
{
    workload::Program p = loopProgram(50);
    const SimResult a = run(p, icacheConfig());
    const SimResult b = run(p, baselineConfig());
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(Core, TraceCacheSpeedsUpLoop)
{
    workload::Program p = loopProgram(400);
    const SimResult icache = run(p, icacheConfig());
    const SimResult tc = run(p, baselineConfig());
    // The 3-instruction loop body benefits from multi-block fetch.
    EXPECT_GT(tc.effectiveFetchRate, icache.effectiveFetchRate);
}

TEST(Core, MispredictsDetectedAndResolved)
{
    // A data-dependent branch flipping with the parity of a counter:
    // some mispredictions are inevitable early on.
    ProgramBuilder b("flip");
    b.addi(3, 0, 200);
    Label top = b.here();
    b.andi(5, 3, 1);
    Label skip = b.newLabel();
    b.beq(5, 0, skip);
    b.addi(6, 6, 1);
    b.bind(skip);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    const SimResult r = run(b.build(), baselineConfig());
    EXPECT_GT(r.condBranches, 300u);
    EXPECT_GT(r.meanResolutionTime, 0.0);
}

TEST(Core, StoreLoadForwardingProducesCorrectValues)
{
    // Store then immediately load the same address in a loop; the
    // retired stream is oracle-checked, so completion proves the
    // forwarding path returns correct data.
    ProgramBuilder b("fwd");
    const Addr buf = b.allocData(64);
    b.loadImm64(5, static_cast<std::uint32_t>(buf));
    b.addi(3, 0, 100);
    Label top = b.here();
    b.st(3, 0, 5);
    b.ld(6, 0, 5);
    b.add(7, 7, 6);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    const SimResult r = run(b.build(), baselineConfig());
    EXPECT_GT(r.instructions, 500u);
}

TEST(Core, PerfectDisambiguationNotSlower)
{
    // On a real workload, perfect disambiguation must not lose to the
    // conservative scheduler: it removes only false stalls behind
    // unknown-address stores.
    workload::Program p = workload::generateProgram(
        workload::findProfile("compress"));
    ProcessorConfig conservative = baselineConfig();
    ProcessorConfig perfect = baselineConfig();
    perfect.disambiguation = Disambiguation::Perfect;
    Processor c(conservative, p);
    Processor f(perfect, p);
    const SimResult rc = c.run(40000);
    const SimResult rf = f.run(40000);
    // Both stop at the 40k budget (the final retire burst may differ).
    EXPECT_GE(rc.instructions, 40000u);
    EXPECT_GE(rf.instructions, 40000u);
    EXPECT_LE(rf.cycles, rc.cycles);
}

TEST(Core, LateAliasingStoreForwardsUnderEitherPolicy)
{
    // A loop whose store address resolves late and aliases the next
    // load: under both policies the load must wait for the store and
    // take its data (Perfect knows the addresses alias), or the
    // oracle check at retire fails.
    ProgramBuilder b("alias");
    const Addr buf = b.allocData(64);
    b.loadImm64(5, static_cast<std::uint32_t>(buf));
    b.addi(9, 0, 1);
    b.addi(3, 0, 300);
    Label top = b.here();
    b.mul(4, 9, 9);
    b.mul(4, 4, 9);
    b.andi(4, 4, 0);   // slow zero
    b.add(4, 5, 4);    // store address = buf, known late
    b.st(3, 0, 4);
    b.ld(6, 0, 5);     // aliases the store (same address)
    b.add(7, 7, 6);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    workload::Program p = b.build();

    workload::FunctionalExecutor golden(p);
    while (!golden.halted())
        golden.step();
    for (const Disambiguation policy :
         {Disambiguation::Conservative, Disambiguation::Perfect}) {
        ProcessorConfig config = baselineConfig();
        config.disambiguation = policy;
        EXPECT_EQ(run(p, config).instructions, golden.instCount());
    }
}

TEST(Core, TrapSerializesButCompletes)
{
    ProgramBuilder b("trap");
    b.addi(3, 0, 20);
    Label top = b.here();
    b.trap();
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    const SimResult r = run(b.build(), baselineConfig());
    EXPECT_GT(r.cycleCat[static_cast<unsigned>(CycleCategory::Traps)],
              0u);
}

TEST(Core, PromotionFaultRecoversCorrectly)
{
    // A branch taken 200 times then not-taken once, repeatedly: it is
    // promoted (threshold 16) and faults at every flip. Completion
    // under the oracle invariant proves fault recovery works.
    ProgramBuilder b("fault");
    b.addi(9, 0, 8); // outer
    Label outer = b.here();
    b.addi(3, 0, 200);
    Label top = b.here();
    b.addi(4, 4, 1);
    b.addi(3, 3, -1);
    b.bne(3, 0, top); // promoted latch, faults at each exit
    b.addi(9, 9, -1);
    b.bne(9, 0, outer);
    b.halt();
    const SimResult r = run(b.build(), promotionConfig(16));
    EXPECT_GT(r.promotedFaults, 0u);
    EXPECT_GT(r.promotedRetired, 0u);
}

TEST(Core, PromotionLiftsFetchRateOnBiasedCode)
{
    // Three strongly biased branches per iteration cap the baseline
    // at the 3-branch limit; promotion lifts it.
    ProgramBuilder b("biased");
    b.addi(3, 0, 3000);
    Label top = b.here();
    for (int i = 0; i < 6; ++i) {
        Label skip = b.newLabel();
        b.bne(0, 0, skip); // never taken
        b.add(10, 11, 12);
        b.bind(skip);
    }
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    workload::Program p = b.build();
    const SimResult base = run(p, baselineConfig());
    const SimResult promo = run(p, promotionConfig(64));
    EXPECT_GT(promo.effectiveFetchRate,
              base.effectiveFetchRate * 1.05);
    EXPECT_GT(promo.fetchesNeeding01, base.fetchesNeeding01);
}

TEST(Core, PackingLiftsFetchRateOnOddBlocks)
{
    // 11-instruction blocks leave 5 slots unusable under atomic fill.
    ProgramBuilder b("odd");
    b.addi(3, 0, 3000);
    Label top = b.here();
    for (int i = 0; i < 10; ++i)
        b.add(10, 11, 12);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    workload::Program p = b.build();
    const SimResult base = run(p, baselineConfig());
    const SimResult pack = run(p, packingConfig());
    EXPECT_GT(pack.effectiveFetchRate, base.effectiveFetchRate * 1.1);
}

TEST(Core, CycleAccountingSumsToTotal)
{
    workload::Program p = loopProgram(300);
    Processor proc(baselineConfig(), p);
    const SimResult r = proc.run(0);
    std::uint64_t sum = 0;
    for (unsigned c = 0;
         c < static_cast<unsigned>(CycleCategory::NumCategories); ++c)
        sum += r.cycleCat[c];
    EXPECT_EQ(sum, proc.accounting().totalCycles());
    // Fetch stops at done; every cycle before that is categorized.
    EXPECT_GE(r.cycles, sum);
    EXPECT_LE(r.cycles - sum, 2u);
}

TEST(Core, DeterministicAcrossRuns)
{
    workload::Program p = loopProgram(200);
    const SimResult a = run(p, promotionPackingConfig());
    const SimResult b = run(p, promotionPackingConfig());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.condMispredicts, b.condMispredicts);
}

TEST(Core, IndirectJumpMisfetchRecovered)
{
    // A two-target jump table alternating targets: last-target
    // prediction misses half the time; misfetch recovery must keep
    // the stream architecturally exact.
    ProgramBuilder b("ind");
    const Addr table = b.allocData(16);
    Label even = b.newLabel(), odd = b.newLabel(), join = b.newLabel();
    b.setDataLabel(table, even);
    b.setDataLabel(table + 8, odd);
    b.loadImm64(5, static_cast<std::uint32_t>(table));
    b.addi(3, 0, 200);
    Label top = b.here();
    b.andi(6, 3, 1);
    b.slli(6, 6, 3);
    b.add(6, 5, 6);
    b.ld(6, 0, 6);
    b.jr(6);
    b.bind(even);
    b.addi(7, 7, 1);
    b.j(join);
    b.bind(odd);
    b.addi(8, 8, 1);
    b.j(join);
    b.bind(join);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    const SimResult r = run(b.build(), baselineConfig());
    EXPECT_GT(r.indirectMispredicts, 50u);
    EXPECT_GT(r.cycleCat[static_cast<unsigned>(
                  CycleCategory::Misfetches)],
              0u);
}

TEST(Core, FetchHistogramPopulated)
{
    workload::Program p = loopProgram(500);
    Processor proc(baselineConfig(), p);
    const SimResult r = proc.run(0);
    std::uint64_t total = 0;
    for (unsigned reason = 0;
         reason < static_cast<unsigned>(FetchReason::NumReasons);
         ++reason) {
        for (unsigned w = 0; w <= Accounting::kMaxFetchWidth; ++w)
            total += r.fetchHist[reason][w];
    }
    EXPECT_EQ(total, proc.accounting().usefulFetches());
    EXPECT_GT(total, 0u);
}

TEST(Core, EffectiveFetchRateBounded)
{
    workload::Program p = loopProgram(500);
    const SimResult r = run(p, promotionPackingConfig());
    EXPECT_GT(r.effectiveFetchRate, 1.0);
    EXPECT_LE(r.effectiveFetchRate, 16.0);
}

} // namespace
} // namespace tcsim::sim

namespace tcsim::sim
{
namespace
{

TEST(Core, ResetStatsMeasuresSteadyStateWindow)
{
    workload::Program p = workload::generateProgram(
        workload::findProfile("compress"));
    Processor proc(baselineConfig(), p);
    proc.run(50000);
    proc.resetStats();
    const SimResult warm = proc.run(100000);
    // The window excludes the warm-up.
    EXPECT_GE(warm.instructions, 50000u);
    EXPECT_LT(warm.instructions, 51000u);
    EXPECT_GT(warm.ipc, 0.2);

    // The measurement window is internally consistent: categorized
    // cycles equal the window's cycle count (within the final cycle).
    std::uint64_t category_sum = 0;
    for (unsigned c = 0;
         c < static_cast<unsigned>(CycleCategory::NumCategories); ++c)
        category_sum += warm.cycleCat[c];
    EXPECT_LE(warm.cycles - category_sum, 2u);
    EXPECT_GT(warm.tcLookups, 0u);
}

} // namespace
} // namespace tcsim::sim

namespace tcsim::sim
{
namespace
{

TEST(CoreKnobs, SmallCheckpointPoolThrottlesFetch)
{
    workload::Program p = workload::generateProgram(
        workload::findProfile("gcc"));
    ProcessorConfig small = baselineConfig();
    small.checkpoints = 8;
    ProcessorConfig large = baselineConfig();
    large.checkpoints = 96;

    Processor ps(small, p);
    Processor pl(large, p);
    const SimResult rs = ps.run(60000);
    const SimResult rl = pl.run(60000);
    const auto full = [](const SimResult &r) {
        return r.cycleCat[static_cast<unsigned>(
            CycleCategory::FullWindow)];
    };
    // Fewer checkpoints -> more full-window stalls and no more IPC.
    EXPECT_GT(full(rs), full(rl));
    EXPECT_LE(rs.ipc, rl.ipc * 1.02);
}

TEST(CoreKnobs, RetireWidthLimitsThroughput)
{
    workload::Program p = workload::generateProgram(
        workload::findProfile("compress"));
    ProcessorConfig narrow = baselineConfig();
    narrow.retireWidth = 2;
    Processor pn(narrow, p);
    Processor pw(baselineConfig(), p);
    const SimResult rn = pn.run(60000);
    const SimResult rw = pw.run(60000);
    EXPECT_LT(rn.ipc, rw.ipc);
    EXPECT_LE(rn.ipc, 2.0 + 1e-9);
}

TEST(CoreKnobs, TinyTraceCacheStillCorrect)
{
    workload::Program p = workload::generateProgram(
        workload::findProfile("compress"));
    ProcessorConfig config = promotionPackingConfig(64);
    config.traceCache.numSegments = 16;
    config.traceCache.assoc = 2;
    Processor proc(config, p);
    const SimResult r = proc.run(60000);
    EXPECT_GE(r.instructions, 60000u);
    // A 16-segment cache still hits inside loops.
    EXPECT_GT(r.tcHits, 0u);
}

} // namespace
} // namespace tcsim::sim
