/**
 * @file
 * Tests for the prediction structures: global history, the return
 * address stack, the branch bias table (promotion/demotion rules),
 * the indirect predictor, the hybrid predictor and both multiple
 * branch predictor organizations.
 */

#include <gtest/gtest.h>

#include "bpred/bias_table.h"
#include "bpred/history.h"
#include "bpred/hybrid.h"
#include "bpred/indirect.h"
#include "bpred/multi.h"
#include "bpred/ras.h"

namespace tcsim::bpred
{
namespace
{

// ----------------------------------------------------------------------
// Global history.
// ----------------------------------------------------------------------

TEST(History, PushShiftsInAtBitZero)
{
    GlobalHistory h;
    h.push(true);
    h.push(false);
    h.push(true);
    EXPECT_EQ(h.value(), 0b101u);
}

TEST(History, Restore)
{
    GlobalHistory h;
    h.push(true);
    const std::uint64_t snap = h.value();
    h.push(false);
    h.push(true);
    h.restore(snap);
    EXPECT_EQ(h.value(), snap);
}

// ----------------------------------------------------------------------
// Return address stack.
// ----------------------------------------------------------------------

TEST(Ras, LifoOrder)
{
    ReturnAddressStack ras;
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(Ras, UnderflowReturnsInvalid)
{
    ReturnAddressStack ras;
    EXPECT_EQ(ras.pop(), kInvalidAddr);
}

TEST(Ras, SnapshotRestoreRepairsDepthAndTop)
{
    ReturnAddressStack ras;
    ras.push(0x100);
    ras.push(0x200);
    const auto cp = ras.snapshot();
    // Wrong path: pop twice, push garbage.
    ras.pop();
    ras.pop();
    ras.push(0xbad);
    ras.restore(cp);
    // (depth, top) repair restores the depth and the top entry; deeper
    // entries clobbered by wrong-path overwrite are not recoverable
    // (the processor uses rebuild-based recovery instead).
    EXPECT_EQ(ras.depth(), 2u);
    EXPECT_EQ(ras.pop(), 0x200u);
}

TEST(Ras, FiniteDepthDropsBottom)
{
    ReturnAddressStack ras(2);
    ras.push(0x1);
    ras.push(0x2);
    ras.push(0x3);
    EXPECT_EQ(ras.depth(), 2u);
    EXPECT_EQ(ras.pop(), 0x3u);
    EXPECT_EQ(ras.pop(), 0x2u);
    EXPECT_EQ(ras.pop(), kInvalidAddr);
}

TEST(Ras, AssignAndContents)
{
    ReturnAddressStack ras;
    ras.assign({0x10, 0x20});
    EXPECT_EQ(ras.contents().size(), 2u);
    EXPECT_EQ(ras.pop(), 0x20u);
}

// ----------------------------------------------------------------------
// Branch bias table.
// ----------------------------------------------------------------------

BiasTableParams
biasParams(std::uint32_t threshold)
{
    BiasTableParams params;
    params.entries = 256;
    params.promoteThreshold = threshold;
    return params;
}

TEST(BiasTable, PromotesAtThreshold)
{
    BranchBiasTable table(biasParams(4));
    const Addr pc = 0x1000;
    for (int i = 0; i < 3; ++i) {
        table.update(pc, true);
        EXPECT_FALSE(table.advice(pc).promote);
    }
    table.update(pc, true); // 4th consecutive
    const PromotionAdvice advice = table.advice(pc);
    EXPECT_TRUE(advice.promote);
    EXPECT_TRUE(advice.direction);
    EXPECT_EQ(table.promotions(), 1u);
}

TEST(BiasTable, PromotesNotTakenDirection)
{
    BranchBiasTable table(biasParams(3));
    const Addr pc = 0x2000;
    for (int i = 0; i < 3; ++i)
        table.update(pc, false);
    const PromotionAdvice advice = table.advice(pc);
    EXPECT_TRUE(advice.promote);
    EXPECT_FALSE(advice.direction);
}

TEST(BiasTable, SingleOppositeOutcomeDoesNotDemote)
{
    // The paper's loop-latch rationale: the final loop iteration must
    // not demote an otherwise strongly biased branch.
    BranchBiasTable table(biasParams(4));
    const Addr pc = 0x3000;
    for (int i = 0; i < 6; ++i)
        table.update(pc, true);
    table.update(pc, false); // loop exit
    EXPECT_TRUE(table.advice(pc).promote);
    EXPECT_TRUE(table.advice(pc).direction);
    EXPECT_EQ(table.demotions(), 0u);
}

TEST(BiasTable, TwoConsecutiveOppositeOutcomesDemote)
{
    BranchBiasTable table(biasParams(4));
    const Addr pc = 0x3000;
    for (int i = 0; i < 6; ++i)
        table.update(pc, true);
    table.update(pc, false);
    table.update(pc, false);
    EXPECT_FALSE(table.advice(pc).promote);
    EXPECT_EQ(table.demotions(), 1u);
}

TEST(BiasTable, RePromotionAfterDemotion)
{
    BranchBiasTable table(biasParams(4));
    const Addr pc = 0x3000;
    for (int i = 0; i < 5; ++i)
        table.update(pc, true);
    table.update(pc, false);
    table.update(pc, false); // demoted
    for (int i = 0; i < 2; ++i)
        table.update(pc, false);
    // Four consecutive not-taken: promoted the other way.
    const PromotionAdvice advice = table.advice(pc);
    EXPECT_TRUE(advice.promote);
    EXPECT_FALSE(advice.direction);
}

TEST(BiasTable, TagConflictEvictsPromotion)
{
    BiasTableParams params = biasParams(2);
    BranchBiasTable table(params);
    const Addr pc = 0x1000;
    // Same index, different tag.
    const Addr alias = pc + params.entries * isa::kInstBytes;
    table.update(pc, true);
    table.update(pc, true);
    EXPECT_TRUE(table.advice(pc).promote);
    table.update(alias, false); // displaces
    EXPECT_FALSE(table.advice(pc).promote);
}

TEST(BiasTable, AdviceMissIsNoPromote)
{
    BranchBiasTable table(biasParams(2));
    EXPECT_FALSE(table.advice(0x9999000).promote);
}

// ----------------------------------------------------------------------
// Indirect predictor.
// ----------------------------------------------------------------------

TEST(Indirect, ColdMissThenLastTarget)
{
    IndirectPredictor pred(64);
    EXPECT_EQ(pred.predict(0x100), kInvalidAddr);
    pred.update(0x100, 0x5000);
    EXPECT_EQ(pred.predict(0x100), 0x5000u);
    pred.update(0x100, 0x6000);
    EXPECT_EQ(pred.predict(0x100), 0x6000u);
}

TEST(Indirect, UntaggedAliasing)
{
    IndirectPredictor pred(16);
    pred.update(0x100, 0x5000);
    // Same index, different pc: untagged tables alias by design.
    pred.update(0x100 + 16 * isa::kInstBytes, 0x7000);
    EXPECT_EQ(pred.predict(0x100), 0x7000u);
}

// ----------------------------------------------------------------------
// Hybrid predictor.
// ----------------------------------------------------------------------

TEST(Hybrid, LearnsStrongBias)
{
    HybridPredictor hyb;
    GlobalHistory gh;
    int wrong = 0;
    for (int i = 0; i < 200; ++i) {
        const HybridCtx ctx = hyb.predict(0x100, gh.value());
        if (i > 20 && !ctx.prediction)
            ++wrong;
        hyb.update(0x100, ctx, true);
        gh.push(true);
    }
    EXPECT_EQ(wrong, 0);
}

TEST(Hybrid, PasLearnsPeriodicPattern)
{
    // Period-5 loop pattern: the PAs side must converge even though
    // the pattern is longer than a 2-bit counter can express.
    HybridPredictor hyb;
    GlobalHistory gh;
    int wrong = 0, n = 0;
    for (int rep = 0; rep < 600; ++rep) {
        for (int i = 0; i < 5; ++i) {
            const bool taken = i < 4;
            const HybridCtx ctx = hyb.predict(0x200, gh.value());
            if (rep > 100) {
                ++n;
                wrong += ctx.prediction != taken;
            }
            hyb.update(0x200, ctx, taken);
            gh.push(taken);
        }
    }
    EXPECT_LT(static_cast<double>(wrong) / n, 0.02);
}

// ----------------------------------------------------------------------
// Multiple branch predictors.
// ----------------------------------------------------------------------

template <typename Mbp>
double
trainFirstPosition(Mbp &mbp, bool direction)
{
    const Addr fetch = 0x4000;
    int wrong = 0, n = 0;
    std::uint64_t hist = 0;
    for (int i = 0; i < 200; ++i) {
        const bool pred = mbp.predict(fetch, hist, 0, 0);
        if (i > 20) {
            ++n;
            wrong += pred != direction;
        }
        MbpCtx ctx;
        ctx.fetchAddr = fetch;
        ctx.history = hist;
        ctx.position = 0;
        ctx.path = 0;
        mbp.update(ctx, direction);
        hist = (hist << 1) | static_cast<std::uint64_t>(direction);
    }
    return static_cast<double>(wrong) / n;
}

TEST(TreeMbp, LearnsFirstPosition)
{
    TreeMbp mbp;
    EXPECT_EQ(mbp.maxPredictions(), 3u);
    EXPECT_EQ(trainFirstPosition(mbp, true), 0.0);
}

TEST(SplitMbp, LearnsFirstPosition)
{
    SplitMbp mbp;
    EXPECT_EQ(trainFirstPosition(mbp, false), 0.0);
}

TEST(TreeMbp, PathConditionsLaterPredictions)
{
    // Second branch direction depends on the first branch's outcome:
    // the tree organization can represent this with a fixed history.
    TreeMbp mbp;
    const Addr fetch = 0x8000;
    const std::uint64_t hist = 0x155;
    for (int i = 0; i < 100; ++i) {
        const bool b0 = i % 2 == 0;
        MbpCtx c0{fetch, hist, 0, 0, false};
        mbp.update(c0, b0);
        MbpCtx c1{fetch, hist, 1,
                  static_cast<std::uint8_t>(b0 ? 1 : 0), false};
        mbp.update(c1, b0); // second branch equals the first
    }
    EXPECT_TRUE(mbp.predict(fetch, hist, 1, 1));
    EXPECT_FALSE(mbp.predict(fetch, hist, 1, 0));
}

TEST(SplitMbp, PositionsAreIndependentTables)
{
    SplitMbp mbp;
    const Addr fetch = 0x8000;
    const std::uint64_t hist = 0x2a;
    // Train position 0 taken, position 2 not-taken at the same index.
    for (int i = 0; i < 50; ++i) {
        MbpCtx c0{fetch, hist, 0, 0, false};
        mbp.update(c0, true);
        MbpCtx c2{fetch, hist, 2, 0, false};
        mbp.update(c2, false);
    }
    EXPECT_TRUE(mbp.predict(fetch, hist, 0, 0));
    EXPECT_FALSE(mbp.predict(fetch, hist, 2, 0));
}

TEST(TreeMbp, DistinctHistoriesDistinctEntries)
{
    TreeMbp mbp(1024);
    const Addr fetch = 0x4000;
    for (int i = 0; i < 50; ++i) {
        MbpCtx a{fetch, 0x0, 0, 0, false};
        mbp.update(a, true);
        MbpCtx b{fetch, 0x1, 0, 0, false};
        mbp.update(b, false);
    }
    EXPECT_TRUE(mbp.predict(fetch, 0x0, 0, 0));
    EXPECT_FALSE(mbp.predict(fetch, 0x1, 0, 0));
}

} // namespace
} // namespace tcsim::bpred

namespace tcsim::bpred
{
namespace
{

TEST(Hybrid, SelectorPrefersBetterComponent)
{
    // A branch whose outcome equals the last outcome of itself
    // (local history bit 0): PAs-friendly, gshare-hostile when global
    // history is polluted by unrelated branches.
    HybridPredictor hyb;
    GlobalHistory gh;
    std::uint64_t x = 7;
    int late_wrong = 0, late_n = 0;
    bool prev = false;
    for (int i = 0; i < 4000; ++i) {
        // Pollute global history with two pseudo-random branches.
        for (int k = 0; k < 2; ++k) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            const bool noise = (x >> 40) & 1;
            const HybridCtx nctx = hyb.predict(0x900 + 8 * k, gh.value());
            hyb.update(0x900 + 8 * k, nctx, noise);
            gh.push(noise);
        }
        // The PAs-predictable branch: period-2 alternation.
        const bool taken = !prev;
        prev = taken;
        const HybridCtx ctx = hyb.predict(0x500, gh.value());
        if (i > 1000) {
            ++late_n;
            late_wrong += ctx.prediction != taken;
        }
        hyb.update(0x500, ctx, taken);
        gh.push(taken);
    }
    // Alternation is trivially in local history. The gshare side
    // alone would be near 50% under this history pollution; the
    // selector routing to PAs must do substantially better, though
    // per-history selector entries train slowly (each (pc ^ history)
    // pattern needs its own votes), so convergence is partial.
    EXPECT_LT(static_cast<double>(late_wrong) / late_n, 0.30);
}

TEST(TreeMbp, AliasingIsBounded)
{
    // Two branches with colliding (addr ^ history) indices interfere;
    // verify training one does perturb the other (documents the
    // interference promotion removes).
    TreeMbp mbp(16);
    const Addr a = 0x100;
    const Addr b = a + 16 * isa::kInstBytes; // same index, hist 0
    for (int i = 0; i < 8; ++i) {
        MbpCtx ctx{a, 0, 0, 0, false};
        mbp.update(ctx, true);
    }
    EXPECT_TRUE(mbp.predict(b, 0, 0, 0)) << "aliased entry shared";
}

TEST(BiasTable, CounterSaturatesAtMax)
{
    BiasTableParams params;
    params.entries = 64;
    params.promoteThreshold = 4;
    params.counterMax = 7;
    BranchBiasTable table(params);
    for (int i = 0; i < 100; ++i)
        table.update(0x40, true);
    // Still promoted and stable after saturation.
    EXPECT_TRUE(table.advice(0x40).promote);
    table.update(0x40, false);
    EXPECT_TRUE(table.advice(0x40).promote) << "single flip keeps it";
}

} // namespace
} // namespace tcsim::bpred
