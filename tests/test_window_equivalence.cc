/**
 * @file
 * Recovery-path equivalence tests for the window-indexed lookups.
 *
 * The indexed event paths (checkpoint stack, hashed memAddr indexes,
 * binary-searched robOrder_ positioning) must be *bit-identical* to
 * the original O(window) scans. Two layers of proof:
 *
 *  1. A golden-stats fixture: cycle/branch/mispredict/fault/violation
 *     counts captured from the pre-indexing simulator (commit
 *     77a5ca7) across benchmarks, configs, and two ROB sizes, plus a
 *     perfect-disambiguation row captured before blocked loads were
 *     parked on their stores. Each row also pins an FNV-1a digest of
 *     the whole statistics dump (every name and the bit pattern of
 *     its value), captured before ready-queue entries cached their
 *     parks, so no counter can move unseen. The current simulator
 *     must reproduce every number exactly.
 *
 *  2. Verify mode: TCSIM_VERIFY_WINDOW_INDEX=1 makes the processor
 *     run the original reference scans beside every indexed lookup
 *     and TCSIM_ASSERT agreement per event; a run under verify mode
 *     must also produce the same aggregate results as a plain run.
 */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "sim/config.h"
#include "sim/processor.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace
{

using namespace tcsim;

sim::ProcessorConfig
configByName(const std::string &name, std::uint32_t rob_entries)
{
    sim::ProcessorConfig config;
    if (name == "baseline") {
        config = sim::baselineConfig();
    } else if (name == "promo-pack") {
        config = sim::promotionPackingConfig(64);
    } else if (name == "perfect") {
        config = sim::promotionPackingConfig(64);
        config.disambiguation = sim::Disambiguation::Perfect;
    } else {
        EXPECT_EQ(name, "speculative");
        config = sim::promotionPackingConfig(64);
        config.disambiguation = sim::Disambiguation::Speculative;
    }
    config.robEntries = rob_entries;
    return config;
}

sim::SimResult
runCombo(const char *bench, const char *config_name,
         std::uint32_t rob_entries, std::uint64_t insts)
{
    const workload::Program program =
        workload::generateProgram(workload::findProfile(bench));
    sim::Processor proc(configByName(config_name, rob_entries), program);
    return proc.run(insts);
}

/** Golden statistics captured from the pre-indexing simulator. */
struct GoldenRow
{
    const char *bench;
    const char *config;
    std::uint32_t rob;
    std::uint64_t insts;
    std::uint64_t cycles;
    std::uint64_t condBranches;
    std::uint64_t condMispredicts;
    std::uint64_t promotedFaults;
    std::uint64_t memOrderViolations;
    std::uint64_t statsDigest;
};

constexpr GoldenRow kGolden[] = {
    {"compress", "promo-pack", 64, 60000ull, 20749ull, 9188ull, 1005ull, 2ull, 0ull,
     0x46a6b66ee9c4f86bull},
    {"compress", "promo-pack", 512, 60000ull, 15745ull, 9188ull, 1101ull, 2ull, 0ull,
     0x2d1690d506051120ull},
    {"vortex", "speculative", 64, 60000ull, 26543ull, 8279ull, 616ull, 7ull, 0ull,
     0xa3987a579ae93426ull},
    {"vortex", "speculative", 512, 60000ull, 20791ull, 8279ull, 707ull, 7ull, 0ull,
     0xe253c6d66247079eull},
    {"m88ksim", "baseline", 64, 60000ull, 17766ull, 10886ull, 365ull, 0ull, 0ull,
     0x0ecdaa65a7c026e8ull},
    {"m88ksim", "baseline", 512, 60000ull, 14316ull, 10887ull, 450ull, 0ull, 0ull,
     0x834bd501e87109e2ull},
    {"tex", "speculative", 512, 60000ull, 16434ull, 6527ull, 820ull, 5ull, 1ull,
     0xfdaba18c0e9c55e2ull},
    {"gnuchess", "promo-pack", 512, 60000ull, 15891ull, 16628ull, 1271ull, 44ull, 0ull,
     0xf2a6858cb5e7e93aull},
    {"go", "perfect", 512, 60000ull, 20162ull, 7378ull, 605ull, 13ull, 0ull,
     0x869c6be58e4788b4ull},
};

/** FNV-1a over the whole statistics dump: each name, then the bit
 * pattern of its value. */
std::uint64_t
statsDigest(const sim::SimResult &result)
{
    std::uint64_t hash = kFnvOffsetBasis;
    for (const auto &[name, value] : result.stats.entries()) {
        hash = fnv1aAppend(hash, name);
        hash = fnv1aAppendScalar(hash, value);
    }
    return hash;
}

TEST(WindowEquivalence, GoldenStatsBitIdentical)
{
    for (const GoldenRow &row : kGolden) {
        SCOPED_TRACE(std::string(row.bench) + "/" + row.config +
                     "/rob=" + std::to_string(row.rob));
        const sim::SimResult r =
            runCombo(row.bench, row.config, row.rob, row.insts);
        // Retire drains up to retireWidth per cycle, so the final
        // cycle can overshoot the budget by a few instructions.
        EXPECT_GE(r.instructions, row.insts);
        EXPECT_LT(r.instructions, row.insts + 16);
        EXPECT_EQ(r.cycles, row.cycles);
        EXPECT_EQ(r.condBranches, row.condBranches);
        EXPECT_EQ(r.condMispredicts, row.condMispredicts);
        EXPECT_EQ(r.promotedFaults, row.promotedFaults);
        EXPECT_EQ(static_cast<std::uint64_t>(
                      r.stats.get("mem.order_violations")),
                  row.memOrderViolations);
        EXPECT_EQ(hashHex(statsDigest(r)), hashHex(row.statsDigest));
    }
}

/** RAII guard for the verify-mode environment variable. */
class VerifyModeGuard
{
  public:
    VerifyModeGuard() { setenv("TCSIM_VERIFY_WINDOW_INDEX", "1", 1); }
    ~VerifyModeGuard() { unsetenv("TCSIM_VERIFY_WINDOW_INDEX"); }
};

TEST(WindowEquivalence, VerifyModeCrossChecksEveryEvent)
{
    // Under verify mode the processor asserts, per event, that the
    // indexed lookup equals the reference scan; reaching the end of a
    // run means every store-violation check, load disambiguation,
    // forwarding decision, and checkpoint selection agreed. The
    // aggregate statistics must also match a plain run exactly.
    struct Combo
    {
        const char *bench;
        const char *config;
        std::uint32_t rob;
    };
    constexpr Combo kCombos[] = {
        {"compress", "speculative", 64},
        {"compress", "speculative", 512},
        {"gnuchess", "promo-pack", 512},
        {"vortex", "baseline", 256},
        // The DynInst ring starts at 128 slots for rob 64 and must
        // grow; Perfect parks loads on stores that stay unresolved.
        {"go", "perfect", 64},
        {"go", "perfect", 512},
        // Every preset uses Conservative, where parks dominate; the
        // cached parks must hold under each policy.
        {"go", "promo-pack", 512},
        {"go", "speculative", 512},
    };
    constexpr std::uint64_t kInsts = 40000;
    for (const Combo &combo : kCombos) {
        SCOPED_TRACE(std::string(combo.bench) + "/" + combo.config +
                     "/rob=" + std::to_string(combo.rob));
        const sim::SimResult plain =
            runCombo(combo.bench, combo.config, combo.rob, kInsts);
        sim::SimResult verified;
        {
            VerifyModeGuard guard;
            verified =
                runCombo(combo.bench, combo.config, combo.rob, kInsts);
        }
        EXPECT_EQ(verified.cycles, plain.cycles);
        EXPECT_DOUBLE_EQ(verified.ipc, plain.ipc);
        EXPECT_EQ(verified.condBranches, plain.condBranches);
        EXPECT_EQ(verified.condMispredicts, plain.condMispredicts);
        EXPECT_DOUBLE_EQ(verified.condMispredictRate,
                         plain.condMispredictRate);
        EXPECT_EQ(verified.promotedFaults, plain.promotedFaults);
        EXPECT_EQ(verified.stats.get("mem.order_violations"),
                  plain.stats.get("mem.order_violations"));
    }
}

TEST(WindowEquivalence, RecoveryCountsMatchAcrossRobSizes)
{
    // The recovery-path statistics (mispredict and fault counts, which
    // count applied recoveries) must be internally consistent between
    // a small and a large window under verify mode: the indexed
    // checkpoint selection is exercised at both extremes.
    VerifyModeGuard guard;
    for (const std::uint32_t rob : {64u, 512u}) {
        SCOPED_TRACE("rob=" + std::to_string(rob));
        const sim::SimResult r =
            runCombo("gnuchess", "promo-pack", rob, 30000);
        EXPECT_GE(r.instructions, 30000u);
        EXPECT_GT(r.condBranches, 0u);
        // gnuchess under promotion reliably faults; both window sizes
        // must exercise the promoted-fault recovery path.
        EXPECT_GT(r.promotedFaults, 0u);
    }
}

} // namespace
