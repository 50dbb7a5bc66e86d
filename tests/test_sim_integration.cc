/**
 * @file
 * Whole-system integration sweeps: every benchmark profile runs under
 * the paper's main configurations with the architectural oracle
 * verifying the retired stream instruction-for-instruction, and the
 * headline metrics land in sane ranges.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "sim/processor.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace tcsim::sim
{
namespace
{

constexpr std::uint64_t kTestInsts = 60000;

std::vector<std::string>
benchmarkNames()
{
    std::vector<std::string> names;
    for (const auto &profile : workload::benchmarkSuite())
        names.push_back(profile.name);
    return names;
}

ProcessorConfig
configByName(const std::string &name)
{
    if (name == "icache")
        return icacheConfig();
    if (name == "baseline")
        return baselineConfig();
    if (name == "promotion")
        return promotionConfig(64);
    if (name == "packing")
        return packingConfig();
    if (name == "promo-pack")
        return promotionPackingConfig(
            64, trace::PackingPolicy::CostRegulated);
    if (name == "perfect") {
        ProcessorConfig config = promotionPackingConfig(64);
        config.disambiguation = Disambiguation::Perfect;
        return config;
    }
    if (name == "path-assoc") {
        ProcessorConfig config = promotionPackingConfig(64);
        config.traceCache.pathAssociativity = true;
        return config;
    }
    if (name == "no-friendly") {
        // Baseline minus the Friendly et al. techniques.
        ProcessorConfig config = baselineConfig();
        config.partialMatching = false;
        config.inactiveIssue = false;
        return config;
    }
    ADD_FAILURE() << "unknown config " << name;
    return baselineConfig();
}

class SuiteSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(SuiteSweep, RunsWithSaneMetrics)
{
    const auto &[bench, config_name] = GetParam();
    workload::Program program =
        workload::generateProgram(workload::findProfile(bench));
    Processor proc(configByName(config_name), program);
    // The run itself enforces the oracle invariant at every retire.
    const SimResult r = proc.run(kTestInsts);

    EXPECT_GE(r.instructions, kTestInsts);
    EXPECT_GT(r.ipc, 0.2);
    EXPECT_LE(r.ipc, 16.0);
    EXPECT_GT(r.effectiveFetchRate, 2.0);
    EXPECT_LE(r.effectiveFetchRate, 16.0);
    EXPECT_GE(r.condMispredictRate, 0.0);
    EXPECT_LT(r.condMispredictRate, 0.5);
    EXPECT_GT(r.condBranches, kTestInsts / 40);

    std::uint64_t cycle_sum = 0;
    for (unsigned c = 0;
         c < static_cast<unsigned>(CycleCategory::NumCategories); ++c)
        cycle_sum += r.cycleCat[c];
    EXPECT_EQ(cycle_sum, proc.accounting().totalCycles());

    if (config_name != "icache") {
        EXPECT_GT(r.tcLookups, 0u);
        ASSERT_NE(proc.fillUnit(), nullptr);
        EXPECT_GT(proc.fillUnit()->segmentsBuilt(), 0u);
    }
    if (config_name == "promotion" || config_name == "promo-pack") {
        EXPECT_GT(r.promotedRetired, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllConfigs, SuiteSweep,
    ::testing::Combine(::testing::ValuesIn(benchmarkNames()),
                       ::testing::Values("icache", "baseline",
                                         "promotion", "packing",
                                         "promo-pack", "perfect",
                                         "path-assoc", "no-friendly")),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, std::string>> &param_info) {
        std::string name = std::get<0>(param_info.param) + "_" +
                           std::get<1>(param_info.param);
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });

TEST(SimDeterminism, IdenticalRunsIdenticalResults)
{
    workload::Program program =
        workload::generateProgram(workload::findProfile("compress"));
    Processor a(promotionPackingConfig(), program);
    Processor b(promotionPackingConfig(), program);
    const SimResult ra = a.run(40000);
    const SimResult rb = b.run(40000);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.condMispredicts, rb.condMispredicts);
    EXPECT_EQ(ra.promotedFaults, rb.promotedFaults);
    EXPECT_EQ(ra.tcHits, rb.tcHits);
}

TEST(SimTrends, TraceCacheBeatsICacheOnFetchRate)
{
    // The paper's core premise, checked on three representative
    // benchmarks at test scale.
    for (const char *bench : {"compress", "m88ksim", "tex"}) {
        workload::Program program =
            workload::generateProgram(workload::findProfile(bench));
        Processor icache(icacheConfig(), program);
        Processor baseline(baselineConfig(), program);
        const double icache_rate =
            icache.run(kTestInsts).effectiveFetchRate;
        const double baseline_rate =
            baseline.run(kTestInsts).effectiveFetchRate;
        EXPECT_GT(baseline_rate, icache_rate * 1.3) << bench;
    }
}

TEST(SimTrends, BothTechniquesBeatBaselineFetchRate)
{
    for (const char *bench : {"compress", "tex"}) {
        workload::Program program =
            workload::generateProgram(workload::findProfile(bench));
        Processor baseline(baselineConfig(), program);
        Processor both(promotionPackingConfig(), program);
        const double base_rate =
            baseline.run(150000).effectiveFetchRate;
        const double both_rate = both.run(150000).effectiveFetchRate;
        EXPECT_GT(both_rate, base_rate * 1.04) << bench;
    }
}

TEST(SimTrends, PromotionReducesPredictionsPerFetch)
{
    workload::Program program =
        workload::generateProgram(workload::findProfile("vortex"));
    Processor baseline(baselineConfig(), program);
    Processor promo(promotionConfig(64), program);
    const SimResult rb = baseline.run(kTestInsts);
    const SimResult rp = promo.run(kTestInsts);
    // Paper Table 3: promotion shifts fetches into the 0-or-1
    // prediction class.
    EXPECT_GT(rp.fetchesNeeding01, rb.fetchesNeeding01 + 0.05);
    EXPECT_LT(rp.fetchesNeeding3, rb.fetchesNeeding3);
}

} // namespace
} // namespace tcsim::sim

namespace tcsim::sim
{
namespace
{

/**
 * Fuzz-style coverage: randomized generator profiles, each run under
 * the most complex configuration. The architectural oracle inside the
 * processor asserts pc/value/direction exactness at every retire, so
 * simply completing is a strong correctness statement.
 */
class RandomProfileFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomProfileFuzz, OracleExactUnderPromoPack)
{
    Rng rng(0xF022 + GetParam());
    workload::BenchmarkProfile profile;
    profile.name = "fuzz-" + std::to_string(GetParam());
    profile.seed = rng.next();
    profile.numFunctions = 6 + static_cast<unsigned>(rng.below(60));
    profile.avgStatementsPerFunction = 4 + rng.uniform() * 12;
    profile.avgBlockSize = 1.5 + rng.uniform() * 5;
    profile.maxLoopDepth = 1 + static_cast<unsigned>(rng.below(3));
    profile.loopProb = 0.1 + rng.uniform() * 0.3;
    profile.ifProb = 0.2 + rng.uniform() * 0.3;
    profile.callProb = rng.uniform() * 0.35;
    profile.switchProb = rng.uniform() * 0.04;
    profile.trapProb = rng.uniform() * 0.002;
    profile.avgTripCount = 4 + rng.uniform() * 60;
    profile.highTripFrac = rng.uniform() * 0.3;
    profile.fracNeverTaken = rng.uniform() * 0.4;
    profile.fracStronglyBiased = rng.uniform() * 0.35;
    profile.fracModeratelyBiased = rng.uniform() * 0.25;
    profile.loadFrac = 0.05 + rng.uniform() * 0.3;
    profile.storeFrac = rng.uniform() * 0.2;
    profile.dataWorkingSetKB = 8 << rng.below(5);
    profile.randomAccessFrac = rng.uniform() * 0.5;

    workload::Program program = workload::generateProgram(profile);

    ProcessorConfig config = promotionPackingConfig(
        8 + static_cast<std::uint32_t>(rng.below(120)));
    // Two draws, as when a third policy took the first: every seed
    // keeps its RNG sequence and so its other config choices.
    if (rng.chance(0.3) || rng.chance(0.3))
        config.disambiguation = Disambiguation::Perfect;
    if (rng.chance(0.25))
        config.traceCache.pathAssociativity = true;
    if (rng.chance(0.2))
        config.partialMatching = false;
    if (rng.chance(0.2))
        config.inactiveIssue = false;

    Processor proc(config, program);
    const SimResult r = proc.run(40000);
    EXPECT_GE(r.instructions, 40000u);
    EXPECT_GT(r.ipc, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProfileFuzz,
                         ::testing::Range(0, 24));

} // namespace
} // namespace tcsim::sim
