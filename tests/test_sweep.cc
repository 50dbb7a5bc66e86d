/**
 * @file
 * Tests for the sharded sweep engine: stable unit enumeration and
 * content hashing, the byte-identity of a sharded merge against the
 * single-process document, and the merge layer's classification of
 * missing, stale and corrupt fragments.
 */

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "bench/sweep.h"
#include "sim/config.h"
#include "sim/processor.h"
#include "test_paths.h"

namespace
{

using namespace tcsim;
using namespace tcsim::bench;

SweepOptions
smallMatrix()
{
    SweepOptions options;
    options.benchmarks = {"compress", "li"};
    options.configs = {sim::baselineConfig(), sim::promotionConfig(64)};
    options.insts = 8000;
    return options;
}

TEST(SweepUnits, EnumerationIsStableAndConfigMajor)
{
    const SweepOptions options = smallMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(options);
    ASSERT_EQ(units.size(), 4u);
    // Config-major, as exhibitUnits lays them out: all benchmarks of
    // config 0 first, so fragments line up with the exhibit tables.
    EXPECT_EQ(units[0].benchmark, "compress");
    EXPECT_EQ(units[1].benchmark, "li");
    EXPECT_EQ(units[0].config.name, units[1].config.name);
    EXPECT_EQ(units[2].benchmark, "compress");
    EXPECT_NE(units[0].config.name, units[2].config.name);
    for (std::size_t i = 0; i < units.size(); ++i) {
        EXPECT_EQ(units[i].index, i);
        EXPECT_EQ(units[i].id, units[i].benchmark + "@" +
                                   units[i].config.name + "@8000");
        EXPECT_EQ(units[i].hash.size(), 16u);
    }
    // A second enumeration reproduces ids and hashes exactly.
    const std::vector<WorkUnit> again = enumerateUnits(options);
    ASSERT_EQ(again.size(), units.size());
    for (std::size_t i = 0; i < units.size(); ++i) {
        EXPECT_EQ(again[i].id, units[i].id);
        EXPECT_EQ(again[i].hash, units[i].hash);
    }
    EXPECT_EQ(matrixHash(again), matrixHash(units));
}

TEST(SweepUnits, HashTracksEveryResultInput)
{
    const SweepOptions base = smallMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(base);

    SweepOptions warmed = base;
    warmed.warmup = 5000;
    const std::vector<WorkUnit> warmed_units = enumerateUnits(warmed);
    ASSERT_EQ(warmed_units.size(), units.size());
    for (std::size_t i = 0; i < units.size(); ++i)
        EXPECT_NE(warmed_units[i].hash, units[i].hash);

    SweepOptions retuned = base;
    retuned.configs[0].fetchWidth += 1; // any behavioral config change
    const std::vector<WorkUnit> retuned_units = enumerateUnits(retuned);
    EXPECT_NE(retuned_units[0].hash, units[0].hash);
    // Units of the untouched config keep their hashes.
    EXPECT_EQ(retuned_units[2].hash, units[2].hash);
}

TEST(SweepUnits, WarmupMeasuresTheWindowAfterIt)
{
    // TCSIM_WARMUP, `tcsim_sweep --warmup` and `tcsim_run --warmup`
    // all mean: run(w), resetStats(), run(w + insts).
    SweepOptions options = smallMatrix();
    options.warmup = 3000;
    for (const WorkUnit &unit : enumerateUnits(options)) {
        sim::Processor proc(unit.config, programFor(unit.benchmark));
        proc.run(unit.warmup);
        proc.resetStats();
        const sim::SimResult expected = proc.run(unit.warmup + unit.insts);
        EXPECT_EQ(renderResultsDoc({unit}, {executeUnit(unit)}),
                  renderResultsDoc({unit}, {expected}))
            << unit.id;
    }
}

TEST(SweepUnits, ConfigByNameResolvesPresets)
{
    for (const char *name :
         {"icache", "baseline", "promotion-t64", "promotion-t16",
          "packing-atomic", "packing-cost-regulated",
          "promo-pack-n-regulated", "promo-pack-unregulated"}) {
        const auto config = configByName(name);
        ASSERT_TRUE(config.has_value()) << name;
        EXPECT_EQ(config->name, name);
    }
    EXPECT_FALSE(configByName("nonsense").has_value());
    EXPECT_FALSE(configByName("promotion-t").has_value());
    EXPECT_FALSE(configByName("packing-bogus").has_value());
}

SweepOptions
sampledMatrix()
{
    SweepOptions options = smallMatrix();
    options.insts = 40000;
    options.warmup = 2000;
    options.sampled.enabled = true;
    options.sampled.interval = 10000;
    options.sampled.maxK = 2;
    return options;
}

TEST(SweepUnits, SampledDimensionInIdsAndHashes)
{
    const std::vector<WorkUnit> sampled =
        enumerateUnits(sampledMatrix());
    ASSERT_EQ(sampled.size(), 4u);
    EXPECT_EQ(sampled[0].id,
              "compress@baseline@40000@sampled-i10000-k2-w2000");

    SweepOptions full = sampledMatrix();
    full.sampled = SampledParams{};
    const std::vector<WorkUnit> full_units = enumerateUnits(full);
    for (std::size_t i = 0; i < sampled.size(); ++i)
        EXPECT_NE(sampled[i].hash, full_units[i].hash);

    // Every sampled parameter feeds the hash.
    SweepOptions finer = sampledMatrix();
    finer.sampled.interval = 5000;
    EXPECT_NE(enumerateUnits(finer)[0].hash, sampled[0].hash);
    SweepOptions wider = sampledMatrix();
    wider.sampled.maxK = 3;
    EXPECT_NE(enumerateUnits(wider)[0].hash, sampled[0].hash);
}

TEST(SweepSampled, DegenerateParametersReproduceFullIntegers)
{
    // One interval, one cluster, no warm-up: the sampled path must
    // collapse to exactly the full run's integers.
    SweepOptions degenerate = smallMatrix();
    degenerate.insts = 20000;
    degenerate.sampled.enabled = true;
    degenerate.sampled.interval = 20000;
    degenerate.sampled.maxK = 1;
    const WorkUnit sampled_unit = enumerateUnits(degenerate)[0];

    SweepOptions full = degenerate;
    full.sampled = SampledParams{};
    const WorkUnit full_unit = enumerateUnits(full)[0];

    const sim::SimResult s = executeUnit(sampled_unit);
    const sim::SimResult f = executeUnit(full_unit);
    EXPECT_EQ(s.instructions, f.instructions);
    EXPECT_EQ(s.cycles, f.cycles);
    EXPECT_EQ(s.condBranches, f.condBranches);
    EXPECT_EQ(s.condMispredicts, f.condMispredicts);
    EXPECT_EQ(s.usefulFetches, f.usefulFetches);
    EXPECT_EQ(s.fetchedInsts, f.fetchedInsts);
    EXPECT_EQ(s.tcLookups, f.tcLookups);
    EXPECT_EQ(s.tcHits, f.tcHits);
    EXPECT_EQ(s.icacheMisses, f.icacheMisses);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(s.fetchesNeedingPreds[i], f.fetchesNeedingPreds[i]);
}

TEST(SweepSampled, WeightedEstimateTracksFullRun)
{
    // The sampled weighted estimate must land near the full run of
    // the same window [0, insts) even at test scale (tight calibration
    // happens at 4M in the bench suite; this guards gross regressions
    // in weighting or warm-up).
    for (const WorkUnit &unit : enumerateUnits(sampledMatrix())) {
        WorkUnit full_unit = unit;
        full_unit.sampled = SampledParams{};
        full_unit.warmup = 0;
        const sim::SimResult s = executeUnit(unit);
        const sim::SimResult f = executeUnit(full_unit);
        const double sampled_ipc =
            static_cast<double>(s.instructions) /
            static_cast<double>(s.cycles);
        const double full_ipc = static_cast<double>(f.instructions) /
                                static_cast<double>(f.cycles);
        EXPECT_NEAR(sampled_ipc / full_ipc, 1.0, 0.15) << unit.id;
    }
}

class SweepMergeTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = test::scratchPath("fragments");
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string dir_;
};

TEST_F(SweepMergeTest, TwoShardMergeIsByteIdentical)
{
    // The tentpole guarantee: fragments written by independent
    // "shards" merge into exactly the bytes the single-process path
    // renders — because both funnel through the one canonical
    // renderer on the same deterministic integers.
    const SweepOptions options = smallMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(options);

    std::vector<sim::SimResult> integers;
    for (const WorkUnit &unit : units)
        integers.push_back(executeUnit(unit));
    const std::string single = renderResultsDoc(units, integers);

    // Shard round-robin, as `tcsim_sweep --shard i/2` does.
    for (std::size_t i = 0; i < units.size(); ++i) {
        UnitTiming timing;
        timing.wallSeconds = 0.125 * static_cast<double>(i + 1);
        ASSERT_TRUE(writeFragment(dir_, units[i], integers[i], timing));
    }

    MergeReport report;
    const auto merged = mergeFragments(options, dir_, report);
    ASSERT_TRUE(merged.has_value());
    EXPECT_TRUE(report.complete());
    EXPECT_TRUE(report.stale.empty());
    EXPECT_TRUE(report.duplicates.empty());
    EXPECT_EQ(*merged, single); // byte-identical
}

TEST_F(SweepMergeTest, SampledShardedMergeIsByteIdentical)
{
    // The byte-identity contract extends to sampled units: fragments
    // carry the same deterministic integers the single-process
    // renderer consumes, sampled dimension included.
    const SweepOptions options = sampledMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(options);

    std::vector<sim::SimResult> integers;
    for (const WorkUnit &unit : units)
        integers.push_back(executeUnit(unit));
    const std::string single = renderResultsDoc(units, integers);
    EXPECT_NE(single.find("\"sampled_interval\""), std::string::npos);

    for (std::size_t i = 0; i < units.size(); ++i)
        ASSERT_TRUE(writeFragment(dir_, units[i], integers[i],
                                  UnitTiming{}));
    MergeReport report;
    const auto merged = mergeFragments(options, dir_, report);
    ASSERT_TRUE(merged.has_value());
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(*merged, single);
}

TEST_F(SweepMergeTest, ServerProfileShardedMergeIsByteIdentical)
{
    // Server-class profiles must hold the same determinism contract
    // as the legacy suite: any shard layout (TCSIM_JOBS, --shard i/n,
    // worklists) reproduces the single-process document byte for
    // byte. Each unit is executed twice — as two independent workers
    // would — and both the integers and the merged bytes must agree.
    SweepOptions options;
    options.benchmarks = {"server-oltp", "server-web"};
    options.configs = {sim::baselineConfig(), sim::promotionConfig(64)};
    options.insts = 8000;
    const std::vector<WorkUnit> units = enumerateUnits(options);
    ASSERT_EQ(units.size(), 4u);

    std::vector<sim::SimResult> integers;
    for (const WorkUnit &unit : units) {
        const sim::SimResult first = executeUnit(unit);
        const sim::SimResult second = executeUnit(unit);
        EXPECT_EQ(first.instructions, second.instructions) << unit.id;
        EXPECT_EQ(first.cycles, second.cycles) << unit.id;
        EXPECT_EQ(first.condMispredicts, second.condMispredicts)
            << unit.id;
        EXPECT_EQ(first.tcHits, second.tcHits) << unit.id;
        EXPECT_EQ(first.icacheMisses, second.icacheMisses) << unit.id;
        integers.push_back(first);
    }
    const std::string single = renderResultsDoc(units, integers);

    // Fragments land in reverse order — worker completion order must
    // not matter to the merged bytes.
    for (std::size_t i = units.size(); i-- > 0;)
        ASSERT_TRUE(writeFragment(dir_, units[i], integers[i],
                                  UnitTiming{}));
    MergeReport report;
    const auto merged = mergeFragments(options, dir_, report);
    ASSERT_TRUE(merged.has_value());
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(*merged, single);
}

TEST_F(SweepMergeTest, ReplayUnitsShardAndMergeByteIdentical)
{
    // The @replay dimension rides the same fragment pipeline: replay
    // units are deterministic (the btrace artifact is recorded from
    // the same oracle every time), their ids and hashes carry the
    // replay marker, and a sharded merge reproduces the
    // single-process document.
    SweepOptions options;
    options.benchmarks = {"compress", "server-oltp"};
    options.configs = {sim::baselineConfig()};
    options.insts = 8000;
    options.replay = true;
    const std::vector<WorkUnit> units = enumerateUnits(options);
    ASSERT_EQ(units.size(), 2u);
    EXPECT_EQ(units[0].id, "compress@baseline@8000@replay");

    SweepOptions cycle_options = options;
    cycle_options.replay = false;
    const std::vector<WorkUnit> cycle = enumerateUnits(cycle_options);
    for (std::size_t i = 0; i < units.size(); ++i)
        EXPECT_NE(units[i].hash, cycle[i].hash);

    std::vector<sim::SimResult> integers;
    for (const WorkUnit &unit : units) {
        const sim::SimResult first = executeUnit(unit);
        const sim::SimResult second = executeUnit(unit);
        EXPECT_EQ(first.instructions, second.instructions) << unit.id;
        EXPECT_EQ(first.condMispredicts, second.condMispredicts)
            << unit.id;
        EXPECT_EQ(first.tcLookups, second.tcLookups) << unit.id;
        EXPECT_EQ(first.tcHits, second.tcHits) << unit.id;
        EXPECT_EQ(first.icacheMisses, second.icacheMisses) << unit.id;
        // Replay drives the front end only: no pipeline cycles.
        EXPECT_EQ(first.cycles, 0u) << unit.id;
        EXPECT_EQ(first.instructions, options.insts) << unit.id;
        integers.push_back(first);
    }
    const std::string single = renderResultsDoc(units, integers);

    for (std::size_t i = 0; i < units.size(); ++i)
        ASSERT_TRUE(writeFragment(dir_, units[i], integers[i],
                                  UnitTiming{}));
    MergeReport report;
    const auto merged = mergeFragments(options, dir_, report);
    ASSERT_TRUE(merged.has_value());
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(*merged, single);
}

TEST_F(SweepMergeTest, ExecuteUnitIsDeterministic)
{
    const std::vector<WorkUnit> units = enumerateUnits(smallMatrix());
    const sim::SimResult a = executeUnit(units[0]);
    const sim::SimResult b = executeUnit(units[0]);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.condMispredicts, b.condMispredicts);
    EXPECT_EQ(a.tcHits, b.tcHits);
    EXPECT_GE(a.instructions, 8000u);
}

TEST_F(SweepMergeTest, MissingFragmentsReported)
{
    const SweepOptions options = smallMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(options);
    const sim::SimResult integers = executeUnit(units[0]);
    ASSERT_TRUE(writeFragment(dir_, units[0], integers, UnitTiming{}));

    MergeReport report;
    EXPECT_FALSE(mergeFragments(options, dir_, report).has_value());
    EXPECT_FALSE(report.complete());
    ASSERT_EQ(report.missing.size(), units.size() - 1);
    EXPECT_EQ(report.missing[0], units[1].id);
}

TEST_F(SweepMergeTest, StaleFragmentsSkippedButMergeCompletes)
{
    // A fragment from yesterday's matrix (different warm-up, so a
    // different content hash) must be ignored, not merged.
    SweepOptions options = smallMatrix();
    SweepOptions stale_options = options;
    stale_options.warmup = 2000;
    const WorkUnit stale_unit = enumerateUnits(stale_options)[0];
    ASSERT_TRUE(writeFragment(dir_, stale_unit, executeUnit(stale_unit),
                              UnitTiming{}));

    const std::vector<WorkUnit> units = enumerateUnits(options);
    for (const WorkUnit &unit : units)
        ASSERT_TRUE(
            writeFragment(dir_, unit, executeUnit(unit), UnitTiming{}));

    MergeReport report;
    const auto merged = mergeFragments(options, dir_, report);
    ASSERT_TRUE(merged.has_value());
    ASSERT_EQ(report.stale.size(), 1u);
    EXPECT_EQ(report.stale[0], fragmentPath(dir_, stale_unit));
}

TEST_F(SweepMergeTest, CorruptFragmentsBlockTheMerge)
{
    const SweepOptions options = smallMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(options);
    for (const WorkUnit &unit : units)
        ASSERT_TRUE(
            writeFragment(dir_, unit, executeUnit(unit), UnitTiming{}));

    // Garbage that still ends in .json: classified corrupt, and a
    // corrupt file makes the merge refuse rather than guess.
    {
        std::ofstream out(dir_ + "/garbage.json");
        out << "{ not json";
    }
    MergeReport report;
    EXPECT_FALSE(mergeFragments(options, dir_, report).has_value());
    ASSERT_EQ(report.corrupt.size(), 1u);
    EXPECT_EQ(report.corrupt[0], dir_ + "/garbage.json");
    EXPECT_TRUE(report.missing.empty());
}

TEST_F(SweepMergeTest, RetryReplacesTornFragment)
{
    // A retried unit must replace whatever sits under its name; a
    // first-wins write would keep the torn bytes and block the merge.
    const SweepOptions options = smallMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(options);
    {
        std::ofstream out(fragmentPath(dir_, units[0]));
        out << "{\n  \"schema\": \"tcsim-bench-frag";
    }
    for (const WorkUnit &unit : units)
        ASSERT_TRUE(
            writeFragment(dir_, unit, executeUnit(unit), UnitTiming{}));

    MergeReport report;
    EXPECT_TRUE(mergeFragments(options, dir_, report).has_value());
    EXPECT_TRUE(report.corrupt.empty());
}

TEST_F(SweepMergeTest, RenamedFragmentIsCorruptNotTrusted)
{
    // The filename stem must match the embedded hash; a renamed file
    // cannot claim another unit's slot.
    const SweepOptions options = smallMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(options);
    ASSERT_TRUE(writeFragment(dir_, units[0], executeUnit(units[0]),
                              UnitTiming{}));
    std::filesystem::rename(fragmentPath(dir_, units[0]),
                            fragmentPath(dir_, units[1]));

    MergeReport report;
    EXPECT_FALSE(mergeFragments(options, dir_, report).has_value());
    ASSERT_EQ(report.corrupt.size(), 1u);
    EXPECT_EQ(report.corrupt[0], fragmentPath(dir_, units[1]));
}

} // namespace
