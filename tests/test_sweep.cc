/**
 * @file
 * Tests for the sharded sweep engine: stable unit enumeration and
 * content hashing, what a replay unit computes, the byte-identity of a
 * sharded merge and of a resumed run against the single-process
 * document, and the fragment reader's listing and its classification
 * of missing, stale and corrupt fragments.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "bench/sweep.h"
#include "sim/config.h"
#include "sim/processor.h"
#include "test_paths.h"
#include "workload/btrace.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace
{

using namespace tcsim;
using namespace tcsim::bench;

/** @return the bytes of the file at @p path; empty optional when it
 * cannot be read. */
std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return std::move(bytes).str();
}

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
          "promotion-t1", "promotion-t1023",
          "packing-atomic", "packing-cost-regulated",
          "promo-pack-n-regulated", "promo-pack-unregulated"}) {
        const auto config = configByName(name);
        ASSERT_TRUE(config.has_value()) << name;
        EXPECT_EQ(config->name, name);
    }
    EXPECT_FALSE(configByName("nonsense").has_value());
    EXPECT_FALSE(configByName("promotion-t").has_value());
    EXPECT_FALSE(configByName("packing-bogus").has_value());
    EXPECT_FALSE(configByName("baseline+mem").has_value());
    // A threshold the bias table cannot take is unknown, not an
    // assertion failure at construction; one above 2^32 - 1 is not
    // wrapped or thrown.
    EXPECT_FALSE(configByName("promotion-t0").has_value());
    EXPECT_FALSE(configByName("promotion-t1024").has_value());
    EXPECT_FALSE(configByName("promotion-t4294967360").has_value());
    EXPECT_FALSE(
        configByName("promotion-t99999999999999999999").has_value());
}

TEST(ConfigFingerprint, PresetsPinned)
{
    // Every unit hash folds in its config's fingerprint, so these pin
    // the presets' unit hashes, fragment names and merged documents. A
    // change that deletes a config field keeps them by hashing a
    // constant in the field's place, as configFingerprint does for the
    // deleted front-end switches.
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"icache", 0x04d73ee2ad261acdull},
        {"baseline", 0x218b3e30508fa450ull},
        {"promotion-t64", 0x41aac425871c98b8ull},
        {"packing-unregulated", 0xb2206fe71538235bull},
        {"promo-pack-unregulated", 0x73ba88b1fb5b0c53ull},
        {"promo-pack-cost-regulated", 0xccd322f62ee8d2ddull},
    };
    for (const auto &[name, fingerprint] : pinned) {
        const std::optional<sim::ProcessorConfig> config =
            configByName(name);
        ASSERT_TRUE(config.has_value()) << name;
        EXPECT_EQ(sim::configFingerprint(*config), fingerprint) << name;
    }
    sim::ProcessorConfig perfect = sim::promotionPackingConfig();
    perfect.disambiguation = sim::Disambiguation::Perfect;
    EXPECT_EQ(sim::configFingerprint(perfect), 0xc6ec281f18c5aa55ull);
}

TEST(SweepUnits, ReplayUnitCountsWhatItsBtraceReplayCounts)
{
    // A replay unit runs the oracle-driven control-flow pass over its
    // config; replaying the benchmark's recorded btrace through the
    // same config must count the same, field by field.
    SweepOptions options;
    options.benchmarks = {"gcc", "go", "server-oltp"};
    options.configs = {sim::baselineConfig(),
                       *configByName("promo-pack-unregulated")};
    options.insts = 200000;
    options.replay = true;
    const std::string path = test::scratchPath("replay.btrace");
    for (const WorkUnit &unit : enumerateUnits(options)) {
        SCOPED_TRACE(unit.id);
        const workload::Program &program = programFor(unit.benchmark);
        {
            workload::BtraceWriter writer(
                path, workload::kGeneratorVersion,
                workload::profileFingerprint(
                    workload::findProfile(unit.benchmark)),
                program.entry());
            sim::Processor recorder(sim::icacheConfig(), program);
            recorder.recordTrace(writer, unit.insts);
        }
        workload::BtraceReader reader;
        std::string error;
        ASSERT_TRUE(reader.open(path, &error)) << error;
        sim::Processor replayer(unit.config, program);
        const sim::Processor::ControlFlowResult replayed =
            replayer.replayTrace(reader);

        const sim::SimResult walked = executeUnit(unit);
        EXPECT_EQ(walked.instructions, unit.insts);
        EXPECT_EQ(walked.instructions, replayed.instructions);
        EXPECT_EQ(walked.condBranches, replayed.condBranches);
        EXPECT_EQ(walked.condMispredicts, replayed.condMispredicts);
        EXPECT_EQ(walked.indirectMispredicts, replayed.indirectMispredicts);
        EXPECT_EQ(walked.tcLookups, replayed.tcLookups);
        EXPECT_EQ(walked.tcHits, replayed.tcHits);
        EXPECT_EQ(walked.icacheMisses, replayed.icacheMisses);
    }
    std::filesystem::remove(path);
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
    EXPECT_EQ(*merged, single); // byte-identical
}

TEST_F(SweepMergeTest, ServerProfileShardedMergeIsByteIdentical)
{
    // Server-class profiles must hold the same determinism contract
    // as the legacy suite: any shard layout (TCSIM_JOBS, --shard i/n,
    // resumed runs) reproduces the single-process document byte for
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
    // units are deterministic (the oracle walk is the same every
    // time), their ids and hashes carry the replay marker, and a
    // sharded merge reproduces the single-process document.
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
    std::filesystem::remove(dir_ + "/garbage.json");

    // A counter is a decimal integer below 2^64. Anything else JSON
    // calls a number would merge as some other integer (-1 as 2^64 - 1,
    // 3.75e2 as 3), so the fragment holding it is corrupt too.
    const std::string path = fragmentPath(dir_, units[0]);
    const std::string good = *readFile(path);
    for (const auto &[counter, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"\"cycles\": ", "-1"},
             {"\"tc_lookups\": ", "3.75e2"},
             {"\"tc_hits\": ", "1e3"},
             {"\"icache_misses\": ", "0.5"},
             {"\"instructions\": ", "18446744073709551616"},
             {"\"cycle_cat\": [", "-1"},
             {"\"fetch_hist\": [[", "2.0"},
         }) {
        SCOPED_TRACE(counter + value);
        // Replace the counter's digits, or the array's first item's.
        std::string bad = good;
        const std::size_t at = bad.find(counter);
        ASSERT_NE(at, std::string::npos);
        const std::size_t digits = at + counter.size();
        bad.replace(digits,
                    bad.find_first_not_of("0123456789", digits) - digits,
                    value);
        std::ofstream(path) << bad;
        MergeReport bad_report;
        EXPECT_FALSE(mergeFragments(options, dir_, bad_report).has_value());
        ASSERT_EQ(bad_report.corrupt.size(), 1u);
        EXPECT_EQ(bad_report.corrupt[0], path);
    }

    // Timing is one object holding exactly "wall_seconds", a finite
    // non-negative number: a fragment without it would read as 0 s
    // and blind tcsim_regress's wall-clock gate.
    const std::string wall_key = "\"wall_seconds\": ";
    const std::size_t key_at = good.find(wall_key);
    const std::size_t timing_at = good.find(",\n  \"timing\"");
    ASSERT_NE(key_at, std::string::npos);
    ASSERT_NE(timing_at, std::string::npos);
    const std::size_t wall_at = key_at + wall_key.size();
    const std::size_t wall_end = good.find('\n', wall_at);
    // The good fragment with [at, end) replaced by @p text.
    const auto spliced = [&](std::size_t at, std::size_t end,
                             const std::string &text) {
        return good.substr(0, at) + text + good.substr(end);
    };
    for (const auto &[flaw, bad] :
         std::vector<std::pair<std::string, std::string>>{
             {"no timing", spliced(timing_at, good.rfind('}'), "\n")},
             {"no wall_seconds",
              spliced(key_at, wall_at, "\"cpu_seconds\": ")},
             {"negative wall_seconds", spliced(wall_at, wall_end, "-1.5")},
             {"string wall_seconds",
              spliced(wall_at, wall_end, "\"0.5\"")},
             {"extra timing key",
              spliced(wall_end, wall_end, ",\n    \"cache_hits\": 0")},
         }) {
        SCOPED_TRACE(flaw);
        std::ofstream(path) << bad;
        MergeReport bad_report;
        EXPECT_FALSE(mergeFragments(options, dir_, bad_report).has_value());
        ASSERT_EQ(bad_report.corrupt.size(), 1u);
        EXPECT_EQ(bad_report.corrupt[0], path);
    }
    std::ofstream(path) << good;
    MergeReport good_report;
    EXPECT_TRUE(mergeFragments(options, dir_, good_report).has_value());
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

TEST_F(SweepMergeTest, ReaderListsTopLevelJsonFilesInNameOrder)
{
    // writeFragment creates the directory; the reader takes the
    // regular "*.json" files directly in it, sorted by name, and skips
    // writers' temp files, other names and subdirectories.
    const std::string dir = dir_ + "/made";
    const std::vector<WorkUnit> units = enumerateUnits(smallMatrix());
    for (std::size_t i = units.size(); i-- > 0;)
        ASSERT_TRUE(writeFragment(dir, units[i], sim::SimResult{},
                                  UnitTiming{}));
    std::ofstream(fragmentPath(dir, units[0]) + ".tmp.7.0") << "{";
    std::ofstream(dir + "/notes.txt") << "{";
    std::filesystem::create_directories(dir + "/nested.json");
    std::ofstream(dir + "/nested.json/" + units[0].hash + ".json") << "{";

    const FragmentDir read = readFragments(dir);
    EXPECT_TRUE(read.corrupt.empty());
    std::vector<std::string> hashes;
    for (const Fragment &fragment : read.fragments)
        hashes.push_back(fragment.hash);
    std::vector<std::string> sorted;
    for (const WorkUnit &unit : units)
        sorted.push_back(unit.hash);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(hashes, sorted);

    // An absent directory reads as empty, not as an error.
    const FragmentDir absent = readFragments(dir_ + "/absent");
    EXPECT_TRUE(absent.fragments.empty());
    EXPECT_TRUE(absent.corrupt.empty());
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

/** A fragments directory per test, as SweepMergeTest has. */
class SweepResume : public SweepMergeTest
{
  protected:
    /**
     * Leave @p options' matrix the way a run killed after shard 0/2's
     * units leaves it, beside what other writers leave, then resume:
     * only the units without a valid fragment may be simulated, the
     * document must equal a clean run's, and a second resume must
     * simulate nothing.
     */
    void expectResumeFinishesKilledRun(const SweepOptions &options)
    {
        const std::vector<WorkUnit> units = enumerateUnits(options);
        ASSERT_GE(units.size(), 4u);
        std::vector<sim::SimResult> integers;
        for (const WorkUnit &unit : units)
            integers.push_back(executeUnit(unit));
        const std::string clean = renderResultsDoc(units, integers);

        // Shard 0/2's fragments; unit 0's wall time is a sentinel.
        // Timing is non-canonical, so that fragment stays valid.
        std::vector<std::size_t> lacking;
        for (std::size_t i = 0; i < units.size(); ++i) {
            if (i % 2 == 1) {
                lacking.push_back(i);
                continue;
            }
            UnitTiming timing;
            timing.wallSeconds = i == 0 ? 4242.5 : 0.25;
            ASSERT_TRUE(writeFragment(dir_, units[i], integers[i], timing));
        }
        const auto sentinel = readFile(fragmentPath(dir_, units[0]));
        // Torn bytes under unit 1's name; a writer's temp file for
        // unit 3, which a reader must not take for its fragment.
        std::ofstream(fragmentPath(dir_, units[1]))
            << "{\n  \"schema\": \"tcsim-bench-frag";
        const std::string temp = fragmentPath(dir_, units[3]) + ".tmp.1.0";
        std::ofstream(temp)
            << renderFragment(units[3], integers[3], UnitTiming{});
        // A valid fragment of another matrix.
        SweepOptions other_options = options;
        other_options.insts *= 2;
        const WorkUnit other = enumerateUnits(other_options)[0];
        ASSERT_TRUE(writeFragment(dir_, other, integers[0], UnitTiming{}));
        const auto other_bytes = readFile(fragmentPath(dir_, other));
        ASSERT_TRUE(sentinel && other_bytes);

        const SweepRun run = runSweep(units, dir_);
        EXPECT_TRUE(run.fragmentsWritten);
        EXPECT_EQ(run.simulated, lacking);
        EXPECT_EQ(renderResultsDoc(units, run.results), clean);
        EXPECT_EQ(readFile(fragmentPath(dir_, units[0])), sentinel);
        EXPECT_EQ(readFile(fragmentPath(dir_, other)), other_bytes);
        EXPECT_TRUE(std::filesystem::exists(temp));
        // The torn bytes were replaced: every unit, and the other
        // matrix's unit, now has a valid fragment.
        const FragmentDir after = readFragments(dir_);
        EXPECT_TRUE(after.corrupt.empty());
        EXPECT_EQ(after.fragments.size(), units.size() + 1);

        const SweepRun again = runSweep(units, dir_);
        EXPECT_TRUE(again.simulated.empty());
        EXPECT_EQ(renderResultsDoc(units, again.results), clean);
    }
};

TEST_F(SweepResume, FinishesAKilledRunByteIdentical)
{
    expectResumeFinishesKilledRun(smallMatrix());
}

TEST_F(SweepResume, ReplayRunResumesByteIdentical)
{
    SweepOptions options = smallMatrix();
    options.benchmarks = {"compress", "server-oltp"};
    options.replay = true;
    expectResumeFinishesKilledRun(options);
}

TEST_F(SweepResume, ShardsResumeAndMergeByteIdentical)
{
    // A shard resumes only its own units: a fragment of the other
    // shard is neither re-simulated nor needed.
    const SweepOptions options = smallMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(options);
    ASSERT_EQ(units.size(), 4u);
    std::vector<sim::SimResult> integers;
    for (const WorkUnit &unit : units)
        integers.push_back(executeUnit(unit));
    ASSERT_TRUE(writeFragment(dir_, units[0], integers[0], UnitTiming{}));
    ASSERT_TRUE(writeFragment(dir_, units[1], integers[1], UnitTiming{}));

    const SweepRun shard1 = runSweep({units[1], units[3]}, dir_);
    EXPECT_EQ(shard1.simulated, std::vector<std::size_t>{1});
    const SweepRun shard0 = runSweep({units[0], units[2]}, dir_);
    EXPECT_EQ(shard0.simulated, std::vector<std::size_t>{1});

    MergeReport report;
    const auto merged = mergeFragments(options, dir_, report);
    ASSERT_TRUE(merged.has_value());
    EXPECT_EQ(*merged, renderResultsDoc(units, integers));
}

} // namespace
