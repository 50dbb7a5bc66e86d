/**
 * @file
 * Tests for the sampled-simulation pipeline: BBV profiling and plan
 * JSON round trips, the determinism contract (bit-identical plans
 * regardless of TCSIM_JOBS), banded k selection, BBV artifact
 * store/corrupt/reject/rebuild through the artifact cache, and the
 * warm-state checkpoint round trip.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bench/artifact_cache.h"
#include "bench/sweep.h"
#include "sample/simpoints.h"
#include "sim/processor.h"
#include "test_paths.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace
{

using namespace tcsim;

const workload::Program &
compressProgram()
{
    static const workload::Program program =
        workload::generateProgram(workload::findProfile("compress"));
    return program;
}

obs::BbvDocument
compressProfile()
{
    return sample::profileBbv(compressProgram(), "compress", 40000,
                              10000);
}

TEST(SampleBbv, ProfileShapeAndJsonRoundTrip)
{
    const obs::BbvDocument doc = compressProfile();
    ASSERT_EQ(doc.intervals.size(), 4u);
    for (std::size_t i = 0; i < doc.intervals.size(); ++i) {
        EXPECT_EQ(doc.intervals[i].endInsts, (i + 1) * 10000);
        std::uint64_t sum = 0;
        for (const auto &[block, count] : doc.intervals[i].blocks)
            sum += count;
        EXPECT_EQ(sum, 10000u);
    }
    const std::string json = doc.toJson();
    const auto parsed = obs::BbvDocument::fromJson(json);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->toJson(), json);
}

TEST(SamplePlan, JsonRoundTripAndExactWeights)
{
    const obs::BbvDocument doc = compressProfile();
    const sample::SimpointPlan plan =
        sample::selectSimpoints(doc, "fp", 3);
    ASSERT_FALSE(plan.points.empty());
    ASSERT_LE(plan.points.size(), 3u);
    std::uint64_t weight_sum = 0;
    for (const sample::Simpoint &pt : plan.points) {
        EXPECT_EQ(pt.startInsts, pt.index * 10000ull);
        EXPECT_EQ(pt.weightDen, doc.intervals.size());
        weight_sum += pt.weightNum;
    }
    EXPECT_EQ(weight_sum, doc.intervals.size()); // exact rationals

    const std::string json = plan.toJson();
    const auto parsed = sample::SimpointPlan::fromJson(json);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->toJson(), json);
}

TEST(SamplePlan, DeterministicRegardlessOfJobs)
{
    // The pipeline is a single-threaded pure function of
    // (profile, seed): TCSIM_JOBS must not leak into the plan.
    const char *saved = std::getenv("TCSIM_JOBS");
    const std::string saved_value = saved ? saved : "";

    setenv("TCSIM_JOBS", "1", 1);
    const std::string plan_one =
        sample::selectSimpoints(compressProfile(), "fp", 3).toJson();
    setenv("TCSIM_JOBS", "7", 1);
    const std::string plan_seven =
        sample::selectSimpoints(compressProfile(), "fp", 3).toJson();

    if (saved != nullptr)
        setenv("TCSIM_JOBS", saved_value.c_str(), 1);
    else
        unsetenv("TCSIM_JOBS");

    EXPECT_EQ(plan_one, plan_seven);
    // And plain repeatability, same environment.
    EXPECT_EQ(plan_seven,
              sample::selectSimpoints(compressProfile(), "fp", 3)
                  .toJson());
}

TEST(SamplePlan, BandedSelectionFindsTwoPhases)
{
    // Two alternating, internally identical phases: the banded rule
    // must settle on k=2 even with a much larger cap, because k=2's
    // score is (near) minimal and smaller k wins inside the band.
    obs::BbvDocument doc;
    doc.benchmark = "synthetic";
    doc.intervalInsts = 1000;
    doc.totalInsts = 12000;
    for (unsigned i = 0; i < 12; ++i) {
        obs::BbvInterval interval;
        interval.endInsts = (i + 1) * 1000ull;
        if (i % 2 == 0)
            interval.blocks = {{1, 600}, {2, 400}};
        else
            interval.blocks = {{50, 300}, {51, 700}};
        doc.intervals.push_back(interval);
    }
    const sample::SimpointPlan plan =
        sample::selectSimpoints(doc, "fp", 6);
    EXPECT_EQ(plan.k, 2u);
    ASSERT_EQ(plan.points.size(), 2u);
    EXPECT_EQ(plan.points[0].weightNum, 6u);
    EXPECT_EQ(plan.points[1].weightNum, 6u);
}

TEST(SampleBbv, ArtifactStoreCorruptRejectRebuild)
{
    const std::string dir = test::scratchPath("cache");
    std::filesystem::remove_all(dir);
    bench::ArtifactCache cache(dir);
    const std::string key = bench::bbvArtifactKey(
        workload::findProfile("compress"), 40000, 10000);
    const std::string json = compressProfile().toJson();

    ASSERT_TRUE(cache.store("bbv", key, json));
    auto hit = cache.load("bbv", key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, json);

    // Flip payload bytes on disk: the checksum must reject (and
    // delete) the file instead of handing back a mangled profile.
    const std::string path = cache.pathFor("bbv", key);
    {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        ASSERT_TRUE(file.good());
        file.seekp(-8, std::ios::end);
        file.write("XXXXXXXX", 8);
    }
    EXPECT_FALSE(cache.load("bbv", key).has_value());
    EXPECT_FALSE(std::filesystem::exists(path));

    // getOrCreate rebuilds from the producer and re-stores.
    int produced = 0;
    const std::string rebuilt = cache.getOrCreate("bbv", key, [&] {
        ++produced;
        return json;
    });
    EXPECT_EQ(produced, 1);
    EXPECT_EQ(rebuilt, json);
    auto rehit = cache.load("bbv", key);
    ASSERT_TRUE(rehit.has_value());
    EXPECT_EQ(*rehit, json);
    std::filesystem::remove_all(dir);
}

TEST(SampleWarmState, ExportImportRoundTrip)
{
    // A warm state exported after functional warming must import into
    // a fresh processor and re-export byte-identically: everything
    // exportWarmState captures survives the round trip.
    sim::Processor warmer(sim::promotionPackingConfig(),
                          compressProgram());
    warmer.functionalWarmup(30000);
    std::ostringstream first;
    warmer.exportWarmState(first);

    sim::Processor fresh(sim::promotionPackingConfig(),
                         compressProgram());
    std::istringstream in(first.str());
    ASSERT_TRUE(fresh.importWarmState(in));
    std::ostringstream second;
    fresh.exportWarmState(second);
    EXPECT_EQ(first.str(), second.str());
}

TEST(SampleWarmState, ImportRejectsMismatchedConfig)
{
    // The icache config has no trace cache: a warm state exported
    // from a trace-cache machine must be refused, not half-applied.
    sim::Processor warmer(sim::promotionPackingConfig(),
                          compressProgram());
    warmer.functionalWarmup(5000);
    std::ostringstream blob;
    warmer.exportWarmState(blob);

    sim::Processor other(sim::icacheConfig(), compressProgram());
    std::istringstream in(blob.str());
    EXPECT_FALSE(other.importWarmState(in));
}

TEST(SampleWarmState, ImportRejectsTruncatedBlob)
{
    sim::Processor warmer(sim::promotionPackingConfig(),
                          compressProgram());
    warmer.functionalWarmup(5000);
    std::ostringstream blob;
    warmer.exportWarmState(blob);
    const std::string bytes = blob.str();

    sim::Processor fresh(sim::promotionPackingConfig(),
                         compressProgram());
    std::istringstream in(bytes.substr(0, bytes.size() / 2));
    EXPECT_FALSE(fresh.importWarmState(in));
}

} // namespace
