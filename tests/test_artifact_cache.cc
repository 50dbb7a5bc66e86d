/**
 * @file
 * Tests for the content-addressed artifact cache: memoization,
 * invalidation by key (a generator-version or fingerprint change must
 * force regeneration), rejection of corrupted or mislabeled files,
 * and the key-collision guard.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/artifact_cache.h"
#include "bench/sweep.h"
#include "test_paths.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace
{

using namespace tcsim;
using namespace tcsim::bench;

class ArtifactCacheTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = test::scratchPath("cache");
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string dir_;
};

TEST_F(ArtifactCacheTest, DisabledCacheAlwaysProduces)
{
    ArtifactCache cache; // no directory: disabled
    EXPECT_FALSE(cache.enabled());
    int calls = 0;
    const auto produce = [&calls] {
        ++calls;
        return std::string("payload");
    };
    EXPECT_EQ(cache.getOrCreate("k", "key", produce), "payload");
    EXPECT_EQ(cache.getOrCreate("k", "key", produce), "payload");
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().stores, 0u);
}

TEST_F(ArtifactCacheTest, StoreThenLoadRoundTrips)
{
    ArtifactCache cache(dir_);
    const std::string payload = std::string("bytes\0with nul", 14);
    EXPECT_FALSE(cache.load("prog", "key-a").has_value());
    ASSERT_TRUE(cache.store("prog", "key-a", payload));
    const auto got = cache.load("prog", "key-a");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payload);
    const ArtifactCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ArtifactCacheTest, GetOrCreateMemoizesAcrossInstances)
{
    int calls = 0;
    const auto produce = [&calls] {
        ++calls;
        return std::string("expensive");
    };
    {
        ArtifactCache cache(dir_);
        EXPECT_EQ(cache.getOrCreate("prog", "key", produce), "expensive");
    }
    {
        // A second "process" with the same cache directory hits disk.
        ArtifactCache cache(dir_);
        EXPECT_EQ(cache.getOrCreate("prog", "key", produce), "expensive");
        EXPECT_EQ(cache.stats().hits, 1u);
    }
    EXPECT_EQ(calls, 1);
}

TEST_F(ArtifactCacheTest, KeyChangeForcesRegeneration)
{
    // The invalidation contract: artifacts are addressed purely by
    // key, and keys embed every version/fingerprint input — so a
    // bumped generator version or changed config hash is simply a new
    // key, and the stale artifact is never consulted.
    ArtifactCache cache(dir_);
    int calls = 0;
    const auto produce = [&calls] {
        ++calls;
        return std::string("v") + std::to_string(calls);
    };
    EXPECT_EQ(cache.getOrCreate("prog", "program:v1:x", produce), "v1");
    EXPECT_EQ(cache.getOrCreate("prog", "program:v2:x", produce), "v2");
    EXPECT_EQ(calls, 2);
    // Both versions coexist; neither shadows the other.
    EXPECT_EQ(cache.load("prog", "program:v1:x"), "v1");
    EXPECT_EQ(cache.load("prog", "program:v2:x"), "v2");
}

TEST_F(ArtifactCacheTest, ProgramKeyTracksProfileAndVersion)
{
    // Any profile change must change the key of the btrace recorded
    // from the program, or a stale trace could be replayed for an
    // edited benchmark.
    const auto key = [](const workload::BenchmarkProfile &profile) {
        return btraceArtifactKey(profile, 40000);
    };
    workload::BenchmarkProfile profile = workload::benchmarkSuite()[0];
    const std::string base_key = key(profile);
    const std::string generator =
        "gen=v" + std::to_string(workload::kGeneratorVersion) + ":";
    EXPECT_NE(base_key.find(generator), std::string::npos) << base_key;

    workload::BenchmarkProfile reseeded = profile;
    reseeded.seed += 1;
    workload::BenchmarkProfile resized = profile;
    resized.numFunctions += 1;
    EXPECT_NE(key(reseeded), base_key);
    EXPECT_NE(key(resized), base_key);

    EXPECT_EQ(key(profile), base_key); // stable
}

TEST_F(ArtifactCacheTest, CorruptedArtifactRejectedAndDeleted)
{
    ArtifactCache cache(dir_);
    ASSERT_TRUE(cache.store("prog", "key", "payload-bytes"));
    const std::string path = cache.pathFor("prog", "key");

    // Flip one payload byte: the checksum must catch it before any
    // payload parser (loadProgram aborts on malformed images) runs.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        bytes = std::move(ss).str();
    }
    bytes.back() ^= 0x01;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    EXPECT_FALSE(cache.load("prog", "key").has_value());
    EXPECT_EQ(cache.stats().rejected, 1u);
    // The corrupt file is dropped so regeneration can replace it.
    EXPECT_FALSE(std::filesystem::exists(path));
    int calls = 0;
    EXPECT_EQ(cache.getOrCreate("prog", "key",
                                [&calls] {
                                    ++calls;
                                    return std::string("fresh");
                                }),
              "fresh");
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(cache.load("prog", "key"), "fresh");
}

TEST_F(ArtifactCacheTest, TruncatedArtifactRejected)
{
    ArtifactCache cache(dir_);
    ASSERT_TRUE(cache.store("prog", "key", "a longer payload string"));
    const std::string path = cache.pathFor("prog", "key");
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 4);
    EXPECT_FALSE(cache.load("prog", "key").has_value());
    EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST_F(ArtifactCacheTest, EmbeddedKeyGuardsHashCollisions)
{
    // Simulate a key-hash collision by placing key-a's wrapper file at
    // key-b's path: the embedded key comparison must reject it rather
    // than serve the wrong artifact.
    ArtifactCache cache(dir_);
    ASSERT_TRUE(cache.store("prog", "key-a", "payload-a"));
    std::filesystem::copy_file(cache.pathFor("prog", "key-a"),
                               cache.pathFor("prog", "key-b"));
    EXPECT_FALSE(cache.load("prog", "key-b").has_value());
    EXPECT_EQ(cache.stats().rejected, 1u);
    // key-a itself is untouched and still serves.
    EXPECT_EQ(cache.load("prog", "key-a"), "payload-a");
}

} // namespace
