/**
 * @file
 * Tests for the local-directory blob store: name validation, atomic
 * first-wins put semantics and the sorted top-level listing.
 */

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/store.h"
#include "test_paths.h"

namespace
{

using namespace tcsim;
using namespace tcsim::bench;

TEST(StoreName, ValidatesCharsetAndShape)
{
    EXPECT_TRUE(isValidStoreName("0123abcd00ff1122.json"));
    EXPECT_TRUE(isValidStoreName("prog/deadbeef.art"));
    EXPECT_TRUE(isValidStoreName("log-w1.json"));
    EXPECT_FALSE(isValidStoreName(""));
    EXPECT_FALSE(isValidStoreName("../escape.json"));
    EXPECT_FALSE(isValidStoreName("a/../b"));
    EXPECT_FALSE(isValidStoreName("a/b/c"));   // at most one separator
    EXPECT_FALSE(isValidStoreName("/rooted")); // empty first segment
    EXPECT_FALSE(isValidStoreName("trailing/"));
    EXPECT_FALSE(isValidStoreName("."));
    EXPECT_FALSE(isValidStoreName("sp ace"));
    EXPECT_FALSE(isValidStoreName("quo\"te"));
}

class LocalStoreTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = test::scratchPath("store");
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string dir_;
};

TEST_F(LocalStoreTest, PutGetExistsRemoveRoundTrip)
{
    LocalDirStore store(dir_);
    const std::string payload("bytes\0with nul", 14);
    EXPECT_FALSE(store.get("a.json").has_value());
    ASSERT_TRUE(store.put("a.json", payload));
    EXPECT_EQ(store.get("a.json"), payload);
    EXPECT_TRUE(store.remove("a.json"));
    EXPECT_FALSE(store.get("a.json").has_value());
    EXPECT_TRUE(store.remove("a.json")); // already gone is success
}

TEST_F(LocalStoreTest, PutIsFirstWinsUnlessOverwrite)
{
    LocalDirStore store(dir_);
    ASSERT_TRUE(store.put("a.json", "first"));
    // The racing-duplicate dedup point: a second put succeeds
    // without touching the object.
    EXPECT_TRUE(store.put("a.json", "second"));
    EXPECT_EQ(store.get("a.json"), "first");
    EXPECT_TRUE(store.put("a.json", "third", /*overwrite=*/true));
    EXPECT_EQ(store.get("a.json"), "third");
}

TEST_F(LocalStoreTest, RejectsTraversalNames)
{
    LocalDirStore store(dir_);
    EXPECT_FALSE(store.put("../escape.json", "x"));
    EXPECT_FALSE(store.get("../escape.json").has_value());
    EXPECT_FALSE(
        std::filesystem::exists(testing::TempDir() + "/escape.json"));
}

TEST_F(LocalStoreTest, ListIsSorted)
{
    LocalDirStore store(dir_);
    EXPECT_TRUE(store.list().empty()); // no directory yet
    ASSERT_TRUE(store.put("bb.json", "2"));
    ASSERT_TRUE(store.put("aa.json", "1"));
    ASSERT_TRUE(store.put("log-w1.json", "log"));
    const std::vector<std::string> expected = {"aa.json", "bb.json",
                                               "log-w1.json"};
    EXPECT_EQ(store.list(), expected);
}

TEST_F(LocalStoreTest, SubdirObjectsWork)
{
    LocalDirStore store(dir_);
    ASSERT_TRUE(store.put("prog/cafe.art", "payload"));
    EXPECT_EQ(store.get("prog/cafe.art"), "payload");
    // list() names top-level objects only.
    EXPECT_TRUE(store.list().empty());
}

} // namespace
