/**
 * @file
 * Tests for the minimal JSON reader: lexeme-exact number round-trips,
 * member order, typed lookups with fallbacks, and rejection of
 * malformed documents (the merge layer leans on that to classify
 * half-written fragments as corrupt instead of trusting them).
 */

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"
#include "test_paths.h"

namespace
{

using namespace tcsim;

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(json::parse("null")->isNull());
    EXPECT_TRUE(json::parse("true")->asBool());
    EXPECT_FALSE(json::parse("false")->asBool());
    EXPECT_EQ(json::parse("\"hi\"")->asString(), "hi");
    EXPECT_EQ(json::parse("42")->asUint64(), 42u);
    EXPECT_EQ(json::parse("-7")->asInt64(), -7);
    EXPECT_DOUBLE_EQ(json::parse("2.5e1")->asDouble(), 25.0);
}

TEST(Json, Uint64RoundTripsExactly)
{
    // Doubles cannot represent this; the lexeme-preserving reader must.
    const auto v = json::parse("18446744073709551615");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->asUint64(), 18446744073709551615ull);
}

TEST(Json, ParsesNestedStructure)
{
    const auto v = json::parse(
        "{\"a\": [1, 2, {\"b\": \"x\\n\\\"y\"}], \"c\": {}}");
    ASSERT_TRUE(v.has_value());
    ASSERT_TRUE(v->isObject());
    const json::Value *a = v->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_EQ(a->items()[1].asUint64(), 2u);
    EXPECT_EQ(a->items()[2].getString("b"), "x\n\"y");
    EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, PreservesMemberOrder)
{
    const auto v = json::parse("{\"z\": 1, \"a\": 2, \"m\": 3}");
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(v->members().size(), 3u);
    EXPECT_EQ(v->members()[0].first, "z");
    EXPECT_EQ(v->members()[1].first, "a");
    EXPECT_EQ(v->members()[2].first, "m");
}

TEST(Json, TypedLookupsFallBack)
{
    const auto v =
        json::parse("{\"n\": 9, \"s\": \"str\", \"d\": 1.5}");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->getUint64("n"), 9u);
    EXPECT_EQ(v->getUint64("absent", 77), 77u);
    EXPECT_EQ(v->getUint64("s", 77), 77u); // wrong type
    EXPECT_EQ(v->getString("s"), "str");
    EXPECT_EQ(v->getString("n", "fb"), "fb"); // wrong type
    EXPECT_DOUBLE_EQ(v->getDouble("d"), 1.5);
    EXPECT_DOUBLE_EQ(v->getDouble("absent", -1.0), -1.0);
}

TEST(Json, RejectsMalformedDocuments)
{
    std::string error;
    EXPECT_FALSE(json::parse("", &error).has_value());
    EXPECT_FALSE(json::parse("{", &error).has_value());
    EXPECT_FALSE(json::parse("{\"a\": }", &error).has_value());
    EXPECT_FALSE(json::parse("[1, 2", &error).has_value());
    EXPECT_FALSE(json::parse("\"unterminated", &error).has_value());
    EXPECT_FALSE(json::parse("{\"a\": 1} trailing", &error).has_value());
    EXPECT_FALSE(error.empty());
}

TEST(Json, ParseFileReadsAndFails)
{
    const std::string path = test::scratchPath("doc.json");
    {
        std::ofstream out(path);
        out << "{\"k\": 123}\n";
    }
    const auto v = json::parseFile(path);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->getUint64("k"), 123u);
    std::remove(path.c_str());
    EXPECT_FALSE(json::parseFile(path).has_value());
}

} // namespace
