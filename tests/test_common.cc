/**
 * @file
 * Unit tests for the common utility layer: bit manipulation, random
 * number generation, saturating counters, statistics, and strict
 * number parsing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/bitutils.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/saturating_counter.h"
#include "common/stats.h"

namespace tcsim
{
namespace
{

// ----------------------------------------------------------------------
// Bit utilities.
// ----------------------------------------------------------------------

TEST(BitUtils, MaskWidths)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(8), 0xffu);
    EXPECT_EQ(mask(16), 0xffffu);
    EXPECT_EQ(mask(63), 0x7fffffffffffffffULL);
    EXPECT_EQ(mask(64), ~std::uint64_t{0});
    EXPECT_EQ(mask(100), ~std::uint64_t{0});
}

TEST(BitUtils, BitsExtractsInclusiveRange)
{
    EXPECT_EQ(bits(0xdeadbeef, 31, 16), 0xdeadu);
    EXPECT_EQ(bits(0xdeadbeef, 15, 0), 0xbeefu);
    EXPECT_EQ(bits(0xff, 3, 0), 0xfu);
    EXPECT_EQ(bits(0b1010, 3, 3), 1u);
    EXPECT_EQ(bits(0b1010, 2, 2), 0u);
}

TEST(BitUtils, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

TEST(BitUtils, FloorCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
}

TEST(BitUtils, SignExtend)
{
    EXPECT_EQ(signExtend(0x7fff, 16), 0x7fff);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0xffff, 16), -1);
    EXPECT_EQ(signExtend(0x1ffffff, 26), static_cast<std::int64_t>(
                                             0x1ffffff));
    EXPECT_EQ(signExtend(0x2000000, 26), -(1LL << 25));
}

TEST(BitUtils, InsertBits)
{
    EXPECT_EQ(insertBits(0, 0, 8, 0xab), 0xabu);
    EXPECT_EQ(insertBits(0xffffffff, 8, 8, 0), 0xffff00ffu);
    EXPECT_EQ(insertBits(0, 21, 5, 0x1f), 0x1fULL << 21);
    // Fields wider than the slot are truncated.
    EXPECT_EQ(insertBits(0, 0, 4, 0xff), 0xfu);
}

// ----------------------------------------------------------------------
// RNG.
// ----------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.range(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        saw_lo = saw_lo || v == -2;
        saw_hi = saw_hi || v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, GeometricMeanAndMin)
{
    Rng rng(17);
    double sum = 0;
    unsigned lo = 1000;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const unsigned v = rng.geometric(10.0, 2);
        ASSERT_GE(v, 2u);
        sum += v;
        lo = std::min(lo, v);
    }
    EXPECT_EQ(lo, 2u);
    EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(Rng, GeometricDegenerateMean)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(1.0, 5), 5u);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(23);
    Rng b = a.fork(1);
    Rng c = a.fork(1);
    // Forks of a mutated parent differ from each other.
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += b.next() == c.next();
    EXPECT_LT(same, 3);
}

// ----------------------------------------------------------------------
// Saturating counters.
// ----------------------------------------------------------------------

TEST(SaturatingCounter, TwoBitSaturation)
{
    SaturatingCounter c(2, 0);
    EXPECT_FALSE(c.predictTaken());
    c.increment();
    EXPECT_EQ(c.value(), 1u);
    EXPECT_FALSE(c.predictTaken());
    c.increment();
    EXPECT_TRUE(c.predictTaken());
    c.increment();
    c.increment();
    EXPECT_EQ(c.value(), 3u); // saturated
    c.decrement();
    EXPECT_EQ(c.value(), 2u);
}

TEST(SaturatingCounter, DecrementSaturatesAtZero)
{
    SaturatingCounter c(2, 1);
    c.decrement();
    c.decrement();
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SaturatingCounter, UpdateDirection)
{
    SaturatingCounter c(2, 1);
    c.update(true);
    c.update(true);
    EXPECT_TRUE(c.predictTaken());
    c.update(false);
    c.update(false);
    c.update(false);
    EXPECT_FALSE(c.predictTaken());
}

TEST(SaturatingCounter, WidthsAndReset)
{
    for (unsigned bits = 1; bits <= 10; ++bits) {
        SaturatingCounter c(bits, 0);
        EXPECT_EQ(c.maxValue(), (1u << bits) - 1);
        for (unsigned i = 0; i < (2u << bits); ++i)
            c.increment();
        EXPECT_EQ(c.value(), c.maxValue());
        EXPECT_TRUE(c.isSaturated());
        c.reset();
        EXPECT_EQ(c.value(), c.maxValue() / 2);
    }
}

TEST(SaturatingCounter, SetClamps)
{
    SaturatingCounter c(2, 0);
    c.set(100);
    EXPECT_EQ(c.value(), 3u);
}

// ----------------------------------------------------------------------
// Statistics.
// ----------------------------------------------------------------------

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, RunningMean)
{
    RunningMean m;
    EXPECT_EQ(m.mean(), 0.0);
    m.sample(2.0);
    m.sample(4.0);
    m.sample(6.0);
    EXPECT_DOUBLE_EQ(m.mean(), 4.0);
    EXPECT_EQ(m.count(), 3u);
    EXPECT_DOUBLE_EQ(m.sum(), 12.0);
}

TEST(Stats, HistogramBucketsAndSaturation)
{
    Histogram h(5);
    h.sample(0);
    h.sample(2);
    h.sample(2);
    h.sample(9); // saturates into bucket 4
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.5);
    // Mean uses the un-saturated sample values.
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 2 + 2 + 9) / 4.0);
}

TEST(Stats, HistogramReset)
{
    Histogram h(4);
    h.sample(1);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucket(1), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(Stats, StatDumpRoundTrip)
{
    StatDump dump;
    dump.add("a.b", 1.5);
    dump.add("c", 2.0);
    EXPECT_TRUE(dump.has("a.b"));
    EXPECT_FALSE(dump.has("nope"));
    EXPECT_DOUBLE_EQ(dump.get("a.b"), 1.5);
    std::ostringstream os;
    dump.print(os);
    EXPECT_NE(os.str().find("a.b"), std::string::npos);
    EXPECT_NE(os.str().find("1.5"), std::string::npos);
}

} // namespace
} // namespace tcsim

namespace tcsim
{
namespace
{

// ----------------------------------------------------------------------
// Strict number parsing.
// ----------------------------------------------------------------------

TEST(Parse, RejectsAnythingButAWholeNumber)
{
    EXPECT_EQ(parseUint("20000"), 20000u);
    EXPECT_EQ(parseUint("18446744073709551615"), kNoLimit);
    EXPECT_EQ(parseUint("7", 7), 7u);
    for (const char *bad : {"", "4M", "abc", "1e6", "-1", "+1", " 1", "1 ",
                            "0x10", "1.5", "18446744073709551616"})
        EXPECT_FALSE(parseUint(bad).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(parseUint("8", 7).has_value());
    EXPECT_EQ(parseDouble("0.05"), 0.05);
    EXPECT_EQ(parseDouble("1e-3"), 1e-3);
    for (const char *bad : {"", "0.05x", " 0.1", "0.1 ", "nan", "1e999"})
        EXPECT_FALSE(parseDouble(bad).has_value()) << "'" << bad << "'";
}

// A "DeathTest" suite runs before the thread pool exists, so the forked
// child's exit() has no pool to join.
TEST(ParseDeathTest, RequireNamesTheFlag)
{
    EXPECT_EXIT(requireUint("--insts", "4M"), testing::ExitedWithCode(1),
                "--insts: '4M'");
}

// ----------------------------------------------------------------------
// Assertion contracts (death tests).
// ----------------------------------------------------------------------

TEST(LogDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 42), "boom 42");
}

TEST(LogDeath, AssertMacroAborts)
{
    EXPECT_DEATH(TCSIM_ASSERT(1 == 2, "impossible"), "impossible");
}

TEST(LogDeath, RngBelowZeroBound)
{
    Rng rng(1);
    EXPECT_DEATH(rng.below(0), "bound > 0");
}

} // namespace
} // namespace tcsim
