/**
 * @file
 * Tests for the completion calendar: it must drain exactly as the
 * (cycle, seq) min-heap it replaced pops, whatever the insertion
 * order, for late events, across growth and over multi-cycle drains.
 */

#include <algorithm>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/completion_calendar.h"

namespace tcsim::core
{
namespace
{

using Event = std::pair<Cycle, InstSeqNum>;

std::vector<InstSeqNum>
drain(CompletionCalendar &calendar, Cycle now)
{
    std::vector<InstSeqNum> out;
    calendar.drainThrough(now, [&](InstSeqNum seq) { out.push_back(seq); });
    return out;
}

TEST(CompletionCalendar, DrainsInCycleThenSeqOrder)
{
    const std::vector<Event> events = {
        {3, 40}, {1, 7}, {3, 12}, {2, 99}, {1, 3}, {3, 41}, {2, 5}, {1, 8},
    };
    std::vector<Event> shuffled = events;
    std::mt19937 rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        CompletionCalendar calendar;
        for (const auto &[cycle, seq] : shuffled)
            calendar.schedule(cycle, seq);
        EXPECT_EQ(drain(calendar, 1), (std::vector<InstSeqNum>{3, 7, 8}));
        EXPECT_EQ(drain(calendar, 2), (std::vector<InstSeqNum>{5, 99}));
        EXPECT_EQ(drain(calendar, 3), (std::vector<InstSeqNum>{12, 40, 41}));
        EXPECT_TRUE(calendar.empty());
    }
}

TEST(CompletionCalendar, LateEventDrainsAheadOfNextCycle)
{
    CompletionCalendar calendar;
    calendar.schedule(6, 2);
    EXPECT_TRUE(drain(calendar, 5).empty());
    // Due at or before the drained cycle 5: ahead of cycle 6's own
    // events, oldest cycle first, as the heap popped them.
    calendar.schedule(6, 1);
    calendar.schedule(5, 9);
    calendar.schedule(4, 30);
    calendar.schedule(5, 8);
    EXPECT_EQ(drain(calendar, 6), (std::vector<InstSeqNum>{30, 8, 9, 1, 2}));
    // A late event is due even when no new cycle is drained.
    calendar.schedule(6, 4);
    EXPECT_EQ(drain(calendar, 6), (std::vector<InstSeqNum>{4}));
    EXPECT_TRUE(calendar.empty());
}

TEST(CompletionCalendar, GrowthKeepsOrder)
{
    CompletionCalendar calendar;
    EXPECT_TRUE(drain(calendar, 100).empty());
    // Far past the initial horizon, and more events in one cycle than
    // a bucket first holds, seqs descending.
    for (InstSeqNum seq = 40; seq > 0; --seq)
        calendar.schedule(101 + seq % 3, seq);
    calendar.schedule(1000, 77);
    calendar.schedule(350, 5);
    std::vector<InstSeqNum> expected;
    for (unsigned r = 0; r < 3; ++r) {
        for (InstSeqNum seq = 1; seq <= 40; ++seq) {
            if (seq % 3 == r)
                expected.push_back(seq);
        }
    }
    EXPECT_EQ(drain(calendar, 103), expected);
    EXPECT_TRUE(drain(calendar, 349).empty());
    EXPECT_EQ(drain(calendar, 999), (std::vector<InstSeqNum>{5}));
    EXPECT_EQ(drain(calendar, 1000), (std::vector<InstSeqNum>{77}));
    EXPECT_TRUE(calendar.empty());
}

TEST(CompletionCalendar, CatchUpDrainsEveryCycle)
{
    // A run that stopped at its budget skips one drain; the next one
    // covers both cycles, the earlier first.
    CompletionCalendar calendar;
    EXPECT_TRUE(drain(calendar, 10).empty());
    calendar.schedule(12, 1);
    calendar.schedule(11, 6);
    calendar.schedule(11, 2);
    calendar.schedule(13, 0);
    EXPECT_EQ(drain(calendar, 12), (std::vector<InstSeqNum>{2, 6, 1}));
    EXPECT_FALSE(calendar.empty());
    EXPECT_EQ(drain(calendar, 13), (std::vector<InstSeqNum>{0}));
}

TEST(CompletionCalendar, MatchesHeapOnRandomSchedules)
{
    // The processor's pattern: each cycle drains, then schedules up to
    // 16 events with latencies from 0 (late) to past any horizon, and
    // now and then a drain is skipped.
    std::mt19937_64 rng(7);
    CompletionCalendar calendar;
    std::vector<Event> heap;
    InstSeqNum next_seq = 1;
    for (Cycle cycle = 1; cycle < 5000; ++cycle) {
        if (rng() % 50 == 0)
            continue; // skipped drain: caught up next cycle
        std::vector<InstSeqNum> expected;
        while (!heap.empty() && heap.front().first <= cycle) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<>());
            expected.push_back(heap.back().second);
            heap.pop_back();
        }
        ASSERT_EQ(drain(calendar, cycle), expected) << "cycle " << cycle;
        const unsigned fires = rng() % 17;
        for (unsigned i = 0; i < fires; ++i) {
            const Cycle latency = rng() % 8 == 0 ? rng() % 300 : rng() % 13;
            // Seqs fire out of order, as older instructions wait longer.
            const InstSeqNum seq = next_seq + rng() % 64;
            ++next_seq;
            calendar.schedule(cycle + latency, seq * 1000 + i);
            heap.emplace_back(cycle + latency, seq * 1000 + i);
            std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
    }
}

} // namespace
} // namespace tcsim::core
