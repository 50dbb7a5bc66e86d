/**
 * @file
 * Direct tests for the node-table (reservation station) bookkeeping.
 */

#include <string>

#include <gtest/gtest.h>

#include "core/node_tables.h"

namespace tcsim::core
{
namespace
{

TEST(NodeTables, AllocateRoundRobinsAcrossUnits)
{
    NodeTables tables(NodeTableParams{4, 2});
    std::uint8_t units[4];
    for (auto &unit : units)
        ASSERT_TRUE(tables.allocate(unit));
    // Four allocations spread over four units.
    EXPECT_NE(units[0], units[1]);
    EXPECT_NE(units[1], units[2]);
    EXPECT_EQ(tables.totalOccupied(), 4u);
}

TEST(NodeTables, AllocationFailsWhenFull)
{
    NodeTables tables(NodeTableParams{2, 2});
    std::uint8_t unit = 0;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(tables.allocate(unit));
    EXPECT_FALSE(tables.allocate(unit));
    tables.release(0);
    EXPECT_TRUE(tables.allocate(unit));
    EXPECT_EQ(unit, 0);
}

TEST(NodeTables, SkipsFullUnits)
{
    NodeTables tables(NodeTableParams{2, 1});
    std::uint8_t a = 0, b = 0;
    ASSERT_TRUE(tables.allocate(a));
    ASSERT_TRUE(tables.allocate(b));
    EXPECT_NE(a, b);
    tables.release(a);
    std::uint8_t c = 0;
    ASSERT_TRUE(tables.allocate(c));
    EXPECT_EQ(c, a);
}

TEST(NodeTables, ReadyQueuesAreFifoPerUnit)
{
    NodeTables tables(NodeTableParams{2, 4});
    tables.markReady(0, 11);
    tables.markReady(0, 12);
    tables.markReady(1, 21);
    EXPECT_EQ(tables.readyQueue(0).front().seq, 11u);
    tables.readyQueue(0).pop_front();
    EXPECT_EQ(tables.readyQueue(0).front().seq, 12u);
    EXPECT_EQ(tables.readyQueue(1).front().seq, 21u);
}

TEST(NodeTables, ReadyUnitsMarkEveryPushUntilCleared)
{
    NodeTables tables(NodeTableParams{64, 4});
    EXPECT_EQ(tables.readyUnits(), 0u);
    tables.markReady(0, 1);
    tables.markReady(63, 2);
    tables.markReady(5, 3);
    EXPECT_EQ(tables.readyUnits(),
              (std::uint64_t{1} << 63) | (std::uint64_t{1} << 5) | 1u);
    tables.readyQueue(5).pop_front();
    tables.clearReadyUnit(5);
    EXPECT_EQ(tables.readyUnits(), (std::uint64_t{1} << 63) | 1u);
    tables.clear();
    EXPECT_EQ(tables.readyUnits(), 0u);
}

TEST(ReadyQueue, DeferredRotationThenPushMatchesRotatingFirst)
{
    // Every queue length around the 8 attempts a scan makes, and a
    // ring that is full when the push arrives (it must grow).
    for (std::uint32_t n = 1; n <= 12; ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        ReadyQueue deferred(n), eager(n);
        for (InstSeqNum seq = 1; seq <= n; ++seq) {
            deferred.push_back(ReadyEntry{seq});
            eager.push_back(ReadyEntry{seq});
        }
        for (int cycle = 0; cycle < 3; ++cycle) {
            deferred.deferRotate(8);
            eager.rotate(8 % n);
        }
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(deferred.at(i).seq, eager.at(i).seq);
        deferred.push_back(ReadyEntry{100});
        eager.push_back(ReadyEntry{100});
        ASSERT_EQ(deferred.size(), eager.size());
        while (!eager.empty()) {
            EXPECT_EQ(deferred.front().seq, eager.front().seq);
            deferred.pop_front();
            eager.pop_front();
        }
    }
}

TEST(ReadyQueue, SettleAppliesTheDeferredRotation)
{
    ReadyQueue queue(4);
    for (InstSeqNum seq = 1; seq <= 3; ++seq)
        queue.push_back(ReadyEntry{seq});
    queue.deferRotate(8); // 8 mod 3 = 2
    queue.settle();
    EXPECT_EQ(queue.front().seq, 3u);
    queue.settle(); // nothing left to apply
    EXPECT_EQ(queue.front().seq, 3u);
}

TEST(NodeTables, ClearResetsEverything)
{
    NodeTables tables(NodeTableParams{2, 2});
    std::uint8_t unit = 0;
    tables.allocate(unit);
    tables.markReady(unit, 5);
    tables.clear();
    EXPECT_EQ(tables.totalOccupied(), 0u);
    EXPECT_TRUE(tables.readyQueue(unit).empty());
}

TEST(NodeTablesDeath, OverReleaseAborts)
{
    NodeTables tables(NodeTableParams{2, 2});
    EXPECT_DEATH(tables.release(0), "");
}

TEST(NodeTablesDeath, MoreUnitsThanMaskBitsAbort)
{
    EXPECT_DEATH(NodeTables(NodeTableParams{65, 2}),
                 "ready-unit mask is one 64-bit word");
}

} // namespace
} // namespace tcsim::core
