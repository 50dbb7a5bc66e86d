/**
 * @file
 * Direct tests for the node-table (reservation station) bookkeeping.
 */

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

} // namespace
} // namespace tcsim::core
