/**
 * @file
 * Tests for the exhibit registry: unique names, no unit id shared by
 * two configs across every plan, and the union that runs each
 * distinct unit once.
 */

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/exhibits.h"
#include "bench/sweep.h"
#include "sim/config.h"

namespace
{

using namespace tcsim;
using namespace tcsim::bench;

TEST(ExhibitRegistry, NamesAreUnique)
{
    std::set<std::string> names;
    for (const Exhibit &exhibit : exhibitRegistry())
        EXPECT_TRUE(names.insert(exhibit.name).second) << exhibit.name;
}

// The union dedups by hash, so an id naming two configs would run
// both under one name; unionOf() refuses that, and no plan may do it.
TEST(ExhibitRegistry, NoUnitIdNamesTwoConfigs)
{
    std::map<std::string, std::string> hash_of_id;
    for (const Exhibit &exhibit : exhibitRegistry()) {
        for (const WorkUnit &unit : exhibit.plan()) {
            const auto [it, fresh] = hash_of_id.emplace(unit.id, unit.hash);
            EXPECT_TRUE(fresh || it->second == unit.hash)
                << exhibit.name << ": " << unit.id;
        }
    }
}

std::vector<WorkUnit>
units(const std::string &benchmark,
      const std::vector<sim::ProcessorConfig> &configs)
{
    SweepOptions options;
    options.benchmarks = {benchmark};
    options.configs = configs;
    options.insts = 8000;
    return enumerateUnits(options);
}

TEST(ExhibitUnion, SharedUnitsRunOnce)
{
    const std::vector<WorkUnit> a =
        units("compress", {sim::baselineConfig(), sim::promotionConfig(64)});
    const std::vector<WorkUnit> b =
        units("li", {sim::baselineConfig()});
    const PlanUnion all = unionOf({a, {b[0], a[1]}, {}});

    ASSERT_EQ(all.units.size(), 3u);
    EXPECT_EQ(all.units[0].hash, a[0].hash);
    EXPECT_EQ(all.units[1].hash, a[1].hash);
    EXPECT_EQ(all.units[2].hash, b[0].hash);
    EXPECT_EQ(all.units[2].index, 2u);
    EXPECT_EQ(all.slots, (std::vector<std::vector<std::size_t>>{
                             {0, 1}, {2, 1}, {}}));
}

// A "DeathTest" suite runs before the thread pool exists, so the forked
// child's exit() has no pool to join.
TEST(ExhibitUnionDeathTest, IdWithTwoHashesIsFatal)
{
    const WorkUnit unit = units("compress", {sim::baselineConfig()})[0];
    WorkUnit renamed = units("compress", {sim::promotionConfig(64)})[0];
    renamed.id = unit.id;
    EXPECT_EXIT(unionOf({{unit}, {renamed}}), testing::ExitedWithCode(1),
                "unit id compress@baseline@8000 names two configs");
}

} // namespace
