/**
 * @file
 * Tests for the one execution engine's fan-out: the thread pool itself
 * and the tier-1 determinism guarantee — runUnits on many workers must
 * be bit-identical to one worker because units share no mutable state.
 */

#include <atomic>
#include <cstdlib>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "bench/sweep.h"
#include "bench/thread_pool.h"
#include "sim/processor.h"

namespace
{

using namespace tcsim;
using namespace tcsim::bench;

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

// A "DeathTest" suite runs before the thread pool exists, so the forked
// child's exit() has no pool to join.
TEST(ThreadPoolDeathTest, DefaultJobCountRejectsBadEnv)
{
    for (const char *bad : {"0", "1025", "4x", "abc", "-1", "", " 4"}) {
        ::setenv("TCSIM_JOBS", bad, 1);
        EXPECT_EXIT(defaultJobCount(), testing::ExitedWithCode(1),
                    "TCSIM_JOBS")
            << "'" << bad << "'";
    }
    ::unsetenv("TCSIM_JOBS");
}

TEST(ThreadPool, DefaultJobCountHonorsEnv)
{
    ::setenv("TCSIM_JOBS", "3", 1);
    EXPECT_EQ(defaultJobCount(), 3u);
    ::setenv("TCSIM_JOBS", "1024", 1); // the ceiling
    EXPECT_EQ(defaultJobCount(), 1024u);
    ::unsetenv("TCSIM_JOBS");
    EXPECT_GE(defaultJobCount(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndex)
{
    std::vector<int> hits(257, 0);
    parallelFor(hits.size(),
                [&hits](std::size_t i) { hits[i] = 1; });
    for (const int hit : hits)
        EXPECT_EQ(hit, 1);
}

/** Every SimResult field that feeds a published table. */
void
expectIdentical(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.effectiveFetchRate, b.effectiveFetchRate);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.condMispredicts, b.condMispredicts);
    EXPECT_EQ(a.promotedFaults, b.promotedFaults);
    EXPECT_EQ(a.indirectMispredicts, b.indirectMispredicts);
    EXPECT_EQ(a.condMispredictRate, b.condMispredictRate);
    EXPECT_EQ(a.meanResolutionTime, b.meanResolutionTime);
    EXPECT_EQ(a.fetchesNeeding01, b.fetchesNeeding01);
    EXPECT_EQ(a.fetchesNeeding2, b.fetchesNeeding2);
    EXPECT_EQ(a.fetchesNeeding3, b.fetchesNeeding3);
    EXPECT_EQ(a.tcLookups, b.tcLookups);
    EXPECT_EQ(a.tcHits, b.tcHits);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.promotedRetired, b.promotedRetired);
    for (unsigned c = 0;
         c < static_cast<unsigned>(sim::CycleCategory::NumCategories);
         ++c)
        EXPECT_EQ(a.cycleCat[c], b.cycleCat[c]);
}

TEST(BenchParallel, SweepIsBitIdenticalAcrossJobCounts)
{
    // The tier-1 determinism guarantee: fanning units across four
    // workers must reproduce one worker's results exactly, for the
    // paper's headline configurations (trace cache + fill unit + bias
    // table, and the icache/hybrid-predictor front end) and for
    // warmed-up and replay units.
    SweepOptions options;
    options.configs = {
        sim::baselineConfig(),
        sim::promotionPackingConfig(64,
                                    trace::PackingPolicy::CostRegulated),
        sim::icacheConfig(),
    };
    options.insts = 15000;
    std::vector<WorkUnit> units = enumerateUnits(options);
    const auto add = [&] {
        for (const WorkUnit &unit : enumerateUnits(options))
            units.push_back(unit);
    };
    options.benchmarks = {"compress", "li"};
    options.configs = {sim::baselineConfig(), sim::promotionConfig(64)};
    options.insts = 8000;
    options.warmup = 2000;
    add();
    options.warmup = 0;
    options.replay = true;
    add();

    ThreadPool four(4);
    ThreadPool one(1);
    const std::vector<sim::SimResult> parallel = runUnits(units, {}, four);
    const std::vector<sim::SimResult> sequential = runUnits(units, {}, one);

    ASSERT_EQ(sequential.size(), units.size());
    ASSERT_EQ(parallel.size(), units.size());
    for (std::size_t i = 0; i < units.size(); ++i) {
        SCOPED_TRACE(units[i].id);
        expectIdentical(sequential[i], parallel[i]);
    }
    EXPECT_EQ(renderResultsDoc(units, parallel),
              renderResultsDoc(units, sequential));
}

TEST(BenchParallel, SweepMatrixShapeMatchesInputs)
{
    SweepOptions options;
    options.benchmarks = {"compress", "li"};
    options.configs = {sim::baselineConfig()};
    options.insts = 5000;
    ThreadPool pool(2);
    const std::vector<sim::SimResult> results =
        runUnits(enumerateUnits(options), {}, pool);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].benchmark, "compress");
    EXPECT_EQ(results[1].benchmark, "li");
    for (const sim::SimResult &r : results)
        EXPECT_GE(r.instructions, 5000u);
}

} // namespace
