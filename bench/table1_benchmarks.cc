/**
 * @file
 * Paper Table 1: the benchmark suite. Prints each synthetic
 * benchmark's static/dynamic characteristics in place of the paper's
 * instruction counts and input sets.
 */

#include <cstdio>

#include "bench/harness.h"
#include "bench/thread_pool.h"
#include "workload/characterize.h"

int
main()
{
    using namespace tcsim;
    using namespace tcsim::bench;

    printBanner("Table 1", "Benchmarks");
    std::printf("%-14s %10s %12s %8s %8s %8s %9s\n", "Benchmark",
                "static", "simulated", "condBr%", "blkSize", "biased%",
                "longrun%");
    const std::vector<std::string> names = allBenchmarks();
    std::vector<std::uint64_t> budgets;
    for (const std::string &name : names)
        budgets.push_back(instBudget(workload::findProfile(name)));
    std::vector<workload::WorkloadStats> stats(names.size());
    parallelFor(names.size(), [&](std::size_t i) {
        stats[i] = workload::characterize(programFor(names[i]), budgets[i]);
    });
    for (std::size_t i = 0; i < names.size(); ++i) {
        const workload::WorkloadStats &ws = stats[i];
        std::printf("%-14s %10zu %12llu %8.2f %8.2f %8.1f %9.1f\n",
                    names[i].c_str(), programFor(names[i]).codeSize(),
                    static_cast<unsigned long long>(ws.instCount),
                    100.0 * ws.condBranches / ws.instCount,
                    ws.avgFillBlockSize,
                    100.0 * ws.fracDynStronglyBiased,
                    100.0 * ws.fracDynLongRun);
    }
    return 0;
}
