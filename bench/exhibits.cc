/**
 * @file
 * Every exhibit — the paper's tables and figures, the ablations, the
 * addenda and the claim check — as a plan and a renderer, the registry
 * that lists them in run order, and the union of plans.
 */

#include "bench/exhibits.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <numeric>
#include <string>

#include "bench/thread_pool.h"
#include "common/log.h"
#include "workload/characterize.h"

namespace tcsim::bench
{

namespace
{

using Results = std::vector<sim::SimResult>;

sim::ProcessorConfig
promoPackCostRegulated()
{
    return sim::promotionPackingConfig(64,
                                       trace::PackingPolicy::CostRegulated);
}

// Table 1: the benchmark suite. Prints each synthetic benchmark's
// static/dynamic characteristics in place of the paper's instruction
// counts and input sets.
namespace table1
{

/** The table characterizes programs functionally; it simulates no
 * unit. */
std::vector<WorkUnit>
plan()
{
    return {};
}

int
render(const Results &)
{
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

} // namespace table1

// Table 2: the average effective fetch rate with and without branch
// promotion, sweeping the promotion threshold over {8, 16, 32, 64,
// 128, 256}, plus the icache and baseline references.
namespace table2
{

const std::vector<std::uint32_t> kThresholds = {8, 16, 32, 64, 128, 256};

std::vector<WorkUnit>
plan()
{
    std::vector<sim::ProcessorConfig> configs = {sim::icacheConfig(),
                                                 sim::baselineConfig()};
    for (const std::uint32_t threshold : kThresholds)
        configs.push_back(sim::promotionConfig(threshold));
    return exhibitUnits(allBenchmarks(), configs);
}

int
render(const Results &results)
{
    printBanner("Table 2",
                "Average effective fetch rate vs promotion threshold");

    std::vector<std::string> labels = {"icache", "baseline"};
    for (const std::uint32_t threshold : kThresholds)
        labels.push_back("threshold = " + std::to_string(threshold));
    const auto rows = byConfig(results);

    std::printf("%-22s %22s\n", "Configuration", "Ave effective fetch rate");
    for (std::size_t c = 0; c < rows.size(); ++c) {
        std::printf("%-22s %22.2f\n", labels[c].c_str(),
                    sumOf(rows[c], &sim::SimResult::effectiveFetchRate) /
                        rows[c].size());
    }
    return 0;
}

} // namespace table2

// Table 3: the number of dynamic branch predictions required each
// fetch cycle (0-or-1 / 2 / 3), averaged over all benchmarks, for the
// baseline and for promotion at threshold 64.
namespace table3
{

std::vector<WorkUnit>
plan()
{
    return exhibitUnits(allBenchmarks(),
                        {sim::baselineConfig(), sim::promotionConfig(64)});
}

int
render(const Results &results)
{
    printBanner("Table 3", "Predictions required each fetch cycle");

    const auto row = [](const Results &sweep, const char *label) {
        double c01 = 0, c2 = 0, c3 = 0;
        for (const sim::SimResult &r : sweep) {
            c01 += r.fetchesNeeding01;
            c2 += r.fetchesNeeding2;
            c3 += r.fetchesNeeding3;
        }
        const double n = static_cast<double>(sweep.size());
        std::printf("%-18s %14.0f%% %14.0f%% %14.0f%%\n", label,
                    100 * c01 / n, 100 * c2 / n, 100 * c3 / n);
    };

    const auto rows = byConfig(results);
    std::printf("%-18s %15s %15s %15s\n", "Configuration",
                "0 or 1 preds", "2 preds", "3 preds");
    row(rows[0], "baseline");
    row(rows[1], "threshold = 64");
    return 0;
}

} // namespace table3

// Table 4: the cost of trace packing's redundancy — percent increase
// in instruction-cache miss cycles of each packing variant
// (unregulated, cost-regulated, n=2, n=4; all with promotion at 64)
// over the promotion-only configuration, for the six benchmarks that
// suffer significant cache misses, plus the suite-average effective
// fetch rate of each variant.
namespace table4
{

const std::vector<std::string> kMissHeavy = {
    "gcc", "go", "vortex", "ghostscript", "python", "tex"};
const std::vector<const char *> kLabels = {"unreg", "cost-reg", "n=2",
                                           "n=4"};

/** The packing variants, in kLabels order. */
std::vector<sim::ProcessorConfig>
variants()
{
    const auto regulated = [](std::uint32_t n) {
        sim::ProcessorConfig config = sim::promotionPackingConfig(
            64, trace::PackingPolicy::NRegulated, n);
        config.name += "+n" + std::to_string(n);
        return config;
    };
    return {sim::promotionPackingConfig(64,
                                        trace::PackingPolicy::Unregulated),
            promoPackCostRegulated(), regulated(2), regulated(4)};
}

/** Promotion-only (the reference) plus every variant on the
 * miss-heavy benchmarks, then every variant on the whole suite. */
std::vector<WorkUnit>
plan()
{
    std::vector<sim::ProcessorConfig> configs = variants();
    configs.insert(configs.begin(), sim::promotionConfig(64));
    std::vector<WorkUnit> units = exhibitUnits(kMissHeavy, configs);
    for (WorkUnit &unit : exhibitUnits(allBenchmarks(), variants()))
        units.push_back(std::move(unit));
    return units;
}

int
render(const Results &results)
{
    printBanner("Table 4",
                "Percent increase in cache miss cycles of packing over "
                "promotion-only");

    const auto miss_cycles = [](const sim::SimResult &r) {
        return static_cast<double>(r.cycleCat[static_cast<unsigned>(
            sim::CycleCategory::CacheMisses)]);
    };
    const auto split = results.begin() + static_cast<std::ptrdiff_t>(
                                             (kLabels.size() + 1) *
                                             kMissHeavy.size());
    const auto matrix = byConfig({results.begin(), split}, kMissHeavy.size());
    const auto suite = byConfig({split, results.end()});
    const std::vector<double> ref = metricsOf(matrix[0], miss_cycles);

    std::printf("%-14s", "Benchmark");
    for (const char *label : kLabels)
        std::printf("%10s", label);
    std::printf("\n");

    std::vector<std::vector<double>> increases(kLabels.size());
    for (std::size_t vi = 0; vi < kLabels.size(); ++vi) {
        const std::vector<double> cycles =
            metricsOf(matrix[vi + 1], miss_cycles);
        for (std::size_t bi = 0; bi < kMissHeavy.size(); ++bi) {
            increases[vi].push_back(
                ref[bi] == 0
                    ? 0.0
                    : 100.0 * (cycles[bi] - ref[bi]) / ref[bi]);
        }
    }
    for (std::size_t bi = 0; bi < kMissHeavy.size(); ++bi) {
        std::printf("%-14s", shortName(kMissHeavy[bi]).c_str());
        for (std::size_t vi = 0; vi < kLabels.size(); ++vi)
            std::printf("%9.1f%%", increases[vi][bi]);
        std::printf("\n");
    }

    // Suite-average effective fetch rate per variant.
    std::printf("%-14s", "AveEffFetch");
    for (const Results &row : suite) {
        std::printf("%10.2f", sumOf(row, &sim::SimResult::effectiveFetchRate) /
                                  row.size());
    }
    std::printf("\n");
    return 0;
}

} // namespace table4

/**
 * Print the fetch-width breakdown of Figures 4 and 6: dynamic
 * frequency of correct-path fetch sizes 0..16, decomposed by
 * termination reason.
 */
void
printFetchHistogram(const sim::SimResult &result)
{
    using sim::Accounting;
    using sim::FetchReason;
    constexpr unsigned kReasons =
        static_cast<unsigned>(FetchReason::NumReasons);

    std::uint64_t total = 0;
    for (unsigned r = 0; r < kReasons; ++r) {
        for (unsigned w = 0; w <= Accounting::kMaxFetchWidth; ++w)
            total += result.fetchHist[r][w];
    }
    if (total == 0) {
        std::printf("(no useful fetches)\n");
        return;
    }

    std::printf("%5s", "size");
    for (unsigned r = 0; r < kReasons; ++r) {
        std::printf("%15s",
                    sim::fetchReasonName(static_cast<FetchReason>(r)));
    }
    std::printf("%10s\n", "sum");

    double weighted = 0;
    for (unsigned w = 0; w <= Accounting::kMaxFetchWidth; ++w) {
        std::printf("%5u", w);
        std::uint64_t row = 0;
        for (unsigned r = 0; r < kReasons; ++r) {
            const double frac =
                static_cast<double>(result.fetchHist[r][w]) / total;
            std::printf("%15.4f", frac);
            row += result.fetchHist[r][w];
        }
        std::printf("%10.4f\n", static_cast<double>(row) / total);
        weighted += static_cast<double>(w) * row / total;
    }
    std::printf("Ave fetch size %.2f\n", weighted);
}

// Figure 4: the fetch width breakdown for gcc with the baseline
// 128 KB trace cache, annotated with the seven termination reasons.
namespace fig4
{

std::vector<WorkUnit>
plan()
{
    return exhibitUnits({"gcc"}, {sim::baselineConfig()});
}

int
render(const Results &results)
{
    printBanner("Figure 4",
                "Fetch width breakdown, gcc, baseline trace cache");
    printFetchHistogram(results.front());
    return 0;
}

} // namespace fig4

// Figure 6: the fetch width breakdown for gcc with branch promotion at
// threshold 64 — fewer fetches terminate at the maximum branch limit
// than in Figure 4.
namespace fig6
{

std::vector<WorkUnit>
plan()
{
    return exhibitUnits({"gcc"}, {sim::promotionConfig(64)});
}

int
render(const Results &results)
{
    printBanner("Figure 6",
                "Fetch width breakdown, gcc, promotion threshold 64");
    printFetchHistogram(results.front());
    return 0;
}

} // namespace fig6

// Figure 7: the percent change, relative to the baseline, in the
// number of mispredicted conditional branches when branches are
// promoted at thresholds 64, 128 and 256 (promoted-branch faults count
// as mispredictions).
namespace fig7
{

const std::vector<std::uint32_t> kThresholds = {64, 128, 256};

std::vector<WorkUnit>
plan()
{
    std::vector<sim::ProcessorConfig> configs = {sim::baselineConfig()};
    for (const std::uint32_t threshold : kThresholds)
        configs.push_back(sim::promotionConfig(threshold));
    return exhibitUnits(allBenchmarks(), configs);
}

int
render(const Results &results)
{
    printBanner("Figure 7",
                "Percent change in mispredicted conditional branches "
                "under promotion");

    const auto metric = [](const sim::SimResult &r) {
        return static_cast<double>(r.condMispredicts);
    };
    const auto rows = byConfig(results);
    const std::vector<double> base = metricsOf(rows[0], metric);

    printBenchmarkHeader("threshold");
    for (std::size_t t = 0; t < kThresholds.size(); ++t) {
        printBenchmarkRow("threshold=" + std::to_string(kThresholds[t]),
                          percentChange(base, metricsOf(rows[t + 1], metric)),
                          1);
    }
    return 0;
}

} // namespace fig7

// Figure 9: effective fetch rates with and without trace packing (no
// promotion), per benchmark, with the percent increase.
namespace fig9
{

std::vector<WorkUnit>
plan()
{
    return exhibitUnits(allBenchmarks(),
                        {sim::baselineConfig(), sim::packingConfig()});
}

int
render(const Results &results)
{
    printBanner("Figure 9",
                "Effective fetch rate, baseline vs trace packing");

    const auto rows = byConfig(results);
    const std::vector<double> base =
        metricsOf(rows[0], &sim::SimResult::effectiveFetchRate);
    const std::vector<double> pack =
        metricsOf(rows[1], &sim::SimResult::effectiveFetchRate);

    printBenchmarkHeader("config");
    printBenchmarkRow("baseline", base);
    printBenchmarkRow("packing", pack);
    printBenchmarkRow("increase %", percentChange(base, pack), 1);
    return 0;
}

} // namespace fig9

// Figure 10: effective fetch rates for all five configurations —
// icache, baseline trace cache, packing only, promotion only, and
// promotion + packing — per benchmark.
namespace fig10
{

std::vector<WorkUnit>
plan()
{
    return exhibitUnits(
        allBenchmarks(),
        {sim::icacheConfig(), sim::baselineConfig(), sim::packingConfig(),
         sim::promotionConfig(64), sim::promotionPackingConfig(64)});
}

int
render(const Results &results)
{
    printBanner("Figure 10", "Effective fetch rates for all techniques");

    std::vector<std::vector<double>> rates;
    for (const Results &row : byConfig(results))
        rates.push_back(metricsOf(row, &sim::SimResult::effectiveFetchRate));

    printBenchmarkHeader("config");
    printBenchmarkRow("icache", rates[0]);
    printBenchmarkRow("baseline", rates[1]);
    printBenchmarkRow("packing", rates[2]);
    printBenchmarkRow("promotion", rates[3]);
    printBenchmarkRow("promotion+packing", rates[4]);
    printBenchmarkRow("both vs baseline %", percentChange(rates[1], rates[4]),
                      1);
    return 0;
}

} // namespace fig10

/** Figures 11 and 16: IPC of the icache front end, the baseline and
 * promotion + cost-regulated packing, and the techniques' gain. */
void
printIpcRows(const Results &results)
{
    std::vector<std::vector<double>> ipc;
    for (const Results &row : byConfig(results))
        ipc.push_back(metricsOf(row, &sim::SimResult::ipc));

    printBenchmarkHeader("config");
    printBenchmarkRow("icache", ipc[0]);
    printBenchmarkRow("baseline", ipc[1]);
    printBenchmarkRow("promotion,packing", ipc[2]);
    printBenchmarkRow("both vs baseline %", percentChange(ipc[1], ipc[2]), 1);
}

// Figure 11: overall performance (IPC) of the icache front end, the
// baseline trace cache, and promotion + cost-regulated packing, with
// the realistic (conservative-disambiguation) execution engine.
namespace fig11
{

std::vector<WorkUnit>
plan()
{
    return exhibitUnits(allBenchmarks(),
                        {sim::icacheConfig(), sim::baselineConfig(),
                         promoPackCostRegulated()});
}

int
render(const Results &results)
{
    printBanner("Figure 11",
                "IPC with the realistic execution engine");
    printIpcRows(results);
    return 0;
}

} // namespace fig11

// Figure 12: an accounting of all fetch cycles, per benchmark, for the
// promotion + cost-regulated packing configuration: Useful Fetch,
// Branch Misses, Cache Misses, Full Window, Traps, Misfetches.
namespace fig12
{

constexpr unsigned kCategories =
    static_cast<unsigned>(sim::CycleCategory::NumCategories);

std::vector<WorkUnit>
plan()
{
    return exhibitUnits(allBenchmarks(), {promoPackCostRegulated()});
}

int
render(const Results &results)
{
    printBanner("Figure 12",
                "Fetch-cycle accounting, promotion + packing");

    std::printf("%-14s", "Benchmark");
    for (unsigned c = 0; c < kCategories; ++c) {
        std::printf("%14s",
                    sim::cycleCategoryName(
                        static_cast<sim::CycleCategory>(c)));
    }
    std::printf("\n");

    for (const sim::SimResult &r : results) {
        const std::uint64_t total = std::accumulate(
            std::begin(r.cycleCat), std::end(r.cycleCat), std::uint64_t{0});
        std::printf("%-14s", shortName(r.benchmark).c_str());
        for (unsigned c = 0; c < kCategories; ++c) {
            std::printf("%13.1f%%",
                        100.0 * r.cycleCat[c] / std::max<std::uint64_t>(
                                                    total, 1));
        }
        std::printf("\n");
    }
    return 0;
}

} // namespace fig12

/** Figures 13-15 compare the baseline with promotion +
 * cost-regulated packing over the suite. */
std::vector<WorkUnit>
baselineVsPromoPack()
{
    return exhibitUnits(allBenchmarks(),
                        {sim::baselineConfig(), promoPackCostRegulated()});
}

/** Figures 13 and 14: the percent change of @p metric. */
void
printChangeRow(const Results &results,
               const std::function<double(const sim::SimResult &)> &metric)
{
    const auto rows = byConfig(results);
    printBenchmarkHeader("");
    printBenchmarkRow("change %",
                      percentChange(metricsOf(rows[0], metric),
                                    metricsOf(rows[1], metric)),
                      1);
}

// Figure 13: the percent change, relative to the baseline, in the
// number of fetch cycles lost to branch mispredictions under
// promotion + cost-regulated packing.
namespace fig13
{

int
render(const Results &results)
{
    printBanner("Figure 13",
                "Percent change in fetch cycles lost to mispredictions");
    printChangeRow(results, [](const sim::SimResult &r) {
        return static_cast<double>(r.cycleCat[static_cast<unsigned>(
            sim::CycleCategory::BranchMisses)]);
    });
    return 0;
}

} // namespace fig13

// Figure 14: the percent change, relative to the baseline, in the
// number of mispredicted branches (conditional plus indirect; returns
// are predicted nearly ideally) under promotion + cost-regulated
// packing.
namespace fig14
{

int
render(const Results &results)
{
    printBanner("Figure 14",
                "Percent change in mispredicted branches (cond + indirect)");
    printChangeRow(results, [](const sim::SimResult &r) {
        return static_cast<double>(r.condMispredicts +
                                   r.indirectMispredicts);
    });
    return 0;
}

} // namespace fig14

// Figure 15: the percent change, relative to the baseline, in the mean
// number of cycles to resolve a mispredicted branch under promotion +
// cost-regulated packing. The paper reports an average increase
// (~8%): branches fetched earlier wait longer for operands.
namespace fig15
{

int
render(const Results &results)
{
    printBanner("Figure 15",
                "Percent change in mispredicted-branch resolution time");

    const auto rows = byConfig(results);
    const std::vector<double> base =
        metricsOf(rows[0], &sim::SimResult::meanResolutionTime);
    const std::vector<double> both =
        metricsOf(rows[1], &sim::SimResult::meanResolutionTime);

    printBenchmarkHeader("");
    printBenchmarkRow("baseline (cycles)", base, 2);
    printBenchmarkRow("promo+pack (cycles)", both, 2);
    printBenchmarkRow("change %", percentChange(base, both), 1);
    return 0;
}

} // namespace fig15

// Figure 16: overall performance (IPC) given an ideal, aggressive
// execution engine — all load/store dependencies speculated correctly
// (perfect memory disambiguation) — for the icache front end, the
// baseline trace cache, and promotion + cost-regulated packing. The
// paper reports +11% for the techniques over the enhanced baseline.
namespace fig16
{

std::vector<WorkUnit>
plan()
{
    const auto perfect = [](sim::ProcessorConfig config) {
        config.disambiguation = sim::Disambiguation::Perfect;
        config.name += "+perfect";
        return config;
    };
    return exhibitUnits(allBenchmarks(),
                        {perfect(sim::icacheConfig()),
                         perfect(sim::baselineConfig()),
                         perfect(promoPackCostRegulated())});
}

int
render(const Results &results)
{
    printBanner("Figure 16", "IPC with perfect memory disambiguation");
    printIpcRows(results);
    return 0;
}

} // namespace fig16

// Ablation: branch bias table sizing. The paper fixes an 8K-entry
// tagged table; this sweep shows the sensitivity of the effective
// fetch rate and fault counts to the table size (tag conflicts evict
// promoted state).
namespace bias_table
{

const std::vector<std::string> kBenchmarks = {"gcc", "vortex", "compress",
                                              "tex"};
const std::vector<std::uint32_t> kSizes = {512, 2048, 8192, 32768};

std::vector<WorkUnit>
plan()
{
    std::vector<sim::ProcessorConfig> configs;
    for (const std::uint32_t entries : kSizes) {
        sim::ProcessorConfig config = sim::promotionConfig(64);
        config.fillUnit.biasTable.entries = entries;
        config.name += "+bias" + std::to_string(entries);
        configs.push_back(config);
    }
    return exhibitUnits(kBenchmarks, configs);
}

int
render(const Results &results)
{
    printBanner("Ablation", "Bias table size sweep (promotion t=64)");

    const auto matrix = byConfig(results, kBenchmarks.size());
    std::printf("%-12s %18s %16s %16s\n", "entries", "avgEffFetchRate",
                "avgFaults", "avgPromotedRet");
    const double n = static_cast<double>(kBenchmarks.size());
    for (std::size_t s = 0; s < kSizes.size(); ++s) {
        std::printf("%-12u %18.2f %16.0f %16.0f\n", kSizes[s],
                    sumOf(matrix[s], &sim::SimResult::effectiveFetchRate) / n,
                    sumOf(matrix[s], &sim::SimResult::promotedFaults) / n,
                    sumOf(matrix[s], &sim::SimResult::promotedRetired) / n);
    }
    return 0;
}

} // namespace bias_table

// Ablation: execution-window sensitivity. The paper does not specify
// the checkpoint-pool depth or total window size of its HPS core;
// DESIGN.md documents our defaults (64 checkpoints, 512-entry window).
// This sweep shows how the headline comparison (baseline vs
// promotion+packing) responds to those choices.
namespace core_window
{

const std::vector<std::string> kBenchmarks = {"gcc", "compress", "tex"};
const std::vector<std::uint32_t> kCheckpoints = {16, 32, 64, 128};
const std::vector<std::uint32_t> kRobEntries = {256, 512, 1024};

/** For each (checkpoints, rob) point, a baseline and a
 * promotion+packing config (interleaved pairs). */
std::vector<WorkUnit>
plan()
{
    std::vector<sim::ProcessorConfig> configs;
    for (const std::uint32_t checkpoints : kCheckpoints) {
        for (const std::uint32_t rob : kRobEntries) {
            const std::string suffix = "+ckpt" +
                                       std::to_string(checkpoints) +
                                       "+rob" + std::to_string(rob);
            for (sim::ProcessorConfig config :
                 {sim::baselineConfig(), sim::promotionPackingConfig(64)}) {
                config.checkpoints = checkpoints;
                config.robEntries = rob;
                config.name += suffix;
                configs.push_back(config);
            }
        }
    }
    return exhibitUnits(kBenchmarks, configs);
}

int
render(const Results &results)
{
    printBanner("Ablation", "Execution window sensitivity");

    const auto matrix = byConfig(results, kBenchmarks.size());
    std::printf("%-10s %-8s %14s %14s %12s\n", "ckpts", "rob",
                "baselineIPC", "promopackIPC", "fullWindow%");
    const auto full_window = [](const sim::SimResult &r) {
        const std::uint64_t cycles = std::accumulate(
            std::begin(r.cycleCat), std::end(r.cycleCat), std::uint64_t{0});
        return 100.0 *
               r.cycleCat[static_cast<unsigned>(
                   sim::CycleCategory::FullWindow)] /
               std::max<std::uint64_t>(cycles, 1);
    };
    const double n = static_cast<double>(kBenchmarks.size());
    for (std::size_t p = 0; p < matrix.size() / 2; ++p) {
        const Results &base = matrix[2 * p];
        const Results &both = matrix[2 * p + 1];
        std::printf("%-10u %-8u %14.3f %14.3f %11.1f%%\n",
                    kCheckpoints[p / kRobEntries.size()],
                    kRobEntries[p % kRobEntries.size()],
                    sumOf(base, &sim::SimResult::ipc) / n,
                    sumOf(both, &sim::SimResult::ipc) / n,
                    sumOf(both, full_window) / n);
    }
    return 0;
}

} // namespace core_window

// Ablation: partial matching and inactive issue. The paper's baseline
// adopts both from Friendly et al. [MICRO-30 1997], who report ~15%
// combined benefit; this sweep removes each in turn.
namespace issue_policies
{

const std::vector<std::string> kBenchmarks = {"gcc", "compress", "go",
                                              "tex"};

struct Policy
{
    const char *label;
    bool partial;
    bool inactive;
};
const std::vector<Policy> kPolicies = {
    {"partial match + inactive issue", true, true},
    {"partial match only", true, false},
    {"neither", false, false},
};

std::vector<WorkUnit>
plan()
{
    std::vector<sim::ProcessorConfig> configs;
    for (const Policy &policy : kPolicies) {
        sim::ProcessorConfig config = sim::baselineConfig();
        config.partialMatching = policy.partial;
        config.inactiveIssue = policy.inactive;
        config.name += std::string("+pm") +
                       (policy.partial ? "1" : "0") + "ii" +
                       (policy.inactive ? "1" : "0");
        configs.push_back(config);
    }
    return exhibitUnits(kBenchmarks, configs);
}

int
render(const Results &results)
{
    printBanner("Ablation",
                "Partial matching / inactive issue (baseline fill)");

    const auto matrix = byConfig(results, kBenchmarks.size());
    std::printf("%-34s %14s %10s\n", "configuration", "avgEffFetch",
                "avgIPC");
    const double n = static_cast<double>(kBenchmarks.size());
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
        std::printf("%-34s %14.2f %10.3f\n", kPolicies[p].label,
                    sumOf(matrix[p], &sim::SimResult::effectiveFetchRate) / n,
                    sumOf(matrix[p], &sim::SimResult::ipc) / n);
    }
    return 0;
}

} // namespace issue_policies

// Ablation: trace-cache path associativity. The paper's configurations
// store at most one segment per start address (section 3, citing
// Patel et al. [CSE-TR-335-97] for the alternative); this sweep
// enables multi-path storage with predictor-driven selection.
namespace path_assoc
{

const std::vector<std::string> kBenchmarks = {"gcc", "go", "li",
                                              "gnuchess"};

struct Variant
{
    const char *label;
    bool pathAssoc;
    bool packing;
};
const std::vector<Variant> kVariants = {
    {"baseline, no path assoc", false, false},
    {"baseline, path assoc", true, false},
    {"promo+pack, no path assoc", false, true},
    {"promo+pack, path assoc", true, true},
};

std::vector<WorkUnit>
plan()
{
    std::vector<sim::ProcessorConfig> configs;
    for (const Variant &v : kVariants) {
        sim::ProcessorConfig config =
            v.packing ? sim::promotionPackingConfig(64)
                      : sim::baselineConfig();
        config.traceCache.pathAssociativity = v.pathAssoc;
        config.name += v.pathAssoc ? "+pathassoc" : "+nopath";
        configs.push_back(config);
    }
    return exhibitUnits(kBenchmarks, configs);
}

int
render(const Results &results)
{
    printBanner("Ablation", "Trace-cache path associativity");

    const auto matrix = byConfig(results, kBenchmarks.size());
    std::printf("%-34s %14s %13s\n", "configuration", "avgEffFetch",
                "avgTcHit");
    const auto tc_hit = [](const sim::SimResult &r) {
        return r.tcLookups ? static_cast<double>(r.tcHits) / r.tcLookups
                           : 0.0;
    };
    const double n = static_cast<double>(kBenchmarks.size());
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
        std::printf("%-34s %14.2f %12.1f%%\n", kVariants[v].label,
                    sumOf(matrix[v], &sim::SimResult::effectiveFetchRate) / n,
                    100 * sumOf(matrix[v], tc_hit) / n);
    }
    return 0;
}

} // namespace path_assoc

// Ablation: multiple-branch-predictor organization. The paper pairs
// promotion with a restructured split predictor (64K/16K/8K tables,
// 24 KB) in place of the baseline 16K x 7-counter tree (32 KB). This
// sweep runs both organizations under both fill policies.
namespace predictor
{

const std::vector<std::string> kBenchmarks = {"gcc", "compress", "m88ksim",
                                              "go"};
const std::vector<const char *> kLabels = {
    "baseline + tree", "baseline + split", "promotion + tree",
    "promotion + split"};

std::vector<WorkUnit>
plan()
{
    sim::ProcessorConfig base_split = sim::baselineConfig();
    base_split.mbpKind = sim::MbpKind::Split;
    base_split.name += "+split";
    sim::ProcessorConfig promo_tree = sim::promotionConfig(64);
    promo_tree.mbpKind = sim::MbpKind::Tree;
    promo_tree.name += "+tree";
    return exhibitUnits(kBenchmarks, {sim::baselineConfig(), base_split,
                                      promo_tree, sim::promotionConfig(64)});
}

int
render(const Results &results)
{
    printBanner("Ablation",
                "Tree vs split multiple branch predictor");

    const auto matrix = byConfig(results, kBenchmarks.size());
    std::printf("%-24s %16s %16s\n", "configuration", "avgEffFetch",
                "avgMispredRate");
    const double n = static_cast<double>(kBenchmarks.size());
    for (std::size_t v = 0; v < kLabels.size(); ++v) {
        const Results &row = matrix[v];
        std::printf("%-24s %16.2f %15.2f%%\n", kLabels[v],
                    sumOf(row, &sim::SimResult::effectiveFetchRate) / n,
                    100 * sumOf(row, &sim::SimResult::condMispredictRate) / n);
    }
    return 0;
}

} // namespace predictor

// Ablation: static vs dynamic branch promotion. The paper's section 4
// notes promotion "can be done statically as well": no warm-up and
// better coverage of irregular-but-biased branches, at the cost of
// missing input-dependent bias changes. The static set here comes
// from an architectural profiling pass (profileStronglyBiased).
namespace static_promotion
{

const std::vector<std::string> kBenchmarks = {"gcc", "compress", "vortex",
                                              "tex"};
const std::vector<const char *> kLabels = {
    "baseline (none)", "dynamic t=64", "static (profiled)",
    "static + dynamic"};

/** Variant-major, like exhibitUnits; the static promotion sets depend
 * on the benchmark's profile, so each unit is built on its own. */
std::vector<WorkUnit>
plan()
{
    std::vector<std::vector<sim::ProcessorConfig>> configs(kLabels.size());
    for (const std::string &bench : kBenchmarks) {
        const auto promotions =
            workload::profileStronglyBiased(programFor(bench), 400000);
        sim::ProcessorConfig static_only = sim::promotionConfig(64);
        static_only.name = "static-promotion";
        static_only.fillUnit.promotion = false;
        static_only.fillUnit.staticPromotion = true;
        static_only.fillUnit.staticPromotions = promotions;
        sim::ProcessorConfig both = sim::promotionConfig(64);
        both.name = "static+dynamic";
        both.fillUnit.staticPromotion = true;
        both.fillUnit.staticPromotions = promotions;
        configs[0].push_back(sim::baselineConfig());
        configs[1].push_back(sim::promotionConfig(64));
        configs[2].push_back(static_only);
        configs[3].push_back(both);
    }
    std::vector<WorkUnit> units;
    for (const std::vector<sim::ProcessorConfig> &variant : configs) {
        for (std::size_t b = 0; b < kBenchmarks.size(); ++b) {
            units.push_back(
                exhibitUnits({kBenchmarks[b]}, {variant[b]}).front());
        }
    }
    return units;
}

int
render(const Results &results)
{
    printBanner("Ablation", "Static vs dynamic branch promotion");

    std::printf("%-26s %13s %12s %10s %12s\n", "configuration",
                "avgEffFetch", "mispred%", "faults", "promotedRet");
    const auto matrix = byConfig(results, kBenchmarks.size());
    const double n = static_cast<double>(kBenchmarks.size());
    for (std::size_t v = 0; v < kLabels.size(); ++v) {
        const Results &row = matrix[v];
        std::printf("%-26s %13.2f %11.2f%% %10.0f %12.0f\n", kLabels[v],
                    sumOf(row, &sim::SimResult::effectiveFetchRate) / n,
                    100 * sumOf(row, &sim::SimResult::condMispredictRate) / n,
                    sumOf(row, &sim::SimResult::promotedFaults) / n,
                    sumOf(row, &sim::SimResult::promotedRetired) / n);
    }
    return 0;
}

} // namespace static_promotion

// Ablation: trace-cache size vs packing regulation. The paper's
// section 5 argues that redundancy-regulation techniques become
// crucial when the fetch mechanism is smaller than the modeled 128 KB:
// unregulated packing's replication should hurt most at small sizes,
// with cost regulation closing the gap.
namespace tc_size
{

const std::vector<std::string> kBenchmarks = {"gcc", "go", "tex",
                                              "vortex"};
const std::vector<std::uint32_t> kSizes = {256, 512, 1024, 2048};

const std::vector<const char *> kLabels = {
    "promotion-only", "promo+unregulated", "promo+cost-reg"};

/** The fill policies, in kLabels order. */
std::vector<sim::ProcessorConfig>
variants()
{
    return {sim::promotionConfig(64),
            sim::promotionPackingConfig(64,
                                        trace::PackingPolicy::Unregulated),
            sim::promotionPackingConfig(
                64, trace::PackingPolicy::CostRegulated)};
}

std::vector<WorkUnit>
plan()
{
    std::vector<sim::ProcessorConfig> configs;
    for (const std::uint32_t segments : kSizes) {
        for (sim::ProcessorConfig config : variants()) {
            config.traceCache.numSegments = segments;
            config.name += "+segs" + std::to_string(segments);
            configs.push_back(config);
        }
    }
    return exhibitUnits(kBenchmarks, configs);
}

int
render(const Results &results)
{
    printBanner("Ablation",
                "Trace-cache size vs packing regulation (paper section "
                "5's small-cache claim)");

    const auto matrix = byConfig(results, kBenchmarks.size());
    std::printf("%-10s", "segments");
    for (const char *label : kLabels)
        std::printf("%20s", label);
    std::printf("\n");

    for (std::size_t s = 0; s < kSizes.size(); ++s) {
        std::printf("%-10u", kSizes[s]);
        for (std::size_t v = 0; v < kLabels.size(); ++v) {
            std::printf("%20.2f", sumOf(matrix[s * kLabels.size() + v],
                                        &sim::SimResult::effectiveFetchRate) /
                                      kBenchmarks.size());
        }
        std::printf("\n");
    }
    std::printf("\n(The paper predicts the unregulated column loses its "
                "edge at small sizes.)\n");
    return 0;
}

} // namespace tc_size

// Server-class front-end exhibit: the paper's promotion + packing
// deltas re-measured on the server workload profiles (huge code
// footprint, deep call chains, indirect-branch-dense dispatch loops,
// trap density) beside a desktop reference group from the SPEC-like
// suite. The question the exhibit answers: how do the paper's
// trace-cache gains shift once the instruction footprint blows past
// the icache and the fill unit sees dispatch-driven path diversity?
//
// For each group it reports the front-end numbers the paper's story
// rests on — effective fetch rate, trace-cache hit ratio, icache
// misses per kilo-instruction, conditional mispredict rate, IPC —
// under the icache / baseline / promo+pack configurations, and the
// promo+pack-vs-baseline percentage delta per benchmark so the
// desktop-vs-server shift is a single row comparison.
namespace server
{

const std::vector<std::string> kDesktop = {"compress", "go", "gcc", "li"};
const std::vector<std::string> kServer = {"server-oltp", "server-web",
                                          "server-cache"};

/** Both groups, desktop first. */
std::vector<std::string>
benchmarks()
{
    std::vector<std::string> names = kDesktop;
    names.insert(names.end(), kServer.begin(), kServer.end());
    return names;
}

void
printRow(const std::string &label, const std::vector<double> &values,
         int precision)
{
    std::printf("%-26s", label.c_str());
    double sum = 0.0;
    for (const double value : values) {
        std::printf("%9.*f", precision, value);
        sum += value;
    }
    std::printf("%9.*f\n", precision,
                values.empty() ? 0.0 : sum / values.size());
}

std::vector<WorkUnit>
plan()
{
    return exhibitUnits(benchmarks(),
                        {sim::icacheConfig(), sim::baselineConfig(),
                         sim::promotionPackingConfig(
                             64, trace::PackingPolicy::CostRegulated)});
}

int
render(const Results &results)
{
    printBanner("Server front end",
                "promotion+packing deltas under server-class footprint "
                "pressure");

    const std::vector<std::string> names = benchmarks();
    const auto rows = byConfig(results, names.size());

    std::printf("%-26s", "metric / config");
    for (const std::string &bench : names)
        std::printf("%9s", shortName(bench).c_str());
    std::printf("%9s\n", "avg");

    const auto fetch_rate = &sim::SimResult::effectiveFetchRate;
    const auto ipc = &sim::SimResult::ipc;
    const auto tc_hit = [](const sim::SimResult &r) {
        return r.tcLookups != 0
                   ? 100.0 * (static_cast<double>(r.tcHits) / r.tcLookups)
                   : 0.0;
    };
    const auto icache_mpki = [](const sim::SimResult &r) {
        return r.instructions != 0
                   ? 1000.0 * r.icacheMisses / r.instructions
                   : 0.0;
    };
    const auto mispredict = [](const sim::SimResult &r) {
        return 100.0 * r.condMispredictRate;
    };

    printRow("fetch rate icache", metricsOf(rows[0], fetch_rate), 3);
    printRow("fetch rate baseline", metricsOf(rows[1], fetch_rate), 3);
    printRow("fetch rate promo+pack", metricsOf(rows[2], fetch_rate), 3);
    printRow("tc hit % baseline", metricsOf(rows[1], tc_hit), 1);
    printRow("tc hit % promo+pack", metricsOf(rows[2], tc_hit), 1);
    printRow("icache MPKI icache", metricsOf(rows[0], icache_mpki), 2);
    printRow("icache MPKI promo+pack", metricsOf(rows[2], icache_mpki), 2);
    printRow("mispredict % baseline", metricsOf(rows[1], mispredict), 2);
    printRow("mispredict % promo+pack", metricsOf(rows[2], mispredict), 2);
    printRow("ipc baseline", metricsOf(rows[1], ipc), 3);
    printRow("ipc promo+pack", metricsOf(rows[2], ipc), 3);

    // The headline comparison: the promo+pack gain over the plain
    // trace-cache baseline, per benchmark, so the desktop columns and
    // the server columns read side by side.
    const auto delta = [&](double sim::SimResult::*metric) {
        const std::vector<double> base = metricsOf(rows[1], metric);
        const std::vector<double> both = metricsOf(rows[2], metric);
        std::vector<double> change;
        for (std::size_t i = 0; i < base.size(); ++i) {
            change.push_back(base[i] != 0.0
                                 ? 100.0 * (both[i] - base[i]) / base[i]
                                 : 0.0);
        }
        return change;
    };
    const std::vector<double> fr_delta = delta(fetch_rate);
    const std::vector<double> ipc_delta = delta(ipc);
    printRow("fetch-rate delta %", fr_delta, 2);
    printRow("ipc delta %", ipc_delta, 2);

    const auto group_mean = [&](const std::vector<double> &values,
                                std::size_t begin, std::size_t count) {
        double sum = 0.0;
        for (std::size_t i = begin; i < begin + count; ++i)
            sum += values[i];
        return count != 0 ? sum / count : 0.0;
    };
    std::printf("\n");
    std::printf("promo+pack vs baseline, desktop group: "
                "fetch rate %+.2f%%, ipc %+.2f%%\n",
                group_mean(fr_delta, 0, kDesktop.size()),
                group_mean(ipc_delta, 0, kDesktop.size()));
    std::printf("promo+pack vs baseline, server group:  "
                "fetch rate %+.2f%%, ipc %+.2f%%\n",
                group_mean(fr_delta, kDesktop.size(), kServer.size()),
                group_mean(ipc_delta, kDesktop.size(), kServer.size()));
    return 0;
}

} // namespace server

// Automated reproduction check: runs the paper's five configurations
// across the whole suite and verifies the direction (and rough
// magnitude) of every headline claim, printing one PASS/WEAK/FAIL
// line per claim. Its status is the number of failed claims, which
// makes it tcsim_exhibits' exit status and so a gate for the
// reproduction (ctest's exhibits_smoke requires 0 at 20k). Every claim
// is judged at the run's own budget, from the one pass over the
// exhibits' units. The DEVIATION verdict is for a claim with a
// documented, expected artifact.
namespace verify_claims
{

double
mean(const std::vector<double> &values)
{
    return values.empty()
               ? 0.0
               : std::accumulate(values.begin(), values.end(), 0.0) /
                     values.size();
}

std::vector<WorkUnit>
plan()
{
    return exhibitUnits(allBenchmarks(),
                        {sim::icacheConfig(), sim::baselineConfig(),
                         sim::promotionConfig(64), sim::packingConfig(),
                         sim::promotionPackingConfig(64)});
}

int
render(const Results &results)
{
    int failures = 0;
    int deviations = 0;
    const auto claim = [&](const char *text, bool pass, bool strong,
                           double measured, const char *unit,
                           const char *expected_deviation = nullptr) {
        const char *verdict =
            pass ? (strong ? "PASS" : "WEAK") : "FAIL";
        if (!pass) {
            if (expected_deviation != nullptr) {
                verdict = "DEVIATION";
                ++deviations;
            } else {
                ++failures;
            }
        }
        std::printf("[%s] %-64s (measured %.2f%s)\n", verdict, text,
                    measured, unit);
        if (!pass && expected_deviation != nullptr)
            std::printf("            expected deviation: %s\n",
                        expected_deviation);
    };

    printBanner("Verification",
                "Automated trend checks for every headline claim");

    struct Sweep
    {
        std::vector<double> effRate, ipc, faults, preds01, branches;
    };
    const auto sweep = [](const Results &row) {
        Sweep s;
        for (const sim::SimResult &r : row) {
            s.effRate.push_back(r.effectiveFetchRate);
            s.ipc.push_back(r.ipc);
            s.faults.push_back(static_cast<double>(r.promotedFaults));
            s.preds01.push_back(r.fetchesNeeding01);
            s.branches.push_back(static_cast<double>(r.condBranches));
        }
        return s;
    };

    const auto rows = byConfig(results);
    const Sweep icache = sweep(rows[0]);
    const Sweep base = sweep(rows[1]);
    const Sweep promo = sweep(rows[2]);
    const Sweep pack = sweep(rows[3]);
    const Sweep both = sweep(rows[4]);

    // --- Claim 1: the trace cache transforms fetch bandwidth.
    {
        const double ratio = mean(base.effRate) / mean(icache.effRate);
        claim("baseline trace cache fetches >1.5x the icache front end "
              "(paper: 2.1x)",
              ratio > 1.5, ratio > 1.7, ratio, "x");
    }
    // --- Claim 2: promotion raises the fetch rate (paper +7%).
    {
        const double gain =
            100 * (mean(promo.effRate) / mean(base.effRate) - 1);
        claim("promotion raises the effective fetch rate (paper +7%)",
              gain > 2, gain > 4, gain, "%");
    }
    // --- Claim 3: packing raises the fetch rate (paper +7%).
    {
        const double gain =
            100 * (mean(pack.effRate) / mean(base.effRate) - 1);
        claim("packing raises the effective fetch rate (paper +7%)",
              gain > 2, gain > 4, gain, "%");
    }
    // --- Claim 4: both together beat either alone (paper +17%).
    {
        const double gain =
            100 * (mean(both.effRate) / mean(base.effRate) - 1);
        const bool beats_each =
            mean(both.effRate) > mean(promo.effRate) &&
            mean(both.effRate) > mean(pack.effRate);
        claim("promotion+packing beats either alone and gains >10% "
              "(paper +17%)",
              beats_each && gain > 10, beats_each && gain > 14, gain,
              "%");
    }
    // --- Claim 5: superadditivity on at least a few benchmarks.
    {
        int superadditive = 0;
        for (std::size_t i = 0; i < base.effRate.size(); ++i) {
            const double dp = promo.effRate[i] - base.effRate[i];
            const double dk = pack.effRate[i] - base.effRate[i];
            const double db = both.effRate[i] - base.effRate[i];
            superadditive += db > dp + dk;
        }
        claim("gains exceed the sum of parts on some benchmarks "
              "(paper: gcc, chess, plot, ss)",
              superadditive >= 2, superadditive >= 4,
              static_cast<double>(superadditive), " benchmarks");
    }
    // --- Claim 6: promotion removes prediction-bandwidth pressure.
    //     Promotion needs the bias table to observe 64 consecutive
    //     same-direction executions per branch before it fires, so the
    //     shift grows with the budget: 13.3pp at 10k instructions per
    //     benchmark, 17.1 at 20k, 23.2 at 2M.
    {
        const double shift = 100 * (mean(promo.preds01) -
                                    mean(base.preds01));
        claim("promotion shifts fetches into the 0-or-1-prediction "
              "class (paper 54%->85%)",
              shift > 15, shift > 22, shift, "pp");
    }
    // --- Claim 7: promoted-branch faults are rare at threshold 64.
    {
        const double fault_rate =
            100 * mean(promo.faults) / mean(promo.branches);
        claim("promoted-branch faults stay below 1% of branches at "
              "threshold 64",
              fault_rate < 1.0, fault_rate < 0.3, fault_rate, "%");
    }
    // --- Claim 8: the paper's own caveat — fetch gains do not
    //     translate proportionally into IPC on the realistic core.
    {
        const double fetch_gain =
            100 * (mean(both.effRate) / mean(base.effRate) - 1);
        const double ipc_gain =
            100 * (mean(both.ipc) / mean(base.ipc) - 1);
        claim("IPC gain is far below the fetch-rate gain on the "
              "realistic core (paper: +4% vs +17%)",
              ipc_gain < fetch_gain / 2 && ipc_gain > -5,
              ipc_gain < fetch_gain / 3 && ipc_gain > -3,
              ipc_gain, "% IPC");
    }

    std::printf("\n%d claim(s) failed, %d expected deviation(s)\n",
                failures, deviations);
    return failures;
}

} // namespace verify_claims

} // namespace

const std::vector<Exhibit> &
exhibitRegistry()
{
    static const std::vector<Exhibit> registry = {
        {"ablation_bias_table", bias_table::plan, bias_table::render},
        {"ablation_core_window", core_window::plan, core_window::render},
        {"ablation_issue_policies", issue_policies::plan,
         issue_policies::render},
        {"ablation_path_assoc", path_assoc::plan, path_assoc::render},
        {"ablation_predictor", predictor::plan, predictor::render},
        {"ablation_static_promotion", static_promotion::plan,
         static_promotion::render},
        {"ablation_tc_size", tc_size::plan, tc_size::render},
        {"fig10_fetch_rate_all", fig10::plan, fig10::render},
        {"fig11_ipc", fig11::plan, fig11::render},
        {"fig12_cycle_accounting", fig12::plan, fig12::render},
        {"fig13_mispred_cycles", baselineVsPromoPack, fig13::render},
        {"fig14_mispred_count", baselineVsPromoPack, fig14::render},
        {"fig15_resolution_time", baselineVsPromoPack, fig15::render},
        {"fig16_ipc_perfect", fig16::plan, fig16::render},
        {"fig4_fetch_histogram", fig4::plan, fig4::render},
        {"fig6_fetch_histogram_promotion", fig6::plan, fig6::render},
        {"fig7_mispred_change", fig7::plan, fig7::render},
        {"fig9_packing_fetch_rate", fig9::plan, fig9::render},
        {"server_frontend", server::plan, server::render},
        {"table1_benchmarks", table1::plan, table1::render},
        {"table2_promotion_threshold", table2::plan, table2::render},
        {"table3_predictions_per_fetch", table3::plan, table3::render},
        {"table4_packing_regulation", table4::plan, table4::render},
        {"verify_claims", verify_claims::plan, verify_claims::render},
    };
    return registry;
}

PlanUnion
unionOf(const std::vector<std::vector<WorkUnit>> &plans)
{
    PlanUnion all;
    std::map<std::string, std::size_t> by_hash;
    std::map<std::string, std::string> hash_of_id;
    for (const std::vector<WorkUnit> &plan : plans) {
        std::vector<std::size_t> &slots = all.slots.emplace_back();
        for (const WorkUnit &unit : plan) {
            const auto [id, fresh_id] = hash_of_id.emplace(unit.id, unit.hash);
            if (!fresh_id && id->second != unit.hash) {
                fatal("unit id %s names two configs (hashes %s and %s)",
                      unit.id.c_str(), id->second.c_str(),
                      unit.hash.c_str());
            }
            const auto [slot, fresh] =
                by_hash.emplace(unit.hash, all.units.size());
            if (fresh) {
                all.units.push_back(unit);
                all.units.back().index =
                    static_cast<std::uint32_t>(slot->second);
            }
            slots.push_back(slot->second);
        }
    }
    return all;
}

} // namespace tcsim::bench
