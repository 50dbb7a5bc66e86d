/**
 * @file
 * Automated reproduction check: runs the paper's five configurations
 * across the whole suite and verifies the direction (and rough
 * magnitude) of every headline claim, printing one PASS/WEAK/FAIL
 * line per claim. Exit status is the number of failed claims, so this
 * doubles as a CI gate for the reproduction.
 *
 * Claims that need a larger instruction budget than the current run's
 * (claim 6: bias-table training) are re-measured at representative
 * scale through the sampled-execution pipeline instead of being
 * waved off as expected deviations: the verdict line is then labeled
 * "(sampled @4M)". The DEVIATION verdict remains for any future claim
 * with a documented, expected artifact that cannot be re-measured.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench/harness.h"
#include "bench/sweep.h"

namespace
{

using namespace tcsim;
using namespace tcsim::bench;

double
mean(const std::vector<double> &values)
{
    return values.empty()
               ? 0.0
               : std::accumulate(values.begin(), values.end(), 0.0) /
                     values.size();
}

int failures = 0;
int deviations = 0;

void
claim(const char *text, bool pass, bool strong, double measured,
      const char *unit, const char *expected_deviation = nullptr)
{
    const char *verdict = pass ? (strong ? "PASS" : "WEAK") : "FAIL";
    if (!pass) {
        if (expected_deviation != nullptr) {
            verdict = "DEVIATION";
            ++deviations;
        } else {
            ++failures;
        }
    }
    std::printf("[%s] %-64s (measured %.2f%s)\n", verdict, text, measured,
                unit);
    if (!pass && expected_deviation != nullptr)
        std::printf("            expected deviation: %s\n",
                    expected_deviation);
    std::fflush(stdout);
}

} // namespace

int
main()
{
    printBanner("Verification",
                "Automated trend checks for every headline claim");

    struct Sweep
    {
        std::vector<double> effRate, ipc, mispredicts, faults, preds01;
        std::vector<double> branches;
    };
    const auto sweep = [](const std::vector<sim::SimResult> &results) {
        Sweep s;
        for (const sim::SimResult &r : results) {
            s.effRate.push_back(r.effectiveFetchRate);
            s.ipc.push_back(r.ipc);
            s.mispredicts.push_back(
                static_cast<double>(r.condMispredicts));
            s.faults.push_back(static_cast<double>(r.promotedFaults));
            s.preds01.push_back(r.fetchesNeeding01);
            s.branches.push_back(static_cast<double>(r.condBranches));
        }
        return s;
    };

    const auto results = sweepSuiteConfigs(
        {sim::icacheConfig(), sim::baselineConfig(),
         sim::promotionConfig(64), sim::packingConfig(),
         sim::promotionPackingConfig(64)});
    const Sweep icache = sweep(results[0]);
    const Sweep base = sweep(results[1]);
    const Sweep promo = sweep(results[2]);
    const Sweep pack = sweep(results[3]);
    const Sweep both = sweep(results[4]);

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
    {
        const double shift = 100 * (mean(promo.preds01) -
                                    mean(base.preds01));
        // Promotion needs the bias table to observe 64 consecutive
        // same-direction executions per branch before it fires, so
        // this claim only converges at millions of instructions
        // (measured +25pp at 4M); short training budgets undershoot.
        std::uint64_t min_budget = ~std::uint64_t{0};
        for (const auto &profile : workload::benchmarkSuite())
            min_budget = std::min(min_budget, instBudget(profile));
        if (shift > 15 || min_budget >= 4'000'000) {
            claim("promotion shifts fetches into the 0-or-1-prediction "
                  "class (paper 54%->85%)",
                  shift > 15, shift > 22, shift, "pp");
        } else {
            // Representative verdict at training scale: re-measure
            // base vs promotion at 4M instructions through the
            // sampled-execution pipeline (SimPoint regions,
            // warm-started), which converges where the short detailed
            // budget above cannot. Artifacts flow through
            // TCSIM_CACHE_DIR when set, so repeat runs are cheap.
            std::printf("    claim 6 under-trained at %.1fpp; "
                        "re-measuring sampled @4M...\n", shift);
            std::fflush(stdout);
            SweepOptions options;
            options.configs = {sim::baselineConfig(),
                               sim::promotionConfig(64)};
            options.insts = 4'000'000;
            options.warmup = 10'000;
            options.sampled.enabled = true;
            options.sampled.interval = 100'000;
            options.sampled.maxK = 4;
            const std::vector<WorkUnit> units = enumerateUnits(options);
            const std::vector<sim::SimResult> sampled = runUnits(units);
            std::vector<double> base01, promo01;
            for (std::size_t i = 0; i < units.size(); ++i) {
                const sim::SimResult &n = sampled[i];
                std::uint64_t total = 0;
                for (const std::uint64_t count : n.fetchesNeedingPreds)
                    total += count;
                const double frac01 =
                    total == 0 ? 0.0
                               : static_cast<double>(
                                     n.fetchesNeedingPreds[0] +
                                     n.fetchesNeedingPreds[1]) /
                                     static_cast<double>(total);
                (units[i].config.name == "baseline" ? base01 : promo01)
                    .push_back(frac01);
            }
            const double sampled_shift =
                100 * (mean(promo01) - mean(base01));
            claim("promotion shifts fetches into the 0-or-1-prediction "
                  "class (sampled @4M; paper 54%->85%)",
                  sampled_shift > 15, sampled_shift > 22, sampled_shift,
                  "pp");
        }
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
