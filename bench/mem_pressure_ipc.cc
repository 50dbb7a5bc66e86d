/**
 * @file
 * Memory-pressure addendum to the paper's IPC exhibits (Figures 11 and
 * 16): the same icache / baseline / promotion+packing comparison, but
 * with the contended DRAM backstop enabled — finite bus bandwidth,
 * banked open-row timing, an outstanding-miss limit, and dirty-victim
 * writeback traffic charged where it lands. The paper's substrate is a
 * flat >= 50-cycle memory; this exhibit measures whether the promo+pack
 * IPC deltas (claims 8 and 10 in EXPERIMENTS.md) widen once a wider
 * fetch engine's extra demand has to queue for memory instead of
 * drawing on infinite bandwidth.
 *
 * TCSIM_MEM_BUS_BYTES overrides the bus width (default 4 bytes/cycle —
 * deliberately narrow so an L2 line occupies the bus for 16 cycles and
 * contention is visible at small instruction budgets).
 */

#include <cstdlib>

#include "bench/harness.h"
#include "common/parse.h"

int
main()
{
    using namespace tcsim;
    using namespace tcsim::bench;

    printBanner("Mem pressure",
                "IPC under the contended DRAM model (claims 8/10 addendum)");

    memory::DramParams dram;
    dram.busBytesPerCycle = static_cast<std::uint32_t>(
        envUint("TCSIM_MEM_BUS_BYTES").value_or(4));

    const auto metric = [](const sim::SimResult &r) { return r.ipc; };

    // Realistic engine (Figure 11 shape) under contention.
    const auto results = sweepSuiteConfigs(
        {sim::withContendedMemory(sim::icacheConfig(), dram),
         sim::withContendedMemory(sim::baselineConfig(), dram),
         sim::withContendedMemory(
             sim::promotionPackingConfig(
                 64, trace::PackingPolicy::CostRegulated),
             dram)});
    const std::vector<double> icache = metricsOf(results[0], metric);
    const std::vector<double> base = metricsOf(results[1], metric);
    const std::vector<double> both = metricsOf(results[2], metric);

    printBenchmarkHeader("config");
    printBenchmarkRow("icache+mem", icache);
    printBenchmarkRow("baseline+mem", base);
    printBenchmarkRow("promo,pack+mem", both);
    std::vector<double> change;
    for (std::size_t i = 0; i < base.size(); ++i)
        change.push_back(100.0 * (both[i] - base[i]) / base[i]);
    printBenchmarkRow("both vs baseline %", change, 1);

    // Perfect-disambiguation engine (Figure 16 shape) under contention.
    auto perfect = [&](sim::ProcessorConfig cfg) {
        cfg.disambiguation = sim::Disambiguation::Perfect;
        return sim::withContendedMemory(std::move(cfg), dram);
    };
    const auto results_p = sweepSuiteConfigs(
        {perfect(sim::baselineConfig()),
         perfect(sim::promotionPackingConfig(
             64, trace::PackingPolicy::CostRegulated))});
    const std::vector<double> base_p = metricsOf(results_p[0], metric);
    const std::vector<double> both_p = metricsOf(results_p[1], metric);
    printBenchmarkRow("baseline+mem (perfect)", base_p);
    printBenchmarkRow("promo,pack+mem (perfect)", both_p);
    std::vector<double> change_p;
    for (std::size_t i = 0; i < base_p.size(); ++i)
        change_p.push_back(100.0 * (both_p[i] - base_p[i]) / base_p[i]);
    printBenchmarkRow("both vs baseline % (perfect)", change_p, 1);
    return 0;
}
