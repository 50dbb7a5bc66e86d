/**
 * @file
 * Shared harness for the exhibits (bench/exhibits.h): building work
 * units for a plan, reshaping their results and fixed-width table
 * printing in the paper's row/series shapes.
 *
 * Environment variables understood by tcsim_exhibits:
 *  - TCSIM_INSTS: per-unit instruction budget (default: each
 *    profile's defaultMaxInsts, 2M).
 *  - TCSIM_WARMUP: warm-up instructions per unit (default 0): measure
 *    [n, n + budget) after simulating [0, n), as `tcsim_sweep
 *    --warmup n` does. Both must be decimal integers.
 *  - TCSIM_JOBS: worker threads for the fan-out, a decimal integer
 *    from 1 to 1024 (default: hardware_concurrency); results are
 *    bit-identical at any count.
 *  - TCSIM_VERIFY_WINDOW_INDEX: when set, the simulator runs the
 *    original O(window) reference scans beside every indexed lookup
 *    (load forwarding/disambiguation, promoted-fault checkpoints) and
 *    asserts agreement per event.
 */

#ifndef TCSIM_BENCH_HARNESS_H
#define TCSIM_BENCH_HARNESS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/sweep.h"
#include "sim/processor.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace tcsim::bench
{

/** @return the instruction budget for @p profile (env-overridable). */
std::uint64_t instBudget(const workload::BenchmarkProfile &profile);

/**
 * Generate and cache the program for @p name (per-process cache).
 * Thread-safe: concurrent callers generate each benchmark exactly once
 * and share the immutable cached Program.
 */
const workload::Program &programFor(const std::string &name);

/** @return the units of @p configs x @p benchmarks (config-major),
 * with TCSIM_INSTS and TCSIM_WARMUP applied. */
std::vector<WorkUnit>
exhibitUnits(const std::vector<std::string> &benchmarks,
             const std::vector<sim::ProcessorConfig> &configs);

/** Extract one metric per result. */
std::vector<double>
metricsOf(const std::vector<sim::SimResult> &results,
          const std::function<double(const sim::SimResult &)> &metric);

/** @return the sum of @p metric over @p results, in order. */
double sumOf(const std::vector<sim::SimResult> &results,
             const std::function<double(const sim::SimResult &)> &metric);

/** Short column label for a benchmark (paper-style). */
std::string shortName(const std::string &benchmark);

/** All benchmark names in suite order. */
std::vector<std::string> allBenchmarks();

/**
 * @return @p results of exhibitUnits(benchmarks, configs), which come
 * config-major, as one row of @p benchmarks results per config.
 */
std::vector<std::vector<sim::SimResult>>
byConfig(const std::vector<sim::SimResult> &results,
         std::size_t benchmarks = allBenchmarks().size());

/** @return 100 * (other[i] - base[i]) / base[i] for every i. */
std::vector<double> percentChange(const std::vector<double> &base,
                                  const std::vector<double> &other);

/** Print a table header: first column @p row_label then benchmarks. */
void printBenchmarkHeader(const std::string &row_label);

/** Print one row of per-benchmark values plus the arithmetic mean. */
void printBenchmarkRow(const std::string &label,
                       const std::vector<double> &values, int precision = 2);

/** Banner identifying which paper exhibit a section regenerates. */
void printBanner(const std::string &exhibit, const std::string &what);

} // namespace tcsim::bench

#endif // TCSIM_BENCH_HARNESS_H
