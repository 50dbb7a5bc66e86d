/**
 * @file
 * Shared harness for the exhibit binaries: thin queries that build
 * work units, run them through the sweep engine's one fan-out
 * (runUnits, bench/sweep.h) and pick out results, plus fixed-width
 * table printing in the paper's row/series shapes.
 *
 * Environment variables understood by every binary:
 *  - TCSIM_INSTS: per-unit instruction budget (default: each
 *    profile's defaultMaxInsts, 2M).
 *  - TCSIM_WARMUP: warm-up instructions per unit (default 0): measure
 *    [n, n + budget) after simulating [0, n), as `tcsim_sweep
 *    --warmup n` does. Both must be decimal integers.
 *  - TCSIM_JOBS: worker threads for the fan-out (default:
 *    hardware_concurrency); results are bit-identical at any count.
 *  - TCSIM_CACHE_DIR: the artifact cache (bench/artifact_cache.h).
 *  - TCSIM_RESULTS_DIR / TCSIM_RESULTS_JSON: when set, the binary
 *    writes a machine-readable JSON summary of every run (per-run
 *    IPC/fetch-rate, wall-clock, and simulated MIPS — retired
 *    instructions per wall microsecond) at exit — to
 *    "<dir>/<exhibit>.json" or the explicit path respectively.
 *    `run_benches.sh --long` sets TCSIM_INSTS=1000000 for
 *    statistically meaningful sweeps.
 *  - TCSIM_VERIFY_WINDOW_INDEX: when set, the simulator runs the
 *    original O(window) reference scans beside every indexed lookup
 *    (store-order violations, load forwarding/disambiguation,
 *    promoted-fault checkpoints) and asserts agreement per event.
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
 * and share the immutable cached Program. When TCSIM_CACHE_DIR is set,
 * the serialized image is additionally memoized on disk through the
 * content-addressed ArtifactCache, so later processes skip generation.
 */
const workload::Program &programFor(const std::string &name);

/**
 * @return the content key a benchmark's generated program image is
 * cached under: generator version + full profile fingerprint, so any
 * change to either regenerates instead of reusing a stale image.
 */
std::string programArtifactKey(const workload::BenchmarkProfile &profile);

/** @return the units of @p configs x @p benchmarks (config-major),
 * with TCSIM_INSTS and TCSIM_WARMUP applied. */
std::vector<WorkUnit>
exhibitUnits(const std::vector<std::string> &benchmarks,
             const std::vector<sim::ProcessorConfig> &configs);

/** runUnits(), recording each run in the results JSON
 * (TCSIM_RESULTS_DIR / TCSIM_RESULTS_JSON). */
std::vector<sim::SimResult> runExhibit(const std::vector<WorkUnit> &units);

/**
 * Run @p configs x @p benchmarks in one parallel fan-out.
 * @return results indexed [config][benchmark].
 */
std::vector<std::vector<sim::SimResult>>
sweepMatrix(const std::vector<std::string> &benchmarks,
            const std::vector<sim::ProcessorConfig> &configs);

/** Whole-suite convenience: results indexed [config][suite order]. */
std::vector<std::vector<sim::SimResult>>
sweepSuiteConfigs(const std::vector<sim::ProcessorConfig> &configs);

/** Extract one metric per result. */
std::vector<double>
metricsOf(const std::vector<sim::SimResult> &results,
          const std::function<double(const sim::SimResult &)> &metric);

/** Run one (benchmark, config) pair to its budget (recorded + timed). */
sim::SimResult runOne(const std::string &benchmark,
                      const sim::ProcessorConfig &config);

/** Short column label for a benchmark (paper-style). */
std::string shortName(const std::string &benchmark);

/** All benchmark names in suite order. */
std::vector<std::string> allBenchmarks();

/** Print a table header: first column @p row_label then benchmarks. */
void printBenchmarkHeader(const std::string &row_label);

/** Print one row of per-benchmark values plus the arithmetic mean. */
void printBenchmarkRow(const std::string &label,
                       const std::vector<double> &values, int precision = 2);

/**
 * Run @p config across the whole suite (in parallel on the shared
 * pool) and return one value per benchmark via @p metric.
 */
std::vector<double>
sweepSuite(const sim::ProcessorConfig &config,
           const std::function<double(const sim::SimResult &)> &metric);

/** Banner identifying which paper exhibit a binary regenerates. */
void printBanner(const std::string &exhibit, const std::string &what);

} // namespace tcsim::bench

#endif // TCSIM_BENCH_HARNESS_H
