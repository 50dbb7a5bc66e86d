/**
 * @file
 * The perf-regression gate: compare two canonical
 * "tcsim-bench-results-v1" documents per (benchmark, config) unit and
 * emit a "tcsim-regression-v1" verdict for CI.
 *
 * Two kinds of comparison, with different noise models:
 *
 *  - Simulated metrics (IPC, effective fetch rate, conditional
 *    mispredict rate) are DETERMINISTIC: the same code on the same
 *    matrix reproduces them bit for bit, so any delta is a real
 *    behavioral change. They are gated by a plain configurable
 *    relative threshold, direction-aware (an IPC gain is reported but
 *    never fails the gate; an IPC loss beyond the threshold does).
 *
 *  - Host wall-clock per unit (optional; tcsim_regress reads it from
 *    the "timing" section of each run's sweep fragments) is NOISY:
 *    the gate learns a noise band from the spread of per-unit
 *    relative deltas (robust sigma via median absolute deviation) and
 *    flags only shifts that clear both the configured threshold and
 *    the learned band. A zero-variance sample (e.g. a self-compare)
 *    degenerates to the plain threshold.
 *
 * Units are matched by id
 * ("<benchmark>@<config>@<insts>[@replay]"),
 * not content hash — hashes fold in config/generator fingerprints and
 * legitimately change across commits, which is exactly when you want
 * to compare. A unit present in the baseline but missing from the
 * current run fails the gate (silent coverage loss); a unit new in
 * the current run is reported but passes.
 */

#ifndef TCSIM_OBS_REGRESS_H
#define TCSIM_OBS_REGRESS_H

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tcsim::json
{
class Value;
}

namespace tcsim::obs
{

/** Per-unit host wall-clock seconds, by unit id. */
using WallTimes = std::map<std::string, double>;

struct RegressOptions
{
    /** Relative threshold for deterministic simulated metrics. */
    double relThreshold = 0.01;
    /** Relative threshold for per-unit wall-clock comparisons. */
    double wallThreshold = 0.20;
    /** Width of the learned noise band, in robust sigmas. */
    double noiseK = 3.0;
};

/** One metric compared across the two runs. */
struct MetricDelta
{
    std::string name;
    double baseline = 0.0;
    double current = 0.0;
    /** (current - baseline) / |baseline|; 0 when baseline is 0 and
     * current is 0, +/-1 when only the baseline is 0. */
    double relDelta = 0.0;
    bool regressed = false;
};

/** One (benchmark, config) unit matched across the two runs. */
struct UnitComparison
{
    std::string id;
    std::string benchmark;
    std::string config;
    std::vector<MetricDelta> metrics;
    /** Wall-clock delta; present only when both runs' wall times had
     * the unit. */
    std::optional<MetricDelta> wall;
    bool regressed = false;
};

struct RegressionReport
{
    std::vector<UnitComparison> units;
    /** Unit ids in the current run with no baseline counterpart
     * (new coverage; reported, does not fail the gate). */
    std::vector<std::string> missingInBaseline;
    /** Unit ids in the baseline absent from the current run
     * (coverage loss; fails the gate). */
    std::vector<std::string> missingInCurrent;
    /** Robust sigma of per-unit relative wall deltas (0 when no
     * wall times were supplied or the sample had no spread). */
    double wallNoiseSigma = 0.0;
    /** Effective wall gate: max(wallThreshold, noiseK * sigma). */
    double wallBand = 0.0;
    bool regressed = false;
};

/**
 * Compare @p current against @p baseline (both parsed
 * tcsim-bench-results-v1 documents). @p baseline_walls /
 * @p current_walls supply per-unit wall-clock; a unit missing from
 * either (both empty: every unit) gets no wall comparison.
 * @return empty optional when either document is malformed, with
 * @p error set.
 */
std::optional<RegressionReport>
compareResults(const json::Value &baseline, const json::Value &current,
               const WallTimes &baseline_walls,
               const WallTimes &current_walls,
               const RegressOptions &options, std::string *error);

/** Render @p report as a "tcsim-regression-v1" JSON document. */
std::string renderRegressionReport(const RegressionReport &report,
                                   const RegressOptions &options);

/** Robust sigma of @p deltas: 1.4826 × median absolute deviation
 * from the median. 0 for fewer than 2 samples or no spread. */
double robustSigma(const std::vector<double> &deltas);

} // namespace tcsim::obs

#endif // TCSIM_OBS_REGRESS_H
