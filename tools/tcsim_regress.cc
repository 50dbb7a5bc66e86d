/**
 * @file
 * tcsim_regress: the perf-regression gate for CI.
 *
 * Compares two canonical tcsim-bench-results-v1 documents per
 * (benchmark, config) unit and writes a tcsim-regression-v1 verdict.
 * Simulated metrics (IPC, effective fetch rate, conditional
 * mispredict rate) are deterministic and gated by a plain relative
 * threshold; per-unit wall-clock (optional, from the "timing" section
 * of each run's sweep fragments) is noisy and gated by
 * max(threshold, k × robust sigma) where the sigma is learned from the
 * spread of per-unit deltas.
 *
 *   tcsim_regress --baseline old.json --current new.json
 *     [--baseline-fragments old_frags --current-fragments new_frags]
 *     [--out report.json] [--rel-threshold f] [--wall-threshold f]
 *     [--noise-k f]
 *
 * Exit codes (distinct so CI can tell a regression from a crash):
 *   0  clean — no unit regressed
 *   5  regression detected (or baseline units missing from current)
 *   1  usage error
 *   2  a document could not be read or parsed, or a fragments
 *      directory is absent, holds no valid fragment or holds a
 *      corrupt one
 *   3  the report could not be written
 */

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "bench/sweep.h"
#include "common/atomic_file.h"
#include "common/json.h"
#include "common/parse.h"
#include "obs/regress.h"

namespace
{

using namespace tcsim;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --baseline f --current f\n"
                 "  [--baseline-fragments d --current-fragments d] "
                 "[--out f]\n"
                 "  [--rel-threshold f] [--wall-threshold f] "
                 "[--noise-k f]\n",
                 argv0);
    std::exit(1);
}

std::optional<json::Value>
loadDoc(const std::string &path, const char *what)
{
    std::optional<json::Value> doc = json::parseFile(path);
    if (!doc)
        std::fprintf(stderr, "cannot read or parse %s '%s'\n", what,
                     path.c_str());
    return doc;
}

/** Unit id -> wall seconds from the fragments in @p dir, through the
 * sweep's fragment reader; empty optional (after saying why) when the
 * directory holds a corrupt fragment or no valid one. */
std::optional<obs::WallTimes>
loadWalls(const std::string &dir)
{
    const bench::FragmentDir read = bench::readFragments(dir);
    for (const std::string &path : read.corrupt)
        std::fprintf(stderr, "corrupt fragment: %s\n", path.c_str());
    if (!read.corrupt.empty())
        return std::nullopt;
    if (read.fragments.empty()) {
        std::fprintf(stderr, "no valid fragment in '%s'\n", dir.c_str());
        return std::nullopt;
    }
    obs::WallTimes walls;
    for (const bench::Fragment &fragment : read.fragments)
        walls.emplace(fragment.id, fragment.timing.wallSeconds);
    return walls;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline_path, current_path;
    std::string baseline_fragments, current_fragments;
    std::string out_path = "-";
    obs::RegressOptions options;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--baseline") {
            baseline_path = next();
        } else if (arg == "--current") {
            current_path = next();
        } else if (arg == "--baseline-fragments") {
            baseline_fragments = next();
        } else if (arg == "--current-fragments") {
            current_fragments = next();
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--rel-threshold") {
            options.relThreshold = requireDouble("--rel-threshold", next());
        } else if (arg == "--wall-threshold") {
            options.wallThreshold =
                requireDouble("--wall-threshold", next());
        } else if (arg == "--noise-k") {
            options.noiseK = requireDouble("--noise-k", next());
        } else {
            usage(argv[0]);
        }
    }
    if (baseline_path.empty() || current_path.empty())
        usage(argv[0]);
    if (baseline_fragments.empty() != current_fragments.empty()) {
        std::fprintf(stderr, "--baseline-fragments and --current-fragments "
                             "must be given together\n");
        return 1;
    }

    const std::optional<json::Value> baseline =
        loadDoc(baseline_path, "baseline");
    const std::optional<json::Value> current =
        loadDoc(current_path, "current");
    if (!baseline || !current)
        return 2;
    obs::WallTimes baseline_walls, current_walls;
    if (!baseline_fragments.empty()) {
        std::optional<obs::WallTimes> base = loadWalls(baseline_fragments);
        std::optional<obs::WallTimes> cur = loadWalls(current_fragments);
        if (!base || !cur)
            return 2;
        baseline_walls = std::move(*base);
        current_walls = std::move(*cur);
    }

    std::string error;
    const std::optional<obs::RegressionReport> report =
        obs::compareResults(*baseline, *current, baseline_walls,
                            current_walls, options, &error);
    if (!report) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }

    const std::string rendered =
        obs::renderRegressionReport(*report, options);
    if (!writeFileAtomic(out_path, rendered)) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 3;
    }

    std::size_t regressed_units = 0;
    for (const obs::UnitComparison &unit : report->units)
        regressed_units += unit.regressed ? 1 : 0;
    std::fprintf(stderr,
                 "compared %zu units: %zu regressed, %zu missing from "
                 "current, %zu new (wall band %.4f, sigma %.4f)\n",
                 report->units.size(), regressed_units,
                 report->missingInCurrent.size(),
                 report->missingInBaseline.size(), report->wallBand,
                 report->wallNoiseSigma);
    if (report->regressed) {
        for (const obs::UnitComparison &unit : report->units) {
            if (!unit.regressed)
                continue;
            for (const obs::MetricDelta &metric : unit.metrics) {
                if (metric.regressed) {
                    std::fprintf(stderr,
                                 "REGRESSION %s: %s %.6g -> %.6g "
                                 "(%+.2f%%)\n",
                                 unit.id.c_str(), metric.name.c_str(),
                                 metric.baseline, metric.current,
                                 100.0 * metric.relDelta);
                }
            }
            if (unit.wall && unit.wall->regressed) {
                std::fprintf(stderr,
                             "REGRESSION %s: wall %.3fs -> %.3fs "
                             "(%+.2f%%, band %.2f%%)\n",
                             unit.id.c_str(), unit.wall->baseline,
                             unit.wall->current,
                             100.0 * unit.wall->relDelta,
                             100.0 * report->wallBand);
            }
        }
        for (const std::string &id : report->missingInCurrent)
            std::fprintf(stderr, "REGRESSION coverage: %s missing "
                                 "from current run\n",
                         id.c_str());
        return 5;
    }
    return 0;
}
