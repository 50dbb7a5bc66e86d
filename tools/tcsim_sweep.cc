/**
 * @file
 * tcsim_sweep: the sharded sweep driver.
 *
 * One binary, five modes over the same deterministically enumerated
 * (benchmark, configuration) work-unit matrix:
 *
 *   tcsim_sweep --list
 *       Print every work unit (index, content hash, id) plus the
 *       matrix hash, without simulating.
 *
 *   tcsim_sweep [--shard i/N | --worklist <file>] --fragments-dir <dir>
 *       Worker mode: simulate the selected units (all units when
 *       neither selector is given) and write one atomic "<hash>.json"
 *       fragment per unit.
 *
 *   tcsim_sweep --out <file>
 *       Single-process mode: simulate the whole matrix in-process and
 *       write the canonical tcsim-bench-results-v1 document. Byte-
 *       identical to sharding the same matrix and merging.
 *
 *   tcsim_sweep --merge --fragments-dir <dir> --out <file>
 *       Combine fragments into the canonical results document.
 *       Reports stale/duplicate/corrupt fragments and fails (exit 2)
 *       listing missing units when the matrix is not fully covered.
 *
 *   tcsim_sweep --check --fragments-dir <dir> [--missing-out <file>]
 *       Like --merge but writes nothing: prints the hashes of missing
 *       units to stdout (one per line, consumed by run_benches.sh to
 *       build retry worklists); exit 0 when complete, 2 otherwise.
 *       --missing-out additionally writes those hashes to a file
 *       atomically — a ready-to-use retry worklist.
 *
 * Every simulating mode runs its units on the in-process thread pool
 * (TCSIM_JOBS workers, default all cores) through runUnits, the runner
 * tcsim_exhibits uses too; the documents are identical at any job
 * count.
 *
 * Matrix options (must match between workers and the merger):
 *   --benchmarks a,b,c   subset of the suite (default: all)
 *   --configs x,y        preset names (default: icache, baseline,
 *                        promotion-t64, packing-unregulated,
 *                        promo-pack-unregulated)
 *   --insts <n>          per-unit budget (default: profile default)
 *   --warmup <n>         warm-up instructions (0 = cold start): measure
 *                        [n, n + insts) after simulating [0, n), as
 *                        TCSIM_WARMUP and `tcsim_run --warmup` do
 *   --sampled-interval n SimPoint-style sampled execution: BBV
 *   --sampled-max-k k    interval length (must divide --insts) and the
 *                        k-means cluster-count cap. Both must be given
 *                        together; they add a "@sampled-..." suffix to
 *                        every unit id and fold into the unit hashes.
 *   --replay             drive each unit's front end from a recorded
 *                        tcsim-btrace-v1 control-flow trace instead of
 *                        cycle simulation. The trace is recorded once
 *                        per (benchmark, insts) and cached as a
 *                        "btrace" artifact shared by every config;
 *                        unit ids gain an "@replay" suffix and hashes
 *                        fold the btrace format version. Only
 *                        front-end stats (mispredicts, trace-cache and
 *                        icache activity) are meaningful; cycles stay
 *                        zero. Excludes --warmup and sampled mode.
 *
 * Sampling-error report (single-process only):
 *   --error-out <file>   run the matrix sampled and each unit's window
 *                        [0, insts) cold on the full model, write the
 *                        tcsim-sampling-error-v1 comparison
 *   --error-tolerance f  per-unit IPC / fetch-rate relative-error
 *                        bound (default 0.05); exit 4 when any unit
 *                        exceeds it
 *   --mispredict-tolerance f
 *                        per-unit mispredict-rate ABSOLUTE error bound
 *                        (default 0.08, i.e. 8 percentage points —
 *                        per-region predictor warm-up bias shifts the
 *                        sampled rate by a few points regardless of
 *                        the base rate, so a relative bound diverges
 *                        at long budgets where the rate is smallest)
 *
 * Artifact cache:
 *   --cache-dir <dir>    content-addressed cache for program images
 *                        and the sampled and replay artifacts (also
 *                        via TCSIM_CACHE_DIR)
 *   --no-cache           disable the cache even if the env var is set
 *
 * Diagnostics / testing:
 *   --timing-out <file>  non-canonical timing+cache-stats JSON
 *                        (tcsim-bench-timing-v1)
 *   --die-after <k>      raise SIGKILL once k units have completed
 *                        (and written their fragments), before the
 *                        next one does (crash-recovery testing)
 * Numeric flags take decimal integers (the tolerances: numbers) only.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench/artifact_cache.h"
#include "bench/sweep.h"
#include "common/atomic_file.h"
#include "common/parse.h"

namespace
{

using namespace tcsim;

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--list | --shard i/N | --worklist f | "
                 "--merge | --check]\n"
                 "  [--fragments-dir d] [--out f] "
                 "[--benchmarks a,b] [--configs x,y]\n"
                 "  [--insts n] [--warmup n] "
                 "[--cache-dir d] [--no-cache]\n"
                 "  [--sampled-interval n --sampled-max-k k] [--replay]\n"
                 "  [--error-out f] [--error-tolerance f] "
                 "[--mispredict-tolerance f]\n"
                 "  [--missing-out f] [--timing-out f] [--die-after k]\n",
                 argv0);
    std::exit(1);
}

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

void
printReport(const bench::MergeReport &report)
{
    for (const std::string &file : report.stale)
        std::fprintf(stderr, "stale fragment: %s\n", file.c_str());
    for (const std::string &file : report.duplicates)
        std::fprintf(stderr, "duplicate fragment: %s\n", file.c_str());
    for (const std::string &file : report.corrupt)
        std::fprintf(stderr, "corrupt fragment: %s\n", file.c_str());
    for (const std::string &id : report.missing)
        std::fprintf(stderr, "missing unit: %s\n", id.c_str());
}

void
writeTimingDoc(const std::string &path,
               const std::vector<bench::WorkUnit> &units,
               const std::vector<bench::UnitTiming> &timings,
               double total_seconds)
{
    const bench::ArtifactCacheStats cache =
        bench::ArtifactCache::process().stats();
    std::string out = "{\n";
    out += "  \"schema\": \"tcsim-bench-timing-v1\",\n";
    out += "  \"total_wall_seconds\": " +
           std::to_string(total_seconds) + ",\n";
    out += "  \"cache\": {\n";
    out += "    \"enabled\": ";
    out += bench::ArtifactCache::process().enabled() ? "true" : "false";
    out += ",\n";
    out += "    \"hits\": " + std::to_string(cache.hits) + ",\n";
    out += "    \"misses\": " + std::to_string(cache.misses) + ",\n";
    out += "    \"stores\": " + std::to_string(cache.stores) + ",\n";
    out += "    \"rejected\": " + std::to_string(cache.rejected) + "\n";
    out += "  },\n";
    out += "  \"units\": [\n";
    for (std::size_t i = 0; i < units.size(); ++i) {
        out += "    {\"id\": \"" + units[i].id + "\", ";
        out += "\"hash\": \"" + units[i].hash + "\", ";
        out += "\"wall_seconds\": " +
               std::to_string(timings[i].wallSeconds) + "}";
        out += i + 1 < units.size() ? ",\n" : "\n";
    }
    out += "  ]\n";
    out += "}\n";
    if (!writeFileAtomic(path, out))
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
}

/** --die-after: die the hard way, with no destructors or atexit
 * handlers. */
void
dieNow(long die_after)
{
    std::fprintf(stderr, "--die-after %ld: raising SIGKILL\n", die_after);
    raise(SIGKILL);
}

} // namespace

int
main(int argc, char **argv)
{
    bool list = false, merge = false, check = false;
    unsigned shard_index = 0, shard_count = 0;
    std::string worklist_path, fragments_dir, out_path, timing_out;
    std::string error_out, missing_out;
    double error_tolerance = 0.05;
    double mispredict_tolerance = 0.08;
    long die_after = -1;
    bool no_cache = false;
    bench::SweepOptions options;
    std::vector<std::string> config_names;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--benchmarks") {
            options.benchmarks = splitCommas(next());
        } else if (arg == "--configs") {
            config_names = splitCommas(next());
        } else if (arg == "--insts") {
            options.insts = requireUint("--insts", next());
        } else if (arg == "--warmup") {
            options.warmup = requireUint("--warmup", next());
        } else if (arg == "--sampled-interval") {
            options.sampled.enabled = true;
            options.sampled.interval =
                requireUint("--sampled-interval", next());
        } else if (arg == "--sampled-max-k") {
            options.sampled.enabled = true;
            options.sampled.maxK = static_cast<std::uint32_t>(
                requireUint("--sampled-max-k", next(), kU32Max));
        } else if (arg == "--replay") {
            options.replay = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--merge") {
            merge = true;
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--missing-out") {
            missing_out = next();
        } else if (arg == "--shard") {
            const std::string spec = next();
            const std::size_t slash = spec.find('/');
            const std::optional<std::uint64_t> index =
                parseUint(spec.substr(0, slash), kU32Max);
            const std::optional<std::uint64_t> count =
                slash == std::string::npos
                    ? std::nullopt
                    : parseUint(spec.substr(slash + 1), kU32Max);
            if (!index || !count || *index >= *count) {
                std::fprintf(stderr, "bad --shard '%s' (want i/N)\n",
                             spec.c_str());
                return 1;
            }
            shard_index = static_cast<unsigned>(*index);
            shard_count = static_cast<unsigned>(*count);
        } else if (arg == "--worklist") {
            worklist_path = next();
        } else if (arg == "--fragments-dir") {
            fragments_dir = next();
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--error-out") {
            error_out = next();
        } else if (arg == "--error-tolerance") {
            error_tolerance = requireDouble("--error-tolerance", next());
        } else if (arg == "--mispredict-tolerance") {
            mispredict_tolerance =
                requireDouble("--mispredict-tolerance", next());
        } else if (arg == "--cache-dir") {
            setenv("TCSIM_CACHE_DIR", next(), 1);
        } else if (arg == "--no-cache") {
            no_cache = true;
        } else if (arg == "--timing-out") {
            timing_out = next();
        } else if (arg == "--die-after") {
            die_after = static_cast<long>(requireUint(
                "--die-after", next(),
                std::numeric_limits<long>::max()));
        } else {
            usage(argv[0]);
        }
    }
    if (no_cache)
        unsetenv("TCSIM_CACHE_DIR");
    if (options.sampled.enabled &&
        (options.sampled.interval == 0 || options.sampled.maxK == 0)) {
        std::fprintf(stderr, "--sampled-interval and --sampled-max-k must "
                             "be given together\n");
        return 1;
    }
    if (options.replay && (options.sampled.enabled || options.warmup != 0)) {
        std::fprintf(stderr, "--replay cannot combine with --warmup or "
                             "sampled execution\n");
        return 1;
    }
    for (const std::string &name : config_names) {
        std::optional<sim::ProcessorConfig> config =
            bench::configByName(name);
        if (!config) {
            std::fprintf(stderr, "unknown config '%s'\n", name.c_str());
            return 1;
        }
        options.configs.push_back(std::move(*config));
    }

    if (!error_out.empty() && !options.sampled.enabled) {
        std::fprintf(stderr, "--error-out needs --sampled-interval / "
                             "--sampled-max-k\n");
        return 1;
    }

    const std::vector<bench::WorkUnit> units =
        bench::enumerateUnits(options);

    if (list) {
        std::printf("matrix %s (%zu units)\n",
                    bench::matrixHash(units).c_str(), units.size());
        for (const bench::WorkUnit &unit : units)
            std::printf("%4u  %s  %s\n", unit.index, unit.hash.c_str(),
                        unit.id.c_str());
        return 0;
    }

    if (merge || check) {
        if (fragments_dir.empty()) {
            std::fprintf(stderr, "--%s needs --fragments-dir\n",
                         merge ? "merge" : "check");
            return 1;
        }
        bench::MergeReport report;
        const std::optional<std::string> doc =
            bench::mergeFragments(options, fragments_dir, report);
        printReport(report);
        if (check) {
            // Missing hashes: the launcher's retry worklist, on
            // stdout and (with --missing-out) as a file.
            std::string worklist;
            for (const bench::WorkUnit &unit : units) {
                for (const std::string &id : report.missing) {
                    if (id == unit.id) {
                        std::printf("%s\n", unit.hash.c_str());
                        worklist += unit.hash + "\n";
                    }
                }
            }
            if (!missing_out.empty() &&
                !writeFileAtomic(missing_out, worklist)) {
                std::fprintf(stderr, "cannot write %s\n",
                             missing_out.c_str());
                return 3;
            }
            return report.complete() ? 0 : 2;
        }
        if (!doc)
            return 2;
        if (out_path.empty())
            out_path = "-";
        if (!writeFileAtomic(out_path, *doc)) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 3;
        }
        return 0;
    }

    if (!error_out.empty()) {
        // Calibration mode: run the matrix both sampled and full and
        // report per-unit relative error plus the speedup.
        bool all_within = false;
        const std::string report = bench::samplingErrorReport(
            options, error_tolerance, mispredict_tolerance,
            &all_within);
        if (!writeFileAtomic(error_out, report)) {
            std::fprintf(stderr, "cannot write %s\n", error_out.c_str());
            return 3;
        }
        if (!all_within) {
            std::fprintf(stderr,
                         "sampling error exceeds tolerance %.3f "
                         "(mispredict %.3f)\n",
                         error_tolerance, mispredict_tolerance);
            return 4;
        }
        return 0;
    }

    // Worker / single-process execution modes.
    std::vector<bench::WorkUnit> selected;
    if (shard_count > 0) {
        for (const bench::WorkUnit &unit : units) {
            if (unit.index % shard_count == shard_index)
                selected.push_back(unit);
        }
    } else if (!worklist_path.empty()) {
        std::ifstream in(worklist_path);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n",
                         worklist_path.c_str());
            return 1;
        }
        std::string line;
        while (std::getline(in, line)) {
            while (!line.empty() &&
                   (line.back() == '\r' || line.back() == ' '))
                line.pop_back();
            if (line.empty() || line[0] == '#')
                continue;
            const bench::WorkUnit *found = nullptr;
            for (const bench::WorkUnit &unit : units) {
                if (unit.hash == line || unit.id == line) {
                    found = &unit;
                    break;
                }
            }
            if (found == nullptr) {
                std::fprintf(stderr,
                             "worklist entry '%s' is not in the matrix\n",
                             line.c_str());
                return 1;
            }
            selected.push_back(*found);
        }
    } else {
        selected = units;
    }

    const bool sharded = shard_count > 0 || !worklist_path.empty();
    if (sharded && fragments_dir.empty()) {
        std::fprintf(stderr, "worker modes need --fragments-dir\n");
        return 1;
    }

    if (die_after == 0)
        dieNow(die_after);
    using Clock = std::chrono::steady_clock;
    const Clock::time_point run_start = Clock::now();
    std::vector<bench::UnitTiming> timings(selected.size());
    long completed = 0;
    bool fragment_failed = false;
    const std::vector<sim::SimResult> results = bench::runUnits(
        selected, [&](std::size_t i, const sim::SimResult &result,
                      const bench::UnitTiming &timing) {
            timings[i] = timing;
            if (!fragments_dir.empty() &&
                !bench::writeFragment(fragments_dir, selected[i], result,
                                      timing)) {
                std::fprintf(stderr, "cannot write fragment for %s\n",
                             selected[i].id.c_str());
                fragment_failed = true;
            }
            if (++completed == die_after)
                dieNow(die_after);
        });
    const double total_seconds =
        std::chrono::duration<double>(Clock::now() - run_start).count();
    if (fragment_failed)
        return 3;

    if (!sharded && !out_path.empty()) {
        const std::string doc = bench::renderResultsDoc(units, results);
        if (!writeFileAtomic(out_path, doc)) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 3;
        }
    }
    if (!timing_out.empty())
        writeTimingDoc(timing_out, selected, timings, total_seconds);

    const bench::ArtifactCacheStats cache =
        bench::ArtifactCache::process().stats();
    std::fprintf(stderr,
                 "done: %ld units in %.2fs (cache: %llu hits, %llu "
                 "misses, %llu stores, %llu rejected)\n",
                 completed, total_seconds,
                 static_cast<unsigned long long>(cache.hits),
                 static_cast<unsigned long long>(cache.misses),
                 static_cast<unsigned long long>(cache.stores),
                 static_cast<unsigned long long>(cache.rejected));
    return 0;
}
