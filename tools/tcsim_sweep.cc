/**
 * @file
 * tcsim_sweep: runs, shards and merges the sweep matrix.
 *
 * One binary, three modes over the same deterministically enumerated
 * (benchmark, configuration) work-unit matrix:
 *
 *   tcsim_sweep --list
 *       Print every work unit (index, content hash, id) plus the
 *       matrix hash, without simulating.
 *
 *   tcsim_sweep [--fragments-dir <dir>] [--out <file>]
 *   tcsim_sweep --shard i/N --fragments-dir <dir>
 *       Simulate the matrix, or with --shard every unit whose index is
 *       i mod N. With --fragments-dir, each unit that already has a
 *       valid fragment in <dir> takes its result from it, and every
 *       other unit is simulated and written as one atomic
 *       "<hash>.json" fragment, so running a killed command again
 *       finishes it. --out writes the canonical tcsim-bench-results-v1
 *       document: byte-identical whether every unit was simulated in
 *       this run, some came from <dir>, or the shards were merged.
 *       A fragments directory belongs to one simulator build: unit
 *       hashes cover a unit's inputs, not the code that simulates it.
 *
 *   tcsim_sweep --merge --fragments-dir <dir> [--out <file>]
 *       Combine the shards' fragments into the canonical document
 *       (stdout without --out). Reports stale and corrupt fragments,
 *       and fails (exit 2) listing the missing units when the matrix
 *       is not fully covered.
 *
 * Every simulating mode runs its units on the in-process thread pool
 * (TCSIM_JOBS workers, default all cores) through runUnits, the runner
 * tcsim_exhibits uses too; the documents are identical at any job
 * count. A flag the chosen mode would ignore is an error, and so is a
 * matrix that names one unit twice.
 *
 * Matrix options (must match between shards and the merger):
 *   --benchmarks a,b,c   subset of the suite (default: all)
 *   --configs x,y        preset names (default: icache, baseline,
 *                        promotion-t64, packing-unregulated,
 *                        promo-pack-unregulated)
 *   --insts <n>          per-unit budget (default: profile default)
 *   --warmup <n>         warm-up instructions (0 = cold start): measure
 *                        [n, n + insts) after simulating [0, n), as
 *                        TCSIM_WARMUP and `tcsim_run --warmup` do
 *   --replay             drive each unit's front end from the
 *                        oracle's retired control-flow stream instead
 *                        of cycle simulation: the pass `tcsim_run
 *                        --record-trace` runs, which a replay of its
 *                        btrace reproduces; unit ids gain an "@replay"
 *                        suffix. Only front-end stats (mispredicts,
 *                        trace-cache and icache activity) are
 *                        meaningful; cycles stay zero. Excludes
 *                        --warmup.
 *
 * Numeric flags take decimal integers only.
 * Exit codes: 0 done, 1 usage or matrix error, 2 merge incomplete,
 * 3 an output could not be written.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

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
                 "usage: %s [--list | --shard i/N | --merge]\n"
                 "  [--fragments-dir d] [--out f] "
                 "[--benchmarks a,b] [--configs x,y]\n"
                 "  [--insts n] [--warmup n] [--replay]\n",
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

/** @return whether @p mode (--list or --merge) uses @p flag, one of
 * the mode and output flags. */
bool
modeUses(const std::string &mode, const std::string &flag)
{
    if (flag == mode)
        return true;
    return mode == "--merge" && (flag == "--fragments-dir" || flag == "--out");
}

void
printReport(const bench::MergeReport &report)
{
    for (const std::string &file : report.stale)
        std::fprintf(stderr, "stale fragment: %s\n", file.c_str());
    for (const std::string &file : report.corrupt)
        std::fprintf(stderr, "corrupt fragment: %s\n", file.c_str());
    for (const std::string &id : report.missing)
        std::fprintf(stderr, "missing unit: %s\n", id.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bool list = false, merge = false;
    unsigned shard_index = 0, shard_count = 0;
    std::string fragments_dir, out_path;
    bench::SweepOptions options;
    std::vector<std::string> config_names;
    // The mode and output flags given, in order; the matrix flags
    // apply in every mode.
    std::vector<std::string> given;

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
            // 0 is how the engine says "the profile's default"; given,
            // it is not.
            options.insts = requireUint("--insts", next());
            if (options.insts == 0) {
                std::fprintf(stderr,
                             "--insts: the budget must be positive\n");
                return 1;
            }
        } else if (arg == "--warmup") {
            options.warmup = requireUint("--warmup", next());
        } else if (arg == "--replay") {
            options.replay = true;
        } else if (arg == "--list") {
            list = true;
            given.push_back(arg);
        } else if (arg == "--merge") {
            merge = true;
            given.push_back(arg);
        } else if (arg == "--shard") {
            given.push_back(arg);
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
        } else if (arg == "--fragments-dir") {
            given.push_back(arg);
            fragments_dir = next();
        } else if (arg == "--out") {
            given.push_back(arg);
            out_path = next();
        } else {
            usage(argv[0]);
        }
    }
    // --list and --merge use some of the mode and output flags (a
    // simulating run uses them all); any other one is an error, not
    // silently ignored.
    std::string mode;
    if (list)
        mode = "--list";
    else if (merge)
        mode = "--merge";
    for (const std::string &flag : given) {
        if (!mode.empty() && !modeUses(mode, flag)) {
            std::fprintf(stderr, "%s does not apply with %s\n",
                         flag.c_str(), mode.c_str());
            return 1;
        }
    }
    if (shard_count > 0 && !out_path.empty()) {
        std::fprintf(stderr, "--out does not apply with --shard: merge "
                             "the shards' fragments with --merge\n");
        return 1;
    }
    if ((merge || shard_count > 0) && fragments_dir.empty()) {
        std::fprintf(stderr, "%s needs --fragments-dir\n",
                     merge ? "--merge" : "--shard");
        return 1;
    }
    if (options.replay && options.warmup != 0) {
        std::fprintf(stderr, "--replay cannot combine with --warmup\n");
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

    const std::vector<bench::WorkUnit> units =
        bench::enumerateUnits(options);
    // One hash names one fragment and one merged slot, so a repeated
    // unit would be simulated twice here and missing from a merge.
    std::set<std::string> hashes;
    for (const bench::WorkUnit &unit : units) {
        if (!hashes.insert(unit.hash).second) {
            std::fprintf(stderr, "the matrix names unit %s twice\n",
                         unit.id.c_str());
            return 1;
        }
    }

    if (list) {
        std::printf("matrix %s (%zu units)\n",
                    bench::matrixHash(units).c_str(), units.size());
        for (const bench::WorkUnit &unit : units)
            std::printf("%4u  %s  %s\n", unit.index, unit.hash.c_str(),
                        unit.id.c_str());
        return 0;
    }

    if (merge) {
        bench::MergeReport report;
        const std::optional<std::string> doc =
            bench::mergeFragments(options, fragments_dir, report);
        printReport(report);
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

    std::vector<bench::WorkUnit> shard;
    for (const bench::WorkUnit &unit : units) {
        if (shard_count > 0 && unit.index % shard_count == shard_index)
            shard.push_back(unit);
    }
    using Clock = std::chrono::steady_clock;
    const Clock::time_point run_start = Clock::now();
    const bench::SweepRun run =
        bench::runSweep(shard_count > 0 ? shard : units, fragments_dir);
    const double total_seconds =
        std::chrono::duration<double>(Clock::now() - run_start).count();
    if (!run.fragmentsWritten)
        return 3;
    if (!out_path.empty() &&
        !writeFileAtomic(out_path,
                         bench::renderResultsDoc(units, run.results))) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 3;
    }

    std::fprintf(stderr, "done: %zu units simulated in %.2fs\n",
                 run.simulated.size(), total_seconds);
    return 0;
}
