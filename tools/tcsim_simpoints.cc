/**
 * @file
 * tcsim_simpoints: standalone BBV profiling and simpoint selection.
 *
 * Runs the functional basic-block-vector profile for one benchmark,
 * clusters the intervals with the same deterministic seeded k-means
 * the sweep engine uses, and writes the resulting
 * tcsim-simpoints-v1 plan (and optionally the raw tcsim-bbv-v1
 * profile). Both documents are byte-identical to what a sampled
 * sweep produces internally, and the BBV profile flows through the
 * same content-addressed artifact cache entry, so a later sampled
 * sweep with --cache-dir pointing at the same directory skips the
 * profiling pass entirely.
 *
 *   tcsim_simpoints --bench compress --interval 10000
 *       [--insts n] [--max-k k] [--out plan.json] [--bbv-out bbv.json]
 *       [--cache-dir d]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "bench/artifact_cache.h"
#include "bench/harness.h"
#include "bench/sweep.h"
#include "common/atomic_file.h"
#include "common/fnv.h"
#include "common/parse.h"
#include "obs/bbv.h"
#include "sample/simpoints.h"
#include "workload/profile.h"

namespace
{

using namespace tcsim;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --bench <name> --interval <n> [--insts n]\n"
                 "  [--max-k k] [--out f] [--bbv-out f] [--cache-dir d]\n",
                 argv0);
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench_name, out_path = "-", bbv_out;
    std::uint64_t insts = 0, interval = 0;
    std::uint32_t max_k = 8;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--bench") {
            bench_name = next();
        } else if (arg == "--insts") {
            insts = requireUint("--insts", next());
        } else if (arg == "--interval") {
            interval = requireUint("--interval", next());
        } else if (arg == "--max-k") {
            max_k = static_cast<std::uint32_t>(requireUint(
                "--max-k", next(), std::numeric_limits<std::uint32_t>::max()));
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--bbv-out") {
            bbv_out = next();
        } else if (arg == "--cache-dir") {
            setenv("TCSIM_CACHE_DIR", next(), 1);
        } else {
            usage(argv[0]);
        }
    }
    if (bench_name.empty() || interval == 0 || max_k == 0)
        usage(argv[0]);

    const workload::BenchmarkProfile &profile =
        workload::findProfile(bench_name);
    if (insts == 0)
        insts = profile.defaultMaxInsts;
    if (insts % interval != 0) {
        std::fprintf(stderr,
                     "--interval %llu must divide --insts %llu\n",
                     static_cast<unsigned long long>(interval),
                     static_cast<unsigned long long>(insts));
        return 1;
    }

    const workload::Program &program = bench::programFor(bench_name);
    const std::string bbv_json =
        bench::ArtifactCache::process().getOrCreate(
            "bbv", bench::bbvArtifactKey(profile, insts, interval),
            [&] {
                return sample::profileBbv(program, bench_name, insts,
                                          interval)
                    .toJson();
            });
    const std::optional<obs::BbvDocument> bbv =
        obs::BbvDocument::fromJson(bbv_json);
    if (!bbv) {
        std::fprintf(stderr, "internal error: BBV profile malformed\n");
        return 2;
    }
    if (!bbv_out.empty() && !writeFileAtomic(bbv_out, bbv_json)) {
        std::fprintf(stderr, "cannot write %s\n", bbv_out.c_str());
        return 3;
    }

    const sample::SimpointPlan plan = sample::selectSimpoints(
        *bbv, hashHex(workload::profileFingerprint(profile)), max_k);
    if (!writeFileAtomic(out_path, plan.toJson())) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 3;
    }

    std::fprintf(stderr,
                 "%s: %llu intervals of %llu insts -> k=%u "
                 "representative regions\n",
                 bench_name.c_str(),
                 static_cast<unsigned long long>(bbv->intervals.size()),
                 static_cast<unsigned long long>(interval),
                 plan.k);
    return 0;
}
