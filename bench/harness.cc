#include "bench/harness.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "bench/artifact_cache.h"
#include "bench/thread_pool.h"
#include "common/fnv.h"
#include "common/json.h"
#include "common/log.h"
#include "common/parse.h"
#include "workload/serialize.h"

namespace tcsim::bench
{

namespace
{

using Clock = std::chrono::steady_clock;

// ----------------------------------------------------------------------
// Machine-readable results (BENCH_results.json fragments).
// ----------------------------------------------------------------------

std::string
exhibitName()
{
#ifdef __GLIBC__
    return program_invocation_short_name;
#else
    return "exhibit";
#endif
}

/** A run's result and wall-clock seconds. */
using RecordedRun = std::pair<sim::SimResult, double>;

/**
 * Write @p runs as this exhibit's JSON summary to TCSIM_RESULTS_JSON,
 * or "<TCSIM_RESULTS_DIR>/<exhibit>.json"; no-op when neither is set.
 */
void
writeResultsJson(const std::vector<RecordedRun> &runs, double wall_seconds)
{
    std::string path;
    if (const char *json_path = std::getenv("TCSIM_RESULTS_JSON"))
        path = json_path;
    else if (const char *dir = std::getenv("TCSIM_RESULTS_DIR"))
        path = std::string(dir) + "/" + exhibitName() + ".json";
    if (path.empty())
        return;
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "warn: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(out,
                 "{\"exhibit\":\"%s\",\"wall_seconds\":%.3f,"
                 "\"jobs\":%u,\"runs\":[",
                 json::escape(exhibitName()).c_str(), wall_seconds,
                 defaultJobCount());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &[run, wall] = runs[i];
        // Simulated instructions per wall microsecond.
        const double sim_mips =
            wall > 0.0 ? static_cast<double>(run.instructions) / (wall * 1e6)
                       : 0.0;
        std::fprintf(
            out,
            "%s{\"benchmark\":\"%s\",\"config\":\"%s\","
            "\"instructions\":%llu,\"cycles\":%llu,\"ipc\":%.6f,"
            "\"effective_fetch_rate\":%.6f,"
            "\"cond_mispredict_rate\":%.6f,\"wall_seconds\":%.3f,"
            "\"sim_mips\":%.3f}",
            i == 0 ? "" : ",", json::escape(run.benchmark).c_str(),
            json::escape(run.config).c_str(),
            static_cast<unsigned long long>(run.instructions),
            static_cast<unsigned long long>(run.cycles), run.ipc,
            run.effectiveFetchRate, run.condMispredictRate, wall, sim_mips);
    }
    std::fprintf(out, "]}\n");
    std::fclose(out);
}

/** @return TCSIM_INSTS, which must be a positive integer when set. */
std::optional<std::uint64_t>
envBudget()
{
    const std::optional<std::uint64_t> insts = envUint("TCSIM_INSTS");
    if (insts == 0u)
        fatal("TCSIM_INSTS: the budget must be positive");
    return insts;
}

} // namespace

std::uint64_t
instBudget(const workload::BenchmarkProfile &profile)
{
    return envBudget().value_or(profile.defaultMaxInsts);
}

std::string
programArtifactKey(const workload::BenchmarkProfile &profile)
{
    std::string key = "program:v";
    key += std::to_string(workload::kGeneratorVersion);
    key += ':';
    key += profile.name;
    key += ":profile=";
    key += hashHex(workload::profileFingerprint(profile));
    return key;
}

const workload::Program &
programFor(const std::string &name)
{
    // Each benchmark is generated exactly once; the cache entry is
    // created under the map mutex and populated under its own
    // call_once so concurrent requests for different benchmarks
    // generate in parallel while requests for the same benchmark
    // block until it is ready.
    struct CacheEntry
    {
        std::once_flag once;
        std::unique_ptr<workload::Program> program;
    };
    static std::mutex cache_mutex;
    static std::map<std::string, CacheEntry> cache;

    CacheEntry *entry;
    {
        std::lock_guard<std::mutex> lock(cache_mutex);
        entry = &cache[name];
    }
    std::call_once(entry->once, [&] {
        const workload::BenchmarkProfile &profile =
            workload::findProfile(name);
        ArtifactCache &artifacts = ArtifactCache::process();
        if (artifacts.enabled()) {
            const std::string key = programArtifactKey(profile);
            if (std::optional<std::string> image =
                    artifacts.load("program", key)) {
                std::istringstream is(*image);
                // The payload passed the cache checksum, so a parse
                // failure means a same-version format change — a bug
                // loadProgram reports fatally; fall through only on a
                // short stream.
                if (std::optional<workload::Program> loaded =
                        workload::loadProgram(is)) {
                    entry->program = std::make_unique<workload::Program>(
                        std::move(*loaded));
                    return;
                }
            }
            workload::Program generated =
                workload::generateProgram(profile);
            std::ostringstream image;
            if (workload::saveProgram(generated, image))
                artifacts.store("program", key, std::move(image).str());
            entry->program = std::make_unique<workload::Program>(
                std::move(generated));
            return;
        }
        entry->program = std::make_unique<workload::Program>(
            workload::generateProgram(profile));
    });
    return *entry->program;
}

std::vector<WorkUnit>
exhibitUnits(const std::vector<std::string> &benchmarks,
             const std::vector<sim::ProcessorConfig> &configs)
{
    SweepOptions options;
    options.benchmarks = benchmarks;
    options.configs = configs;
    // Unset, 0 makes enumerateUnits use each profile's default budget.
    options.insts = envBudget().value_or(0);
    options.warmup = envUint("TCSIM_WARMUP").value_or(0);
    return enumerateUnits(options);
}

std::vector<sim::SimResult>
runExhibit(const std::vector<WorkUnit> &units)
{
    // Every run of this process so far; exhibits fan out from their
    // main thread, and runUnits serializes the callbacks.
    static std::vector<RecordedRun> runs;
    static const Clock::time_point start = Clock::now();
    std::vector<sim::SimResult> results = runUnits(
        units, [](std::size_t, const sim::SimResult &result,
                  const UnitTiming &timing) {
            runs.emplace_back(result, timing.wallSeconds);
        });
    writeResultsJson(
        runs, std::chrono::duration<double>(Clock::now() - start).count());
    return results;
}

std::vector<std::vector<sim::SimResult>>
sweepMatrix(const std::vector<std::string> &benchmarks,
            const std::vector<sim::ProcessorConfig> &configs)
{
    const std::vector<sim::SimResult> flat =
        runExhibit(exhibitUnits(benchmarks, configs));
    std::vector<std::vector<sim::SimResult>> results(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        results[c].assign(flat.begin() + c * benchmarks.size(),
                          flat.begin() + (c + 1) * benchmarks.size());
    }
    return results;
}

std::vector<std::vector<sim::SimResult>>
sweepSuiteConfigs(const std::vector<sim::ProcessorConfig> &configs)
{
    return sweepMatrix(allBenchmarks(), configs);
}

std::vector<double>
metricsOf(const std::vector<sim::SimResult> &results,
          const std::function<double(const sim::SimResult &)> &metric)
{
    std::vector<double> values;
    values.reserve(results.size());
    for (const sim::SimResult &result : results)
        values.push_back(metric(result));
    return values;
}

sim::SimResult
runOne(const std::string &benchmark, const sim::ProcessorConfig &config)
{
    return sweepMatrix({benchmark}, {config}).front().front();
}

std::string
shortName(const std::string &benchmark)
{
    static const std::map<std::string, std::string> shorts = {
        {"compress", "comp"},     {"m88ksim", "m88k"},
        {"vortex", "vor"},        {"gnuchess", "ch"},
        {"ghostscript", "gs"},    {"gnuplot", "plot"},
        {"python", "py"},         {"sim-outorder", "ss"},
        {"server-oltp", "oltp"},  {"server-web", "web"},
        {"server-cache", "kvc"},
    };
    const auto it = shorts.find(benchmark);
    return it != shorts.end() ? it->second : benchmark;
}

std::vector<std::string>
allBenchmarks()
{
    std::vector<std::string> names;
    for (const auto &profile : workload::benchmarkSuite())
        names.push_back(profile.name);
    return names;
}

void
printBenchmarkHeader(const std::string &row_label)
{
    std::printf("%-26s", row_label.c_str());
    for (const std::string &bench : allBenchmarks())
        std::printf("%7s", shortName(bench).c_str());
    std::printf("%7s\n", "avg");
}

void
printBenchmarkRow(const std::string &label,
                  const std::vector<double> &values, int precision)
{
    std::printf("%-26s", label.c_str());
    double sum = 0;
    for (const double value : values) {
        std::printf("%7.*f", precision, value);
        sum += value;
    }
    std::printf("%7.*f\n", precision,
                values.empty() ? 0.0 : sum / values.size());
    std::fflush(stdout);
}

std::vector<double>
sweepSuite(const sim::ProcessorConfig &config,
           const std::function<double(const sim::SimResult &)> &metric)
{
    return metricsOf(sweepSuiteConfigs({config}).front(), metric);
}

void
printBanner(const std::string &exhibit, const std::string &what)
{
    std::printf("==============================================================================\n");
    std::printf("%s: %s\n", exhibit.c_str(), what.c_str());
    std::printf("(Patel, Evers, Patt, ISCA 1998 -- reproduced on synthetic workloads;\n");
    std::printf(" absolute numbers differ from the paper, shapes should match. See\n");
    std::printf(" EXPERIMENTS.md. Scale with TCSIM_INSTS=<n>, fan out with TCSIM_JOBS=<n>.)\n");
    std::printf("==============================================================================\n");
    std::fflush(stdout);
}

} // namespace tcsim::bench
