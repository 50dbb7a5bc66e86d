#include "bench/harness.h"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "bench/artifact_cache.h"
#include "common/fnv.h"
#include "common/log.h"
#include "common/parse.h"
#include "workload/serialize.h"

namespace tcsim::bench
{

namespace
{

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
                // failure means a same-version format change (a bug).
                // loadProgram rejects such an image like any corrupt
                // one, and the program is generated afresh below.
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

double
sumOf(const std::vector<sim::SimResult> &results,
      const std::function<double(const sim::SimResult &)> &metric)
{
    double sum = 0;
    for (const sim::SimResult &result : results)
        sum += metric(result);
    return sum;
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

std::vector<std::vector<sim::SimResult>>
byConfig(const std::vector<sim::SimResult> &results, std::size_t benchmarks)
{
    std::vector<std::vector<sim::SimResult>> rows;
    for (auto row = results.begin(); row != results.end();
         row += static_cast<std::ptrdiff_t>(benchmarks))
        rows.emplace_back(row, row + static_cast<std::ptrdiff_t>(benchmarks));
    return rows;
}

std::vector<double>
percentChange(const std::vector<double> &base,
              const std::vector<double> &other)
{
    std::vector<double> change;
    for (std::size_t i = 0; i < base.size(); ++i)
        change.push_back(100.0 * (other[i] - base[i]) / base[i]);
    return change;
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
