#include "bench/sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>

#include "bench/harness.h"
#include "common/atomic_file.h"
#include "common/fnv.h"
#include "common/json.h"
#include "common/log.h"
#include "common/parse.h"
#include "sim/processor.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace tcsim::bench
{

namespace
{

constexpr unsigned kNumCycleCats =
    static_cast<unsigned>(sim::CycleCategory::NumCategories);
constexpr unsigned kNumFetchReasons =
    static_cast<unsigned>(sim::FetchReason::NumReasons);
constexpr unsigned kFetchHistWidth = sim::Accounting::kMaxFetchWidth + 1;

/** The scalar integers of a canonical record, by key; with the three
 * arrays they are everything a SimResult's ratios derive from. */
constexpr std::pair<const char *, std::uint64_t sim::SimResult::*>
    kScalars[] = {
        {"instructions", &sim::SimResult::instructions},
        {"cycles", &sim::SimResult::cycles},
        {"useful_fetches", &sim::SimResult::usefulFetches},
        {"fetched_insts", &sim::SimResult::fetchedInsts},
        {"cond_branches", &sim::SimResult::condBranches},
        {"cond_mispredicts", &sim::SimResult::condMispredicts},
        {"promoted_faults", &sim::SimResult::promotedFaults},
        {"indirect_mispredicts", &sim::SimResult::indirectMispredicts},
        {"resolution_time_sum", &sim::SimResult::resolutionTimeSum},
        {"resolution_time_count", &sim::SimResult::resolutionTimeCount},
        {"tc_lookups", &sim::SimResult::tcLookups},
        {"tc_hits", &sim::SimResult::tcHits},
        {"icache_misses", &sim::SimResult::icacheMisses},
        {"promoted_retired", &sim::SimResult::promotedRetired},
};

/** Hash input of full units with a warm-up: version 1 imported a
 * separate run's predictor state and measured [0, insts); its
 * fragments must be stale, not merged. */
constexpr unsigned kFullWarmupVersion = 2;

/** Hash input of replay units: the btrace format version, 1, that
 * their hashes folded while each unit replayed a recorded trace. The
 * walk reads no trace; the constant keeps their hashes unchanged. */
constexpr std::uint32_t kReplayVersion = 1;

using json::formatDouble;

void
appendArray(std::string &out, const std::uint64_t *values, unsigned count)
{
    out += '[';
    for (unsigned i = 0; i < count; ++i) {
        if (i > 0)
            out += ',';
        out += std::to_string(values[i]);
    }
    out += ']';
}

/**
 * The canonical per-unit record. Every byte of a merged results
 * document's result entries comes from here. Its doubles are the
 * result's ratios, which sim::deriveRatios computes from the integers
 * whether they came from an in-process simulation or were parsed back
 * out of a fragment.
 */
void
appendResultRecord(std::string &out, const WorkUnit &unit,
                   const sim::SimResult &n, const char *indent)
{
    const std::string pad = std::string(indent) + "  ";
    out += "{\n";
    auto kv = [&](const char *key, const std::string &rendered,
                  bool last = false) {
        out += pad;
        out += '"';
        out += key;
        out += "\": ";
        out += rendered;
        if (!last)
            out += ',';
        out += '\n';
    };
    auto num = [&](const char *key, std::uint64_t value) {
        kv(key, std::to_string(value));
    };
    auto dbl = [&](const char *key, double value) {
        kv(key, formatDouble(value));
    };

    kv("benchmark", "\"" + json::escape(unit.benchmark) + "\"");
    kv("config", "\"" + json::escape(unit.config.name) + "\"");
    num("insts", unit.insts);
    num("warmup", unit.warmup);
    if (unit.replay)
        num("replay", 1);
    kv("hash", "\"" + unit.hash + "\"");
    num("instructions", n.instructions);
    num("cycles", n.cycles);
    dbl("ipc", n.ipc);
    num("useful_fetches", n.usefulFetches);
    num("fetched_insts", n.fetchedInsts);
    dbl("effective_fetch_rate", n.effectiveFetchRate);
    num("cond_branches", n.condBranches);
    num("cond_mispredicts", n.condMispredicts);
    num("promoted_faults", n.promotedFaults);
    num("indirect_mispredicts", n.indirectMispredicts);
    dbl("cond_mispredict_rate", n.condMispredictRate);
    num("resolution_time_sum", n.resolutionTimeSum);
    num("resolution_time_count", n.resolutionTimeCount);
    dbl("mean_resolution_time", n.meanResolutionTime);
    {
        std::string rendered;
        appendArray(rendered, n.fetchesNeedingPreds, 4);
        kv("fetches_needing_preds", rendered);
    }
    dbl("fetches_needing_01", n.fetchesNeeding01);
    dbl("fetches_needing_2", n.fetchesNeeding2);
    dbl("fetches_needing_3", n.fetchesNeeding3);
    {
        std::string rendered;
        appendArray(rendered, n.cycleCat, kNumCycleCats);
        kv("cycle_cat", rendered);
    }
    {
        std::string rendered = "[";
        for (unsigned r = 0; r < kNumFetchReasons; ++r) {
            if (r > 0)
                rendered += ',';
            appendArray(rendered, n.fetchHist[r], kFetchHistWidth);
        }
        rendered += ']';
        kv("fetch_hist", rendered);
    }
    num("tc_lookups", n.tcLookups);
    num("tc_hits", n.tcHits);
    dbl("tc_hit_ratio",
        n.tcLookups == 0 ? 0.0
                         : static_cast<double>(n.tcHits) / n.tcLookups);
    num("icache_misses", n.icacheMisses);
    kv("promoted_retired", std::to_string(n.promotedRetired), true);
    out += indent;
    out += '}';
}

/** Parse one canonical counter into @p out: a JSON number whose
 * lexeme is a decimal integer below 2^64 ("-1", "3.75e2" and
 * "18446744073709551616" are not). */
bool
parseCounter(const json::Value *value, std::uint64_t &out)
{
    if (value == nullptr || !value->isNumber())
        return false;
    const std::optional<std::uint64_t> parsed = parseUint(value->asString());
    if (!parsed)
        return false;
    out = *parsed;
    return true;
}

/** Parse one canonical array of counters into @p values; false on
 * shape mismatch or a non-counter item. */
bool
parseArray(const json::Value *array, std::uint64_t *values, unsigned count)
{
    if (array == nullptr || !array->isArray() ||
        array->items().size() != count) {
        return false;
    }
    for (unsigned i = 0; i < count; ++i) {
        if (!parseCounter(&array->items()[i], values[i]))
            return false;
    }
    return true;
}

/** Parse a fragment's "timing" section into @p out: an object holding
 * exactly "wall_seconds", a finite non-negative number. */
bool
parseTiming(const json::Value *timing, UnitTiming &out)
{
    if (timing == nullptr || !timing->isObject() ||
        timing->members().size() != 1) {
        return false;
    }
    const json::Value *wall = timing->find("wall_seconds");
    const std::optional<double> seconds =
        wall != nullptr && wall->isNumber() ? parseDouble(wall->asString())
                                            : std::nullopt;
    if (!seconds || *seconds < 0.0)
        return false;
    out.wallSeconds = *seconds;
    return true;
}

/** Parse a fragment's canonical record back into @p n's integers. */
bool
parseResultRecord(const json::Value &record, sim::SimResult &n)
{
    for (const auto &[key, field] : kScalars) {
        if (!parseCounter(record.find(key), n.*field))
            return false;
    }
    if (!parseArray(record.find("fetches_needing_preds"),
                    n.fetchesNeedingPreds, 4) ||
        !parseArray(record.find("cycle_cat"), n.cycleCat, kNumCycleCats)) {
        return false;
    }
    const json::Value *hist = record.find("fetch_hist");
    if (hist == nullptr || !hist->isArray() ||
        hist->items().size() != kNumFetchReasons) {
        return false;
    }
    for (unsigned r = 0; r < kNumFetchReasons; ++r) {
        if (!parseArray(&hist->items()[r], n.fetchHist[r], kFetchHistWidth))
            return false;
    }
    return true;
}

} // namespace

std::vector<sim::ProcessorConfig>
defaultSweepConfigs()
{
    return {sim::icacheConfig(), sim::baselineConfig(),
            sim::promotionConfig(), sim::packingConfig(),
            sim::promotionPackingConfig()};
}

std::optional<sim::ProcessorConfig>
configByName(const std::string &name)
{
    if (name == "icache")
        return sim::icacheConfig();
    if (name == "baseline")
        return sim::baselineConfig();
    const auto policy_of =
        [](const std::string &text) -> std::optional<trace::PackingPolicy> {
        if (text == "atomic")
            return trace::PackingPolicy::Atomic;
        if (text == "unregulated")
            return trace::PackingPolicy::Unregulated;
        if (text == "n-regulated")
            return trace::PackingPolicy::NRegulated;
        if (text == "cost-regulated")
            return trace::PackingPolicy::CostRegulated;
        return std::nullopt;
    };
    if (name.rfind("promotion-t", 0) == 0) {
        if (auto threshold = sim::parsePromotionThreshold(name.substr(11)))
            return sim::promotionConfig(*threshold);
        return std::nullopt;
    }
    if (name.rfind("packing-", 0) == 0) {
        if (auto policy = policy_of(name.substr(8)))
            return sim::packingConfig(*policy);
        return std::nullopt;
    }
    if (name.rfind("promo-pack-", 0) == 0) {
        if (auto policy = policy_of(name.substr(11)))
            return sim::promotionPackingConfig(64, *policy);
        return std::nullopt;
    }
    return std::nullopt;
}

std::vector<WorkUnit>
enumerateUnits(const SweepOptions &options)
{
    const std::vector<std::string> benchmarks =
        options.benchmarks.empty() ? allBenchmarks() : options.benchmarks;
    const std::vector<sim::ProcessorConfig> configs =
        options.configs.empty() ? defaultSweepConfigs() : options.configs;

    std::vector<WorkUnit> units;
    units.reserve(configs.size() * benchmarks.size());
    for (const sim::ProcessorConfig &config : configs) {
        const std::uint64_t config_fp = sim::configFingerprint(config);
        for (const std::string &benchmark : benchmarks) {
            const workload::BenchmarkProfile &profile =
                workload::findProfile(benchmark);
            WorkUnit unit;
            unit.index = static_cast<std::uint32_t>(units.size());
            unit.benchmark = benchmark;
            unit.config = config;
            unit.insts = options.insts != 0 ? options.insts
                                            : profile.defaultMaxInsts;
            unit.warmup = options.warmup;
            unit.replay = options.replay;
            if (unit.replay && unit.warmup != 0) {
                fatal("replay sweep: --replay is a front-end analysis "
                      "pass and cannot combine with --warmup");
            }
            // executeUnit runs the processor to warmup + insts.
            if (unit.insts > sim::Processor::kMaxRunInsts ||
                unit.warmup > sim::Processor::kMaxRunInsts - unit.insts) {
                fatal("%s: warm-up %llu plus budget %llu exceeds the "
                      "largest run, %llu instructions",
                      benchmark.c_str(),
                      static_cast<unsigned long long>(unit.warmup),
                      static_cast<unsigned long long>(unit.insts),
                      static_cast<unsigned long long>(
                          sim::Processor::kMaxRunInsts));
            }
            unit.id = benchmark + "@" + config.name + "@" +
                      std::to_string(unit.insts);
            if (unit.replay)
                unit.id += "@replay";
            std::uint64_t hash = fnv1a(unit.id);
            hash = fnv1aAppendScalar(hash, workload::kGeneratorVersion);
            hash = fnv1aAppendScalar(
                hash, workload::profileFingerprint(profile));
            hash = fnv1aAppendScalar(hash, config_fp);
            hash = fnv1aAppendScalar(hash, unit.warmup);
            if (unit.warmup > 0)
                hash = fnv1aAppendScalar(hash, kFullWarmupVersion);
            if (unit.replay)
                hash = fnv1aAppendScalar(hash, kReplayVersion);
            unit.hash = hashHex(hash);
            units.push_back(std::move(unit));
        }
    }
    return units;
}

std::string
matrixHash(const std::vector<WorkUnit> &units)
{
    std::uint64_t hash = kFnvOffsetBasis;
    for (const WorkUnit &unit : units)
        hash = fnv1aAppend(hash, unit.hash);
    return hashHex(hash);
}

namespace
{

/** Name @p result after @p unit and derive its ratios. */
sim::SimResult
finishResult(const WorkUnit &unit, sim::SimResult result)
{
    result.benchmark = unit.benchmark;
    result.config = unit.config.name;
    sim::deriveRatios(result);
    return result;
}

/**
 * The replay pipeline for one unit: the oracle-driven control-flow
 * pass (Processor::walkControlFlow) over this config's front end, the
 * pass `tcsim_run --record-trace` runs and a replay of its btrace
 * reproduces. Only front-end counters are meaningful; cycles and the
 * fetch/timing stats stay zero (derived rates over a zero denominator
 * render as 0 in the canonical documents).
 */
sim::SimResult
executeReplayUnit(const WorkUnit &unit)
{
    TCSIM_ASSERT(unit.replay);
    sim::Processor proc(unit.config, programFor(unit.benchmark));
    const sim::Processor::ControlFlowResult r =
        proc.walkControlFlow(unit.insts);

    sim::SimResult n;
    n.instructions = r.instructions;
    n.condBranches = r.condBranches;
    n.condMispredicts = r.condMispredicts;
    n.indirectMispredicts = r.indirectMispredicts;
    n.tcLookups = r.tcLookups;
    n.tcHits = r.tcHits;
    n.icacheMisses = r.icacheMisses;
    return finishResult(unit, std::move(n));
}

} // namespace

sim::SimResult
executeUnit(const WorkUnit &unit)
{
    if (unit.replay)
        return executeReplayUnit(unit);
    sim::Processor proc(unit.config, programFor(unit.benchmark));
    if (unit.warmup > 0) {
        proc.run(unit.warmup);
        proc.resetStats();
    }
    return proc.run(unit.warmup + unit.insts);
}

std::vector<sim::SimResult>
runUnits(const std::vector<WorkUnit> &units, const UnitDone &done,
         ThreadPool &pool)
{
    std::vector<sim::SimResult> results(units.size());
    std::mutex mutex;
    std::size_t finished = 0;
    // Worker i writes only slot i, so unit order is kept however the
    // pool schedules the units.
    parallelFor(
        units.size(),
        [&](std::size_t i) {
            const auto start = std::chrono::steady_clock::now();
            results[i] = executeUnit(units[i]);
            UnitTiming timing;
            timing.wallSeconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - start)
                                     .count();

            std::lock_guard<std::mutex> lock(mutex);
            std::fprintf(stderr, "[%zu/%zu] %s\n", ++finished,
                         units.size(), units[i].id.c_str());
            if (done)
                done(i, results[i], timing);
        },
        pool);
    return results;
}

std::string
renderFragment(const WorkUnit &unit, const sim::SimResult &result,
               const UnitTiming &timing)
{
    std::string out = "{\n";
    out += "  \"schema\": \"tcsim-bench-fragment-v1\",\n";
    out += "  \"unit\": {\n";
    out += "    \"index\": " + std::to_string(unit.index) + ",\n";
    out += "    \"id\": \"" + json::escape(unit.id) + "\",\n";
    out += "    \"hash\": \"" + unit.hash + "\",\n";
    out += "    \"benchmark\": \"" + json::escape(unit.benchmark) + "\",\n";
    out += "    \"config\": \"" + json::escape(unit.config.name) + "\",\n";
    out += "    \"insts\": " + std::to_string(unit.insts) + ",\n";
    out += "    \"warmup\": " + std::to_string(unit.warmup) + "\n";
    out += "  },\n";
    out += "  \"result\": ";
    appendResultRecord(out, unit, result, "  ");
    out += ",\n";
    // Non-canonical section: never copied into the merged document.
    out += "  \"timing\": {\n";
    out += "    \"wall_seconds\": " + formatDouble(timing.wallSeconds) +
           "\n";
    out += "  }\n";
    out += "}\n";
    return out;
}

std::string
renderResultsDoc(const std::vector<WorkUnit> &units,
                 const std::vector<sim::SimResult> &results)
{
    TCSIM_ASSERT(units.size() == results.size());
    std::string out = "{\n";
    out += "  \"schema\": \"tcsim-bench-results-v1\",\n";
    out += "  \"matrix_hash\": \"" + matrixHash(units) + "\",\n";
    out += "  \"units\": " + std::to_string(units.size()) + ",\n";
    out += "  \"results\": [\n";
    for (std::size_t i = 0; i < units.size(); ++i) {
        out += "    ";
        appendResultRecord(out, units[i], results[i], "    ");
        out += i + 1 < units.size() ? ",\n" : "\n";
    }
    out += "  ]\n";
    out += "}\n";
    return out;
}

std::string
fragmentPath(const std::string &dir, const WorkUnit &unit)
{
    return dir + "/" + unit.hash + ".json";
}

bool
writeFragment(const std::string &dir, const WorkUnit &unit,
              const sim::SimResult &result, const UnitTiming &timing)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return !ec && writeFileAtomic(fragmentPath(dir, unit),
                                  renderFragment(unit, result, timing));
}

FragmentDir
readFragments(const std::string &dir)
{
    // Sorted by name, so reports are stable run to run. A writer's
    // temp files ("<hash>.json.tmp.<pid>.<n>") do not end in ".json".
    std::vector<std::string> names;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        std::string name = it->path().filename().string();
        std::error_code type_ec;
        if (name.size() > 5 && name.ends_with(".json") &&
            it->is_regular_file(type_ec)) {
            names.push_back(std::move(name));
        }
    }
    std::sort(names.begin(), names.end());

    FragmentDir out;
    for (const std::string &name : names) {
        Fragment fragment;
        fragment.path = dir + "/" + name;
        const std::optional<json::Value> doc = json::parseFile(fragment.path);
        const json::Value *unit_obj = nullptr, *result_obj = nullptr;
        if (doc && doc->isObject() &&
            doc->getString("schema") == "tcsim-bench-fragment-v1") {
            unit_obj = doc->find("unit");
            result_obj = doc->find("result");
        }
        // The name stem is the claimed unit hash; a mismatch means the
        // object was renamed or half-written and cannot be trusted.
        if (unit_obj == nullptr || !unit_obj->isObject() ||
            result_obj == nullptr || !result_obj->isObject() ||
            name.substr(0, name.size() - 5) != unit_obj->getString("hash") ||
            !parseResultRecord(*result_obj, fragment.result) ||
            !parseTiming(doc->find("timing"), fragment.timing)) {
            out.corrupt.push_back(std::move(fragment.path));
            continue;
        }
        fragment.id = unit_obj->getString("id");
        fragment.hash = unit_obj->getString("hash");
        out.fragments.push_back(std::move(fragment));
    }
    return out;
}

SweepRun
runSweep(const std::vector<WorkUnit> &units, const std::string &fragments_dir,
         ThreadPool &pool)
{
    SweepRun run;
    if (fragments_dir.empty()) {
        run.results = runUnits(units, {}, pool);
        for (std::size_t i = 0; i < units.size(); ++i)
            run.simulated.push_back(i);
        return run;
    }

    std::map<std::string, sim::SimResult> found;
    for (Fragment &fragment : readFragments(fragments_dir).fragments)
        found.emplace(fragment.hash, std::move(fragment.result));
    run.results.resize(units.size());
    std::vector<WorkUnit> pending;
    for (std::size_t i = 0; i < units.size(); ++i) {
        const auto it = found.find(units[i].hash);
        if (it != found.end()) {
            run.results[i] = finishResult(units[i], it->second);
        } else {
            pending.push_back(units[i]);
            run.simulated.push_back(i);
        }
    }
    std::fprintf(stderr, "resumed %zu of %zu units from %s\n",
                 units.size() - pending.size(), units.size(),
                 fragments_dir.c_str());
    const std::vector<sim::SimResult> results = runUnits(
        pending,
        [&](std::size_t i, const sim::SimResult &result,
            const UnitTiming &timing) {
            if (!writeFragment(fragments_dir, pending[i], result, timing)) {
                std::fprintf(stderr, "cannot write fragment for %s\n",
                             pending[i].id.c_str());
                run.fragmentsWritten = false;
            }
        },
        pool);
    for (std::size_t i = 0; i < pending.size(); ++i)
        run.results[run.simulated[i]] = results[i];
    return run;
}

std::optional<std::string>
mergeFragments(const SweepOptions &options, const std::string &fragments_dir,
               MergeReport &report)
{
    const std::vector<WorkUnit> units = enumerateUnits(options);
    std::map<std::string, std::size_t> by_hash;
    for (std::size_t i = 0; i < units.size(); ++i)
        by_hash.emplace(units[i].hash, i);

    std::vector<sim::SimResult> results(units.size());
    std::vector<bool> filled(units.size(), false);
    FragmentDir dir = readFragments(fragments_dir);
    report.corrupt = std::move(dir.corrupt);
    for (Fragment &fragment : dir.fragments) {
        const auto wanted = by_hash.find(fragment.hash);
        if (wanted == by_hash.end()) {
            report.stale.push_back(std::move(fragment.path));
            continue;
        }
        results[wanted->second] =
            finishResult(units[wanted->second], std::move(fragment.result));
        filled[wanted->second] = true;
    }

    for (std::size_t i = 0; i < units.size(); ++i) {
        if (!filled[i])
            report.missing.push_back(units[i].id);
    }
    if (!report.complete())
        return std::nullopt;
    return renderResultsDoc(units, results);
}

} // namespace tcsim::bench
