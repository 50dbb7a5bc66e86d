#include "bench/sweep.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "bench/artifact_cache.h"
#include "bench/harness.h"
#include "bench/store.h"
#include "common/atomic_file.h"
#include "common/fnv.h"
#include "common/json.h"
#include "common/log.h"
#include "obs/bbv.h"
#include "sample/simpoints.h"
#include "sim/processor.h"
#include "workload/archstate.h"
#include "workload/btrace.h"
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

/** Version of every component's saveState format inside warm-state
 * checkpoints; bump it so stale "warmstate" artifacts regenerate. */
constexpr unsigned kPredStateVersion = 1;

/** Hash input of full units with a warm-up: version 1 imported a
 * separate run's predictor state and measured [0, insts); its
 * fragments must be stale, not merged. */
constexpr unsigned kFullWarmupVersion = 2;

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
    if (unit.sampled.enabled) {
        num("sampled_interval", unit.sampled.interval);
        num("sampled_max_k", unit.sampled.maxK);
    }
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

/** Parse one canonical array member into @p values; false on shape
 * mismatch. */
bool
parseArray(const json::Value &record, const char *key,
           std::uint64_t *values, unsigned count)
{
    const json::Value *array = record.find(key);
    if (array == nullptr || !array->isArray() ||
        array->items().size() != count) {
        return false;
    }
    for (unsigned i = 0; i < count; ++i) {
        const json::Value &item = array->items()[i];
        if (!item.isNumber())
            return false;
        values[i] = item.asUint64();
    }
    return true;
}

/** Parse a fragment's canonical record back into @p n's integers. */
bool
parseResultRecord(const json::Value &record, sim::SimResult &n)
{
    for (const auto &[key, field] : kScalars) {
        const json::Value *value = record.find(key);
        if (value == nullptr || !value->isNumber())
            return false;
        n.*field = value->asUint64();
    }
    if (!parseArray(record, "fetches_needing_preds", n.fetchesNeedingPreds,
                    4) ||
        !parseArray(record, "cycle_cat", n.cycleCat, kNumCycleCats)) {
        return false;
    }
    const json::Value *hist = record.find("fetch_hist");
    if (hist == nullptr || !hist->isArray() ||
        hist->items().size() != kNumFetchReasons) {
        return false;
    }
    for (unsigned r = 0; r < kNumFetchReasons; ++r) {
        const json::Value &row = hist->items()[r];
        if (!row.isArray() || row.items().size() != kFetchHistWidth)
            return false;
        for (unsigned w = 0; w < kFetchHistWidth; ++w) {
            if (!row.items()[w].isNumber())
                return false;
            n.fetchHist[r][w] = row.items()[w].asUint64();
        }
    }
    return true;
}

/**
 * Cache key for a sampled-execution warm-state checkpoint: the full
 * microarchitectural state (predictors, bias table, indirect targets,
 * cache tags, trace-cache contents) exported after functionally
 * warming the prefix [0, @p pos). Independent of unit.warmup (the
 * functional pass always covers the whole prefix); keyed by the
 * warming-scheme version so a change to the warming algorithm
 * invalidates old checkpoints.
 */
std::string
warmingStateKey(const WorkUnit &unit, std::uint64_t pos)
{
    const workload::BenchmarkProfile &profile =
        workload::findProfile(unit.benchmark);
    std::string key = "warmstate:v";
    key += std::to_string(sample::kSampledWarmingVersion);
    key += ":pred=v";
    key += std::to_string(kPredStateVersion);
    key += ":gen=v";
    key += std::to_string(workload::kGeneratorVersion);
    key += ":prog=";
    key += hashHex(workload::profileFingerprint(profile));
    key += ":cfg=";
    key += hashHex(sim::configFingerprint(unit.config));
    key += ":pos=";
    key += std::to_string(pos);
    return key;
}

/** Program-only key prefix shared by the config-independent artifacts
 * (BBV profiles, architectural checkpoints, btraces). */
std::string
programKeyPrefix(const workload::BenchmarkProfile &profile)
{
    std::string key = "gen=v";
    key += std::to_string(workload::kGeneratorVersion);
    key += ":prog=";
    key += hashHex(workload::profileFingerprint(profile));
    return key;
}

std::string
archCkptKey(const workload::BenchmarkProfile &profile, std::uint64_t pos)
{
    std::string key = "archckpt:v1:";
    key += programKeyPrefix(profile);
    key += ":pos=";
    key += std::to_string(pos);
    return key;
}

} // namespace

std::string
bbvArtifactKey(const workload::BenchmarkProfile &profile,
               std::uint64_t insts, std::uint64_t interval)
{
    std::string key = "bbv:v";
    key += std::to_string(sample::kBbvFormatVersion);
    key += ':';
    key += programKeyPrefix(profile);
    key += ":insts=";
    key += std::to_string(insts);
    key += ":interval=";
    key += std::to_string(interval);
    return key;
}

std::string
btraceArtifactKey(const workload::BenchmarkProfile &profile,
                  std::uint64_t insts)
{
    std::string key = "btrace:v";
    key += std::to_string(workload::kBtraceFormatVersion);
    key += ':';
    key += programKeyPrefix(profile);
    key += ":insts=";
    key += std::to_string(insts);
    return key;
}

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
        const std::string digits = name.substr(11);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos) {
            return std::nullopt;
        }
        return sim::promotionConfig(
            static_cast<std::uint32_t>(std::stoul(digits)));
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
            unit.sampled = options.sampled;
            unit.replay = options.replay;
            if (unit.replay &&
                (unit.sampled.enabled || unit.warmup != 0)) {
                fatal("replay sweep: --replay is a front-end analysis "
                      "pass and cannot combine with --warmup or "
                      "sampled execution");
            }
            unit.id = benchmark + "@" + config.name + "@" +
                      std::to_string(unit.insts);
            if (unit.sampled.enabled) {
                if (unit.sampled.interval == 0 || unit.sampled.maxK == 0 ||
                    unit.insts % unit.sampled.interval != 0) {
                    fatal("sampled sweep: interval must be positive, "
                          "divide the budget (%llu %% %llu != 0), and "
                          "max_k must be positive",
                          static_cast<unsigned long long>(unit.insts),
                          static_cast<unsigned long long>(
                              unit.sampled.interval));
                }
                unit.id += "@sampled-i" +
                           std::to_string(unit.sampled.interval) + "-k" +
                           std::to_string(unit.sampled.maxK) + "-w" +
                           std::to_string(unit.warmup);
            }
            if (unit.replay)
                unit.id += "@replay";
            std::uint64_t hash = fnv1a(unit.id);
            hash = fnv1aAppendScalar(hash, workload::kGeneratorVersion);
            hash = fnv1aAppendScalar(
                hash, workload::profileFingerprint(profile));
            hash = fnv1aAppendScalar(hash, config_fp);
            hash = fnv1aAppendScalar(hash, unit.warmup);
            if (!unit.sampled.enabled && !unit.replay && unit.warmup > 0)
                hash = fnv1aAppendScalar(hash, kFullWarmupVersion);
            if (unit.sampled.enabled) {
                // The sampled result additionally depends on the BBV
                // artifact format, the clustering algorithm and its
                // parameters; hash them so stale fragments regenerate.
                hash = fnv1aAppendScalar(hash, unit.sampled.interval);
                hash = fnv1aAppendScalar(hash, unit.sampled.maxK);
                hash = fnv1aAppendScalar(hash, sample::kBbvFormatVersion);
                hash = fnv1aAppendScalar(hash,
                                         sample::kSimpointsAlgoVersion);
                hash = fnv1aAppendScalar(hash, sample::kSimpointSeed);
                hash = fnv1aAppendScalar(
                    hash, sample::kSampledWarmingVersion);
            }
            if (unit.replay) {
                // Replay results depend on the trace encoding; hash
                // the format version so fragments from an older
                // btrace layout regenerate instead of merging.
                hash = fnv1aAppendScalar(hash,
                                         workload::kBtraceFormatVersion);
            }
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

/** Accumulate @p region's integers into @p total scaled by @p weight
 * (exact integer math; ratios are derived once at the end). */
void
accumulateWeighted(sim::SimResult &total, const sim::SimResult &region,
                   std::uint64_t weight)
{
    for (const auto &[key, field] : kScalars)
        total.*field += weight * region.*field;
    for (unsigned i = 0; i < 4; ++i)
        total.fetchesNeedingPreds[i] +=
            weight * region.fetchesNeedingPreds[i];
    for (unsigned c = 0; c < kNumCycleCats; ++c)
        total.cycleCat[c] += weight * region.cycleCat[c];
    for (unsigned r = 0; r < kNumFetchReasons; ++r)
        for (unsigned w = 0; w < kFetchHistWidth; ++w)
            total.fetchHist[r][w] += weight * region.fetchHist[r][w];
}

/**
 * The sampled execution pipeline for one unit. Every stage is cached
 * through the artifact cache and regenerated deterministically on a
 * miss, so results are identical hit or miss and across shards.
 */
sim::SimResult
executeSampledUnit(const WorkUnit &unit)
{
    TCSIM_ASSERT(unit.sampled.enabled);
    const workload::Program &program = programFor(unit.benchmark);
    const workload::BenchmarkProfile &profile =
        workload::findProfile(unit.benchmark);
    ArtifactCache &cache = ArtifactCache::process();

    // 1. BBV profile: functional pass, configuration-independent,
    //    shared by every config in the matrix via the cache.
    const std::string bbv_json =
        cache.getOrCreate(
            "bbv",
            bbvArtifactKey(profile, unit.insts, unit.sampled.interval),
            [&] {
            return sample::profileBbv(program, unit.benchmark, unit.insts,
                                      unit.sampled.interval)
                .toJson();
        });
    const std::optional<obs::BbvDocument> bbv =
        obs::BbvDocument::fromJson(bbv_json);
    if (!bbv || bbv->totalInsts != unit.insts ||
        bbv->intervalInsts != unit.sampled.interval) {
        fatal("BBV profile for %s is malformed or mismatched "
              "(early halt below the budget?)",
              unit.id.c_str());
    }

    // 2. Deterministic clustering: a pure single-threaded function of
    //    the BBV artifact — bit-identical regardless of TCSIM_JOBS or
    //    shard count.
    const sample::SimpointPlan plan = sample::selectSimpoints(
        *bbv, hashHex(workload::profileFingerprint(profile)),
        unit.sampled.maxK);

    // 3. Architectural checkpoints at each region's detailed warm-up
    //    start (config-independent). All misses are produced by ONE
    //    monotone walker pass instead of one pass per position.
    std::vector<std::uint64_t> positions;
    for (const sample::Simpoint &pt : plan.points) {
        const std::uint64_t start = pt.startInsts;
        const std::uint64_t detail_start =
            start > unit.warmup ? start - unit.warmup : 0;
        if (detail_start > 0)
            positions.push_back(detail_start);
    }
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());

    std::map<std::uint64_t, std::string> ckpt_blobs;
    std::vector<std::uint64_t> missing;
    for (const std::uint64_t pos : positions) {
        std::optional<std::string> blob;
        if (cache.enabled())
            blob = cache.load("archckpt", archCkptKey(profile, pos));
        if (blob)
            ckpt_blobs.emplace(pos, std::move(*blob));
        else
            missing.push_back(pos);
    }
    if (!missing.empty()) {
        workload::ArchStateWalker walker(program);
        for (const std::uint64_t pos : missing) {
            walker.advanceTo(pos);
            std::string blob = walker.capture().serialize();
            if (cache.enabled())
                cache.store("archckpt", archCkptKey(profile, pos),
                            blob);
            ckpt_blobs.emplace(pos, std::move(blob));
        }
    }
    const auto ckptAt = [&](std::uint64_t pos) -> workload::ArchCheckpoint {
        const auto it = ckpt_blobs.find(pos);
        TCSIM_ASSERT(it != ckpt_blobs.end());
        auto ckpt = workload::ArchCheckpoint::deserialize(it->second);
        if (!ckpt || ckpt->instIndex != pos) {
            fatal("architectural checkpoint at %llu for %s is corrupt",
                  static_cast<unsigned long long>(pos), unit.id.c_str());
        }
        return std::move(*ckpt);
    };

    // 4. Warm-state checkpoints at the same positions: ONE shared
    //    functional-warming pass per (program, config) walks the whole
    //    prefix once, training predictors and the bias table, feeding
    //    the fill unit (which builds the trace cache) and touching
    //    cache tags at functional-executor speed, and exports the full
    //    warm microarchitectural state at each region's detailed
    //    warm-up start. The pass is monotone — functionalWarmup()
    //    resumes on a never-cycled processor — so its cost is one
    //    functional traversal of the program, not one per region.
    //    Checkpoints are pure functions of (program, config, position,
    //    warming version) and flow through the artifact cache like
    //    everything else.
    std::map<std::uint64_t, std::string> warm_blobs;
    {
        std::vector<std::uint64_t> warm_missing;
        for (const std::uint64_t pos : positions) {
            std::optional<std::string> blob;
            if (cache.enabled())
                blob = cache.load("warmstate", warmingStateKey(unit, pos));
            if (blob)
                warm_blobs.emplace(pos, std::move(*blob));
            else
                warm_missing.push_back(pos);
        }
        if (!warm_missing.empty()) {
            sim::Processor warmer(unit.config, program);
            for (const std::uint64_t pos : warm_missing) {
                warmer.functionalWarmup(pos);
                std::ostringstream os;
                warmer.exportWarmState(os);
                std::string blob = std::move(os).str();
                if (cache.enabled())
                    cache.store("warmstate", warmingStateKey(unit, pos),
                                blob);
                warm_blobs.emplace(pos, std::move(blob));
            }
        }
    }

    // 5. Simulate each representative region on the detailed model
    //    and combine by cluster weight. Each region's processor is
    //    warm-started architecturally from the cached checkpoint with
    //    the prefix-warmed microarchitectural state imported on top
    //    (regions ALWAYS import the blob — also right after generating
    //    it — so a cache hit replays exactly the cold path), then runs
    //    the unit's warm-up budget of DETAILED instructions (smoothing
    //    the residual gap between functional warming and real pipeline
    //    behavior), and only then opens the stats window (resetStats)
    //    for the region proper. This layered warm-up is what keeps
    //    per-region cold-start bias inside the error tolerance without
    //    paying detailed-simulation cost for it.
    sim::SimResult combined;
    for (const sample::Simpoint &pt : plan.points) {
        const std::uint64_t start = pt.startInsts;
        const std::uint64_t stop = start + plan.intervalInsts;
        const std::uint64_t detail_start =
            start > unit.warmup ? start - unit.warmup : 0;

        sim::Processor proc(unit.config, program);
        if (detail_start > 0) {
            proc.warmStart(ckptAt(detail_start));
            const auto it = warm_blobs.find(detail_start);
            TCSIM_ASSERT(it != warm_blobs.end());
            std::istringstream is(it->second);
            if (!proc.importWarmState(is)) {
                fatal("functional-warming checkpoint at %llu for %s "
                      "rejected by a processor with the same "
                      "configuration (format bug)",
                      static_cast<unsigned long long>(detail_start),
                      unit.id.c_str());
            }
        }
        if (detail_start < start)
            proc.run(start);
        proc.resetStats();
        accumulateWeighted(combined, proc.run(stop), pt.weightNum);
    }
    return finishResult(unit, std::move(combined));
}

/**
 * Record the config-independent control-flow trace for a benchmark:
 * one oracle pass through Processor::recordTrace into a temporary
 * file, whose bytes become the cacheable artifact payload. The trace
 * records only oracle facts (pc, target, class, taken), so the
 * recording processor's configuration cannot influence the bytes; a
 * fixed canonical config keeps that invariance explicit. Deterministic
 * — same program + budget always produces the same image — so it is
 * safe to memoize through the artifact cache and share across shards.
 */
std::string
recordBtraceBytes(const std::string &benchmark, std::uint64_t insts)
{
    const workload::Program &program = programFor(benchmark);
    const workload::BenchmarkProfile &profile =
        workload::findProfile(benchmark);
    // Two units of one benchmark may record at once (a cold or disabled
    // cache), so each call gets its own temp file.
    const std::string tmp = uniqueTempPath(
        (std::filesystem::temp_directory_path() / "tcsim-btrace").string());
    {
        workload::BtraceWriter writer(tmp, workload::kGeneratorVersion,
                                      workload::profileFingerprint(profile),
                                      program.entry());
        sim::Processor recorder(sim::icacheConfig(), program);
        recorder.recordTrace(writer, insts);
    }
    std::ifstream in(tmp, std::ios::binary);
    if (!in)
        fatal("cannot read back recorded btrace '%s'", tmp.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return std::move(buf).str();
}

/**
 * The replay pipeline for one unit: fetch (or record) the benchmark's
 * btrace artifact, then drive this config's front end from it via
 * Processor::replayTrace. Only front-end counters are meaningful;
 * cycles and the fetch/timing stats stay zero (derived rates over a
 * zero denominator render as 0 in the canonical documents).
 */
sim::SimResult
executeReplayUnit(const WorkUnit &unit)
{
    TCSIM_ASSERT(unit.replay);
    const workload::BenchmarkProfile &profile =
        workload::findProfile(unit.benchmark);
    const std::string bytes = ArtifactCache::process().getOrCreate(
        "btrace", btraceArtifactKey(profile, unit.insts),
        [&] { return recordBtraceBytes(unit.benchmark, unit.insts); });

    workload::BtraceReader reader;
    std::string error;
    if (!reader.openBytes(bytes, &error)) {
        fatal("btrace artifact for %s is invalid: %s", unit.id.c_str(),
              error.c_str());
    }
    if (reader.header().generatorVersion != workload::kGeneratorVersion ||
        reader.header().profileFingerprint !=
            workload::profileFingerprint(profile)) {
        fatal("btrace artifact for %s was recorded from a different "
              "program (stale cache entry?)",
              unit.id.c_str());
    }

    const workload::Program &program = programFor(unit.benchmark);
    sim::Processor proc(unit.config, program);
    const sim::Processor::ControlFlowResult r = proc.replayTrace(reader);

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
    if (unit.sampled.enabled)
        return executeSampledUnit(unit);
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
            const ArtifactCacheStats before = ArtifactCache::threadStats();
            const auto start = std::chrono::steady_clock::now();
            results[i] = executeUnit(units[i]);
            UnitTiming timing;
            timing.wallSeconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - start)
                                     .count();
            const ArtifactCacheStats after = ArtifactCache::threadStats();
            timing.cacheHits = after.hits - before.hits;
            timing.cacheMisses = after.misses - before.misses;

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
samplingErrorReport(const SweepOptions &options, double tolerance,
                    double mispredict_tolerance, bool *all_within_out)
{
    TCSIM_ASSERT(options.sampled.enabled,
                 "samplingErrorReport needs a sampled matrix");
    const std::vector<WorkUnit> units = enumerateUnits(options);
    // The reference is the cold full run of the same window [0, insts).
    SweepOptions full_options = options;
    full_options.sampled = SampledParams{};
    full_options.warmup = 0;
    const std::vector<WorkUnit> full_units = enumerateUnits(full_options);

    std::vector<double> sampled_walls(units.size());
    std::vector<double> full_walls(units.size());
    const std::vector<sim::SimResult> sampled_results = runUnits(
        units, [&](std::size_t i, const sim::SimResult &,
                   const UnitTiming &timing) {
            sampled_walls[i] = timing.wallSeconds;
        });
    const std::vector<sim::SimResult> full_results = runUnits(
        full_units, [&](std::size_t i, const sim::SimResult &,
                        const UnitTiming &timing) {
            full_walls[i] = timing.wallSeconds;
        });
    const auto stats = [](const sim::SimResult &r, double wall) {
        return "{\"ipc\": " + formatDouble(r.ipc) + ", \"fetch_rate\": " +
               formatDouble(r.effectiveFetchRate) +
               ", \"mispredict_rate\": " +
               formatDouble(r.condMispredictRate) +
               ", \"wall_seconds\": " + formatDouble(wall) + "}";
    };

    std::string out = "{\n";
    out += "  \"schema\": \"tcsim-sampling-error-v1\",\n";
    out += "  \"matrix_hash\": \"" + matrixHash(units) + "\",\n";
    out += "  \"tolerance\": " + formatDouble(tolerance) + ",\n";
    out += "  \"mispredict_tolerance\": " +
           formatDouble(mispredict_tolerance) + ",\n";
    out += "  \"units\": [\n";

    bool all_within = true;
    double full_wall_total = 0.0;
    double sampled_wall_total = 0.0;
    double max_err_ipc = 0.0;
    double max_err_fetch = 0.0;
    double max_err_mispredict = 0.0;
    for (std::size_t i = 0; i < units.size(); ++i) {
        const WorkUnit &unit = units[i];
        const sim::SimResult &s = sampled_results[i];
        const sim::SimResult &f = full_results[i];
        const double sampled_wall = sampled_walls[i];
        const double full_wall = full_walls[i];

        const auto rel_err = [](double estimate, double reference) {
            if (reference == 0.0)
                return estimate == 0.0 ? 0.0 : 1.0;
            return std::abs(estimate - reference) / reference;
        };
        const double err_ipc = rel_err(s.ipc, f.ipc);
        const double err_fetch =
            rel_err(s.effectiveFetchRate, f.effectiveFetchRate);
        const double err_mispredict =
            rel_err(s.condMispredictRate, f.condMispredictRate);
        // The mispredict gate is ABSOLUTE (the rate is already a
        // fraction): per-region predictor warm-up bias shifts the
        // sampled rate by a few points regardless of the base rate,
        // so relative error diverges exactly when the full run's
        // rate gets small — at long budgets where prediction is best.
        const double abs_err_mispredict =
            std::abs(s.condMispredictRate - f.condMispredictRate);
        const bool within = err_ipc <= tolerance &&
                            err_fetch <= tolerance &&
                            abs_err_mispredict <= mispredict_tolerance;
        all_within = all_within && within;
        max_err_ipc = std::max(max_err_ipc, err_ipc);
        max_err_fetch = std::max(max_err_fetch, err_fetch);
        max_err_mispredict =
            std::max(max_err_mispredict, abs_err_mispredict);
        full_wall_total += full_wall;
        sampled_wall_total += sampled_wall;

        out += "    {\n";
        out += "      \"id\": \"" + json::escape(unit.id) + "\",\n";
        out += "      \"sampled\": " + stats(s, sampled_wall) + ",\n";
        out += "      \"full\": " + stats(f, full_wall) + ",\n";
        out += "      \"rel_err\": {\"ipc\": " + formatDouble(err_ipc) +
               ", \"fetch_rate\": " + formatDouble(err_fetch) +
               ", \"mispredict_rate\": " + formatDouble(err_mispredict) +
               "},\n";
        out += "      \"abs_err_mispredict_rate\": " +
               formatDouble(abs_err_mispredict) + ",\n";
        out += "      \"speedup\": " +
               formatDouble(sampled_wall > 0.0 ? full_wall / sampled_wall
                                               : 0.0) +
               ",\n";
        out += std::string("      \"within_tolerance\": ") +
               (within ? "true" : "false") + "\n";
        out += i + 1 < units.size() ? "    },\n" : "    }\n";
    }

    out += "  ],\n";
    out += "  \"aggregate\": {\n";
    out += "    \"max_rel_err_ipc\": " + formatDouble(max_err_ipc) + ",\n";
    out += "    \"max_rel_err_fetch_rate\": " + formatDouble(max_err_fetch) +
           ",\n";
    out += "    \"max_abs_err_mispredict_rate\": " +
           formatDouble(max_err_mispredict) + ",\n";
    out += "    \"full_wall_seconds\": " + formatDouble(full_wall_total) +
           ",\n";
    out += "    \"sampled_wall_seconds\": " +
           formatDouble(sampled_wall_total) + ",\n";
    out += "    \"speedup\": " +
           formatDouble(sampled_wall_total > 0.0
                            ? full_wall_total / sampled_wall_total
                            : 0.0) +
           "\n";
    out += "  },\n";
    out += std::string("  \"all_within_tolerance\": ") +
           (all_within ? "true" : "false") + "\n";
    out += "}\n";
    if (all_within_out != nullptr)
        *all_within_out = all_within;
    return out;
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
    out += "    \"warmup\": " + std::to_string(unit.warmup);
    if (unit.sampled.enabled) {
        out += ",\n    \"sampled_interval\": " +
               std::to_string(unit.sampled.interval);
        out += ",\n    \"sampled_max_k\": " +
               std::to_string(unit.sampled.maxK);
    }
    out += "\n  },\n";
    out += "  \"result\": ";
    appendResultRecord(out, unit, result, "  ");
    out += ",\n";
    // Non-canonical section: never copied into the merged document.
    out += "  \"timing\": {\n";
    out += "    \"wall_seconds\": " + formatDouble(timing.wallSeconds) +
           ",\n";
    out += "    \"cache_hits\": " + std::to_string(timing.cacheHits) +
           ",\n";
    out += "    \"cache_misses\": " + std::to_string(timing.cacheMisses) +
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
    LocalDirStore store(dir);
    return store.put(unit.hash + ".json",
                     renderFragment(unit, result, timing),
                     /*overwrite=*/true);
}

FragmentDir
readFragments(const std::string &dir)
{
    FragmentDir out;
    // list() is sorted by name, so reports are stable run to run.
    const LocalDirStore store(dir);
    for (const std::string &name : store.list()) {
        if (name.size() <= 5 || !name.ends_with(".json"))
            continue;
        Fragment fragment;
        fragment.path = dir + "/" + name;
        const std::optional<std::string> bytes = store.get(name);
        const std::optional<json::Value> doc =
            bytes ? json::parse(*bytes) : std::nullopt;
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
            !parseResultRecord(*result_obj, fragment.result)) {
            out.corrupt.push_back(std::move(fragment.path));
            continue;
        }
        fragment.id = unit_obj->getString("id");
        fragment.hash = unit_obj->getString("hash");
        if (const json::Value *timing = doc->find("timing");
            timing != nullptr && timing->isObject()) {
            fragment.timing.wallSeconds = timing->getDouble("wall_seconds");
            fragment.timing.cacheHits = timing->getUint64("cache_hits");
            fragment.timing.cacheMisses = timing->getUint64("cache_misses");
        }
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
