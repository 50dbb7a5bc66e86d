/**
 * @file
 * The one execution engine: a deterministic work-unit protocol over
 * the (benchmark, configuration) matrix, one per-unit executor
 * (executeUnit: full, sampled or replay), one fan-out that runs units
 * on the in-process thread pool (runUnits), and a merge layer that
 * combines per-unit result fragments into one canonical results
 * document. The exhibits (bench/exhibits.h) plan units and render
 * their results; tcsim_sweep renders them as a document, writes them
 * as fragments for --shard / --worklist, or merges fragments.
 *
 * Determinism contract:
 *
 *  - enumerateUnits() yields the matrix in a stable order
 *    (configuration-major, as exhibitUnits lays them out), with each
 *    unit carrying a content hash over everything its result depends on:
 *    unit identity, config fingerprint, generator version, profile
 *    fingerprint and warm-up length. Any change to those regenerates
 *    the hash, so stale fragments are detected instead of merged.
 *
 *  - The canonical results document ("tcsim-bench-results-v1") stores
 *    each unit's SimResult integers and the ratios sim::deriveRatios
 *    computes from them. Both the single-process path (simulate
 *    everything, render) and the sharded path (render from integers
 *    parsed back out of fragments) call the one renderer on the same
 *    integers, so the two documents are byte-identical, at any
 *    TCSIM_JOBS. Wall-clock and cache-stat timing lives in fragments
 *    and the separate timing document, never in the canonical
 *    document.
 *
 *  - Fragments ("tcsim-bench-fragment-v1") are one file per unit,
 *    named "<hash>.json" and written atomically (temp file + rename),
 *    so a killed worker loses at most its in-flight units and a rerun
 *    only needs the units check() reports missing.
 */

#ifndef TCSIM_BENCH_SWEEP_H
#define TCSIM_BENCH_SWEEP_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/thread_pool.h"
#include "sim/accounting.h"
#include "sim/config.h"

namespace tcsim::bench
{

/**
 * SimPoint-style sampled execution parameters (the `sampled` config
 * dimension). When enabled, a unit is not simulated end to end:
 * a cached functional BBV profile of the benchmark is clustered
 * (deterministic seeded k-means, k swept in [1, maxK]) and only the
 * representative region of each cluster runs on the detailed model,
 * warm-started from cached architectural checkpoints plus the warm
 * microarchitectural state exported by one shared functional-warming
 * pass over the region's whole prefix; when the unit has a warmup
 * budget, a detailed warm-up pass over the `warmup` instructions
 * preceding the region smooths the rest of the gap to a real
 * pipeline before the stats window opens. Region stats combine as
 * exact integers weighted by cluster population.
 */
struct SampledParams
{
    bool enabled = false;
    /** BBV interval length in instructions; must divide the unit's
     * instruction budget so cluster weights stay exact rationals. */
    std::uint64_t interval = 0;
    /** k-means sweeps k in [1, maxK] with a BIC-style score. */
    std::uint32_t maxK = 0;
};

/** One (benchmark, configuration) cell of the sweep matrix. */
struct WorkUnit
{
    std::uint32_t index = 0; ///< position in enumeration order
    std::string benchmark;
    sim::ProcessorConfig config;
    std::uint64_t insts = 0;  ///< resolved measurement budget
    /** Full units simulate [0, warmup), reset their statistics and
     * measure [warmup, warmup + insts), as `tcsim_run --warmup` does;
     * sampled units run `warmup` detailed instructions per region. */
    std::uint64_t warmup = 0;
    SampledParams sampled;    ///< sampled-execution dimension
    /** Replay the front end from a cached tcsim-btrace-v1 artifact
     * instead of cycle-simulating (timing stats stay zero). */
    bool replay = false;
    /** "<benchmark>@<config>@<insts>", plus
     * "@sampled-i<interval>-k<maxK>-w<warmup>" when sampled, plus
     * "@replay" when replaying from a btrace artifact. */
    std::string id;
    std::string hash; ///< 16-hex content hash (see file comment)
};

/** Matrix parameters shared by workers and the merger. */
struct SweepOptions
{
    /** Benchmarks to sweep; empty = the whole suite. */
    std::vector<std::string> benchmarks;
    /** Configurations to sweep; empty = defaultSweepConfigs(). */
    std::vector<sim::ProcessorConfig> configs;
    /** Per-unit instruction budget; 0 = each profile's default. */
    std::uint64_t insts = 0;
    /** Warm-up instructions per unit (0 = cold start). */
    std::uint64_t warmup = 0;
    /** Sampled-execution dimension applied to every unit. */
    SampledParams sampled;
    /**
     * Replay dimension applied to every unit: drive the front end
     * (fetch engine, fill unit, predictors) from a recorded
     * tcsim-btrace-v1 control-flow trace instead of cycle simulation.
     * The trace is config-independent and flows through the artifact
     * cache ("btrace" kind, see btraceArtifactKey), so one recording
     * pass serves every configuration in the matrix. Mutually
     * exclusive with warmup and sampled execution.
     */
    bool replay = false;
};

/** The paper's headline configurations, used when none are named. */
std::vector<sim::ProcessorConfig> defaultSweepConfigs();

/**
 * Resolve a configuration preset by name: "icache", "baseline",
 * "promotion-t<N>", "packing-<policy>", "promo-pack-<policy>" with
 * policy one of atomic / unregulated / n-regulated / cost-regulated.
 * @return empty optional for an unknown name.
 */
std::optional<sim::ProcessorConfig> configByName(const std::string &name);

/** Enumerate the matrix in stable order with content hashes. */
std::vector<WorkUnit> enumerateUnits(const SweepOptions &options);

/** FNV-1a over all unit hashes in order, rendered as 16-hex. */
std::string matrixHash(const std::vector<WorkUnit> &units);

/** Non-canonical per-unit timing, carried by fragments only. */
struct UnitTiming
{
    double wallSeconds = 0.0;
    /** Artifact cache hits and misses of this unit alone. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

/**
 * Simulate one unit: the detailed model after the warm-up (full
 * units); the BBV -> k-means -> warm-started representative-region
 * pipeline, combining region integers as sum(weight_num * stat)
 * (sampled units; "bbv" profiles and "archckpt" checkpoints are
 * shared by every config, "warmstate" checkpoints are per-config); or
 * the front end driven from the benchmark's cached btrace (replay
 * units). Every stage is a deterministic pure function and cache hits
 * only skip a producer, so results are identical hit or miss, at any
 * job count and across shards. Safe to call concurrently.
 */
sim::SimResult executeUnit(const WorkUnit &unit);

/** Called by runUnits() once per finished unit, under one lock, in
 * completion order, with the unit's position. */
using UnitDone = std::function<void(std::size_t index,
                                    const sim::SimResult &result,
                                    const UnitTiming &timing)>;

/**
 * The one fan-out: run @p units through executeUnit() on @p pool,
 * print "[k/n] <id>" to stderr and call @p done (when set) as each
 * finishes, and return the results in unit order — bit-identical at
 * any pool size. Must not be called from a worker of @p pool.
 */
std::vector<sim::SimResult> runUnits(const std::vector<WorkUnit> &units,
                                     const UnitDone &done = {},
                                     ThreadPool &pool = sharedPool());

/**
 * @return the content key a benchmark's BBV profile artifact is
 * cached under (config-independent: generator version + profile
 * fingerprint + budget + interval). Shared by the sweep engine and
 * the tcsim_simpoints CLI so both hit the same cache entry.
 */
std::string bbvArtifactKey(const std::string &benchmark,
                           std::uint64_t insts, std::uint64_t interval);

/**
 * @return the content key a benchmark's recorded btrace artifact is
 * cached under (config-independent: btrace format version + generator
 * version + profile fingerprint + budget — the oracle control-flow
 * stream does not depend on the processor configuration, so one
 * recording serves every config in a replay matrix).
 */
std::string btraceArtifactKey(const std::string &benchmark,
                              std::uint64_t insts);

/**
 * Run @p options' matrix sampled, and each unit's window [0, insts)
 * cold on the full detailed model, compare derived stats, and render
 * the `tcsim-sampling-error-v1` report (per-unit and aggregate
 * relative error for IPC / effective fetch rate / mispredict rate,
 * wall-clock for both paths, and the speedup).
 * options.sampled must be enabled. When @p all_within_out is
 * non-null it receives whether every unit passed the gate: IPC and
 * fetch-rate relative errors <= @p tolerance AND mispredict-rate
 * ABSOLUTE error <= @p mispredict_tolerance. The mispredict bound is
 * absolute (the rate is already a fraction) because per-region
 * predictor warm-up bias shifts the sampled rate by a few points
 * independent of the base rate, so relative error diverges exactly
 * when the full run predicts well.
 */
std::string samplingErrorReport(const SweepOptions &options,
                                double tolerance,
                                double mispredict_tolerance,
                                bool *all_within_out);

/** Render one fragment document (canonical record + timing). */
std::string renderFragment(const WorkUnit &unit,
                           const sim::SimResult &result,
                           const UnitTiming &timing);

/**
 * Render the canonical results document for the full matrix. @p
 * results must parallel @p units. This is the ONLY producer of
 * "tcsim-bench-results-v1" bytes; byte-identity of the sharded and
 * single-process paths rests on both funneling through it.
 */
std::string renderResultsDoc(const std::vector<WorkUnit> &units,
                             const std::vector<sim::SimResult> &results);

/** @return "<dir>/<hash>.json", the fragment path for @p unit. */
std::string fragmentPath(const std::string &dir, const WorkUnit &unit);

/**
 * Write @p unit's fragment atomically, replacing any fragment already
 * there (a retried unit overwrites a torn one). @return false on I/O
 * error.
 */
bool writeFragment(const std::string &dir, const WorkUnit &unit,
                   const sim::SimResult &result, const UnitTiming &timing);

/** What the merge (or check) pass found in a fragments directory. */
struct MergeReport
{
    /** Unit ids present in the matrix but with no valid fragment. */
    std::vector<std::string> missing;
    /** Fragment files whose unit hash is not in the matrix. */
    std::vector<std::string> stale;
    /** Extra valid fragments for an already-filled unit. */
    std::vector<std::string> duplicates;
    /** Unreadable / unparseable / internally inconsistent files. */
    std::vector<std::string> corrupt;

    bool complete() const { return missing.empty() && corrupt.empty(); }
};

/**
 * Scan @p fragments_dir and assemble the canonical results document
 * for @p options' matrix.
 * @return the document when every unit was found (report still lists
 * stale/duplicate files); empty optional otherwise, with the holes in
 * @p report.
 */
std::optional<std::string> mergeFragments(const SweepOptions &options,
                                          const std::string &fragments_dir,
                                          MergeReport &report);

} // namespace tcsim::bench

#endif // TCSIM_BENCH_SWEEP_H
