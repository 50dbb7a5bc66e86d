/**
 * @file
 * The one execution engine: a deterministic work-unit protocol over
 * the (benchmark, configuration) matrix, one per-unit executor
 * (executeUnit: full or replay), one fan-out that runs units
 * on the in-process thread pool (runUnits), and a fragment layer that
 * writes one result fragment per unit, reads them back (one reader,
 * readFragments) and combines them into one canonical results
 * document. The exhibits (bench/exhibits.h) plan units and render
 * their results; tcsim_sweep renders them as a document, writes them
 * as fragments (runSweep, which resumes from the fragments already
 * there), or merges fragments.
 *
 * Determinism contract:
 *
 *  - enumerateUnits() yields the matrix in a stable order
 *    (configuration-major, as exhibitUnits lays them out), with each
 *    unit carrying a content hash over everything its result depends on:
 *    unit identity, config fingerprint, generator version, profile
 *    fingerprint and warm-up length. Any change to those regenerates
 *    the hash, so stale fragments are detected instead of merged. The
 *    hash does not cover the simulator build: a fragments directory
 *    belongs to one build.
 *
 *  - The canonical results document ("tcsim-bench-results-v1") stores
 *    each unit's SimResult integers and the ratios sim::deriveRatios
 *    computes from them. The single-process path (simulate
 *    everything, render), the merge and a resumed run (render from
 *    integers parsed back out of fragments, beside freshly simulated
 *    ones) all call the one renderer on the same integers, so their
 *    documents are byte-identical, at any TCSIM_JOBS. Wall-clock time
 *    lives only in the fragments' "timing" section, never in the
 *    canonical document.
 *
 *  - Fragments ("tcsim-bench-fragment-v1") are one file per unit,
 *    named "<hash>.json" and written atomically (writeFileAtomic:
 *    temp file + rename), so a killed run loses at most its in-flight
 *    units, and running the same command again simulates only those.
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

/** One (benchmark, configuration) cell of the sweep matrix. */
struct WorkUnit
{
    std::uint32_t index = 0; ///< position in enumeration order
    std::string benchmark;
    sim::ProcessorConfig config;
    std::uint64_t insts = 0;  ///< resolved measurement budget
    /** Full units simulate [0, warmup), reset their statistics and
     * measure [warmup, warmup + insts), as `tcsim_run --warmup` does. */
    std::uint64_t warmup = 0;
    /** Drive the front end with the oracle-driven control-flow pass
     * instead of cycle-simulating (timing stats stay zero). */
    bool replay = false;
    /** "<benchmark>@<config>@<insts>", plus "@replay" for a replay
     * unit. */
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
    /**
     * Replay dimension applied to every unit: drive the front end
     * (icache, trace cache, fill unit, predictors) from the oracle's
     * retired control-flow stream instead of cycle simulation, as a
     * replay of the benchmark's recorded btrace would. Mutually
     * exclusive with warmup.
     */
    bool replay = false;
};

/** The paper's headline configurations, used when none are named. */
std::vector<sim::ProcessorConfig> defaultSweepConfigs();

/**
 * Resolve a configuration preset by name: "icache", "baseline",
 * "promotion-t<N>" (N a threshold sim::parsePromotionThreshold
 * takes), "packing-<policy>", "promo-pack-<policy>" with policy one of
 * atomic / unregulated / n-regulated / cost-regulated.
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
};

/**
 * Simulate one unit: the detailed model after the warm-up (full
 * units), or Processor::walkControlFlow over the unit's config (replay
 * units), whose every counter a replay of the benchmark's btrace
 * reproduces. Results are identical at any job count and across
 * shards. Safe to call concurrently.
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
 * Write @p unit's fragment atomically, creating @p dir when absent and
 * replacing any fragment already there (a re-simulated unit overwrites
 * torn bytes). @return false on I/O error.
 */
bool writeFragment(const std::string &dir, const WorkUnit &unit,
                   const sim::SimResult &result, const UnitTiming &timing);

/** One valid fragment, as read back from its file. */
struct Fragment
{
    std::string path;      ///< "<dir>/<hash>.json"
    std::string id;        ///< the unit id the fragment states
    std::string hash;      ///< the unit hash, equal to the name's stem
    sim::SimResult result; ///< canonical integers; ratios not derived
    UnitTiming timing;     ///< the non-canonical "timing" section
};

/** The regular top-level "*.json" files of a fragments directory,
 * sorted by name. */
struct FragmentDir
{
    std::vector<Fragment> fragments; ///< the valid ones
    std::vector<std::string> corrupt; ///< paths of all the others
};

/**
 * The one fragment reader, behind --merge, resume (runSweep) and
 * tcsim_regress. A "*.json" file is a valid fragment when it parses
 * as a tcsim-bench-fragment-v1 document with "unit" and "result"
 * objects, its name's stem equals unit.hash, its result record holds
 * every canonical integer, each a decimal integer below 2^64, in
 * arrays of the canonical shapes, and its "timing" object holds
 * exactly "wall_seconds", a finite non-negative number; anything else
 * under a "*.json" name is corrupt. Other names (a writer's
 * "<hash>.json.tmp.<pid>.<n>" temp files) are skipped, and an absent
 * directory reads as empty.
 */
FragmentDir readFragments(const std::string &dir);

/** What runSweep did. */
struct SweepRun
{
    /** One result per unit, in unit order. */
    std::vector<sim::SimResult> results;
    /** Positions of the units simulated by this call, ascending; every
     * other unit's result came from its fragment. */
    std::vector<std::size_t> simulated;
    /** False when some fragment could not be written. */
    bool fragmentsWritten = true;
};

/**
 * Run @p units, a selection of one matrix (all of it, or a shard).
 * With a @p fragments_dir, every unit that has a valid fragment there
 * (readFragments) takes its result from it, as the merge does, and
 * every other unit is simulated and its fragment written, replacing
 * torn bytes under its name; a killed run therefore finishes when run
 * again, and renderResultsDoc over the results is byte-identical to a
 * clean run's. Prints the resumed count to stderr. With an empty
 * @p fragments_dir every unit is simulated and nothing is written.
 */
SweepRun runSweep(const std::vector<WorkUnit> &units,
                  const std::string &fragments_dir,
                  ThreadPool &pool = sharedPool());

/** What the merge found in a fragments directory. */
struct MergeReport
{
    /** Unit ids present in the matrix but with no valid fragment. */
    std::vector<std::string> missing;
    /** Fragment files whose unit hash is not in the matrix. */
    std::vector<std::string> stale;
    /** Unreadable / unparseable / internally inconsistent files. */
    std::vector<std::string> corrupt;

    bool complete() const { return missing.empty() && corrupt.empty(); }
};

/**
 * Read @p fragments_dir and assemble the canonical results document
 * for @p options' matrix.
 * @return the document when every unit was found (report still lists
 * stale files); empty optional otherwise, with the holes in @p report.
 */
std::optional<std::string> mergeFragments(const SweepOptions &options,
                                          const std::string &fragments_dir,
                                          MergeReport &report);

} // namespace tcsim::bench

#endif // TCSIM_BENCH_SWEEP_H
