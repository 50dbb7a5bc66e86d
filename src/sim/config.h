/**
 * @file
 * Full processor configuration, with presets matching the paper's
 * experimental configurations (section 3).
 */

#ifndef TCSIM_SIM_CONFIG_H
#define TCSIM_SIM_CONFIG_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "bpred/bias_table.h"
#include "core/node_tables.h"
#include "memory/hierarchy.h"
#include "trace/fill_unit.h"
#include "trace/trace_cache.h"

namespace tcsim::sim
{

/** Which multiple-branch predictor organization to use. */
enum class MbpKind : std::uint8_t
{
    Tree,  ///< 16K x 7-counter tree PHT (baseline, Figure 3)
    Split, ///< 64K/16K/8K split tables (used with promotion)
};

/** Memory disambiguation aggressiveness (paper section 6). The values
 * feed configFingerprint, so Perfect keeps the 2 it had beside the
 * deleted dependence-speculation policy and unit hashes stay put. */
enum class Disambiguation : std::uint8_t
{
    Conservative = 0, ///< no load bypasses a store with an unknown address
    Perfect = 2,      ///< all load/store dependencies speculated correctly
};

/** Everything needed to build a Processor. */
struct ProcessorConfig
{
    std::string name = "baseline";

    // ------------------------------------------------------------------
    // Front end.
    // ------------------------------------------------------------------
    /** false = the paper's reference icache-only front end. */
    bool useTraceCache = true;
    trace::TraceCacheParams traceCache;
    trace::FillUnitParams fillUnit;
    MbpKind mbpKind = MbpKind::Tree;
    std::uint32_t fetchWidth = 16;
    std::uint32_t fetchQueueBatches = 2;

    // ------------------------------------------------------------------
    // Memory hierarchy.
    // ------------------------------------------------------------------
    memory::HierarchyParams hierarchy;

    // ------------------------------------------------------------------
    // Execution core.
    // ------------------------------------------------------------------
    core::NodeTableParams nodeTables;
    std::uint32_t robEntries = 512;
    std::uint32_t retireWidth = 16;
    /** Outstanding fetch-block checkpoints (paper: 3 created/cycle). */
    std::uint32_t checkpoints = 64;
    Disambiguation disambiguation = Disambiguation::Conservative;

    /** Execution latencies (cycles). */
    std::uint32_t latIntAlu = 1;
    std::uint32_t latIntMult = 3;
    std::uint32_t latIntDiv = 12;
    std::uint32_t latAddrGen = 1;
    std::uint32_t latDCacheHit = 2;
};

/**
 * @return a stable FNV-1a fingerprint over every simulation-relevant
 * field of @p config (the display name is excluded: two configs that
 * simulate identically fingerprint identically). The sweep work-unit
 * protocol folds this into unit content hashes so a changed preset
 * invalidates previously computed fragments.
 */
std::uint64_t configFingerprint(const ProcessorConfig &config);

/** The paper's reference icache front end (128 KB, hybrid predictor). */
ProcessorConfig icacheConfig();

/** The baseline trace cache: atomic fill, no promotion, tree MBP. */
ProcessorConfig baselineConfig();

/** The largest promotion threshold: the bias table's consecutive
 * counter saturates at counterMax, and its constructor rejects a
 * larger threshold. */
inline constexpr std::uint32_t kMaxPromotionThreshold =
    bpred::BiasTableParams{}.counterMax;

/** @return @p text as a promotion threshold, a decimal integer from 1
 * to kMaxPromotionThreshold, or empty optional. The sweep's
 * "promotion-t<N>" and tcsim_run's --threshold both check here. */
std::optional<std::uint32_t> parsePromotionThreshold(std::string_view text);

/** Baseline + branch promotion at @p threshold (split MBP). */
ProcessorConfig promotionConfig(std::uint32_t threshold = 64);

/** Baseline + trace packing (no promotion). */
ProcessorConfig packingConfig(
    trace::PackingPolicy policy = trace::PackingPolicy::Unregulated,
    std::uint32_t granule = 2);

/** Promotion (threshold) + packing (policy) together. */
ProcessorConfig promotionPackingConfig(
    std::uint32_t threshold = 64,
    trace::PackingPolicy policy = trace::PackingPolicy::Unregulated,
    std::uint32_t granule = 2);

} // namespace tcsim::sim

#endif // TCSIM_SIM_CONFIG_H
