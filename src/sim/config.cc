#include "sim/config.h"

#include "common/fnv.h"
#include "common/parse.h"

namespace tcsim::sim
{

namespace
{

std::uint64_t
cacheFingerprint(std::uint64_t hash, const memory::CacheParams &params)
{
    hash = fnv1aAppendScalar(hash, params.sizeBytes);
    hash = fnv1aAppendScalar(hash, params.assoc);
    hash = fnv1aAppendScalar(hash, params.lineBytes);
    hash = fnv1aAppendScalar(hash, params.accessLatency);
    return hash;
}

} // namespace

std::uint64_t
configFingerprint(const ProcessorConfig &config)
{
    // Every simulation-relevant field participates; keep this in sync
    // with ProcessorConfig and the nested parameter structs. A field
    // left out here would let two behaviorally different configs share
    // unit hashes and merged fragments.
    //
    // The constants stand where deleted fields were hashed, with the
    // value and type every remaining config had (pathAssociativity,
    // staticPromotion, an empty staticPromotions site count,
    // partialMatching, inactiveIssue), so no unit hash moved.
    std::uint64_t hash = kFnvOffsetBasis;
    hash = fnv1aAppendScalar(hash, config.useTraceCache);
    hash = fnv1aAppendScalar(hash, config.traceCache.numSegments);
    hash = fnv1aAppendScalar(hash, config.traceCache.assoc);
    hash = fnv1aAppendScalar(hash, false);
    hash = fnv1aAppendScalar(
        hash, static_cast<std::uint8_t>(config.fillUnit.packing));
    hash = fnv1aAppendScalar(hash, config.fillUnit.packingGranule);
    hash = fnv1aAppendScalar(hash, config.fillUnit.promotion);
    hash = fnv1aAppendScalar(hash, config.fillUnit.biasTable.entries);
    hash = fnv1aAppendScalar(hash,
                             config.fillUnit.biasTable.promoteThreshold);
    hash = fnv1aAppendScalar(hash, config.fillUnit.biasTable.counterMax);
    hash = fnv1aAppendScalar(hash, false);
    hash = fnv1aAppendScalar(hash, std::uint64_t{0});
    hash = fnv1aAppendScalar(hash,
                             static_cast<std::uint8_t>(config.mbpKind));
    hash = fnv1aAppendScalar(hash, config.fetchWidth);
    hash = fnv1aAppendScalar(hash, config.fetchQueueBatches);
    hash = fnv1aAppendScalar(hash, true);
    hash = fnv1aAppendScalar(hash, true);
    hash = cacheFingerprint(hash, config.hierarchy.icache);
    hash = cacheFingerprint(hash, config.hierarchy.dcache);
    hash = cacheFingerprint(hash, config.hierarchy.l2);
    hash = fnv1aAppendScalar(hash, config.hierarchy.memoryLatency);
    hash = fnv1aAppendScalar(hash, config.nodeTables.numUnits);
    hash = fnv1aAppendScalar(hash, config.nodeTables.entriesPerUnit);
    hash = fnv1aAppendScalar(hash, config.robEntries);
    hash = fnv1aAppendScalar(hash, config.retireWidth);
    hash = fnv1aAppendScalar(hash, config.checkpoints);
    hash = fnv1aAppendScalar(
        hash, static_cast<std::uint8_t>(config.disambiguation));
    hash = fnv1aAppendScalar(hash, config.latIntAlu);
    hash = fnv1aAppendScalar(hash, config.latIntMult);
    hash = fnv1aAppendScalar(hash, config.latIntDiv);
    hash = fnv1aAppendScalar(hash, config.latAddrGen);
    hash = fnv1aAppendScalar(hash, config.latDCacheHit);
    return hash;
}

ProcessorConfig
icacheConfig()
{
    ProcessorConfig cfg;
    cfg.name = "icache";
    cfg.useTraceCache = false;
    // A large dual-ported instruction cache replaces the TC + 4 KB
    // support icache (paper section 3).
    cfg.hierarchy.icache.sizeBytes = 128 * 1024;
    return cfg;
}

ProcessorConfig
baselineConfig()
{
    ProcessorConfig cfg;
    cfg.name = "baseline";
    cfg.useTraceCache = true;
    cfg.fillUnit.packing = trace::PackingPolicy::Atomic;
    cfg.fillUnit.promotion = false;
    cfg.mbpKind = MbpKind::Tree;
    return cfg;
}

std::optional<std::uint32_t>
parsePromotionThreshold(std::string_view text)
{
    const std::optional<std::uint64_t> threshold =
        parseUint(text, kMaxPromotionThreshold);
    if (!threshold || *threshold == 0)
        return std::nullopt;
    return static_cast<std::uint32_t>(*threshold);
}

ProcessorConfig
promotionConfig(std::uint32_t threshold)
{
    ProcessorConfig cfg = baselineConfig();
    cfg.name = "promotion-t" + std::to_string(threshold);
    cfg.fillUnit.promotion = true;
    cfg.fillUnit.biasTable.promoteThreshold = threshold;
    // Promotion skews demand toward the first prediction; the paper
    // pairs it with the restructured split predictor (section 4).
    cfg.mbpKind = MbpKind::Split;
    return cfg;
}

ProcessorConfig
packingConfig(trace::PackingPolicy policy, std::uint32_t granule)
{
    ProcessorConfig cfg = baselineConfig();
    cfg.name = std::string("packing-") + trace::packingPolicyName(policy);
    cfg.fillUnit.packing = policy;
    cfg.fillUnit.packingGranule = granule;
    return cfg;
}

ProcessorConfig
promotionPackingConfig(std::uint32_t threshold,
                       trace::PackingPolicy policy, std::uint32_t granule)
{
    ProcessorConfig cfg = promotionConfig(threshold);
    cfg.name = std::string("promo-pack-") +
               trace::packingPolicyName(policy);
    cfg.fillUnit.packing = policy;
    cfg.fillUnit.packingGranule = granule;
    return cfg;
}

} // namespace tcsim::sim
