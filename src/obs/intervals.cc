#include "obs/intervals.h"

#include <cinttypes>

#include "common/log.h"

namespace tcsim::obs
{

namespace
{

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0 : static_cast<double>(num) / den;
}

double
perKinst(std::uint64_t num, std::uint64_t insts)
{
    return insts == 0 ? 0.0 : 1000.0 * static_cast<double>(num) / insts;
}

} // namespace

IntervalRecorder::IntervalRecorder(std::uint64_t interval_insts)
    : intervalInsts_(interval_insts)
{
    TCSIM_ASSERT(interval_insts > 0, "interval size must be positive");
}

void
IntervalRecorder::snapshot(const IntervalCounters &cumulative)
{
    samples_.push_back(cumulative);
}

void
IntervalRecorder::finish(const IntervalCounters &cumulative)
{
    const std::uint64_t last =
        samples_.empty() ? base_.insts : samples_.back().insts;
    if (cumulative.insts > last)
        samples_.push_back(cumulative);
}

void
IntervalRecorder::writeJson(std::FILE *out, const std::string &benchmark,
                            const std::string &config) const
{
    std::fprintf(out,
                 "{\"schema\":\"tcsim-intervals-v1\","
                 "\"benchmark\":\"%s\",\"config\":\"%s\","
                 "\"interval_insts\":%" PRIu64 ",\"intervals\":[",
                 benchmark.c_str(), config.c_str(), intervalInsts_);
    IntervalCounters prev = base_; // first delta excludes warm-up
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        const IntervalCounters &cur = samples_[i];
        const IntervalCounters d = {
            cur.cycles - prev.cycles,
            cur.insts - prev.insts,
            cur.usefulFetches - prev.usefulFetches,
            cur.fetchedInsts - prev.fetchedInsts,
            cur.condBranches - prev.condBranches,
            cur.condMispredicts - prev.condMispredicts,
            cur.promotedFaults - prev.promotedFaults,
            cur.promotions - prev.promotions,
            cur.demotions - prev.demotions,
            cur.promotedRetired - prev.promotedRetired,
            cur.tcLookups - prev.tcLookups,
            cur.tcHits - prev.tcHits,
            cur.segmentsBuilt - prev.segmentsBuilt,
            cur.icacheMisses - prev.icacheMisses,
            cur.predictionsUsed - prev.predictionsUsed,
            cur.memOrderViolations - prev.memOrderViolations,
            cur.l2Misses - prev.l2Misses,
            cur.writebacks - prev.writebacks,
        };
        std::fprintf(
            out,
            "%s\n{\"end_cycle\":%" PRIu64 ",\"end_insts\":%" PRIu64 ","
            "\"delta\":{\"cycles\":%" PRIu64 ",\"insts\":%" PRIu64 ","
            "\"useful_fetches\":%" PRIu64 ",\"fetched_insts\":%" PRIu64 ","
            "\"cond_branches\":%" PRIu64 ",\"cond_mispredicts\":%" PRIu64 ","
            "\"promoted_faults\":%" PRIu64 ",\"promotions\":%" PRIu64 ","
            "\"demotions\":%" PRIu64 ",\"promoted_retired\":%" PRIu64 ","
            "\"tc_lookups\":%" PRIu64 ",\"tc_hits\":%" PRIu64 ","
            "\"segments_built\":%" PRIu64 ",\"icache_misses\":%" PRIu64 ","
            "\"predictions_used\":%" PRIu64 ","
            "\"mem_order_violations\":%" PRIu64 ","
            "\"l2_misses\":%" PRIu64 ",\"writebacks\":%" PRIu64 "},"
            "\"rates\":{\"ipc\":%.6f,\"fetch_rate\":%.6f,"
            "\"tc_hit_rate\":%.6f,\"mispredict_rate\":%.6f,"
            "\"preds_per_fetch\":%.6f,\"faults_per_kinst\":%.6f,"
            "\"promotions_per_kinst\":%.6f,\"demotions_per_kinst\":%.6f,"
            "\"l2_mpki\":%.6f,\"writebacks_per_kinst\":%.6f}}",
            i == 0 ? "" : ",", cur.cycles, cur.insts, d.cycles, d.insts,
            d.usefulFetches, d.fetchedInsts, d.condBranches,
            d.condMispredicts, d.promotedFaults, d.promotions, d.demotions,
            d.promotedRetired, d.tcLookups, d.tcHits, d.segmentsBuilt,
            d.icacheMisses, d.predictionsUsed, d.memOrderViolations,
            d.l2Misses, d.writebacks,
            ratio(d.insts, d.cycles), ratio(d.fetchedInsts, d.usefulFetches),
            ratio(d.tcHits, d.tcLookups),
            ratio(d.condMispredicts, d.condBranches),
            ratio(d.predictionsUsed, d.usefulFetches),
            perKinst(d.promotedFaults, d.insts),
            perKinst(d.promotions, d.insts), perKinst(d.demotions, d.insts),
            perKinst(d.l2Misses, d.insts), perKinst(d.writebacks, d.insts));
        prev = cur;
    }
    std::fprintf(out, "\n]}\n");
}

bool
IntervalRecorder::writeJsonFile(const std::string &path,
                                const std::string &benchmark,
                                const std::string &config) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    writeJson(out, benchmark, config);
    std::fclose(out);
    return true;
}

} // namespace tcsim::obs
