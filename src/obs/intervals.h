/**
 * @file
 * Interval metrics: time series of the simulator's core statistics
 * sampled every N retired instructions.
 *
 * The Processor snapshots a cumulative IntervalCounters record at each
 * N-instruction boundary (plus a final partial sample at end of run);
 * the recorder derives per-interval deltas and rates (IPC, fetch rate,
 * TC hit rate, promotion/fault/demotion rates, predictions-per-fetch)
 * when serializing to the `tcsim-intervals-v1` JSON schema:
 *
 *   {"schema":"tcsim-intervals-v1","benchmark":...,"config":...,
 *    "interval_insts":N,
 *    "intervals":[{"end_cycle":..,"end_insts":..,
 *                  "delta":{"cycles":..,...},
 *                  "rates":{"ipc":..,...}}, ...]}
 *
 * Because the retire stage drains up to retireWidth instructions per
 * cycle, a boundary sample lands in [kN, kN + retireWidth); consumers
 * must use end_insts, not k*N, as the sample position.
 */

#ifndef TCSIM_OBS_INTERVALS_H
#define TCSIM_OBS_INTERVALS_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace tcsim::obs
{

/** Cumulative core counters captured at one sample point. */
struct IntervalCounters {
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;             ///< retired instructions
    std::uint64_t usefulFetches = 0;     ///< on-path fetch cycles
    std::uint64_t fetchedInsts = 0;      ///< on-path instructions supplied
    std::uint64_t condBranches = 0;      ///< retired conditional branches
    std::uint64_t condMispredicts = 0;   ///< mispredicts incl. faults
    std::uint64_t promotedFaults = 0;    ///< promoted-branch faults
    std::uint64_t promotions = 0;        ///< bias-table promotions
    std::uint64_t demotions = 0;         ///< bias-table fault demotions
    std::uint64_t promotedRetired = 0;   ///< retired promoted branches
    std::uint64_t tcLookups = 0;
    std::uint64_t tcHits = 0;
    std::uint64_t segmentsBuilt = 0;     ///< fill-unit finalized segments
    std::uint64_t icacheMisses = 0;
    std::uint64_t predictionsUsed = 0;   ///< MBP slots consumed by fetches
    /** Always 0: no disambiguation policy replays a load. Kept because
     * tcsim-intervals-v1 and perfbench carry the key. */
    std::uint64_t memOrderViolations = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t writebacks = 0;        ///< all cache levels combined
};

/**
 * Collects cumulative samples every `intervalInsts` retired
 * instructions and serializes the derived time series. One recorder
 * per Processor run; purely observational (never feeds back into the
 * simulation).
 */
class IntervalRecorder
{
  public:
    explicit IntervalRecorder(std::uint64_t interval_insts);

    std::uint64_t intervalInsts() const { return intervalInsts_; }

    /** @return the first boundary strictly above @p insts. */
    std::uint64_t
    nextBoundaryAfter(std::uint64_t insts) const
    {
        return (insts / intervalInsts_ + 1) * intervalInsts_;
    }

    /**
     * Set the baseline the first interval's deltas are computed from
     * (the cumulative counters at attach time, so a warm-up phase run
     * before attaching never pollutes the series).
     */
    void setBase(const IntervalCounters &base) { base_ = base; }

    /** Record one cumulative sample (Processor, at a boundary). */
    void snapshot(const IntervalCounters &cumulative);

    /**
     * Record the end-of-run sample unless the last boundary snapshot
     * already covers it (i.e. no instructions retired since).
     */
    void finish(const IntervalCounters &cumulative);

    const std::vector<IntervalCounters> &samples() const { return samples_; }

    /** Serialize the tcsim-intervals-v1 document to @p out. */
    void writeJson(std::FILE *out, const std::string &benchmark,
                   const std::string &config) const;

    /** writeJson() to @p path; @return false if the file cannot open. */
    bool writeJsonFile(const std::string &path, const std::string &benchmark,
                       const std::string &config) const;

  private:
    std::uint64_t intervalInsts_;
    IntervalCounters base_;
    std::vector<IntervalCounters> samples_;
};

} // namespace tcsim::obs

#endif // TCSIM_OBS_INTERVALS_H
