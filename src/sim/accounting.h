/**
 * @file
 * Fetch-cycle accounting and per-run result metrics.
 *
 * Every simulated cycle is attributed to exactly one of the paper's
 * six categories (Figure 12); every useful fetch is additionally
 * binned into the fetch-size histogram annotated with one of the
 * seven termination reasons (Figures 4 and 6).
 */

#ifndef TCSIM_SIM_ACCOUNTING_H
#define TCSIM_SIM_ACCOUNTING_H

#include <array>
#include <cstdint>
#include <ostream>
#include <string>

#include "common/stats.h"

namespace tcsim::sim
{

/** The paper's six fetch-cycle categories (Figure 12). */
enum class CycleCategory : std::uint8_t
{
    UsefulFetch,
    BranchMisses,
    CacheMisses,
    FullWindow,
    Traps,
    Misfetches,
    NumCategories
};

/** @return a printable name for @p category. */
const char *cycleCategoryName(CycleCategory category);

/** The paper's seven fetch-termination reasons (Figure 4). */
enum class FetchReason : std::uint8_t
{
    PartialMatch,
    AtomicBlocks,
    ICache,
    MispredBR,
    MaxSize,
    RetIndirTrap,
    MaximumBRs,
    NumReasons
};

/** @return a printable name for @p reason. */
const char *fetchReasonName(FetchReason reason);

/** Per-run accounting state. */
class Accounting
{
  public:
    static constexpr unsigned kMaxFetchWidth = 16;

    /** Attribute one cycle. */
    void
    cycle(CycleCategory category)
    {
        ++cycles_[static_cast<unsigned>(category)];
        ++totalCycles_;
    }

    /** Record a useful fetch of @p width with its termination. */
    void
    usefulFetch(unsigned width, FetchReason reason)
    {
        if (width > kMaxFetchWidth)
            width = kMaxFetchWidth;
        ++fetchHist_[static_cast<unsigned>(reason)][width];
        ++usefulFetches_;
        fetchedInsts_ += width;
    }

    std::uint64_t totalCycles() const { return totalCycles_; }

    std::uint64_t
    categoryCycles(CycleCategory category) const
    {
        return cycles_[static_cast<unsigned>(category)];
    }

    /** Histogram count for (reason, width). */
    std::uint64_t
    fetchCount(FetchReason reason, unsigned width) const
    {
        return fetchHist_[static_cast<unsigned>(reason)][width];
    }

    std::uint64_t usefulFetches() const { return usefulFetches_; }
    std::uint64_t fetchedInsts() const { return fetchedInsts_; }

    /** Zero all counters (measurement-window methodology). */
    void
    reset()
    {
        cycles_.fill(0);
        totalCycles_ = 0;
        for (auto &row : fetchHist_)
            for (auto &cell : row)
                cell = 0;
        usefulFetches_ = 0;
        fetchedInsts_ = 0;
    }

  private:
    std::array<std::uint64_t,
               static_cast<unsigned>(CycleCategory::NumCategories)>
        cycles_{};
    std::uint64_t totalCycles_ = 0;
    std::uint64_t
        fetchHist_[static_cast<unsigned>(FetchReason::NumReasons)]
                  [kMaxFetchWidth + 1] = {};
    std::uint64_t usefulFetches_ = 0;
    std::uint64_t fetchedInsts_ = 0;
};

/** Headline metrics extracted from one simulation run. */
struct SimResult
{
    std::string benchmark;
    std::string config;

    std::uint64_t instructions = 0; ///< retired (excl. discarded)
    std::uint64_t cycles = 0;
    double ipc = 0.0;
    double effectiveFetchRate = 0.0;

    // Integer sources of the derived doubles above and below:
    // deriveRatios() computes every ratio from these, so merged result
    // documents are byte-identical no matter which process computed
    // each entry.
    std::uint64_t usefulFetches = 0;
    std::uint64_t fetchedInsts = 0;
    std::uint64_t resolutionTimeSum = 0;
    std::uint64_t resolutionTimeCount = 0;
    std::uint64_t fetchesNeedingPreds[4] = {};

    std::uint64_t condBranches = 0; ///< retired conditional branches
    std::uint64_t condMispredicts = 0; ///< incl. promoted faults
    std::uint64_t promotedFaults = 0;
    std::uint64_t indirectMispredicts = 0;
    double condMispredictRate = 0.0;

    /** Mean cycles from prediction to redirect, mispredicted branches. */
    double meanResolutionTime = 0.0;

    /** Fraction of useful fetches needing 0-1 / 2 / 3 predictions. */
    double fetchesNeeding01 = 0.0;
    double fetchesNeeding2 = 0.0;
    double fetchesNeeding3 = 0.0;

    std::uint64_t cycleCat[static_cast<unsigned>(
        CycleCategory::NumCategories)] = {};
    std::uint64_t fetchHist[static_cast<unsigned>(
        FetchReason::NumReasons)][Accounting::kMaxFetchWidth + 1] = {};

    std::uint64_t tcLookups = 0;
    std::uint64_t tcHits = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t promotedRetired = 0;

    /** Full stat dump for detailed inspection. */
    StatDump stats;
};

/**
 * Set @p result's ratios (IPC, effective fetch rate, mispredict rate,
 * mean resolution time, prediction classes) from its integer fields;
 * a zero denominator gives 0. Processor::makeResult and the sweep's
 * replay and merged results all derive them here.
 */
void deriveRatios(SimResult &result);

/**
 * Render @p dump as "name value" lines in StatDump::print format,
 * re-deriving display-only ratios the canonical dump no longer stores
 * (integers-only policy): after each `<unit>.misses` that follows a
 * `<unit>.accesses`, a recomputed `<unit>.miss_ratio` line is emitted.
 */
void printStatsWithDerivedRatios(const StatDump &dump, std::ostream &os);

} // namespace tcsim::sim

#endif // TCSIM_SIM_ACCOUNTING_H
