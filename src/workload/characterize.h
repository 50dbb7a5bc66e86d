/**
 * @file
 * Purely functional workload characterization.
 *
 * Runs a program on the FunctionalExecutor and gathers the stream
 * statistics the trace cache responds to: instruction mix, fetch-block
 * sizes, and the branch-bias distribution. Used to tune benchmark
 * profiles against the paper's reported aggregates and by tests that
 * pin generator behaviour.
 */

#ifndef TCSIM_WORKLOAD_CHARACTERIZE_H
#define TCSIM_WORKLOAD_CHARACTERIZE_H

#include <cstdint>

#include "common/stats.h"
#include "workload/executor.h"
#include "workload/program.h"

namespace tcsim::workload
{

/** Aggregate stream statistics for one program run. */
struct WorkloadStats
{
    std::uint64_t instCount = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t condTaken = 0;
    std::uint64_t calls = 0;
    std::uint64_t returns = 0;
    std::uint64_t indirectJumps = 0;
    std::uint64_t uncondJumps = 0;
    std::uint64_t traps = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    bool halted = false;

    /** Distinct static instruction addresses touched (dynamic code
     * footprint in instructions). */
    std::uint64_t touchedCodeAddrs = 0;

    /**
     * Mean dynamic fill-block size: instructions between block
     * terminators (conditional branches, returns, indirect jumps,
     * traps), matching the fill unit's view.
     */
    double avgFillBlockSize = 0.0;

    /** Histogram of fill-block sizes (bucket 16 saturates). */
    Histogram fillBlockHist{17};

    /**
     * Fraction of dynamic conditional branches whose static site is
     * biased at least 99% in one direction.
     */
    double fracDynStronglyBiased = 0.0;

    /**
     * Fraction of dynamic conditional branch executions that continue
     * a run of >= 64 consecutive same-direction outcomes at their
     * static site (a proxy for promotability at threshold 64).
     */
    double fracDynLongRun = 0.0;
};

/** Run @p program for at most @p max_insts and characterize it. */
WorkloadStats characterize(const Program &program,
                           std::uint64_t max_insts);

} // namespace tcsim::workload

#endif // TCSIM_WORKLOAD_CHARACTERIZE_H
