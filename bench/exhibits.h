/**
 * @file
 * The exhibit registry: every paper table and figure, ablation,
 * addendum and the claim check, each a plan (the work units it needs)
 * and a renderer over their results (bench/exhibits.cc).
 * tcsim_exhibits takes the union of the selected plans by unit hash,
 * simulates each distinct unit once with one runUnits() call and hands
 * every renderer its own results.
 */

#ifndef TCSIM_BENCH_EXHIBITS_H
#define TCSIM_BENCH_EXHIBITS_H

#include <cstddef>
#include <vector>

#include "bench/harness.h"
#include "bench/sweep.h"
#include "sim/accounting.h"

namespace tcsim::bench
{

/** One exhibit: what it simulates and how it prints. */
struct Exhibit
{
    /** Section name, "### <name>" in tcsim_exhibits output. */
    const char *name;
    /** @return the units to simulate, TCSIM_INSTS / TCSIM_WARMUP
     * applied (exhibitUnits). */
    std::vector<WorkUnit> (*plan)();
    /**
     * Print the exhibit to stdout from @p results, one per planned
     * unit in plan order. @return its exit status (0 = pass).
     */
    int (*render)(const std::vector<sim::SimResult> &results);
};

/** Every exhibit, in the order tcsim_exhibits runs them. */
const std::vector<Exhibit> &exhibitRegistry();

/** The union of several plans, each distinct unit once. */
struct PlanUnion
{
    /** Distinct units in first-seen order, indexed by position. */
    std::vector<WorkUnit> units;
    /** slots[p][i]: position in units of plan p's unit i. */
    std::vector<std::vector<std::size_t>> slots;
};

/**
 * Merge @p plans by unit hash. fatal() when two units share an id but
 * not a hash: two configs that simulate differently under one name.
 */
PlanUnion unionOf(const std::vector<std::vector<WorkUnit>> &plans);

} // namespace tcsim::bench

#endif // TCSIM_BENCH_EXHIBITS_H
