/**
 * @file
 * tcsim_exhibits: regenerate the paper's tables and figures, the
 * ablations and addenda, and the claim check in one pass.
 *
 *   tcsim_exhibits [name...]
 *
 * Runs the named exhibits (all of them when none is named) in registry
 * order, whatever order the names come in. The selected plans are
 * merged by unit hash and simulated with one runUnits() call, so a
 * unit several exhibits share runs once; then each exhibit prints its
 * section, headed "### <name>", from its own units' results. Exit
 * status: the sum of the exhibits' statuses (verify_claims' failed
 * claims), or 2 for an unknown name. Environment: see bench/harness.h.
 */

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/exhibits.h"

int
main(int argc, char **argv)
{
    using namespace tcsim;
    using namespace tcsim::bench;

    const std::vector<Exhibit> &registry = exhibitRegistry();
    std::set<std::string> names(argv + 1, argv + argc);
    std::vector<const Exhibit *> selected;
    for (const Exhibit &exhibit : registry) {
        if (argc == 1 || names.erase(exhibit.name) != 0)
            selected.push_back(&exhibit);
    }
    if (!names.empty()) {
        std::fprintf(stderr, "unknown exhibit: %s\nexhibits:",
                     names.begin()->c_str());
        for (const Exhibit &exhibit : registry)
            std::fprintf(stderr, " %s", exhibit.name);
        std::fprintf(stderr, "\n");
        return 2;
    }

    std::vector<std::vector<WorkUnit>> plans;
    for (const Exhibit *exhibit : selected)
        plans.push_back(exhibit->plan());
    const PlanUnion all = unionOf(plans);
    const std::vector<sim::SimResult> results = runUnits(all.units);

    int status = 0;
    for (std::size_t p = 0; p < selected.size(); ++p) {
        std::vector<sim::SimResult> own;
        for (const std::size_t slot : all.slots[p])
            own.push_back(results[slot]);
        std::printf("### %s\n", selected[p]->name);
        status += selected[p]->render(own);
        std::fflush(stdout);
    }
    return status;
}
