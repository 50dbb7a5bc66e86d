/**
 * @file
 * Ablation: static vs dynamic branch promotion. The paper's section 4
 * notes promotion "can be done statically as well": no warm-up and
 * better coverage of irregular-but-biased branches, at the cost of
 * missing input-dependent bias changes. The static set here comes
 * from an architectural profiling pass (profileStronglyBiased).
 */

#include <cstdio>

#include "bench/harness.h"
#include "workload/characterize.h"

int
main()
{
    using namespace tcsim;
    using namespace tcsim::bench;

    printBanner("Ablation", "Static vs dynamic branch promotion");

    const std::vector<std::string> benchmarks = {"gcc", "compress",
                                                 "vortex", "tex"};

    std::printf("%-26s %13s %12s %10s %12s\n", "configuration",
                "avgEffFetch", "mispred%", "faults", "promotedRet");

    // Per-benchmark configs (static promotion sets depend on the
    // benchmark's profile), so build the unit list by hand and fan
    // out every run at once.
    using MakeConfig =
        std::function<sim::ProcessorConfig(const std::string &)>;
    struct Variant
    {
        const char *label;
        MakeConfig make;
    };
    const std::vector<Variant> variants = {
        {"baseline (none)",
         [](const std::string &) { return sim::baselineConfig(); }},
        {"dynamic t=64",
         [](const std::string &) { return sim::promotionConfig(64); }},
        {"static (profiled)",
         [](const std::string &bench) {
             sim::ProcessorConfig config = sim::promotionConfig(64);
             config.name = "static-promotion";
             config.fillUnit.promotion = false;
             config.fillUnit.staticPromotion = true;
             config.fillUnit.staticPromotions =
                 workload::profileStronglyBiased(programFor(bench),
                                                 400000);
             return config;
         }},
        {"static + dynamic",
         [](const std::string &bench) {
             sim::ProcessorConfig config = sim::promotionConfig(64);
             config.name = "static+dynamic";
             config.fillUnit.staticPromotion = true;
             config.fillUnit.staticPromotions =
                 workload::profileStronglyBiased(programFor(bench),
                                                 400000);
             return config;
         }},
    };

    std::vector<WorkUnit> units;
    for (const Variant &variant : variants)
        for (const std::string &bench : benchmarks)
            units.push_back(exhibitUnits({bench}, {variant.make(bench)})[0]);
    const std::vector<sim::SimResult> results = runExhibit(units);

    for (std::size_t v = 0; v < variants.size(); ++v) {
        double rate = 0, mispred = 0, faults = 0, promoted = 0;
        for (std::size_t b = 0; b < benchmarks.size(); ++b) {
            const sim::SimResult &r = results[v * benchmarks.size() + b];
            rate += r.effectiveFetchRate;
            mispred += r.condMispredictRate;
            faults += static_cast<double>(r.promotedFaults);
            promoted += static_cast<double>(r.promotedRetired);
        }
        const double n = static_cast<double>(benchmarks.size());
        std::printf("%-26s %13.2f %11.2f%% %10.0f %12.0f\n",
                    variants[v].label, rate / n, 100 * mispred / n,
                    faults / n, promoted / n);
    }
    std::fflush(stdout);
    return 0;
}
