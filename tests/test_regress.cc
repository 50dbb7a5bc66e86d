/**
 * @file
 * Tests for the perf-regression gate behind tcsim_regress: clean
 * self-compares, direction-aware metric deltas, asymmetric coverage
 * loss, the learned wall-clock noise band and the report's JSON
 * round trip.
 */

#include <array>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/regress.h"

namespace
{

using namespace tcsim;
using namespace tcsim::obs;

/** A results document over @p units; @p replay marks every record as
 * an `@replay` unit's. */
std::string
resultsDoc(const std::vector<std::array<const char *, 2>> &units,
           double ipc, double fetch, double mispredict,
           int perturb_index = -1, double ipc_scale = 1.0,
           bool replay = false)
{
    std::string out = "{\n  \"schema\": \"tcsim-bench-results-v1\",\n"
                      "  \"results\": [\n";
    for (std::size_t i = 0; i < units.size(); ++i) {
        const double unit_ipc =
            static_cast<int>(i) == perturb_index ? ipc * ipc_scale : ipc;
        out += std::string("    {\"benchmark\": \"") + units[i][0] +
               "\", \"config\": \"" + units[i][1] +
               "\", \"insts\": 8000, \"warmup\": 0, " +
               (replay ? "\"replay\": 1, " : "") + "\"ipc\": " +
               std::to_string(unit_ipc) +
               ", \"effective_fetch_rate\": " + std::to_string(fetch) +
               ", \"cond_mispredict_rate\": " +
               std::to_string(mispredict) + "}";
        out += i + 1 < units.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

/** Wall seconds by unit id, as tcsim_regress reads them from the
 * fragments of a resultsDoc() run. */
WallTimes
wallTimes(const std::vector<std::array<const char *, 2>> &units,
          const std::vector<double> &walls, bool replay = false)
{
    WallTimes out;
    for (std::size_t i = 0; i < units.size(); ++i)
        out[std::string(units[i][0]) + "@" + units[i][1] + "@8000" +
            (replay ? "@replay" : "")] = walls[i];
    return out;
}

const std::vector<std::array<const char *, 2>> kUnits = {
    {{"compress", "baseline"}},
    {{"li", "baseline"}},
    {{"compress", "promotion-t64"}},
    {{"li", "promotion-t64"}},
};

TEST(Regress, SelfCompareIsCleanWithZeroVarianceBand)
{
    const std::string doc = resultsDoc(kUnits, 2.0, 10.0, 0.05);
    const WallTimes walls = wallTimes(kUnits, {1.0, 2.0, 3.0, 4.0});
    const std::optional<json::Value> results = json::parse(doc);
    ASSERT_TRUE(results);

    RegressOptions options;
    std::string error;
    const std::optional<RegressionReport> report = compareResults(
        *results, *results, walls, walls, options, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_FALSE(report->regressed);
    EXPECT_EQ(report->units.size(), kUnits.size());
    // Zero per-unit variance: the learned sigma is 0 and the wall
    // band degenerates to the plain threshold.
    EXPECT_DOUBLE_EQ(report->wallNoiseSigma, 0.0);
    EXPECT_DOUBLE_EQ(report->wallBand, options.wallThreshold);
    for (const UnitComparison &unit : report->units) {
        EXPECT_FALSE(unit.regressed);
        ASSERT_TRUE(unit.wall.has_value());
        EXPECT_DOUBLE_EQ(unit.wall->relDelta, 0.0);
    }
}

TEST(Regress, IpcLossFlaggedGainNot)
{
    const std::string base = resultsDoc(kUnits, 2.0, 10.0, 0.05);
    // Unit 1 loses 5% IPC; unit 2 gains 5%.
    std::string cur = resultsDoc(kUnits, 2.0, 10.0, 0.05, 1, 0.95);
    const std::size_t at = cur.find("2.000000");
    ASSERT_NE(at, std::string::npos);
    std::optional<json::Value> baseline = json::parse(base);
    {
        std::string gain = resultsDoc(kUnits, 2.0, 10.0, 0.05, 2, 1.05);
        // Splice unit 2's gained ipc into cur by re-rendering: easier
        // to just compare two separate documents below.
        std::optional<json::Value> current = json::parse(gain);
        ASSERT_TRUE(baseline && current);
        std::string error;
        const auto report =
            compareResults(*baseline, *current, {}, {},
                           RegressOptions{}, &error);
        ASSERT_TRUE(report.has_value()) << error;
        EXPECT_FALSE(report->regressed) << "an IPC gain must not fail";
    }
    std::optional<json::Value> current = json::parse(cur);
    ASSERT_TRUE(baseline && current);
    std::string error;
    const auto report = compareResults(*baseline, *current, {}, {},
                                       RegressOptions{}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_TRUE(report->regressed);
    ASSERT_EQ(report->units.size(), kUnits.size());
    EXPECT_FALSE(report->units[0].regressed);
    EXPECT_TRUE(report->units[1].regressed);
    const MetricDelta &ipc = report->units[1].metrics[0];
    EXPECT_EQ(ipc.name, "ipc");
    EXPECT_TRUE(ipc.regressed);
    EXPECT_NEAR(ipc.relDelta, -0.05, 1e-9);
}

TEST(Regress, MispredictRateIsLowerIsBetter)
{
    const std::string base = resultsDoc(kUnits, 2.0, 10.0, 0.05);
    const std::string cur = resultsDoc(kUnits, 2.0, 10.0, 0.06);
    std::optional<json::Value> baseline = json::parse(base);
    std::optional<json::Value> current = json::parse(cur);
    ASSERT_TRUE(baseline && current);
    std::string error;
    // 0.05 -> 0.06 is a 20% relative increase in mispredicts: fails.
    auto report = compareResults(*baseline, *current, {}, {},
                                 RegressOptions{}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_TRUE(report->regressed);
    // The reverse direction (fewer mispredicts) passes.
    report = compareResults(*current, *baseline, {}, {},
                            RegressOptions{}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_FALSE(report->regressed);
}

TEST(Regress, MissingUnitsAreAsymmetric)
{
    const std::string base = resultsDoc(kUnits, 2.0, 10.0, 0.05);
    const std::vector<std::array<const char *, 2>> fewer(
        kUnits.begin(), kUnits.end() - 1);
    const std::string cur = resultsDoc(fewer, 2.0, 10.0, 0.05);
    std::optional<json::Value> baseline = json::parse(base);
    std::optional<json::Value> current = json::parse(cur);
    ASSERT_TRUE(baseline && current);
    std::string error;
    // Coverage loss (baseline unit missing from current) fails.
    auto report = compareResults(*baseline, *current, {}, {},
                                 RegressOptions{}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_TRUE(report->regressed);
    ASSERT_EQ(report->missingInCurrent.size(), 1u);
    EXPECT_EQ(report->missingInCurrent[0], "li@promotion-t64@8000");
    EXPECT_TRUE(report->missingInBaseline.empty());
    // New coverage (current unit with no baseline) passes.
    report = compareResults(*current, *baseline, {}, {},
                            RegressOptions{}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_FALSE(report->regressed);
    ASSERT_EQ(report->missingInBaseline.size(), 1u);
    EXPECT_TRUE(report->missingInCurrent.empty());
}

TEST(Regress, ReplayUnitsTakeWallTimesFromReplayFragments)
{
    // Fragments name replay units "...@replay"; the records' replay
    // key must rebuild that id, or no unit finds its wall time.
    const std::string doc =
        resultsDoc(kUnits, 2.0, 10.0, 0.05, -1, 1.0, /*replay=*/true);
    std::optional<json::Value> results = json::parse(doc);
    ASSERT_TRUE(results);
    const WallTimes walls = wallTimes(kUnits, {1, 2, 3, 4}, true);
    std::string error;
    const auto report = compareResults(*results, *results, walls, walls,
                                       RegressOptions{}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_FALSE(report->regressed);
    ASSERT_EQ(report->units.size(), kUnits.size());
    for (const UnitComparison &unit : report->units) {
        EXPECT_TRUE(unit.id.ends_with("@replay")) << unit.id;
        EXPECT_TRUE(unit.wall.has_value()) << unit.id;
    }
}

TEST(Regress, ReplayDocumentDoesNotPairWithCycleDocument)
{
    // Same benchmarks, configs and budget, but replay units report
    // approximate front-end counters only: none may be compared with
    // a cycle unit.
    std::optional<json::Value> cycle =
        json::parse(resultsDoc(kUnits, 2.0, 10.0, 0.05));
    std::optional<json::Value> replay = json::parse(
        resultsDoc(kUnits, 2.0, 10.0, 0.05, -1, 1.0, /*replay=*/true));
    ASSERT_TRUE(cycle && replay);
    std::string error;
    const auto report = compareResults(*cycle, *replay, {}, {},
                                       RegressOptions{}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_TRUE(report->units.empty());
    EXPECT_EQ(report->missingInCurrent.size(), kUnits.size());
    EXPECT_EQ(report->missingInBaseline.size(), kUnits.size());
    EXPECT_TRUE(report->regressed); // the cycle coverage is gone
}

TEST(Regress, WallBandLearnsNoiseFromSpread)
{
    // Eight units whose wall-clock deltas spread widely: the learned
    // band must widen past the configured threshold and absorb a
    // shift that a fixed threshold would flag.
    std::vector<std::array<const char *, 2>> units;
    static const char *benches[] = {"a", "b", "c", "d",
                                    "e", "f", "g", "h"};
    for (const char *bench : benches)
        units.push_back({bench, "baseline"});
    const std::string base_doc = resultsDoc(units, 2.0, 10.0, 0.05);
    const WallTimes base_walls =
        wallTimes(units, {1, 1, 1, 1, 1, 1, 1, 1});
    // Deltas: -60%..+80% around the baseline — noisy host timing.
    const WallTimes cur_walls =
        wallTimes(units, {0.4, 1.8, 0.6, 1.6, 0.5, 1.5, 0.7, 1.3});
    std::optional<json::Value> results = json::parse(base_doc);
    ASSERT_TRUE(results);
    RegressOptions options;
    options.wallThreshold = 0.20;
    options.noiseK = 3.0;
    std::string error;
    const auto report = compareResults(*results, *results, base_walls,
                                       cur_walls, options, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_GT(report->wallNoiseSigma, 0.0);
    EXPECT_GT(report->wallBand, options.wallThreshold);
    EXPECT_FALSE(report->regressed)
        << "spread this wide must be classified as noise, band "
        << report->wallBand;
}

TEST(Regress, RobustSigmaEdgeCases)
{
    EXPECT_DOUBLE_EQ(robustSigma({}), 0.0);
    EXPECT_DOUBLE_EQ(robustSigma({0.5}), 0.0);
    EXPECT_DOUBLE_EQ(robustSigma({0.1, 0.1, 0.1}), 0.0);
    // MAD of {1,2,3,4,5} about median 3 is 1 -> sigma 1.4826.
    EXPECT_NEAR(robustSigma({1, 2, 3, 4, 5}), 1.4826, 1e-9);
}

TEST(Regress, ReportRendersAndReparses)
{
    const std::string base = resultsDoc(kUnits, 2.0, 10.0, 0.05);
    const std::string cur = resultsDoc(kUnits, 2.0, 10.0, 0.05, 0, 0.5);
    std::optional<json::Value> baseline = json::parse(base);
    std::optional<json::Value> current = json::parse(cur);
    ASSERT_TRUE(baseline && current);
    std::string error;
    const auto report = compareResults(*baseline, *current, {}, {},
                                       RegressOptions{}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    const std::string rendered =
        renderRegressionReport(*report, RegressOptions{});
    const std::optional<json::Value> parsed = json::parse(rendered);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->getString("schema"), "tcsim-regression-v1");
    const json::Value *regressed = parsed->find("regressed");
    ASSERT_NE(regressed, nullptr);
    ASSERT_TRUE(regressed->isBool());
    EXPECT_TRUE(regressed->asBool());
    const json::Value *rendered_units = parsed->find("units");
    ASSERT_NE(rendered_units, nullptr);
    EXPECT_EQ(rendered_units->items().size(), kUnits.size());
}

} // namespace
