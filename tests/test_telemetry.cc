/**
 * @file
 * Tests for the sweep-farm telemetry layer: heartbeat render/parse
 * round-trips (including torn and truncated files), the monitor's
 * aggregation math (stale detection, straggler medians, EWMA
 * throughput), the perf-regression gate's edge cases, and the status
 * server's bearer-token authentication.
 */

#include <array>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/farm.h"
#include "obs/heartbeat.h"
#include "obs/regress.h"
#include "obs/status_server.h"
#include "test_paths.h"

namespace
{

using namespace tcsim;
using namespace tcsim::obs;

Heartbeat
sampleHeartbeat()
{
    Heartbeat hb;
    hb.worker = "shard3";
    hb.pid = 4242;
    hb.seq = 17;
    hb.phase = "run";
    hb.unitId = "compress@baseline@8000";
    hb.unitHash = "0123456789abcdef";
    hb.startMono = 100.0;
    hb.nowMono = 161.5;
    hb.unitStartMono = 160.25;
    hb.unitsDone = 5;
    hb.unitsTotal = 9;
    hb.retiredInsts = 40000;
    hb.cacheHits = 7;
    hb.cacheMisses = 2;
    return hb;
}

TEST(Heartbeat, RenderParseRoundTrip)
{
    const Heartbeat hb = sampleHeartbeat();
    const std::optional<Heartbeat> back = parseHeartbeat(renderHeartbeat(hb));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->worker, hb.worker);
    EXPECT_EQ(back->pid, hb.pid);
    EXPECT_EQ(back->seq, hb.seq);
    EXPECT_EQ(back->phase, hb.phase);
    EXPECT_EQ(back->unitId, hb.unitId);
    EXPECT_EQ(back->unitHash, hb.unitHash);
    EXPECT_DOUBLE_EQ(back->startMono, hb.startMono);
    EXPECT_DOUBLE_EQ(back->nowMono, hb.nowMono);
    EXPECT_DOUBLE_EQ(back->unitStartMono, hb.unitStartMono);
    EXPECT_EQ(back->unitsDone, hb.unitsDone);
    EXPECT_EQ(back->unitsTotal, hb.unitsTotal);
    EXPECT_EQ(back->retiredInsts, hb.retiredInsts);
    EXPECT_EQ(back->cacheHits, hb.cacheHits);
    EXPECT_EQ(back->cacheMisses, hb.cacheMisses);
}

TEST(Heartbeat, TruncatedAndTornDocumentsAreRejected)
{
    const std::string doc = renderHeartbeat(sampleHeartbeat());
    // Every proper prefix is a torn read and must parse to nullopt,
    // never to a half-filled heartbeat.
    for (std::size_t cut : {std::size_t{0}, doc.size() / 4,
                            doc.size() / 2, doc.size() - 2}) {
        EXPECT_FALSE(parseHeartbeat(doc.substr(0, cut)).has_value())
            << "prefix of " << cut << " bytes parsed";
    }
    EXPECT_FALSE(parseHeartbeat("").has_value());
    EXPECT_FALSE(parseHeartbeat("{}").has_value());
    EXPECT_FALSE(parseHeartbeat("not json at all").has_value());
    // A complete document of the wrong schema is not a heartbeat.
    EXPECT_FALSE(
        parseHeartbeat("{\"schema\": \"tcsim-bench-fragment-v1\"}")
            .has_value());
}

TEST(Heartbeat, MissingFieldRejected)
{
    std::string doc = renderHeartbeat(sampleHeartbeat());
    const std::size_t at = doc.find("\"retired_insts\"");
    ASSERT_NE(at, std::string::npos);
    const std::size_t line_end = doc.find('\n', at);
    doc.erase(at, line_end - at + 1);
    EXPECT_FALSE(parseHeartbeat(doc).has_value());
}

TEST(Heartbeat, FilenameConventions)
{
    EXPECT_EQ(heartbeatPath("/tmp/frags", "shard0"),
              "/tmp/frags/heartbeat-shard0.json");
    EXPECT_TRUE(isHeartbeatFilename("heartbeat-shard0.json"));
    EXPECT_TRUE(isHeartbeatFilename("heartbeat-pid1234.json"));
    EXPECT_FALSE(isHeartbeatFilename("0123456789abcdef.json"));
    EXPECT_FALSE(isHeartbeatFilename("results.json"));
}

TEST(Heartbeat, EmitterWritesLifecyclePhases)
{
    const std::string dir = test::scratchPath("heartbeats");
    std::filesystem::remove_all(dir);
    const std::string path = heartbeatPath(dir, "w0");
    const auto read_phase = [&]() {
        std::ifstream in(path, std::ios::binary);
        std::stringstream buffer;
        buffer << in.rdbuf();
        const std::optional<Heartbeat> hb = parseHeartbeat(buffer.str());
        return hb ? hb->phase : std::string("<unparsed>");
    };
    {
        // Long interval: every observed write below comes from a
        // state transition, not the background timer.
        HeartbeatEmitter emitter(dir, "w0", 60.0, 3);
        ASSERT_TRUE(emitter.enabled());
        EXPECT_EQ(read_phase(), "idle");
        emitter.beginUnit("compress@baseline@8000", "0123456789abcdef");
        EXPECT_EQ(read_phase(), "run");
        emitter.completeUnit(8000, 1, 0);
        EXPECT_EQ(read_phase(), "idle");
        emitter.finish();
        EXPECT_EQ(read_phase(), "done");
    }
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::optional<Heartbeat> hb = parseHeartbeat(buffer.str());
    ASSERT_TRUE(hb.has_value());
    EXPECT_EQ(hb->unitsDone, 1u);
    EXPECT_EQ(hb->unitsTotal, 3u);
    EXPECT_EQ(hb->retiredInsts, 8000u);
    EXPECT_EQ(hb->cacheHits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(Heartbeat, DisabledEmitterIsInert)
{
    HeartbeatEmitter no_dir("", "w0", 1.0, 3);
    EXPECT_FALSE(no_dir.enabled());
    no_dir.beginUnit("a", "b");
    no_dir.completeUnit(1, 0, 0);
    no_dir.finish();
    HeartbeatEmitter no_interval(testing::TempDir(), "w0", 0.0, 3);
    EXPECT_FALSE(no_interval.enabled());
}

TEST(Farm, MedianOfOddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(medianOf({}), 0.0);
    EXPECT_DOUBLE_EQ(medianOf({3.0}), 3.0);
    EXPECT_DOUBLE_EQ(medianOf({5.0, 1.0, 3.0}), 3.0);
    EXPECT_DOUBLE_EQ(medianOf({4.0, 1.0, 3.0, 2.0}), 2.5);
}

WorkerObservation
runningWorker(const std::string &name, double unit_elapsed,
              double age = 0.5)
{
    WorkerObservation observed;
    observed.hb.worker = name;
    observed.hb.phase = "run";
    observed.hb.unitId = name + "-unit";
    observed.hb.startMono = 0.0;
    observed.hb.unitStartMono = 100.0;
    observed.hb.nowMono = 100.0 + unit_elapsed;
    observed.hb.unitsTotal = 4;
    observed.ageSeconds = age;
    return observed;
}

TEST(Farm, StaleDetectionSparesDoneWorkers)
{
    FarmParams params;
    params.staleAfterSeconds = 15.0;
    std::vector<WorkerObservation> workers;
    workers.push_back(runningWorker("live", 1.0, /*age=*/2.0));
    workers.push_back(runningWorker("wedged", 1.0, /*age=*/30.0));
    WorkerObservation done;
    done.hb.worker = "finished";
    done.hb.phase = "done";
    done.ageSeconds = 500.0; // done workers stop writing by design
    workers.push_back(done);

    const FarmStatus status =
        aggregateFarm(workers, {}, 8, 2, params, nullptr, 0.0);
    EXPECT_EQ(status.workersStale, 1u);
    EXPECT_FALSE(status.workers[0].stale);
    EXPECT_TRUE(status.workers[1].stale);
    EXPECT_FALSE(status.workers[2].stale);
    EXPECT_EQ(status.unitsRunning, 2u);
}

TEST(Farm, StragglerNeedsMedianFloorAndThreshold)
{
    FarmParams params;
    params.stragglerK = 4.0;
    params.minCompletedForMedian = 3;
    std::vector<WorkerObservation> workers;
    workers.push_back(runningWorker("slow", 10.0, /*age=*/0.0));

    // Two completed samples: below the floor, no flagging even though
    // the unit is 10x the median.
    FarmStatus status = aggregateFarm(workers, {1.0, 1.0}, 8, 2, params,
                                      nullptr, 0.0);
    EXPECT_DOUBLE_EQ(status.medianUnitSeconds, 0.0);
    EXPECT_TRUE(status.stragglers.empty());

    // Three samples with median 2.0: threshold 8.0, and the in-flight
    // elapsed (worker-reported time + heartbeat age) crosses it.
    status = aggregateFarm(workers, {1.0, 2.0, 3.0}, 8, 3, params,
                           nullptr, 0.0);
    EXPECT_DOUBLE_EQ(status.medianUnitSeconds, 2.0);
    EXPECT_DOUBLE_EQ(status.stragglerThresholdSeconds, 8.0);
    ASSERT_EQ(status.stragglers.size(), 1u);
    EXPECT_EQ(status.stragglers[0], "slow-unit");
    EXPECT_TRUE(status.workers[0].straggler);

    // At exactly 8s elapsed the unit is not yet a straggler; the age
    // pushing it past the threshold is what flags it.
    std::vector<WorkerObservation> edge;
    edge.push_back(runningWorker("edge", 8.0, /*age=*/0.0));
    status = aggregateFarm(edge, {1.0, 2.0, 3.0}, 8, 3, params, nullptr,
                           0.0);
    EXPECT_TRUE(status.stragglers.empty());
    edge[0].ageSeconds = 0.5;
    status = aggregateFarm(edge, {1.0, 2.0, 3.0}, 8, 3, params, nullptr,
                           0.0);
    EXPECT_EQ(status.stragglers.size(), 1u);
}

TEST(Farm, EwmaSmoothsRateAcrossPolls)
{
    FarmParams params;
    params.ewmaAlpha = 0.5;
    EwmaState ewma;
    // First poll seeds the state: no time base yet, rate 0.
    FarmStatus status =
        aggregateFarm({}, {}, 100, 0, params, &ewma, 10.0);
    EXPECT_DOUBLE_EQ(status.throughputUnitsPerSec, 0.0);
    EXPECT_DOUBLE_EQ(status.etaSeconds, -1.0);

    // 10 units in 10 seconds: first sample becomes the rate.
    status = aggregateFarm({}, {}, 100, 10, params, &ewma, 20.0);
    EXPECT_DOUBLE_EQ(status.throughputUnitsPerSec, 1.0);
    EXPECT_DOUBLE_EQ(status.etaSeconds, 90.0);

    // 30 more in 10 seconds: ewma = 0.5*3 + 0.5*1 = 2.
    status = aggregateFarm({}, {}, 100, 40, params, &ewma, 30.0);
    EXPECT_DOUBLE_EQ(status.throughputUnitsPerSec, 2.0);
    EXPECT_DOUBLE_EQ(status.etaSeconds, 30.0);

    // A backwards poll (monitor restart) reseeds instead of producing
    // a negative rate.
    status = aggregateFarm({}, {}, 100, 40, params, &ewma, 5.0);
    EXPECT_DOUBLE_EQ(status.throughputUnitsPerSec, 0.0);
}

TEST(Farm, SingleShotFallbackRateUsesWorkerUptime)
{
    // With no EWMA history (one-shot --status), the rate falls back
    // to units_done over the busiest worker's uptime.
    std::vector<WorkerObservation> workers;
    WorkerObservation worker = runningWorker("w", 1.0, /*age=*/1.0);
    worker.hb.startMono = 90.0; // uptime 11s + 1s age = 12s
    workers.push_back(worker);
    const FarmStatus status =
        aggregateFarm(workers, {}, 10, 6, FarmParams{}, nullptr, 0.0);
    EXPECT_DOUBLE_EQ(status.throughputUnitsPerSec, 0.5);
    EXPECT_DOUBLE_EQ(status.etaSeconds, 8.0);
}

TEST(Farm, StatusRendersAndCountsConsistently)
{
    std::vector<WorkerObservation> workers;
    workers.push_back(runningWorker("w0", 2.0));
    const FarmStatus status =
        aggregateFarm(workers, {1.0, 1.0, 1.0}, 4, 3, FarmParams{},
                      nullptr, 0.0);
    const std::string doc = renderFarmStatus(status, 1700000000);
    const std::optional<json::Value> parsed = json::parse(doc);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->getString("schema"), "tcsim-farm-status-v1");
    EXPECT_EQ(parsed->getUint64("units_total"), 4u);
    EXPECT_EQ(parsed->getUint64("units_done"), 3u);
    const json::Value *rendered_workers = parsed->find("workers");
    ASSERT_NE(rendered_workers, nullptr);
    ASSERT_EQ(rendered_workers->items().size(), 1u);
    EXPECT_EQ(rendered_workers->items()[0].getString("worker"), "w0");
    // The dashboard mentions every worker and the completion ratio.
    const std::string dashboard = renderFarmDashboard(status);
    EXPECT_NE(dashboard.find("w0"), std::string::npos);
    EXPECT_NE(dashboard.find("3/4"), std::string::npos);
}

// ---------------------------------------------------------------------
// Regression gate.
// ---------------------------------------------------------------------

std::string
resultsDoc(const std::vector<std::array<const char *, 2>> &units,
           double ipc, double fetch, double mispredict,
           int perturb_index = -1, double ipc_scale = 1.0)
{
    std::string out = "{\n  \"schema\": \"tcsim-bench-results-v1\",\n"
                      "  \"results\": [\n";
    for (std::size_t i = 0; i < units.size(); ++i) {
        const double unit_ipc =
            static_cast<int>(i) == perturb_index ? ipc * ipc_scale : ipc;
        out += std::string("    {\"benchmark\": \"") + units[i][0] +
               "\", \"config\": \"" + units[i][1] +
               "\", \"insts\": 8000, \"warmup\": 0, \"ipc\": " +
               std::to_string(unit_ipc) +
               ", \"effective_fetch_rate\": " + std::to_string(fetch) +
               ", \"cond_mispredict_rate\": " +
               std::to_string(mispredict) + "}";
        out += i + 1 < units.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
timingDoc(const std::vector<std::array<const char *, 2>> &units,
          const std::vector<double> &walls)
{
    std::string out = "{\n  \"schema\": \"tcsim-bench-timing-v1\",\n"
                      "  \"units\": [\n";
    for (std::size_t i = 0; i < units.size(); ++i) {
        out += std::string("    {\"id\": \"") + units[i][0] + "@" +
               units[i][1] + "@8000\", \"wall_seconds\": " +
               std::to_string(walls[i]) + "}";
        out += i + 1 < units.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
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
    const std::string timing = timingDoc(kUnits, {1.0, 2.0, 3.0, 4.0});
    const std::optional<json::Value> results = json::parse(doc);
    const std::optional<json::Value> timing_doc = json::parse(timing);
    ASSERT_TRUE(results && timing_doc);

    RegressOptions options;
    std::string error;
    const std::optional<RegressionReport> report =
        compareResults(*results, *results, &*timing_doc, &*timing_doc,
                       options, &error);
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
            compareResults(*baseline, *current, nullptr, nullptr,
                           RegressOptions{}, &error);
        ASSERT_TRUE(report.has_value()) << error;
        EXPECT_FALSE(report->regressed) << "an IPC gain must not fail";
    }
    std::optional<json::Value> current = json::parse(cur);
    ASSERT_TRUE(baseline && current);
    std::string error;
    const auto report = compareResults(*baseline, *current, nullptr,
                                       nullptr, RegressOptions{}, &error);
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
    auto report = compareResults(*baseline, *current, nullptr, nullptr,
                                 RegressOptions{}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_TRUE(report->regressed);
    // The reverse direction (fewer mispredicts) passes.
    report = compareResults(*current, *baseline, nullptr, nullptr,
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
    auto report = compareResults(*baseline, *current, nullptr, nullptr,
                                 RegressOptions{}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_TRUE(report->regressed);
    ASSERT_EQ(report->missingInCurrent.size(), 1u);
    EXPECT_EQ(report->missingInCurrent[0], "li@promotion-t64@8000");
    EXPECT_TRUE(report->missingInBaseline.empty());
    // New coverage (current unit with no baseline) passes.
    report = compareResults(*current, *baseline, nullptr, nullptr,
                            RegressOptions{}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_FALSE(report->regressed);
    ASSERT_EQ(report->missingInBaseline.size(), 1u);
    EXPECT_TRUE(report->missingInCurrent.empty());
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
    const std::string base_timing =
        timingDoc(units, {1, 1, 1, 1, 1, 1, 1, 1});
    // Deltas: -60%..+80% around the baseline — noisy host timing.
    const std::string cur_timing = timingDoc(
        units, {0.4, 1.8, 0.6, 1.6, 0.5, 1.5, 0.7, 1.3});
    std::optional<json::Value> results = json::parse(base_doc);
    std::optional<json::Value> tb = json::parse(base_timing);
    std::optional<json::Value> tc = json::parse(cur_timing);
    ASSERT_TRUE(results && tb && tc);
    RegressOptions options;
    options.wallThreshold = 0.20;
    options.noiseK = 3.0;
    std::string error;
    const auto report = compareResults(*results, *results, &*tb, &*tc,
                                       options, &error);
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
    const auto report = compareResults(*baseline, *current, nullptr,
                                       nullptr, RegressOptions{}, &error);
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

// ---------------------------------------------------------------------
// Status server authentication.
// ---------------------------------------------------------------------

std::string
httpGet(std::uint16_t port, const std::string &auth_header)
{
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                sizeof(addr)) != 0) {
        close(fd);
        return "";
    }
    std::string request = "GET /status HTTP/1.0\r\n";
    if (!auth_header.empty())
        request += auth_header + "\r\n";
    request += "\r\n";
    (void)!write(fd, request.data(), request.size());
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = read(fd, buf, sizeof(buf))) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    close(fd);
    return response;
}

TEST(StatusServer, RejectsWithoutTokenServesWithIt)
{
    StatusServer server;
    ASSERT_TRUE(server.start("127.0.0.1", 0, "hunter2"));
    ASSERT_NE(server.port(), 0);
    server.publish("{\"schema\": \"tcsim-farm-status-v1\"}\n");

    const std::string unauth = httpGet(server.port(), "");
    EXPECT_NE(unauth.find("401"), std::string::npos) << unauth;
    EXPECT_EQ(unauth.find("tcsim-farm-status-v1"), std::string::npos)
        << "401 must not leak the snapshot";

    const std::string wrong =
        httpGet(server.port(), "Authorization: Bearer nope");
    EXPECT_NE(wrong.find("401"), std::string::npos) << wrong;

    const std::string ok =
        httpGet(server.port(), "Authorization: Bearer hunter2");
    EXPECT_NE(ok.find("200"), std::string::npos) << ok;
    EXPECT_NE(ok.find("tcsim-farm-status-v1"), std::string::npos) << ok;
    server.stop();
}

TEST(StatusServer, RefusesEmptyToken)
{
    StatusServer server;
    EXPECT_FALSE(server.start("127.0.0.1", 0, ""));
    EXPECT_FALSE(server.running());
}

} // namespace
