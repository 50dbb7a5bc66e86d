#include "obs/regress.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/json.h"

namespace tcsim::obs
{

namespace
{

double
relDeltaOf(double baseline, double current)
{
    if (baseline == 0.0)
        return current == 0.0 ? 0.0 : (current > 0.0 ? 1.0 : -1.0);
    return (current - baseline) / std::abs(baseline);
}

/** One result record, keyed fields only. */
struct UnitRecord
{
    std::string id;
    std::string benchmark;
    std::string config;
    double ipc = 0.0;
    double fetchRate = 0.0;
    double mispredictRate = 0.0;
};

/** Reconstruct the unit id the sweep engine would assign. */
std::string
recordId(const json::Value &record)
{
    std::string id = record.getString("benchmark") + "@" +
                     record.getString("config") + "@" +
                     std::to_string(record.getUint64("insts"));
    if (record.find("replay") != nullptr)
        id += "@replay";
    return id;
}

bool
parseResultsDoc(const json::Value &doc, const char *which,
                std::vector<UnitRecord> &out, std::string *error)
{
    if (!doc.isObject() ||
        doc.getString("schema") != "tcsim-bench-results-v1") {
        if (error != nullptr)
            *error = std::string(which) +
                     ": not a tcsim-bench-results-v1 document";
        return false;
    }
    const json::Value *results = doc.find("results");
    if (results == nullptr || !results->isArray()) {
        if (error != nullptr)
            *error = std::string(which) + ": missing results array";
        return false;
    }
    for (const json::Value &record : results->items()) {
        if (!record.isObject() ||
            record.find("benchmark") == nullptr ||
            record.find("config") == nullptr ||
            record.find("ipc") == nullptr) {
            if (error != nullptr)
                *error = std::string(which) + ": malformed result record";
            return false;
        }
        UnitRecord unit;
        unit.id = recordId(record);
        unit.benchmark = record.getString("benchmark");
        unit.config = record.getString("config");
        unit.ipc = record.getDouble("ipc");
        unit.fetchRate = record.getDouble("effective_fetch_rate");
        unit.mispredictRate = record.getDouble("cond_mispredict_rate");
        out.push_back(std::move(unit));
    }
    return true;
}

MetricDelta
makeMetric(const char *name, double baseline, double current,
           double threshold, bool lower_is_better)
{
    MetricDelta metric;
    metric.name = name;
    metric.baseline = baseline;
    metric.current = current;
    metric.relDelta = relDeltaOf(baseline, current);
    metric.regressed = lower_is_better
                           ? metric.relDelta > threshold
                           : metric.relDelta < -threshold;
    return metric;
}

void
appendMetric(std::string &out, const MetricDelta &metric,
             const char *indent)
{
    out += indent;
    out += "{\"name\": \"" + metric.name + "\", ";
    out += "\"baseline\": " + json::formatDouble(metric.baseline) + ", ";
    out += "\"current\": " + json::formatDouble(metric.current) + ", ";
    out += "\"rel_delta\": " + json::formatDouble(metric.relDelta) + ", ";
    out += std::string("\"regressed\": ") +
           (metric.regressed ? "true" : "false") + "}";
}

} // namespace

double
robustSigma(const std::vector<double> &deltas)
{
    if (deltas.size() < 2)
        return 0.0;
    std::vector<double> sorted = deltas;
    std::sort(sorted.begin(), sorted.end());
    const auto median_of = [](std::vector<double> &values) {
        const std::size_t mid = values.size() / 2;
        if (values.size() % 2 == 1)
            return values[mid];
        return 0.5 * (values[mid - 1] + values[mid]);
    };
    const double median = median_of(sorted);
    std::vector<double> deviations;
    deviations.reserve(sorted.size());
    for (const double value : sorted)
        deviations.push_back(std::abs(value - median));
    std::sort(deviations.begin(), deviations.end());
    // 1.4826 scales the MAD to the standard deviation of a normal
    // distribution.
    return 1.4826 * median_of(deviations);
}

std::optional<RegressionReport>
compareResults(const json::Value &baseline, const json::Value &current,
               const WallTimes &baseline_walls,
               const WallTimes &current_walls,
               const RegressOptions &options, std::string *error)
{
    std::vector<UnitRecord> base_units, cur_units;
    if (!parseResultsDoc(baseline, "baseline", base_units, error) ||
        !parseResultsDoc(current, "current", cur_units, error)) {
        return std::nullopt;
    }
    std::map<std::string, const UnitRecord *> base_by_id;
    for (const UnitRecord &unit : base_units)
        base_by_id.emplace(unit.id, &unit);

    RegressionReport report;

    // First pass: match and compute wall deltas so the noise band is
    // learned from the full sample before any unit is judged.
    struct Matched
    {
        const UnitRecord *base;
        const UnitRecord *cur;
        std::optional<double> wallBase, wallCur;
    };
    std::vector<Matched> matched;
    std::vector<double> wall_deltas;
    for (const UnitRecord &cur : cur_units) {
        const auto it = base_by_id.find(cur.id);
        if (it == base_by_id.end()) {
            report.missingInBaseline.push_back(cur.id);
            continue;
        }
        Matched pair{it->second, &cur, std::nullopt, std::nullopt};
        const auto wb = baseline_walls.find(cur.id);
        const auto wc = current_walls.find(cur.id);
        if (wb != baseline_walls.end() && wc != current_walls.end() &&
            wb->second > 0.0) {
            pair.wallBase = wb->second;
            pair.wallCur = wc->second;
            wall_deltas.push_back(relDeltaOf(wb->second, wc->second));
        }
        matched.push_back(pair);
        base_by_id.erase(it);
    }
    for (const auto &[id, unit] : base_by_id)
        report.missingInCurrent.push_back(id);
    std::sort(report.missingInCurrent.begin(),
              report.missingInCurrent.end());

    report.wallNoiseSigma = robustSigma(wall_deltas);
    report.wallBand = std::max(options.wallThreshold,
                               options.noiseK * report.wallNoiseSigma);

    for (const Matched &pair : matched) {
        UnitComparison unit;
        unit.id = pair.cur->id;
        unit.benchmark = pair.cur->benchmark;
        unit.config = pair.cur->config;
        unit.metrics.push_back(makeMetric("ipc", pair.base->ipc,
                                          pair.cur->ipc,
                                          options.relThreshold,
                                          /*lower_is_better=*/false));
        unit.metrics.push_back(
            makeMetric("effective_fetch_rate", pair.base->fetchRate,
                       pair.cur->fetchRate, options.relThreshold,
                       /*lower_is_better=*/false));
        unit.metrics.push_back(
            makeMetric("cond_mispredict_rate",
                       pair.base->mispredictRate,
                       pair.cur->mispredictRate, options.relThreshold,
                       /*lower_is_better=*/true));
        if (pair.wallBase && pair.wallCur) {
            unit.wall = makeMetric("wall_seconds", *pair.wallBase,
                                   *pair.wallCur, report.wallBand,
                                   /*lower_is_better=*/true);
        }
        for (const MetricDelta &metric : unit.metrics)
            unit.regressed = unit.regressed || metric.regressed;
        if (unit.wall)
            unit.regressed = unit.regressed || unit.wall->regressed;
        report.regressed = report.regressed || unit.regressed;
        report.units.push_back(std::move(unit));
    }
    report.regressed =
        report.regressed || !report.missingInCurrent.empty();
    return report;
}

std::string
renderRegressionReport(const RegressionReport &report,
                       const RegressOptions &options)
{
    std::string out = "{\n";
    out += "  \"schema\": \"tcsim-regression-v1\",\n";
    out += "  \"rel_threshold\": " +
           json::formatDouble(options.relThreshold) + ",\n";
    out += "  \"wall_threshold\": " +
           json::formatDouble(options.wallThreshold) + ",\n";
    out += "  \"noise_k\": " + json::formatDouble(options.noiseK) + ",\n";
    out += "  \"wall_noise_sigma\": " +
           json::formatDouble(report.wallNoiseSigma) + ",\n";
    out += "  \"wall_band\": " + json::formatDouble(report.wallBand) + ",\n";
    out += std::string("  \"regressed\": ") +
           (report.regressed ? "true" : "false") + ",\n";
    const auto appendIdArray = [&](const char *key,
                                   const std::vector<std::string> &ids,
                                   bool last) {
        out += "  \"";
        out += key;
        out += "\": [";
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += "\"" + json::escape(ids[i]) + "\"";
        }
        out += last ? "]\n" : "],\n";
    };
    appendIdArray("missing_in_baseline", report.missingInBaseline,
                  false);
    appendIdArray("missing_in_current", report.missingInCurrent, false);
    out += "  \"units\": [\n";
    for (std::size_t i = 0; i < report.units.size(); ++i) {
        const UnitComparison &unit = report.units[i];
        out += "    {\n";
        out += "      \"id\": \"" + json::escape(unit.id) + "\",\n";
        out += "      \"benchmark\": \"" + json::escape(unit.benchmark) +
               "\",\n";
        out += "      \"config\": \"" + json::escape(unit.config) +
               "\",\n";
        out += std::string("      \"regressed\": ") +
               (unit.regressed ? "true" : "false") + ",\n";
        out += "      \"metrics\": [\n";
        for (std::size_t m = 0; m < unit.metrics.size(); ++m) {
            appendMetric(out, unit.metrics[m], "        ");
            out += m + 1 < unit.metrics.size() ? ",\n" : "\n";
        }
        out += "      ]";
        if (unit.wall) {
            out += ",\n      \"wall\": ";
            appendMetric(out, *unit.wall, "");
            out += "\n";
        } else {
            out += "\n";
        }
        out += "    }";
        out += i + 1 < report.units.size() ? ",\n" : "\n";
    }
    out += "  ]\n";
    out += "}\n";
    return out;
}

} // namespace tcsim::obs
