/**
 * @file
 * tcsim_run: the command-line driver for one-off simulations.
 *
 *   tcsim_run [options]
 *     --bench <name>        benchmark profile (default compress); or
 *                           'list' to enumerate
 *     --config <name>       icache | baseline | promotion | packing |
 *                           promo-pack (default baseline)
 *     --threshold <n>       promotion threshold, 1 to 1023 (default 64;
 *                           promotion and promo-pack only)
 *     --packing <policy>    atomic | unregulated | cost | n2 | n4
 *     --insts <n>           instruction budget, at least 1 (default
 *                           1000000)
 *     --warmup <n>          simulate n instructions first, then
 *                           measure [n, n + insts) (default 0)
 *     --disambiguation <d>  conservative | perfect (default
 *                           conservative)
 *     --path-assoc          enable trace-cache path associativity
 *     --no-partial-match    disable partial matching
 *     --no-inactive-issue   disable inactive issue
 *     --static-promotion    profile-driven static promotion
 *     --histogram           print the fetch-width histogram
 *     --stats               print the full statistics dump
 *   --config icache has no trace cache or fill unit, so it takes none
 *   of --packing, --path-assoc, --no-partial-match, --no-inactive-issue
 *   and --static-promotion.
 *
 *   Branch/fetch trace record & replay (tcsim-btrace-v1):
 *     --record-trace <file> run the control-flow pass through the
 *                           oracle, write every retired control
 *                           transfer to <file>, print btrace stats
 *     --replay-trace <file> drive the front end (icache, trace cache,
 *                           fill unit, predictors) directly from
 *                           <file>; prints a byte-identical stats
 *                           block to the recording run
 *   Neither takes --warmup, --stats, --histogram, --intervals, --trace
 *   or --profile: those apply to the cycle-level run only. The walker
 *   has no fetch engine and no core, so neither takes
 *   --disambiguation, --no-partial-match or --no-inactive-issue.
 *
 *   Observability (src/obs):
 *     --trace <cats>        enable trace points: comma list of
 *                           fetch,tc,fill,promote,bpred,mem,core or
 *                           'all' (also accepts --trace=tc,promote)
 *     --trace-out <path>    trace destination (default stderr); the
 *                           format is inferred from the extension
 *                           (.jsonl -> JSONL, .json -> Chrome
 *                           trace_event, else text)
 *     --trace-format <f>    force text | jsonl | chrome
 *     --intervals <n>       sample interval metrics every n retired
 *                           instructions (tcsim-intervals-v1 JSON)
 *     --intervals-out <p>   intervals destination
 *                           (default tcsim-intervals.json)
 *     --profile             print per-phase host-time accounting and
 *                           sim MIPS after the run
 *   --trace-out and --trace-format need --trace, and --intervals-out
 *   needs --intervals.
 *   Numeric flags take decimal integers only; "4M" is an error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "common/fnv.h"
#include "common/parse.h"
#include "obs/intervals.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/processor.h"
#include "workload/btrace.h"
#include "workload/characterize.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace
{

using namespace tcsim;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--bench <name>|list] [--config <name>] "
                 "[--threshold <n>] [--packing <policy>] [--insts <n>] "
                 "[--warmup <n>] [--disambiguation <d>] [--path-assoc] "
                 "[--no-partial-match] [--no-inactive-issue] "
                 "[--static-promotion] [--histogram] [--stats] "
                 "[--record-trace <file>] [--replay-trace <file>] "
                 "[--trace <cats>] [--trace-out <path>] "
                 "[--trace-format text|jsonl|chrome] [--intervals <n>] "
                 "[--intervals-out <path>] [--profile]\n",
                 argv0);
    std::exit(2);
}

std::uint32_t
requireThreshold(const std::string &text)
{
    const std::optional<std::uint32_t> threshold =
        sim::parsePromotionThreshold(text);
    if (!threshold) {
        fatal("--threshold: '%s' is not a promotion threshold from 1 to %u",
              text.c_str(), sim::kMaxPromotionThreshold);
    }
    return *threshold;
}

trace::PackingPolicy
parsePacking(const std::string &name, std::uint32_t &granule)
{
    if (name == "atomic")
        return trace::PackingPolicy::Atomic;
    if (name == "unregulated")
        return trace::PackingPolicy::Unregulated;
    if (name == "cost")
        return trace::PackingPolicy::CostRegulated;
    if (name == "n2") {
        granule = 2;
        return trace::PackingPolicy::NRegulated;
    }
    if (name == "n4") {
        granule = 4;
        return trace::PackingPolicy::NRegulated;
    }
    fatal("unknown packing policy '%s'", name.c_str());
}

/** fatal() naming the first given flag of @p flags: @p context ignores
 * all of them. */
void
rejectFlags(std::initializer_list<std::pair<const char *, bool>> flags,
            const std::string &context)
{
    for (const auto &[flag, given] : flags) {
        if (given)
            fatal("%s does not apply to %s", flag, context.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench = "compress";
    std::string config_name = "baseline";
    std::string packing = "";
    std::optional<std::string> disambiguation;
    std::optional<std::uint32_t> threshold;
    std::uint64_t insts = 1'000'000;
    std::uint64_t warmup = 0;
    bool path_assoc = false, no_partial = false, no_inactive = false;
    bool static_promotion = false, histogram = false, full_stats = false;
    std::string trace_cats, trace_out, trace_format;
    std::optional<std::string> intervals_out; // tcsim-intervals.json
    std::uint64_t interval_insts = 0;
    bool profile = false;
    std::string record_trace, replay_trace;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Accept both "--flag value" and "--flag=value".
        std::string inline_value;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.erase(eq);
                has_inline = true;
            }
        }
        const auto value = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--bench")
            bench = value();
        else if (arg == "--config")
            config_name = value();
        else if (arg == "--threshold")
            threshold = requireThreshold(value());
        else if (arg == "--packing")
            packing = value();
        else if (arg == "--insts")
            insts = requireUint("--insts", value());
        else if (arg == "--warmup")
            warmup = requireUint("--warmup", value());
        else if (arg == "--disambiguation")
            disambiguation = value();
        else if (arg == "--path-assoc")
            path_assoc = true;
        else if (arg == "--no-partial-match")
            no_partial = true;
        else if (arg == "--no-inactive-issue")
            no_inactive = true;
        else if (arg == "--static-promotion")
            static_promotion = true;
        else if (arg == "--histogram")
            histogram = true;
        else if (arg == "--stats")
            full_stats = true;
        else if (arg == "--trace")
            trace_cats = value();
        else if (arg == "--trace-out")
            trace_out = value();
        else if (arg == "--trace-format")
            trace_format = value();
        else if (arg == "--intervals") {
            // 0 is how the run says "no intervals"; given, it is not.
            interval_insts = requireUint("--intervals", value());
            if (interval_insts == 0)
                fatal("--intervals: the interval must be positive");
        } else if (arg == "--intervals-out")
            intervals_out = value();
        else if (arg == "--profile")
            profile = true;
        else if (arg == "--record-trace")
            record_trace = value();
        else if (arg == "--replay-trace")
            replay_trace = value();
        else
            usage(argv[0]);
    }

    // A zero budget would run to halt, which may never come.
    if (insts == 0)
        fatal("--insts: the budget must be positive");
    const bool control_flow = !record_trace.empty() || !replay_trace.empty();
    if (!record_trace.empty() && !replay_trace.empty())
        fatal("--record-trace and --replay-trace are mutually exclusive");
    if (control_flow &&
        (warmup > 0 || full_stats || histogram || interval_insts > 0 ||
         !trace_cats.empty() || profile)) {
        fatal("--warmup, --stats, --histogram, --intervals, --trace and "
              "--profile do not apply to --record-trace or --replay-trace");
    }
    if (control_flow) {
        rejectFlags({{"--disambiguation", disambiguation.has_value()},
                     {"--no-partial-match", no_partial},
                     {"--no-inactive-issue", no_inactive}},
                    "--record-trace or --replay-trace (the walker has no "
                    "fetch engine and no core)");
    }

    // An output flag without the flag that produces its output would
    // be dropped silently.
    if (trace_cats.empty() && (!trace_out.empty() || !trace_format.empty()))
        fatal("--trace-out and --trace-format need --trace");
    if (interval_insts == 0 && intervals_out)
        fatal("--intervals-out needs --intervals");

    if (bench == "list") {
        for (const auto &bench_profile : workload::benchmarkSuite())
            std::printf("%s\n", bench_profile.name.c_str());
        for (const auto &bench_profile : workload::serverSuite())
            std::printf("%s\n", bench_profile.name.c_str());
        return 0;
    }

    sim::ProcessorConfig config;
    if (config_name == "icache")
        config = sim::icacheConfig();
    else if (config_name == "baseline")
        config = sim::baselineConfig();
    else if (config_name == "promotion")
        config = sim::promotionConfig(threshold.value_or(64));
    else if (config_name == "packing")
        config = sim::packingConfig();
    else if (config_name == "promo-pack")
        config = sim::promotionPackingConfig(threshold.value_or(64));
    else
        fatal("unknown config '%s'", config_name.c_str());
    if (config_name != "promotion" && config_name != "promo-pack")
        rejectFlags({{"--threshold", threshold.has_value()}},
                    "--config " + config_name + " (it does not promote)");
    if (config_name == "icache") {
        rejectFlags({{"--packing", !packing.empty()},
                     {"--path-assoc", path_assoc},
                     {"--no-partial-match", no_partial},
                     {"--no-inactive-issue", no_inactive},
                     {"--static-promotion", static_promotion}},
                    "--config icache (it has no trace cache)");
    }

    if (!packing.empty()) {
        std::uint32_t granule = 2;
        config.fillUnit.packing = parsePacking(packing, granule);
        config.fillUnit.packingGranule = granule;
    }
    if (disambiguation == "perfect")
        config.disambiguation = sim::Disambiguation::Perfect;
    else if (disambiguation && *disambiguation != "conservative")
        fatal("unknown disambiguation '%s'", disambiguation->c_str());
    config.traceCache.pathAssociativity = path_assoc;
    config.partialMatching = !no_partial;
    config.inactiveIssue = !no_inactive;

    const workload::BenchmarkProfile &bench_profile =
        workload::findProfile(bench);
    workload::Program program = workload::generateProgram(bench_profile);
    if (static_promotion) {
        config.fillUnit.staticPromotion = true;
        config.fillUnit.staticPromotions =
            workload::profileStronglyBiased(program, insts / 2);
    }

    sim::Processor processor(config, program);

    if (control_flow) {
        sim::Processor::ControlFlowResult cf;
        if (!record_trace.empty()) {
            workload::BtraceWriter writer(
                record_trace, workload::kGeneratorVersion,
                workload::profileFingerprint(bench_profile),
                program.entry());
            cf = processor.recordTrace(writer, insts);
        } else {
            workload::BtraceReader reader;
            std::string error;
            if (!reader.open(replay_trace, &error)) {
                fatal("cannot replay '%s': %s", replay_trace.c_str(),
                      error.c_str());
            }
            if (reader.header().generatorVersion !=
                    workload::kGeneratorVersion ||
                reader.header().profileFingerprint !=
                    workload::profileFingerprint(bench_profile)) {
                fatal("btrace '%s' was recorded from a different "
                      "program than --bench %s (generator version or "
                      "profile fingerprint mismatch)",
                      replay_trace.c_str(), bench.c_str());
            }
            cf = processor.replayTrace(reader);
        }
        // One deterministic block, identical between the recording run
        // and its replay, so round trips can be checked with cmp.
        std::printf("btrace-stats %s %s\n", bench.c_str(),
                    config_name.c_str());
        std::printf("  instructions     %llu\n",
                    static_cast<unsigned long long>(cf.instructions));
        std::printf("  records          %llu\n",
                    static_cast<unsigned long long>(cf.records));
        std::printf("  cond branches    %llu  (mispredicts %llu)\n",
                    static_cast<unsigned long long>(cf.condBranches),
                    static_cast<unsigned long long>(cf.condMispredicts));
        std::printf("  returns          %llu  (mispredicts %llu)\n",
                    static_cast<unsigned long long>(cf.returns),
                    static_cast<unsigned long long>(cf.returnMispredicts));
        std::printf(
            "  indirect jumps   %llu  (mispredicts %llu)\n",
            static_cast<unsigned long long>(cf.indirectJumps),
            static_cast<unsigned long long>(cf.indirectMispredicts));
        std::printf("  traps            %llu\n",
                    static_cast<unsigned long long>(cf.traps));
        std::printf("  icache accesses  %llu  (misses %llu)\n",
                    static_cast<unsigned long long>(cf.icacheAccesses),
                    static_cast<unsigned long long>(cf.icacheMisses));
        std::printf("  tc lookups       %llu  (hits %llu)\n",
                    static_cast<unsigned long long>(cf.tcLookups),
                    static_cast<unsigned long long>(cf.tcHits));
        std::printf("  outcome hash     %s\n",
                    hashHex(cf.outcomeHash).c_str());
        std::printf("  final history    %s\n",
                    hashHex(cf.finalHistory).c_str());
        std::printf("  halted           %d\n", cf.halted ? 1 : 0);
        return 0;
    }

    obs::Tracer tracer;
    if (!trace_cats.empty()) {
        std::uint32_t mask = 0;
        std::string error;
        if (!obs::parseCategoryList(trace_cats, mask, &error))
            fatal("%s", error.c_str());
        tracer.setMask(mask);
        obs::SinkFormat format = obs::inferSinkFormat(trace_out);
        if (!trace_format.empty() &&
            !obs::sinkFormatFromName(trace_format, format)) {
            fatal("unknown trace format '%s'", trace_format.c_str());
        }
        auto sink = obs::makeSink(format, trace_out, &error);
        if (sink == nullptr)
            fatal("%s", error.c_str());
        tracer.addSink(std::move(sink));
        processor.attachTracer(&tracer);
    }

    std::unique_ptr<obs::SelfProfiler> profiler;
    if (profile) {
        profiler = std::make_unique<obs::SelfProfiler>();
        processor.attachProfiler(profiler.get());
    }

    if (warmup > 0) {
        processor.run(warmup);
        processor.resetStats();
    }

    // Intervals baseline after the warm-up so the series only covers
    // the measurement window.
    std::unique_ptr<obs::IntervalRecorder> intervals;
    if (interval_insts > 0) {
        intervals = std::make_unique<obs::IntervalRecorder>(interval_insts);
        processor.attachIntervalRecorder(intervals.get());
    }
    if (profiler != nullptr)
        profiler->beginRun();

    const sim::SimResult r = processor.run(warmup + insts);

    if (profiler != nullptr)
        profiler->endRun(processor.retiredInsts());

    std::printf("%-14s %-26s\n", r.benchmark.c_str(), r.config.c_str());
    std::printf("  instructions     %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("  cycles           %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("  IPC              %.3f\n", r.ipc);
    std::printf("  eff fetch rate   %.2f\n", r.effectiveFetchRate);
    std::printf("  mispredict rate  %.2f%%  (faults %llu)\n",
                100 * r.condMispredictRate,
                static_cast<unsigned long long>(r.promotedFaults));
    std::printf("  resolution time  %.2f cycles\n", r.meanResolutionTime);
    std::printf("  preds 0-1/2/3    %.0f%% / %.0f%% / %.0f%%\n",
                100 * r.fetchesNeeding01, 100 * r.fetchesNeeding2,
                100 * r.fetchesNeeding3);
    if (r.tcLookups > 0) {
        std::printf("  trace cache hit  %.1f%%\n",
                    100.0 * r.tcHits / r.tcLookups);
    }
    std::printf("  cycles by class ");
    for (unsigned c = 0;
         c < static_cast<unsigned>(sim::CycleCategory::NumCategories);
         ++c) {
        std::printf(" %s=%.1f%%",
                    sim::cycleCategoryName(
                        static_cast<sim::CycleCategory>(c)),
                    100.0 * r.cycleCat[c] / r.cycles);
    }
    std::printf("\n");

    if (intervals != nullptr) {
        const std::string path =
            intervals_out.value_or("tcsim-intervals.json");
        if (!intervals->writeJsonFile(path, r.benchmark, r.config))
            fatal("cannot write intervals to '%s'", path.c_str());
        std::printf("  intervals        %zu samples -> %s\n",
                    intervals->samples().size(), path.c_str());
    }
    if (!trace_cats.empty()) {
        tracer.flush();
        std::printf("  trace events     %llu -> %s\n",
                    static_cast<unsigned long long>(tracer.emitted()),
                    trace_out.empty() ? "stderr" : trace_out.c_str());
    }
    if (profiler != nullptr) {
        const double total = profiler->totalSeconds();
        std::printf("\nself-profile (host time):\n");
        for (unsigned p = 0; p < obs::kNumPhases; ++p) {
            const auto phase = static_cast<obs::Phase>(p);
            const double s = profiler->phaseSeconds(phase);
            std::printf("  %-10s %8.3f s  %5.1f%%\n", obs::phaseName(phase),
                        s, total > 0 ? 100.0 * s / total : 0.0);
        }
        std::printf("  %-10s %8.3f s\n", "total", total);
        std::printf("  sim speed  %8.3f MIPS\n",
                    profiler->simMips(processor.retiredInsts()));
    }

    if (histogram) {
        std::printf("\nfetch-width histogram (correct-path fetches):\n");
        std::uint64_t total = 0;
        std::uint64_t by_width[sim::Accounting::kMaxFetchWidth + 1] = {};
        for (unsigned reason = 0;
             reason < static_cast<unsigned>(sim::FetchReason::NumReasons);
             ++reason) {
            for (unsigned w = 0; w <= sim::Accounting::kMaxFetchWidth;
                 ++w) {
                by_width[w] += r.fetchHist[reason][w];
                total += r.fetchHist[reason][w];
            }
        }
        for (unsigned w = 1; w <= sim::Accounting::kMaxFetchWidth; ++w) {
            const double frac =
                total ? static_cast<double>(by_width[w]) / total : 0.0;
            std::printf("  %4u %-50.*s %.3f\n", w,
                        static_cast<int>(frac * 200),
                        "##################################################",
                        frac);
        }
    }
    if (full_stats) {
        std::ostringstream os;
        sim::printStatsWithDerivedRatios(r.stats, os);
        std::printf("\n%s", os.str().c_str());
    }
    return 0;
}
