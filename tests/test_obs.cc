/**
 * @file
 * Tests for the observability layer (src/obs): trace-point category
 * filtering, sink formats, interval metrics, self-profiling, and the
 * contract that attaching any of them never changes simulation
 * results.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/intervals.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/processor.h"
#include "test_paths.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace
{

using namespace tcsim;
using obs::Category;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ----------------------------------------------------------------------
// Trace points.
// ----------------------------------------------------------------------

TEST(Trace, CategoryNamesRoundTrip)
{
    for (unsigned c = 0; c < obs::kNumCategories; ++c) {
        const auto cat = static_cast<Category>(c);
        Category parsed;
        ASSERT_TRUE(obs::categoryFromName(obs::categoryName(cat), parsed));
        EXPECT_EQ(parsed, cat);
    }
    Category parsed;
    EXPECT_FALSE(obs::categoryFromName("bogus", parsed));
}

TEST(Trace, ParseCategoryList)
{
    std::uint32_t mask = 0;
    ASSERT_TRUE(obs::parseCategoryList("tc,promote", mask));
    EXPECT_EQ(mask, (1u << static_cast<unsigned>(Category::TC)) |
                        (1u << static_cast<unsigned>(Category::Promote)));

    ASSERT_TRUE(obs::parseCategoryList("all", mask));
    EXPECT_EQ(mask, (1u << obs::kNumCategories) - 1);

    std::string error;
    EXPECT_FALSE(obs::parseCategoryList("tc,nope", mask, &error));
    EXPECT_NE(error.find("nope"), std::string::npos);
}

TEST(Trace, TpointFiltersByCategoryAndStampsClock)
{
    obs::Tracer tracer;
    auto sink = std::make_unique<obs::VectorSink>();
    obs::VectorSink *vec = sink.get();
    tracer.addSink(std::move(sink));
    tracer.enable(Category::TC);

    std::uint64_t cycle = 41;
    tracer.attachClock(&cycle);
    ++cycle;

    obs::Tracer *tp = &tracer;
    TCSIM_TPOINT(tp, TC, "hit", "addr=0x%x", 0x40);
    TCSIM_TPOINT(tp, Fetch, "step", "i=%d", 7); // filtered out
    obs::Tracer *null_tracer = nullptr;
    TCSIM_TPOINT(null_tracer, TC, "hit", "addr=0x%x", 0x44); // no-op

    ASSERT_EQ(vec->records().size(), 1u);
    EXPECT_EQ(vec->records()[0].cycle, 42u);
    EXPECT_EQ(vec->records()[0].cat, Category::TC);
    EXPECT_EQ(vec->records()[0].event, "hit");
    EXPECT_EQ(vec->records()[0].detail, "addr=0x40");
    EXPECT_EQ(tracer.emitted(), 1u);
}

TEST(Trace, DisabledTpointDoesNotEvaluateArguments)
{
    obs::Tracer tracer; // no categories enabled
    int evaluations = 0;
    const auto touch = [&evaluations]() {
        ++evaluations;
        return 0;
    };
    obs::Tracer *tp = &tracer;
    TCSIM_TPOINT(tp, TC, "hit", "v=%d", touch());
    EXPECT_EQ(evaluations, 0);
    tracer.enable(Category::TC);
    TCSIM_TPOINT(tp, TC, "hit", "v=%d", touch());
    EXPECT_EQ(evaluations, 1);
}

TEST(Trace, SinkFormatInference)
{
    EXPECT_EQ(obs::inferSinkFormat("x.jsonl"), obs::SinkFormat::Jsonl);
    EXPECT_EQ(obs::inferSinkFormat("x.json"), obs::SinkFormat::Chrome);
    EXPECT_EQ(obs::inferSinkFormat("x.log"), obs::SinkFormat::Text);
    EXPECT_EQ(obs::inferSinkFormat(""), obs::SinkFormat::Text);

    obs::SinkFormat format;
    ASSERT_TRUE(obs::sinkFormatFromName("chrome", format));
    EXPECT_EQ(format, obs::SinkFormat::Chrome);
    EXPECT_FALSE(obs::sinkFormatFromName("xml", format));
}

TEST(Trace, JsonlSinkSchemaAndEscaping)
{
    const std::string path = test::scratchPath("trace.jsonl");
    std::string error;
    auto sink = obs::makeSink(obs::SinkFormat::Jsonl, path, &error);
    ASSERT_NE(sink, nullptr) << error;

    obs::Tracer tracer;
    tracer.enableAll();
    std::uint64_t cycle = 9;
    tracer.attachClock(&cycle);
    tracer.addSink(std::move(sink));
    tracer.emit(Category::Promote, "promote", "q=\"x\" b=\\ t=\ty");
    tracer.flush();

    EXPECT_EQ(slurp(path),
              "{\"t\":9,\"cat\":\"promote\",\"ev\":\"promote\","
              "\"detail\":\"q=\\\"x\\\" b=\\\\ t=\\ty\"}\n");
    std::remove(path.c_str());
}

TEST(Trace, ChromeSinkWritesHeaderAndFooter)
{
    const std::string path = test::scratchPath("trace.json");
    {
        obs::Tracer tracer;
        tracer.enableAll();
        auto sink = obs::makeSink(obs::SinkFormat::Chrome, path, nullptr);
        ASSERT_NE(sink, nullptr);
        tracer.addSink(std::move(sink));
        tracer.emit(Category::TC, "hit", "addr=0x40");
        tracer.emit(Category::TC, "miss", "addr=0x80");
        tracer.flush();
        tracer.flush(); // footer must be written exactly once
    }
    const std::string text = slurp(path);
    EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(text.find("\"name\":\"hit\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"miss\""), std::string::npos);
    EXPECT_EQ(text.find("]}"), text.rfind("]}"));
    std::remove(path.c_str());
}

// ----------------------------------------------------------------------
// Interval metrics.
// ----------------------------------------------------------------------

TEST(Intervals, NextBoundaryAfter)
{
    obs::IntervalRecorder rec(1000);
    EXPECT_EQ(rec.nextBoundaryAfter(0), 1000u);
    EXPECT_EQ(rec.nextBoundaryAfter(999), 1000u);
    EXPECT_EQ(rec.nextBoundaryAfter(1000), 2000u);
    EXPECT_EQ(rec.nextBoundaryAfter(1001), 2000u);
}

TEST(Intervals, FinishDeduplicatesFinalSample)
{
    obs::IntervalRecorder rec(100);
    obs::IntervalCounters c;
    c.cycles = 50;
    c.insts = 100;
    rec.snapshot(c);
    rec.finish(c); // nothing retired since the boundary: no new sample
    EXPECT_EQ(rec.samples().size(), 1u);
    c.insts = 130;
    rec.finish(c);
    EXPECT_EQ(rec.samples().size(), 2u);
}

TEST(Intervals, ProcessorSnapshotsEveryBoundary)
{
    const std::uint64_t interval = 5000, budget = 52000;
    workload::Program program =
        workload::generateProgram(workload::findProfile("compress"));
    const sim::ProcessorConfig config = sim::promotionPackingConfig(64);
    sim::Processor proc(config, program);

    obs::IntervalRecorder rec(interval);
    proc.attachIntervalRecorder(&rec);
    proc.run(budget);
    const std::uint64_t retired = proc.retiredInsts();

    // retireWidth can overshoot both each boundary and the budget, so
    // the sample count is total/interval plus at most one final
    // partial sample.
    ASSERT_GE(rec.samples().size(), retired / interval);
    ASSERT_LE(rec.samples().size(), retired / interval + 1);

    const std::uint64_t retire_width = config.retireWidth;
    std::uint64_t prev_insts = 0;
    for (std::size_t i = 0; i < rec.samples().size(); ++i) {
        const obs::IntervalCounters &s = rec.samples()[i];
        EXPECT_GT(s.insts, prev_insts);
        if (i + 1 < rec.samples().size()) {
            // A boundary sample lands in [kN, kN + retireWidth).
            const std::uint64_t k = s.insts / interval;
            EXPECT_GE(s.insts, k * interval);
            EXPECT_LT(s.insts, k * interval + retire_width);
        }
        prev_insts = s.insts;
    }
    EXPECT_EQ(rec.samples().back().insts, retired);
    EXPECT_EQ(rec.samples().back().cycles, proc.cycle());
}

TEST(Intervals, JsonDeltasSumToTotals)
{
    obs::IntervalRecorder rec(10);
    obs::IntervalCounters base;
    base.cycles = 7;
    base.insts = 12;
    base.tcLookups = 3;
    rec.setBase(base);
    obs::IntervalCounters a = base;
    a.cycles = 20;
    a.insts = 21;
    a.tcLookups = 9;
    a.tcHits = 4;
    rec.snapshot(a);
    obs::IntervalCounters b = a;
    b.cycles = 33;
    b.insts = 30;
    b.tcLookups = 15;
    b.tcHits = 9;
    rec.snapshot(b);

    const std::string path = test::scratchPath("intervals.json");
    ASSERT_TRUE(rec.writeJsonFile(path, "bench", "config"));
    const std::string text = slurp(path);
    std::remove(path.c_str());

    EXPECT_NE(text.find("\"schema\":\"tcsim-intervals-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"interval_insts\":10"), std::string::npos);
    // First interval is relative to the base (excludes warm-up)...
    EXPECT_NE(text.find("\"delta\":{\"cycles\":13,\"insts\":9,"),
              std::string::npos);
    // ...and the second relative to the first.
    EXPECT_NE(text.find("\"delta\":{\"cycles\":13,\"insts\":9,"),
              text.rfind("\"delta\":{"));
    EXPECT_NE(text.find("\"tc_lookups\":6,\"tc_hits\":5,"),
              std::string::npos);
}

// ----------------------------------------------------------------------
// Self-profiling.
// ----------------------------------------------------------------------

TEST(Profiler, PhaseAccountingSubtractsNestedFill)
{
    obs::SelfProfiler profiler;
    profiler.beginRun();
    profiler.addPhase(obs::Phase::Retire, 10'000'000); // 10 ms
    profiler.addPhase(obs::Phase::Fill, 4'000'000);    // nested 4 ms
    profiler.addPhase(obs::Phase::Fetch, 2'000'000);
    profiler.endRun(1'000'000);

    EXPECT_DOUBLE_EQ(profiler.phaseSeconds(obs::Phase::Retire), 0.006);
    EXPECT_DOUBLE_EQ(profiler.phaseSeconds(obs::Phase::Fill), 0.004);
    EXPECT_DOUBLE_EQ(profiler.phaseSeconds(obs::Phase::Fetch), 0.002);
    EXPECT_GT(profiler.totalSeconds(), 0.0);
    EXPECT_GT(profiler.simMips(1'000'000), 0.0);

    std::string json;
    profiler.appendJson(json);
    EXPECT_NE(json.find("\"phases\":{\"fetch\":"), std::string::npos);
    EXPECT_NE(json.find("\"total_seconds\":"), std::string::npos);
    EXPECT_NE(json.find("\"mips_timeline\":["), std::string::npos);
}

TEST(Profiler, TimelineSamplesAtPeriod)
{
    obs::SelfProfiler profiler(1000);
    profiler.beginRun();
    profiler.maybeSample(500); // below the first period: no sample
    EXPECT_TRUE(profiler.timeline().empty());
    profiler.maybeSample(1000);
    profiler.maybeSample(1001); // same period: no second sample
    ASSERT_EQ(profiler.timeline().size(), 1u);
    EXPECT_EQ(profiler.timeline()[0].insts, 1000u);
    profiler.maybeSample(2500);
    ASSERT_EQ(profiler.timeline().size(), 2u);
    profiler.endRun(3000);
}

// ----------------------------------------------------------------------
// The contract: observability never changes simulation results.
// ----------------------------------------------------------------------

void
expectIdenticalRuns(const std::string &bench,
                    const sim::ProcessorConfig &config)
{
    workload::Program program =
        workload::generateProgram(workload::findProfile(bench));
    const std::uint64_t budget = 60000;

    sim::Processor plain(config, program);
    const sim::SimResult base = plain.run(budget);

    sim::Processor observed(config, program);
    obs::Tracer tracer;
    tracer.enableAll();
    tracer.addSink(std::make_unique<obs::VectorSink>());
    observed.attachTracer(&tracer);
    obs::IntervalRecorder rec(7000);
    observed.attachIntervalRecorder(&rec);
    obs::SelfProfiler profiler;
    observed.attachProfiler(&profiler);
    profiler.beginRun();
    const sim::SimResult traced = observed.run(budget);
    profiler.endRun(observed.retiredInsts());

    EXPECT_GT(tracer.emitted(), 0u);
    EXPECT_FALSE(rec.samples().empty());

    EXPECT_EQ(base.instructions, traced.instructions);
    EXPECT_EQ(base.cycles, traced.cycles);
    const auto &lhs = base.stats.entries();
    const auto &rhs = traced.stats.entries();
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t i = 0; i < lhs.size(); ++i) {
        EXPECT_EQ(lhs[i].first, rhs[i].first);
        EXPECT_EQ(lhs[i].second, rhs[i].second)
            << bench << ": stat " << lhs[i].first << " diverged";
    }
}

TEST(ObservabilityContract, StatsBitIdenticalWithTracingOn)
{
    expectIdenticalRuns("compress", sim::promotionPackingConfig(64));
    expectIdenticalRuns("li", sim::baselineConfig());
}

} // namespace
