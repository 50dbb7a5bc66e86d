/**
 * @file
 * google-benchmark microbenchmarks of the hot simulator components:
 * cache lookups, sparse-memory loads, multiple-branch prediction,
 * fill-unit throughput, functional execution, the core's completion
 * calendar, and whole-processor simulation speed.
 */

#include <algorithm>
#include <random>
#include <vector>

#include <benchmark/benchmark.h>

#include "bpred/bias_table.h"
#include "bpred/hybrid.h"
#include "bpred/multi.h"
#include "core/completion_calendar.h"
#include "core/rename_overlay.h"
#include "memory/cache.h"
#include "sim/processor.h"
#include "trace/fill_unit.h"
#include "trace/trace_cache.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace
{

using namespace tcsim;

const workload::Program &
compressProgram()
{
    static const workload::Program program =
        workload::generateProgram(workload::findProfile("compress"));
    return program;
}

void
BM_CacheAccess(benchmark::State &state)
{
    // A new line every access: always the set search.
    memory::Cache cache(memory::CacheParams{"l1", 64 * 1024, 4, 64, 0},
                        nullptr, 50);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr, false));
        addr = (addr + 4096 + 64) & 0xfffff;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_CacheAccessRepeatLine(benchmark::State &state)
{
    // The functional walker's icache pattern, one instruction after
    // another: 15 of every 16 accesses repeat the previous line.
    memory::Cache cache(memory::CacheParams{"l1", 64 * 1024, 4, 64, 0},
                        nullptr, 50);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr, false));
        addr = (addr + isa::kInstBytes) & 0xfffff;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessRepeatLine);

void
BM_SparseMemoryLoad(benchmark::State &state)
{
    // Loads of the program's data words in a shuffled order, through a
    // memory that shares the program's pages.
    const workload::Program &program = compressProgram();
    workload::SparseMemory memory;
    memory.initFrom(program);
    std::vector<Addr> addrs;
    for (const workload::DataWord &word : program.initData())
        addrs.push_back(word.addr);
    std::shuffle(addrs.begin(), addrs.end(), std::mt19937_64(1));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(memory.load(addrs[i]));
        if (++i == addrs.size())
            i = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparseMemoryLoad);

void
BM_TreeMbpPredict(benchmark::State &state)
{
    bpred::TreeMbp mbp;
    std::uint64_t hist = 0x123456789abcdefULL;
    Addr pc = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mbp.predict(pc, hist, 0, 0));
        hist = hist * 6364136223846793005ULL + 1;
        pc += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeMbpPredict);

void
BM_SplitMbpPredict(benchmark::State &state)
{
    bpred::SplitMbp mbp;
    std::uint64_t hist = 0x123456789abcdefULL;
    Addr pc = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mbp.predict(pc, hist, 0, 0));
        hist = hist * 6364136223846793005ULL + 1;
        pc += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SplitMbpPredict);

/** Build a small straight-line segment starting at @p start. */
trace::TraceSegment
makeSegment(Addr start)
{
    trace::TraceSegment segment;
    segment.startAddr = start;
    for (unsigned i = 0; i < trace::kMaxSegmentInsts; ++i) {
        trace::TraceInst ti;
        ti.inst = isa::Instruction{isa::Opcode::Add, 10, 11, 12, 0};
        ti.pc = start + i * isa::kInstBytes;
        segment.insts.push_back(ti);
    }
    return segment;
}

void
BM_TraceCacheLookupHit(benchmark::State &state)
{
    // The per-fetch probe: cycle through resident segments so every
    // lookup hits (the trace-cache steady state of a hot loop).
    trace::TraceCache cache(trace::TraceCacheParams{2048, 4});
    constexpr unsigned kResident = 256;
    for (unsigned i = 0; i < kResident; ++i)
        cache.insert(makeSegment(0x1000 + i * 64));
    unsigned i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.lookup(0x1000 + (i++ % kResident) * 64));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceCacheLookupHit);

void
BM_HybridPredict(benchmark::State &state)
{
    bpred::HybridPredictor hybrid;
    std::uint64_t hist = 0x123456789abcdefULL;
    Addr pc = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hybrid.predict(pc, hist));
        hist = hist * 6364136223846793005ULL + 1;
        pc += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HybridPredict);

void
BM_BiasTableUpdate(benchmark::State &state)
{
    // The per-retired-branch bias-table update driving promotion.
    bpred::BranchBiasTable table(bpred::BiasTableParams{});
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    for (auto _ : state) {
        rng = rng * 6364136223846793005ULL + 1;
        const Addr pc = 0x1000 + (rng >> 33) % 4096 * 4;
        table.update(pc, (rng >> 17) & 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BiasTableUpdate);

void
BM_BiasTableAdvice(benchmark::State &state)
{
    // The per-retired-branch promotion-advice probe on the packed
    // 8-byte-entry table (eight entries per cache line). Warm the
    // whole table first so the scan measures lookup locality, not
    // cold-miss handling.
    bpred::BranchBiasTable table(bpred::BiasTableParams{});
    for (std::uint32_t i = 0; i < 8192; ++i)
        table.update(0x1000 + Addr{i} * 4, true);
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        rng = rng * 6364136223846793005ULL + 1;
        const Addr pc = 0x1000 + (rng >> 33) % 8192 * 4;
        hits += table.advice(pc).promote;
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BiasTableAdvice);

void
BM_BiasTableAdviceWideLayout(benchmark::State &state)
{
    // Reference point for the packed layout: the same random probe
    // stream over a 16-byte-per-entry table (the pre-packing shape:
    // u64 tag + u32 meta + padding, four entries per cache line).
    // The delta against BM_BiasTableAdvice is the cache-locality win
    // of the 8-byte entries.
    struct WideEntry
    {
        std::uint64_t tag = ~std::uint64_t{0};
        std::uint32_t meta = 0;
    };
    static_assert(sizeof(WideEntry) == 16, "pre-packing entry shape");
    std::vector<WideEntry> entries(8192);
    for (std::uint32_t i = 0; i < 8192; ++i) {
        entries[i].tag = (0x1000 / 4 + i) >> 13;
        entries[i].meta = (1u << 29) | 64;
    }
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        rng = rng * 6364136223846793005ULL + 1;
        const Addr pc = 0x1000 + (rng >> 33) % 8192 * 4;
        const std::uint64_t word = pc / 4;
        const WideEntry &entry = entries[word & 8191];
        hits += entry.tag == word >> 13 && (entry.meta & (1u << 29));
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BiasTableAdviceWideLayout);

void
BM_FillUnitThroughput(benchmark::State &state)
{
    trace::TraceCache cache(trace::TraceCacheParams{2048, 4});
    trace::FillUnitParams params;
    params.packing = trace::PackingPolicy::Unregulated;
    params.promotion = true;
    trace::FillUnit unit(params, cache);

    trace::RetiredInst alu;
    alu.inst = isa::Instruction{isa::Opcode::Add, 10, 11, 12, 0};
    trace::RetiredInst br;
    br.inst = isa::Instruction{isa::Opcode::Bne, 0, 4, 0, 8};
    br.taken = true;

    Addr pc = 0x1000;
    unsigned i = 0;
    for (auto _ : state) {
        trace::RetiredInst inst = (++i % 6 == 0) ? br : alu;
        inst.pc = pc;
        pc = (pc + 4) & 0xffff;
        unit.retire(inst);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FillUnitThroughput);

void
BM_FillUnitSegmentBuild(benchmark::State &state)
{
    // Finalize-heavy stream: short blocks ending in Ret terminate a
    // segment each, so every iteration exercises the full build →
    // insert → reset cycle. Measures the segment-build allocation
    // path (pending_ buffer recycling via TraceCache::insert swap).
    trace::TraceCache cache(trace::TraceCacheParams{256, 4});
    trace::FillUnitParams params;
    params.packing = trace::PackingPolicy::CostRegulated;
    trace::FillUnit unit(params, cache);

    trace::RetiredInst alu;
    alu.inst = isa::Instruction{isa::Opcode::Add, 10, 11, 12, 0};
    trace::RetiredInst ret;
    ret.inst = isa::Instruction{isa::Opcode::Ret, 0, isa::kRegRa, 0, 0};

    Addr pc = 0x1000;
    for (auto _ : state) {
        for (unsigned i = 0; i < 7; ++i) {
            trace::RetiredInst inst = alu;
            inst.pc = pc;
            pc += 4;
            unit.retire(inst);
        }
        trace::RetiredInst inst = ret;
        inst.pc = pc;
        pc = 0x1000 + ((pc + 4) & 0x3fff);
        unit.retire(inst);
    }
    state.SetItemsProcessed(state.iterations()); // one segment per iter
}
BENCHMARK(BM_FillUnitSegmentBuild);

void
BM_FunctionalExecution(benchmark::State &state)
{
    workload::FunctionalExecutor exec(compressProgram());
    for (auto _ : state)
        benchmark::DoNotOptimize(exec.step());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FunctionalExecution);

void
BM_CompletionCalendar(benchmark::State &state)
{
    // The detailed core's completion traffic, per event: each cycle
    // drains the calendar, then fires three operations with the preset
    // latencies in roughly core's mix: ALU 1 cycle, multiply 3, divide
    // 12, and loads of 3 (dcache hit), 9 (L2 hit) or 59 (memory).
    std::mt19937 rng(static_cast<std::uint32_t>(state.range(0)));
    std::vector<std::uint32_t> latencies(4096);
    for (std::uint32_t &latency : latencies) {
        const std::uint32_t r = rng() % 1000;
        latency = r < 600   ? 1
                  : r < 680 ? 3
                  : r < 690 ? 12
                  : r < 980 ? 3
                  : r < 985 ? 9
                            : 59;
    }
    core::CompletionCalendar calendar;
    Cycle cycle = 0;
    InstSeqNum seq = 1;
    std::size_t next = 0;
    std::uint64_t drained = 0;
    for (auto _ : state) {
        ++cycle;
        calendar.drainThrough(cycle, [&](InstSeqNum done) {
            drained += done;
        });
        for (unsigned i = 0; i < 3; ++i) {
            // Older instructions fire later: seqs arrive out of order.
            calendar.schedule(cycle + latencies[next], seq + (next & 7));
            next = (next + 1) & (latencies.size() - 1);
            seq += 1;
        }
    }
    benchmark::DoNotOptimize(drained);
    state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_CompletionCalendar)->Arg(1);

void
BM_ProcessorSimulation(benchmark::State &state)
{
    // Whole-machine simulation speed in retired instructions/second.
    for (auto _ : state) {
        sim::Processor proc(sim::promotionPackingConfig(),
                            compressProgram());
        proc.run(20000);
        benchmark::DoNotOptimize(proc.retiredInsts());
        state.SetItemsProcessed(
            static_cast<std::int64_t>(proc.retiredInsts()));
    }
}
BENCHMARK(BM_ProcessorSimulation)->Unit(benchmark::kMillisecond);

/** Promotion+packing config with an @p rob_entries-entry window (the
 * checkpoint pool is scaled up so it never caps the window). */
sim::ProcessorConfig
windowConfig(std::uint32_t rob_entries)
{
    sim::ProcessorConfig config = sim::promotionPackingConfig(64);
    config.robEntries = rob_entries;
    config.checkpoints = std::max(64u, rob_entries / 4);
    return config;
}

void
BM_LoadDisambiguationWindow(benchmark::State &state)
{
    // Per-event cost of load disambiguation and forwarding as the
    // in-flight window grows: compress under conservative
    // disambiguation looks up older stores on every load schedule and
    // parks loads behind unknown-address stores. With the indexed
    // lookups and parks the time per retired instruction should stay
    // flat from 64- to 1024-entry windows.
    const sim::ProcessorConfig config =
        windowConfig(static_cast<std::uint32_t>(state.range(0)));
    std::int64_t retired = 0;
    for (auto _ : state) {
        sim::Processor proc(config, compressProgram());
        proc.run(24000);
        benchmark::DoNotOptimize(proc.retiredInsts());
        retired += static_cast<std::int64_t>(proc.retiredInsts());
    }
    state.SetItemsProcessed(retired);
}
BENCHMARK(BM_LoadDisambiguationWindow)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void
BM_FaultRecoveryWindow(benchmark::State &state)
{
    // Per-event cost of promoted-branch fault recovery (checkpoint
    // selection + override-skip counting) as the window grows:
    // gnuchess under promotion+packing has the densest promoted-fault
    // rate in the suite.
    const sim::ProcessorConfig config =
        windowConfig(static_cast<std::uint32_t>(state.range(0)));
    static const workload::Program program =
        workload::generateProgram(workload::findProfile("gnuchess"));
    std::int64_t retired = 0;
    for (auto _ : state) {
        sim::Processor proc(config, program);
        proc.run(24000);
        benchmark::DoNotOptimize(proc.retiredInsts());
        retired += static_cast<std::int64_t>(proc.retiredInsts());
    }
    state.SetItemsProcessed(retired);
}
BENCHMARK(BM_FaultRecoveryWindow)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------------------
// Shadow-rename fork cost: full RAT copy (the old dispatch scheme)
// vs. the copy-on-write RenameOverlay. Each iteration forks once and
// renames a short inactive tail (4 reads + 4 writes), the typical
// shape of a post-divergence segment tail. The overlay is built in the
// loop, as dispatchStage builds one per dispatch.
// ----------------------------------------------------------------------

struct MockRatEntry
{
    bool isValue = true;
    RegVal value = 0;
    InstSeqNum tag = 0;
};
using MockRat = std::array<MockRatEntry, isa::kNumArchRegs>;

MockRat
makeMockRat()
{
    MockRat rat;
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        rat[r] = MockRatEntry{(r % 3) != 0, r * 7ull, r + 100ull};
    return rat;
}

void
BM_ShadowRenameFullCopy(benchmark::State &state)
{
    const MockRat rat = makeMockRat();
    std::uint64_t seq = 1;
    for (auto _ : state) {
        MockRat shadow = rat; // the old fork: copy all entries
        std::uint64_t sum = 0;
        for (unsigned i = 0; i < 4; ++i) {
            const unsigned r = (i * 5 + 3) & (isa::kNumArchRegs - 1);
            sum += shadow[r].value;
            shadow[r] = MockRatEntry{false, 0, seq++};
        }
        benchmark::DoNotOptimize(sum);
        benchmark::DoNotOptimize(shadow);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowRenameFullCopy);

void
BM_ShadowRenameOverlay(benchmark::State &state)
{
    const MockRat rat = makeMockRat();
    std::uint64_t seq = 1;
    for (auto _ : state) {
        core::RenameOverlay<MockRatEntry, isa::kNumArchRegs> shadow;
        shadow.fork(rat); // O(1) fork
        std::uint64_t sum = 0;
        for (unsigned i = 0; i < 4; ++i) {
            const unsigned r = (i * 5 + 3) & (isa::kNumArchRegs - 1);
            sum += shadow.get(r).value;
            shadow.set(r, MockRatEntry{false, 0, seq++});
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowRenameOverlay);

} // namespace

BENCHMARK_MAIN();
