/**
 * @file
 * tcsim_perfbench: the measurement engine behind perfbench/run.py.
 *
 * Runs one named workload against the simulator libraries in rounds
 * until a host-time budget is spent, checks every unit, and writes all
 * raw measurements to stdout as JSON lines: one per round as it ends
 * (host times per unit and per layer, and in traced rounds one span per
 * call into a layer; round 0 also carries the units' simulated counts),
 * then one summary line. run.py turns the lines into the benchmark's
 * metrics; this program only measures and checks.
 *
 *   tcsim_perfbench --workload core|frontend|sweep [--seed N]
 *                   [--seconds S] [--trace 0|1] [--threads N]
 *
 * Workloads (a unit is one benchmark x config call sequence):
 *   core      the suite's own gcc and go programs x baseline,
 *             promo-pack; detailed warm-up run, resetStats, timed run
 *             to 1M instructions; one thread.
 *   frontend  gcc, server-oltp on promo-pack; functionalWarmup, then
 *             recordTrace to a btrace file in the temporary directory,
 *             then replayTrace of it, each on a fresh processor; one
 *             thread.
 *   sweep     15 desktop + 3 server profiles x icache, baseline,
 *             promotion, packing, promo-pack; short cold runs, no
 *             warm-up, fanned out over min(nproc, 4) threads.
 *
 * Each program is a task whose units run in order on one thread, and
 * the first unit's span holds the generation. Rounds repeat until the
 * next one would end past --seconds. core runs the same two programs
 * every round. frontend and sweep generate a new program set each
 * round: variant 0 under --seed 0 keeps the suite's own profile seed,
 * and every other (seed, variant) re-seeds a copy of the profile,
 * giving held-out programs of the same shape.
 * Traced rounds (every second round under --trace 1) repeat the program
 * set of the round before, record spans and attach an
 * obs::SelfProfiler; untraced rounds do neither.
 *
 * Only the libraries' public API is used: workload::generateProgram,
 * the sim::*Config() presets and sim::Processor.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.h"
#include "sim/config.h"
#include "sim/processor.h"
#include "workload/btrace.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace
{

using namespace tcsim;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** All span timestamps are relative to process start. */
const std::uint64_t kEpochNs = nowNs();

// ----------------------------------------------------------------------
// Digest (FNV-1a over the simulated integers).
// ----------------------------------------------------------------------

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t
fnv(std::uint64_t hash, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
fnvU64(std::uint64_t hash, std::uint64_t value)
{
    return fnv(hash, &value, sizeof value);
}

std::uint64_t
fnvStats(std::uint64_t hash, const StatDump &dump)
{
    for (const auto &[name, value] : dump.entries()) {
        hash = fnv(hash, name.data(), name.size());
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        hash = fnvU64(hash, bits);
    }
    return hash;
}

// ----------------------------------------------------------------------
// Simulated counts per unit; summed across units by run.py.
// ----------------------------------------------------------------------

enum Count : unsigned
{
    WindowInsts,
    WindowCycles,
    CatUsefulFetch, // six Fig 12 categories, CycleCategory order
    CatBranchMisses,
    CatCacheMisses,
    CatFullWindow,
    CatTraps,
    CatMisfetches,
    UsefulFetches,
    FetchedInsts,
    PredictionsUsed,
    TcLookups,
    TcHits,
    TcInserts,
    SegmentsBuilt,
    SegmentInsts,
    Promotions,
    Demotions,
    CondBranches,
    CondMispredicts,
    PromotedFaults,
    IndirectMispredicts,
    IcacheAccesses,
    IcacheMisses,
    DcacheAccesses,
    DcacheMisses,
    L2Accesses,
    L2Misses,
    MemOrderViolations,
    BtraceBytes,
    NumCounts
};

constexpr const char *kCountNames[NumCounts] = {
    "window_insts",     "window_cycles",     "cycles.UsefulFetch",
    "cycles.BranchMisses", "cycles.CacheMisses", "cycles.FullWindow",
    "cycles.Traps",     "cycles.Misfetches", "useful_fetches",
    "fetched_insts",    "predictions_used",  "tc_lookups",
    "tc_hits",          "tc_inserts",        "segments_built",
    "segment_insts",    "promotions",        "demotions",
    "cond_branches",    "cond_mispredicts",  "promoted_faults",
    "indirect_mispredicts", "icache_accesses", "icache_misses",
    "dcache_accesses",  "dcache_misses",     "l2_accesses",
    "l2_misses",        "mem_order_violations", "btrace_bytes",
};

static_assert(static_cast<unsigned>(sim::CycleCategory::NumCategories) ==
              CatMisfetches - CatUsefulFetch + 1);

using Counts = std::array<std::uint64_t, NumCounts>;

std::uint64_t
statCount(const StatDump &dump, const std::string &name)
{
    return dump.has(name) ? static_cast<std::uint64_t>(
                                std::llround(dump.get(name)))
                          : 0;
}

/** Add the cache and trace-structure counts of a stat dump. */
void
addStatCounts(Counts &c, const StatDump &dump, bool memory_only)
{
    c[IcacheAccesses] += statCount(dump, "l1i.accesses");
    c[IcacheMisses] += statCount(dump, "l1i.misses");
    c[DcacheAccesses] += statCount(dump, "l1d.accesses");
    c[DcacheMisses] += statCount(dump, "l1d.misses");
    c[L2Accesses] += statCount(dump, "l2.accesses");
    c[L2Misses] += statCount(dump, "l2.misses");
    if (memory_only)
        return;
    c[TcInserts] += statCount(dump, "trace_cache.inserts");
    const std::uint64_t built = statCount(dump, "fill_unit.segments_built");
    c[SegmentsBuilt] += built;
    if (dump.has("fill_unit.mean_segment_size")) {
        c[SegmentInsts] += static_cast<std::uint64_t>(std::llround(
            dump.get("fill_unit.mean_segment_size") *
            static_cast<double>(built)));
    }
}

// ----------------------------------------------------------------------
// Host-speed probe.
// ----------------------------------------------------------------------

/**
 * A shared virtual machine's speed drifts by up to 1.7x within minutes.
 * So the driver times this fixed kernel (random loads from a 32 MiB
 * table, a data-dependent branch per step, about 4 ms) while no unit
 * runs, and run.py scales the round's host times by the kernel's time
 * against a reference value. Of the tables tried (256 KiB, 4 MiB,
 * 32 MiB, dependent loads over 16 MiB), this one tracked the sweep's
 * round times most closely: host time rose 1.15x as fast as the
 * probe's.
 */
class SpeedProbe
{
    static constexpr std::size_t kWords = std::size_t{1} << 23;
    static constexpr unsigned kSteps = 1u << 18;

  public:
    SpeedProbe() : table_(kWords)
    {
        std::uint64_t x = kFnvBasis;
        for (std::uint32_t &word : table_) {
            x = step(x);
            word = static_cast<std::uint32_t>(x);
        }
    }

    /** Resident bytes of the table, which is written in full above. */
    static constexpr std::uint64_t kBytes = kWords * sizeof(std::uint32_t);

    /** @return host ns one pass of the kernel took */
    std::uint64_t
    measure() const
    {
        const std::uint64_t t0 = nowNs();
        std::uint64_t x = kFnvBasis;
        std::uint64_t acc = 0;
        for (unsigned i = 0; i < kSteps; ++i) {
            x = step(x);
            const std::uint32_t word = table_[x & (kWords - 1)];
            if (word & 1)
                acc += word;
            else
                acc ^= word >> 3;
        }
        const std::uint64_t t1 = nowNs();
        sink_.fetch_add(acc, std::memory_order_relaxed);
        return t1 - t0;
    }

  private:
    static std::uint64_t
    step(std::uint64_t x)
    {
        x ^= x << 13;
        x ^= x >> 7;
        return x ^ (x << 17);
    }

    std::vector<std::uint32_t> table_;
    mutable std::atomic<std::uint64_t> sink_{0};
};

// ----------------------------------------------------------------------
// Spans and units.
// ----------------------------------------------------------------------

struct Span
{
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Index of the parent within the same list; -1 = workload span. */
    int parent = -1;
};

/** One unit's measurements in one round. */
struct Unit
{
    std::string id; ///< "<benchmark>#<variant>/<config>"
    std::string bench;
    unsigned tid = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t generateNs = 0;
    std::uint64_t constructNs = 0;
    std::uint64_t runNs = 0; ///< warm-up plus timed run() calls
    std::uint64_t runInsts = 0;
    std::uint64_t runCycles = 0;
    std::uint64_t warmupNs = 0; ///< functionalWarmup
    std::uint64_t warmupInsts = 0;
    std::uint64_t recordNs = 0;
    std::uint64_t recordInsts = 0;
    std::uint64_t replayNs = 0;
    std::uint64_t replayInsts = 0;
    std::uint64_t phaseNs[obs::kNumPhases] = {};
    Counts counts{};
    std::uint64_t digest = kFnvBasis;
    std::string failure; ///< empty = the unit passed its checks
    bool traced = false;
    std::vector<Span> spans; ///< spans[0] is the unit span when traced

    /** Time @p fn; record a child span of the unit when traced. */
    template <class Fn>
    std::uint64_t
    call(const char *name, Fn &&fn)
    {
        const std::uint64_t t0 = nowNs();
        fn();
        const std::uint64_t t1 = nowNs();
        if (traced)
            spans.push_back({name, t0, t1, 0});
        return t1 - t0;
    }

    void
    fail(const std::string &why)
    {
        if (failure.empty())
            failure = id + ": " + why;
    }
};

sim::ProcessorConfig
configNamed(const std::string &name)
{
    if (name == "icache")
        return sim::icacheConfig();
    if (name == "baseline")
        return sim::baselineConfig();
    if (name == "promotion")
        return sim::promotionConfig();
    if (name == "packing")
        return sim::packingConfig();
    return sim::promotionPackingConfig();
}

/** Detailed model: optional warm-up run + resetStats, then a window. */
void
runDetailed(Unit &u, const sim::ProcessorConfig &config,
            const workload::Program &program, std::uint64_t warm,
            std::uint64_t window)
{
    std::unique_ptr<sim::Processor> proc;
    u.constructNs += u.call("Processor", [&] {
        proc = std::make_unique<sim::Processor>(config, program);
    });
    obs::SelfProfiler profiler;
    if (u.traced)
        proc->attachProfiler(&profiler);
    if (warm > 0) {
        u.runNs += u.call("run.warmup", [&] { proc->run(warm); });
        if (proc->intervalCounters().insts < warm)
            u.fail("warm-up retired fewer instructions than its budget");
        proc->resetStats();
    }
    const obs::IntervalCounters before = proc->intervalCounters();
    sim::SimResult r;
    u.runNs += u.call("run", [&] { r = proc->run(warm + window); });
    const obs::IntervalCounters after = proc->intervalCounters();
    u.runInsts += after.insts;
    u.runCycles += after.cycles;
    if (after.insts < warm + window)
        u.fail("retired " + std::to_string(after.insts) + " of " +
               std::to_string(warm + window) + " instructions");

    Counts &c = u.counts;
    c[WindowInsts] += r.instructions;
    c[WindowCycles] += r.cycles;
    for (unsigned k = 0; k <= CatMisfetches - CatUsefulFetch; ++k)
        c[CatUsefulFetch + k] += r.cycleCat[k];
    c[UsefulFetches] += r.usefulFetches;
    c[FetchedInsts] += r.fetchedInsts;
    c[PredictionsUsed] += after.predictionsUsed;
    c[TcLookups] += r.tcLookups;
    c[TcHits] += r.tcHits;
    c[Promotions] += after.promotions - before.promotions;
    c[Demotions] += after.demotions - before.demotions;
    c[CondBranches] += r.condBranches;
    c[CondMispredicts] += r.condMispredicts;
    c[PromotedFaults] += r.promotedFaults;
    c[IndirectMispredicts] += r.indirectMispredicts;
    c[MemOrderViolations] += after.memOrderViolations;
    addStatCounts(c, r.stats, false);
    u.digest = fnvStats(u.digest, r.stats);

    if (u.traced) {
        for (unsigned ph = 0; ph < obs::kNumPhases; ++ph) {
            u.phaseNs[ph] += static_cast<std::uint64_t>(std::llround(
                profiler.phaseSeconds(static_cast<obs::Phase>(ph)) * 1e9));
        }
    }
}

using ControlFlowResult = sim::Processor::ControlFlowResult;

std::uint64_t
fnvControlFlow(std::uint64_t h, const ControlFlowResult &r)
{
    for (const std::uint64_t v :
         {r.instructions, r.records, r.condBranches, r.condMispredicts,
          r.returns, r.returnMispredicts, r.indirectJumps,
          r.indirectMispredicts, r.traps, r.icacheAccesses, r.icacheMisses,
          r.tcLookups, r.tcHits, r.outcomeHash, r.finalHistory,
          static_cast<std::uint64_t>(r.halted)}) {
        h = fnvU64(h, v);
    }
    return h;
}

/**
 * Functional front end: functionalWarmup, recordTrace to @p path and
 * replayTrace of that file, each on a fresh processor. Record and
 * replay must agree on every ControlFlowResult field.
 */
void
runWalker(Unit &u, const workload::BenchmarkProfile &profile,
          const sim::ProcessorConfig &config,
          const workload::Program &program, std::uint64_t insts,
          const std::string &path)
{
    Counts &c = u.counts;
    {
        std::unique_ptr<sim::Processor> proc;
        u.constructNs += u.call("Processor", [&] {
            proc = std::make_unique<sim::Processor>(config, program);
        });
        u.warmupNs += u.call("functionalWarmup",
                             [&] { proc->functionalWarmup(insts); });
        const std::uint64_t walked = proc->intervalCounters().insts;
        u.warmupInsts += walked;
        if (walked != insts)
            u.fail("functionalWarmup walked " + std::to_string(walked) +
                   " of " + std::to_string(insts) + " instructions");
        const sim::SimResult r = proc->makeResult();
        addStatCounts(c, r.stats, true);
        u.digest = fnvStats(u.digest, r.stats);
    }

    ControlFlowResult rec;
    {
        std::unique_ptr<sim::Processor> proc;
        u.constructNs += u.call("Processor", [&] {
            proc = std::make_unique<sim::Processor>(config, program);
        });
        u.recordNs += u.call("recordTrace", [&] {
            workload::BtraceWriter writer(
                path, workload::kGeneratorVersion,
                workload::profileFingerprint(profile), program.entry());
            rec = proc->recordTrace(writer, insts);
        });
        u.recordInsts += rec.instructions;
    }
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    if (ec)
        u.fail("cannot stat the recorded btrace: " + ec.message());
    else
        c[BtraceBytes] += bytes;

    ControlFlowResult rep;
    {
        workload::BtraceReader reader;
        std::string error;
        if (!reader.open(path, &error)) {
            u.fail("cannot open the recorded btrace: " + error);
            std::filesystem::remove(path, ec);
            return;
        }
        std::unique_ptr<sim::Processor> proc;
        u.constructNs += u.call("Processor", [&] {
            proc = std::make_unique<sim::Processor>(config, program);
        });
        u.replayNs += u.call("replayTrace",
                             [&] { rep = proc->replayTrace(reader); });
        u.replayInsts += rep.instructions;
        const sim::SimResult r = proc->makeResult();
        const obs::IntervalCounters ic = proc->intervalCounters();
        addStatCounts(c, r.stats, false);
        c[Promotions] += ic.promotions;
        c[Demotions] += ic.demotions;
        u.digest = fnvStats(u.digest, r.stats);
    }
    std::filesystem::remove(path, ec);

    c[TcLookups] += rep.tcLookups;
    c[TcHits] += rep.tcHits;
    c[CondBranches] += rep.condBranches;
    c[CondMispredicts] += rep.condMispredicts;
    c[IndirectMispredicts] += rep.indirectMispredicts;
    u.digest = fnvControlFlow(fnvControlFlow(u.digest, rec), rep);

    if (rec.instructions != insts || rep.instructions != insts)
        u.fail("record/replay covered " + std::to_string(rec.instructions) +
               "/" + std::to_string(rep.instructions) + " of " +
               std::to_string(insts) + " instructions");
    if (fnvControlFlow(kFnvBasis, rec) != fnvControlFlow(kFnvBasis, rep))
        u.fail("record and replay disagree on a ControlFlowResult field");
}

// ----------------------------------------------------------------------
// Workload plans.
// ----------------------------------------------------------------------

enum class Kind
{
    Detailed,
    Walker
};

struct UnitSpec
{
    std::string config;
    Kind kind = Kind::Detailed;
    std::uint64_t warm = 0;
    std::uint64_t insts = 0; ///< timed window, or walk length
};

/** One program; the plan's units run on it in order, on one thread. */
struct Task
{
    workload::BenchmarkProfile profile;
    unsigned variant = 0;
};

struct Plan
{
    std::vector<std::string> benches;
    std::vector<UnitSpec> units;
    unsigned variants = 1; ///< programs per benchmark in one round
    unsigned threads = 1;
    std::uint64_t seed = 0;
    /** Run the suite's own programs in every round, whatever the seed. */
    bool suiteOnly = false;

    /** The programs of program set @p set: variants [set, set + 1) x
     *  variants of every benchmark. */
    std::vector<Task> tasks(unsigned set) const;
};

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * A copy of the suite profile @p name for program variant @p variant
 * of run seed @p seed. Variant 0 of seed 0 keeps the suite's own seed;
 * every other pair re-seeds the copy.
 */
workload::BenchmarkProfile
seededProfile(const std::string &name, std::uint64_t seed, unsigned variant)
{
    workload::BenchmarkProfile p = workload::findProfile(name);
    if (seed != 0 || variant != 0)
        p.seed = splitmix64(p.seed ^ splitmix64(splitmix64(seed) + variant));
    return p;
}

std::vector<Task>
Plan::tasks(unsigned set) const
{
    std::vector<Task> out;
    for (unsigned v = set * variants; v < (set + 1) * variants; ++v) {
        for (const std::string &bench : benches) {
            out.push_back(suiteOnly
                              ? Task{workload::findProfile(bench), 0}
                              : Task{seededProfile(bench, seed, v), v});
        }
    }
    return out;
}

// core exists for the per-instruction cost gap between gcc and go. That
// gap belongs to the suite's own go program: at 1M instructions it takes
// 1.5-2.1x the host time per instruction of the suite's gcc, with the
// schedule stage at 54% of its time, while re-seeded go programs cost
// 0.95-1.13x gcc. So core runs the suite's programs in every round and
// ignores the seed, and its budget is the 1M instructions at which the
// gap was measured.
constexpr std::uint64_t kCoreWarm = 200'000;
constexpr std::uint64_t kCoreWindow = 800'000;

// Programs per profile in one round. The host time tcsim takes for a
// unit differs between programs of one profile by a heavy-tailed factor
// (one cold 20k-instruction server-cache program took 10x the median
// cycles), so every round of frontend and sweep draws new programs. A
// sweep round takes one program of each profile, which keeps its rounds
// short: its speed probes run only at the round's two barriers.
constexpr unsigned kFrontendVariants = 8;
constexpr unsigned kSweepVariants = 1;

constexpr std::uint64_t kFrontendInsts = 1'000'000;
constexpr std::uint64_t kSweepInsts = 20'000;

Plan
makePlan(const std::string &workload, std::uint64_t seed,
         unsigned sweep_threads)
{
    Plan plan;
    plan.seed = seed;
    if (workload == "core") {
        plan.benches = {"gcc", "go"};
        for (const char *config : {"baseline", "promo-pack"}) {
            plan.units.push_back(
                {config, Kind::Detailed, kCoreWarm, kCoreWindow});
        }
        plan.suiteOnly = true;
    } else if (workload == "frontend") {
        plan.benches = {"gcc", "server-oltp"};
        plan.units.push_back(
            {"promo-pack", Kind::Walker, 0, kFrontendInsts});
        plan.variants = kFrontendVariants;
    } else if (workload == "sweep") {
        for (const auto &p : workload::benchmarkSuite())
            plan.benches.push_back(p.name);
        for (const auto &p : workload::serverSuite())
            plan.benches.push_back(p.name);
        for (const char *config :
             {"icache", "baseline", "promotion", "packing", "promo-pack"}) {
            plan.units.push_back({config, Kind::Detailed, 0, kSweepInsts});
        }
        plan.variants = kSweepVariants;
        plan.threads = sweep_threads;
    }
    return plan;
}

// ----------------------------------------------------------------------
// Rounds.
// ----------------------------------------------------------------------

struct Round
{
    bool traced = false;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::vector<Unit> units;
    std::uint64_t digest = kFnvBasis;
    std::uint64_t probeNs = 0; ///< mean over the round's probes
};

/**
 * Run the units of program set @p set. A speed probe runs only while no
 * unit runs, so tcsim's own use of caches and memory bandwidth cannot
 * move it: on every thread at once behind a barrier before the fan-out
 * and again after the join, and, when one thread runs every task, also
 * between tasks. The round's start and end are the two barriers.
 */
Round
runRound(const Plan &plan, unsigned set, bool traced, unsigned index,
         const std::string &tmp_dir, const SpeedProbe &probe)
{
    Round round;
    round.traced = traced;
    const std::vector<Task> tasks = plan.tasks(set);
    round.units.resize(tasks.size() * plan.units.size());

    const auto run_task = [&](const Task &task, Unit *units, unsigned tid) {
        std::unique_ptr<workload::Program> program;
        for (std::size_t j = 0; j < plan.units.size(); ++j) {
            const UnitSpec &spec = plan.units[j];
            Unit &u = units[j];
            u.bench = task.profile.name;
            u.id = u.bench + "#" + std::to_string(task.variant) + "/" +
                   spec.config;
            u.tid = tid;
            u.traced = traced;
            u.startNs = nowNs();
            if (traced)
                u.spans.push_back({"unit", u.startNs, 0, -1});
            try {
                if (!program) {
                    u.generateNs += u.call("generateProgram", [&] {
                        program = std::make_unique<workload::Program>(
                            workload::generateProgram(task.profile));
                    });
                }
                const sim::ProcessorConfig config = configNamed(spec.config);
                if (spec.kind == Kind::Detailed) {
                    runDetailed(u, config, *program, spec.warm, spec.insts);
                } else {
                    const std::string path =
                        tmp_dir + "/perfbench-" + std::to_string(getpid()) +
                        "-" + std::to_string(index) + "-" +
                        std::to_string(tid) + ".btrace";
                    runWalker(u, task.profile, config, *program, spec.insts,
                              path);
                }
            } catch (const std::exception &e) {
                u.fail(std::string("exception: ") + e.what());
            }
            u.endNs = nowNs();
            if (traced)
                u.spans[0].endNs = u.endNs;
        }
    };

    std::atomic<std::size_t> next{0};
    std::vector<std::vector<std::uint64_t>> thread_probes(plan.threads);
    // Each barrier phase ends with every thread idle; stamp the first
    // phase's end as the round's start, the second's as its end.
    std::barrier sync(plan.threads, [&round]() noexcept {
        (round.startNs == 0 ? round.startNs : round.endNs) = nowNs();
    });
    const auto worker = [&](unsigned tid) {
        std::vector<std::uint64_t> &probes = thread_probes[tid];
        probes.push_back(probe.measure());
        sync.arrive_and_wait();
        for (std::size_t t = next++; t < tasks.size(); t = next++) {
            if (plan.threads == 1 && t > 0)
                probes.push_back(probe.measure());
            run_task(tasks[t], &round.units[t * plan.units.size()], tid);
        }
        sync.arrive_and_wait();
        probes.push_back(probe.measure());
    };

    if (plan.threads <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < plan.threads; ++t)
            pool.emplace_back(worker, t);
        for (auto &thread : pool)
            thread.join();
    }
    std::uint64_t probes = 0;
    for (const auto &list : thread_probes) {
        for (const std::uint64_t ns : list)
            round.probeNs += ns;
        probes += list.size();
    }
    round.probeNs /= probes;

    for (const Unit &u : round.units) {
        round.digest = fnv(round.digest, u.id.data(), u.id.size());
        round.digest = fnvU64(round.digest, u.digest);
        for (const std::uint64_t v : u.counts)
            round.digest = fnvU64(round.digest, v);
    }
    return round;
}

// ----------------------------------------------------------------------
// JSON output.
// ----------------------------------------------------------------------

void
addField(std::string &out, const char *key, std::uint64_t value,
         bool first = false)
{
    if (!first)
        out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(value);
}

/** Append @p value as a JSON string; control characters are dropped. */
void
appendQuoted(std::string &out, const std::string &value)
{
    out += '"';
    for (const char ch : value) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    out += '"';
}

void
addString(std::string &out, const char *key, const std::string &value,
          bool first = false)
{
    if (!first)
        out += ',';
    out += '"';
    out += key;
    out += "\":";
    appendQuoted(out, value);
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

std::uint64_t
rel(std::uint64_t ns)
{
    return ns - kEpochNs;
}

/** The units' simulated counts, which round 0 carries. */
void
appendUnitCounts(std::string &out, const Round &round)
{
    for (std::size_t i = 0; i < round.units.size(); ++i) {
        const Unit &u = round.units[i];
        out += i == 0 ? "{" : ",{";
        addString(out, "id", u.id, true);
        addString(out, "bench", u.bench);
        addString(out, "digest", hex64(u.digest));
        out += ",\"counts\":{";
        for (unsigned k = 0; k < NumCounts; ++k)
            addField(out, kCountNames[k], u.counts[k], k == 0);
        out += "}}";
    }
}

void
appendRound(std::string &out, const Round &round, unsigned index)
{
    out += "{";
    addField(out, "round", index, true);
    addField(out, "traced", round.traced ? 1 : 0);
    addField(out, "start_ns", rel(round.startNs));
    addField(out, "end_ns", rel(round.endNs));
    addField(out, "probe_ns", round.probeNs);
    addString(out, "digest", hex64(round.digest));
    out += ",\"units\":[";
    for (std::size_t i = 0; i < round.units.size(); ++i) {
        const Unit &u = round.units[i];
        out += i == 0 ? "{" : ",{";
        addString(out, "id", u.id, true);
        addField(out, "tid", u.tid);
        addField(out, "start_ns", rel(u.startNs));
        addField(out, "end_ns", rel(u.endNs));
        addField(out, "generate_ns", u.generateNs);
        addField(out, "construct_ns", u.constructNs);
        addField(out, "run_ns", u.runNs);
        addField(out, "run_insts", u.runInsts);
        addField(out, "run_cycles", u.runCycles);
        addField(out, "warmup_ns", u.warmupNs);
        addField(out, "warmup_insts", u.warmupInsts);
        addField(out, "record_ns", u.recordNs);
        addField(out, "record_insts", u.recordInsts);
        addField(out, "replay_ns", u.replayNs);
        addField(out, "replay_insts", u.replayInsts);
        out += ",\"phase_ns\":{";
        for (unsigned ph = 0; ph < obs::kNumPhases; ++ph) {
            addField(out, obs::phaseName(static_cast<obs::Phase>(ph)),
                     u.phaseNs[ph], ph == 0);
        }
        out += "},\"spans\":[";
        for (std::size_t s = 0; s < u.spans.size(); ++s) {
            const Span &span = u.spans[s];
            out += s == 0 ? "{" : ",{";
            addString(out, "name", span.name, true);
            addField(out, "start_ns", rel(span.startNs));
            addField(out, "end_ns", rel(span.endNs));
            out += ",\"parent\":" + std::to_string(span.parent);
            out += "}";
        }
        out += "]}";
    }
    out += "]";
    if (index == 0) {
        out += ",\"unit_counts\":[";
        appendUnitCounts(out, round);
        out += "]";
    }
    out += "}\n";
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload core|frontend|sweep [--seed N] "
                 "[--seconds S] [--trace 0|1] [--threads N]\n",
                 argv0);
    std::exit(2);
}

void
writeLine(const std::string &line)
{
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    // Every Processor value-initializes a 9 MiB DynInst ring. Taken from
    // the heap, a freed ring's hole may or may not fit the next ring,
    // depending on the small blocks allocated in between, and a ring
    // placed anew adds 9 MiB to the peak RSS: core's read 22 or 31 MiB
    // with nothing changed but the length of the TMPDIR path. So every
    // block of 8 MiB or more is mapped fresh and unmapped when freed
    // (which also fixes glibc's adaptive mmap threshold), and the peak
    // RSS follows the memory in use. The heap keeps what is freed
    // below that size rather than fault it in again.
    mallopt(M_MMAP_THRESHOLD, 8 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    std::string workload_name;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    const unsigned nproc = hostCpus();
    unsigned threads = std::min(nproc, 4u);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *value = argv[++i];
        if (arg == "--workload")
            workload_name = value;
        else if (arg == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(value);
        else if (arg == "--trace")
            trace = std::atoi(value) != 0;
        else if (arg == "--threads")
            threads = static_cast<unsigned>(std::max(1, std::atoi(value)));
        else
            usage(argv[0]);
    }
    const Plan plan = makePlan(workload_name, seed, threads);
    if (plan.benches.empty())
        usage(argv[0]);
    std::error_code ec;
    const std::string tmp_dir =
        std::filesystem::temp_directory_path(ec).string();
    if (ec) {
        std::fprintf(stderr, "no temporary directory: %s\n",
                     ec.message().c_str());
        return 1;
    }

    // Untraced runs take at least 3 rounds. Traced runs alternate
    // untraced and traced rounds, at least 2 of each, and a traced round
    // repeats the program set of the untraced round before it, which
    // must give the same digest. A further round starts only if a round
    // of median length still ends in time. Each round is written out as
    // it ends, so the driver holds one round at a time.
    const unsigned min_rounds = trace ? 4 : 3;
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);

    std::vector<std::string> failures;
    std::vector<std::uint64_t> round_ns;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    std::uint64_t untraced_digest = 0;
    const SpeedProbe probe;
    for (unsigned r = 0;; ++r) {
        const bool traced = trace && r % 2 == 1;
        const Round round = runRound(plan, trace ? r / 2 : r, traced, r,
                                     tmp_dir, probe);
        round_ns.push_back(round.endNs - round.startNs);
        attempted += round.units.size();
        for (const Unit &u : round.units) {
            if (!u.failure.empty()) {
                ++failed;
                failures.push_back("round " + std::to_string(r) + ": " +
                                   u.failure);
            }
        }
        if (r == 0)
            digest = round.digest;
        if (!traced) {
            untraced_digest = round.digest;
        } else if (round.digest != untraced_digest) {
            failures.push_back("round " + std::to_string(r) +
                               ": traced digest " + hex64(round.digest) +
                               " differs from the untraced " +
                               hex64(untraced_digest));
        }
        std::string line;
        appendRound(line, round, r);
        writeLine(line);
        std::vector<std::uint64_t> sorted = round_ns;
        std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                         sorted.end());
        if (r + 1 >= min_rounds &&
            nowNs() + sorted[sorted.size() / 2] > deadline)
            break;
    }

    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);

    std::string out = "{";
    addString(out, "workload", workload_name, true);
    addField(out, "seed", seed);
    addField(out, "threads", plan.threads);
    addField(out, "nproc", nproc);
    addString(out, "digest", hex64(digest));
    addField(out, "attempted", attempted);
    addField(out, "failed", failed);
    // The probe's table is resident from start to end; leave it out.
    addField(out, "peak_rss_kib",
             static_cast<std::uint64_t>(usage_now.ru_maxrss) -
                 SpeedProbe::kBytes / 1024);
    out += ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        if (i > 0)
            out += ',';
        appendQuoted(out, failures[i]);
    }
    out += "]}\n";
    writeLine(out);
    return 0;
}
