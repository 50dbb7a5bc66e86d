/**
 * @file
 * The processor: an executable-driven, wrong-path-modeling cycle
 * simulator of the paper's pipeline (Figure 2): fetch -> issue ->
 * schedule -> execute, with in-order retire feeding the fill unit.
 *
 * Key mechanisms:
 *  - trace-cache or icache front end (fetch::FetchEngine) with
 *    speculative history/RAS maintenance;
 *  - value-based Tomasulo execution: renamed operands flow through
 *    node tables and 16 universal functional units, so wrong paths
 *    execute real (wrong) values and branch outcomes come from actual
 *    execution;
 *  - checkpoint-repair recovery implemented by rebuild: on recovery to
 *    instruction X, younger instructions are squashed and the RAT,
 *    global history and RAS are rebuilt from architectural state plus
 *    the surviving in-flight window (bounded by the checkpoint pool,
 *    which also throttles fetch exactly as the paper's 3-per-cycle
 *    checkpoint constraint does);
 *  - inactive issue: segment instructions beyond a partial-match
 *    divergence dispatch into a shadow rename context; when the
 *    diverging branch resolves against its prediction and along the
 *    segment's embedded path they are salvaged (activated), otherwise
 *    they retire as discarded no-ops;
 *  - branch promotion faults: a promoted branch whose outcome differs
 *    from its static direction recovers to the previous fetch-block
 *    checkpoint and refetches with a one-shot direction override;
 *  - an architectural oracle (FunctionalExecutor) classifies fetched
 *    instructions as correct/wrong path for statistics, verifies the
 *    retired stream, and supplies perfect memory disambiguation.
 */

#ifndef TCSIM_SIM_PROCESSOR_H
#define TCSIM_SIM_PROCESSOR_H

#include <array>
#include <deque>
#include <utility>
#include <memory>
#include <vector>

#include "bpred/hybrid.h"
#include "bpred/multi.h"
#include "core/completion_calendar.h"
#include "core/dyninst.h"
#include "core/node_tables.h"
#include "fetch/fetch_engine.h"
#include "memory/hierarchy.h"
#include "obs/intervals.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/accounting.h"
#include "sim/config.h"
#include "trace/fill_unit.h"
#include "trace/trace_cache.h"
#include "workload/btrace.h"
#include "workload/executor.h"
#include "workload/program.h"

namespace tcsim::sim
{

/** The whole machine. */
class Processor
{
  public:
    Processor(const ProcessorConfig &config,
              const workload::Program &program);
    /** The processor stores a reference; temporaries are rejected. */
    Processor(const ProcessorConfig &, workload::Program &&) = delete;
    ~Processor();

    Processor(const Processor &) = delete;
    Processor &operator=(const Processor &) = delete;

    /**
     * Run until the program halts or @p max_insts instructions have
     * retired.
     * @return the collected metrics
     */
    SimResult run(std::uint64_t max_insts);

    /** Advance the machine by one cycle (exposed for tests). */
    void step();

    /** @return true once Halt has retired (or max instructions hit). */
    bool done() const { return done_; }

    Cycle cycle() const { return cycle_; }
    std::uint64_t retiredInsts() const { return retiredInsts_; }

    const Accounting &accounting() const { return accounting_; }
    const trace::TraceCache *traceCache() const { return traceCache_.get(); }
    const trace::FillUnit *fillUnit() const { return fillUnit_.get(); }
    memory::Hierarchy &hierarchy() { return hierarchy_; }

    /** Build the result snapshot (also done by run()). */
    SimResult makeResult() const;

    /**
     * Zero all statistics while keeping microarchitectural state
     * (caches, predictors, bias table, in-flight window): run a
     * warm-up phase, reset, then measure a steady-state window.
     */
    void resetStats();

    /**
     * Functionally fast-forward committed state from the current
     * position to absolute retired-instruction index @p until while
     * warming the trainable structures (SMARTS-style functional
     * warming): each functionally-executed instruction applies the
     * retire-time updates a detailed run would — branch-predictor
     * training, indirect-target updates, fill-unit trace construction
     * (which also fills the trace cache and trains the bias table) —
     * and touches the instruction/data cache tags, without simulating
     * any pipeline cycles. Callable repeatedly with ascending @p until
     * on a never-cycled processor. Fatal if the program halts before
     * @p until.
     */
    void functionalWarmup(std::uint64_t until);

    // ------------------------------------------------------------------
    // Binary branch/fetch trace record and replay (tcsim-btrace-v1).
    // ------------------------------------------------------------------

    /**
     * Front-end-visible outcome of one record or replay control-flow
     * pass. The pass drives the icache, trace cache, fill unit and all
     * predictors from the retired control-flow stream without
     * simulating pipeline cycles, so record and replay of the same
     * stream must agree on every field — outcomeHash (FNV-1a over each
     * control transfer's pc/next-pc/direction) and finalHistory are
     * the bit-identity witnesses for the branch-outcome stream and the
     * predictor-visible history.
     */
    struct ControlFlowResult
    {
        std::uint64_t instructions = 0;    ///< dynamic insts covered
        std::uint64_t records = 0;         ///< control-flow events
        std::uint64_t condBranches = 0;
        std::uint64_t condMispredicts = 0; ///< hybrid-predictor misses
        std::uint64_t returns = 0;
        std::uint64_t returnMispredicts = 0; ///< committed-RAS misses
        std::uint64_t indirectJumps = 0;
        std::uint64_t indirectMispredicts = 0;
        std::uint64_t traps = 0;
        std::uint64_t icacheAccesses = 0;
        std::uint64_t icacheMisses = 0;
        std::uint64_t tcLookups = 0; ///< one lookup per fetch leader
        std::uint64_t tcHits = 0;
        std::uint64_t outcomeHash = 0;
        std::uint64_t finalHistory = 0;
        bool halted = false;
    };

    /**
     * Execute up to @p max_insts instructions through the oracle,
     * driving the front end from the retired control-flow stream.
     * Requires a pristine processor; the pass is terminal — discard
     * the processor afterwards. recordTrace() and replayTrace() of the
     * same stream agree with it on every field.
     */
    ControlFlowResult walkControlFlow(std::uint64_t max_insts);

    /**
     * walkControlFlow(), appending every retired control-flow event to
     * @p writer (which this finalizes via close()).
     */
    ControlFlowResult recordTrace(workload::BtraceWriter &writer,
                                  std::uint64_t max_insts);

    /**
     * Drive the front end purely from @p reader: non-control
     * instructions are walked from the program image, control
     * transfers take their directions and targets from the trace.
     * Fatal on any divergence between the walked pc and the next
     * record's pc. Same pristine/terminal contract as recordTrace().
     */
    ControlFlowResult replayTrace(const workload::BtraceReader &reader);

    // ------------------------------------------------------------------
    // Observability (all opt-in; null pointers keep the hot paths at
    // one predictable branch each and never change simulation state).
    // ------------------------------------------------------------------

    /**
     * Attach @p tracer to every instrumented component (fetch engine,
     * trace cache, fill unit + bias table, cache hierarchy, core) and
     * wire its timestamp clock to this processor's cycle counter.
     * Pass null to detach. The tracer must outlive the processor run.
     */
    void attachTracer(obs::Tracer *tracer);

    /**
     * Sample cumulative counters into @p recorder every
     * recorder->intervalInsts() retired instructions; run() appends
     * the final partial sample. Pass null to detach.
     */
    void attachIntervalRecorder(obs::IntervalRecorder *recorder);

    /** Account per-stage host time into @p profiler during step(). */
    void attachProfiler(obs::SelfProfiler *profiler)
    {
        profiler_ = profiler;
    }

    /** Snapshot the cumulative interval counters (also used by run()). */
    obs::IntervalCounters intervalCounters() const;

  private:
    /** A fetched batch plus oracle classification metadata. */
    struct PendingBatch
    {
        fetch::FetchBatch batch;
        std::uint64_t group = 0;
        Cycle fetchCycle = 0;
        bool wasOnPath = false;
        std::uint64_t oracleStart = 0;
        unsigned correctPrefix = 0;
    };
    struct RecoveryRequest
    {
        InstSeqNum keepSeq = 0; ///< 0 = squash the whole window
        /** Seq of the resolving instruction; arbitration keeps the
         * architecturally oldest origin (NOT the smallest keepSeq: a
         * young promoted fault backing up to the retire boundary must
         * not beat an older branch's recovery). */
        InstSeqNum originSeq = 0;
        Addr redirect = kInvalidAddr;
        CycleCategory cause = CycleCategory::BranchMisses;
        bool countResolution = false;
        Cycle predictedCycle = 0;
        /** Salvage: activate (salvageFrom, keepSeq] before rebuild. */
        bool salvage = false;
        InstSeqNum salvageFrom = 0;
        /** Promoted-fault override installed on apply. */
        bool overrideValid = false;
        Addr overridePc = 0;
        bool overrideDir = false;
        unsigned overrideSkip = 0;
    };

    // ------------------------------------------------------------------
    // Oracle bookkeeping.
    // ------------------------------------------------------------------
    struct OracleEntry
    {
        workload::StepResult step;
    };

    /**
     * Reposition the committed mirrors, the oracle ring and the
     * speculative front end at the oracle's current position (after
     * functionalWarmup moved it); archHistory_ and archRas_ must
     * already hold that position's values.
     */
    void syncToOracle();
    void extendOracle(std::uint64_t upto_idx);
    const workload::StepResult &oracleAt(std::uint64_t idx);
    void growOracleRing();

    /** The two ways a functional walk (walk()) differs by caller. */
    enum class WalkMode : std::uint8_t
    {
        /** functionalWarmup: touch the dcache too; no trace-cache
         * lookups and no counting. */
        Warm,
        /** walkControlFlow / recordTrace / replayTrace: look up the
         * trace cache once per fetch leader, count, and fold the
         * outcome hash. */
        ControlFlow,
    };

    /**
     * The functional front-end walker behind functionalWarmup(),
     * walkControlFlow(), recordTrace() and replayTrace(). @p steps is
     * the step source: pc() gives the first fetch leader, and while
     * more() holds, next() yields the next retired step. Each step
     * gets the retire-time updates a detailed run would apply (icache,
     * branch predictors, RAS, indirect targets, fill unit). @p writer,
     * given only by record, receives one record per control
     * instruction.
     */
    template <WalkMode Mode, typename Steps>
    ControlFlowResult walk(Steps &steps, workload::BtraceWriter *writer);

    // ------------------------------------------------------------------
    // Pipeline stages (called youngest-last each cycle).
    // ------------------------------------------------------------------
    void retireStage();
    void completeStage();
    void scheduleStage();
    void dispatchStage();
    void fetchStage();

    // Helpers.
    core::DynInst *instFor(InstSeqNum seq);
    const core::DynInst *instFor(InstSeqNum seq) const;
    /** Allocate the next seq's slot. May grow (and so move) the ring:
     * no DynInst pointer may be held across a call. */
    core::DynInst &allocInst();
    void growRobStorage();
    /** An event that can change loadParked's answer for the store in
     * @p seq's slot: drops the ready-queue parks cached on it, and the
     * confirmation of every unit with a confirmed park there. */
    void
    bumpSlotVersion(InstSeqNum seq)
    {
        const std::uint64_t slot = seq & robMask_;
        ++slotVersion_[slot];
        if (slotWatchers_[slot] != 0)
            dropWatchers(slot);
    }
    /** Void the park count of every unit watching @p slot and clear
     * the slot's mask. */
    void dropWatchers(std::uint64_t slot);
    /** Every entry of @p unit's queue is a confirmed park (verify mode:
     * assert that each still holds). */
    void verifyConfirmedParks(std::uint8_t unit);
    /** Unpark every load (see memOrderEpoch_) and drop every cached
     * park. */
    void
    bumpMemOrderEpoch()
    {
        ++memOrderEpoch_;
        ++parkGen_;
    }
    void wakeDependents(core::DynInst &producer);
    bool operandsReady(const core::DynInst &inst) const;
    void enqueueReady(core::DynInst &inst);
    void executeInst(core::DynInst &inst);
    bool tryScheduleMemory(core::DynInst &inst);
    void resolveControl(core::DynInst &inst);
    void requestRecovery(const RecoveryRequest &request);
    void applyRecovery();
    void squashYoungerThan(InstSeqNum keep_seq);
    /** Rebuild RAT/history/RAS; @return the salvage redirect target
     * (kInvalidAddr unless computing one was requested via @p tail). */
    Addr rebuildInFlightState(const core::DynInst *tail);
    void classifyFetchBatch(PendingBatch &pending);
    void retireOne(core::DynInst &inst);
    RegVal loadValueFor(core::DynInst &load, bool &forwarded);

    // ------------------------------------------------------------------
    // Window-indexed lookups. The hot per-event scans (load
    // forwarding/disambiguation, promoted-fault checkpoint selection)
    // are answered from incrementally maintained indexes in
    // O(1)/O(log n) instead of walking robOrder_ or storeQueue_. The
    // original reference scans are kept as slow* twins;
    // TCSIM_VERIFY_WINDOW_INDEX=1 cross-checks every event.
    // ------------------------------------------------------------------
    /** First robOrder_ position with seq >= @p seq (robOrder_ is
     * sorted ascending but not contiguous — squashes leave gaps). */
    std::deque<InstSeqNum>::const_iterator
    robLowerBound(InstSeqNum seq) const;
    static std::uint32_t addrBucket(Addr addr);
    void storeIndexInsert(Addr addr, InstSeqNum seq);
    void storeIndexRemove(Addr addr, InstSeqNum seq);
    void unknownStoreResolved(InstSeqNum seq);
    const core::DynInst *
    youngestMatchingStoreBefore(const core::DynInst &load) const;
    /** @return the store @p load must wait for (the youngest visible
     * blocking event), or null if it may proceed. */
    const core::DynInst *loadBlocker(const core::DynInst &load) const;
    bool loadParked(const core::DynInst &load) const;
    const core::DynInst *
    previousCheckpointFor(const core::DynInst &inst) const;
    // Reference implementations (pre-index scans, verify mode only).
    bool slowLoadDisambiguation(const core::DynInst &load) const;
    const core::DynInst *
    slowForwardingStore(const core::DynInst &load) const;
    const core::DynInst *
    slowPreviousCheckpointFor(const core::DynInst &inst) const;

    // ------------------------------------------------------------------
    // Configuration and substrate.
    // ------------------------------------------------------------------
    ProcessorConfig config_;
    const workload::Program &program_;
    memory::Hierarchy hierarchy_;
    std::unique_ptr<trace::TraceCache> traceCache_;
    std::unique_ptr<trace::FillUnit> fillUnit_;
    std::unique_ptr<bpred::MultipleBranchPredictor> mbp_;
    std::unique_ptr<bpred::HybridPredictor> hybrid_;
    fetch::FrontEndState frontEnd_;
    std::unique_ptr<fetch::FetchEngine> fetchEngine_;

    // ------------------------------------------------------------------
    // Oracle state.
    // ------------------------------------------------------------------
    std::unique_ptr<workload::FunctionalExecutor> oracle_;
    /** Power-of-two ring of oracle steps: global index i lives at
     * oracleRing_[i & (size-1)]. Live span is [oracleBase_,
     * oracleBase_ + oracleCount_); trimming retired entries is pointer
     * arithmetic, and steady state never allocates. */
    std::vector<workload::StepResult> oracleRing_;
    std::uint64_t oracleBase_ = 0;   ///< oldest live global index
    std::uint64_t oracleCount_ = 0;  ///< live entries in the ring
    std::uint64_t oracleFetchIdx_ = 0;
    std::uint64_t oracleRetireIdx_ = 0;
    bool onTruePath_ = true;
    CycleCategory offPathCause_ = CycleCategory::BranchMisses;

    // ------------------------------------------------------------------
    // Committed (architectural) state.
    // ------------------------------------------------------------------
    workload::SparseMemory memory_;
    std::array<RegVal, isa::kNumArchRegs> archRegs_{};
    std::vector<Addr> archRas_;
    std::uint64_t archHistory_ = 0;
    /** Recovery-rebuild RAS scratch; swapped with the front end's
     * stack each recovery so rebuilds reuse capacity. */
    std::vector<Addr> rasScratch_;

    // ------------------------------------------------------------------
    // Rename state.
    // ------------------------------------------------------------------
    struct RatEntry
    {
        bool isValue = true;
        RegVal value = 0;
        InstSeqNum tag = kInvalidSeqNum;
    };
    using Rat = std::array<RatEntry, isa::kNumArchRegs>;
    Rat rat_;

    // ------------------------------------------------------------------
    // Window state.
    // ------------------------------------------------------------------
    /** Power-of-two DynInst ring: seq s lives at robStorage_[s &
     * robMask_]. Sized to twice the window and doubled by allocInst()
     * whenever the live seq span (squashes leave gaps) reaches it. */
    std::vector<core::DynInst> robStorage_;
    std::uint64_t robMask_ = 0;
    /** Per-slot version, bumped by bumpSlotVersion() at the slot's
     * allocation, address resolution, completion, discard and retire. */
    std::vector<std::uint32_t> slotVersion_;
    /** Ready-queue park cache generation (core::ReadyEntry::parkGen),
     * bumped at every squash, memOrderEpoch_ bump and ring growth.
     * Starts at 1: a fresh entry's 0 never matches. */
    std::uint64_t parkGen_ = 1;
    /**
     * Confirmed parks, per unit (DESIGN.md section 7, "Confirmed
     * parks"). A queue entry is confirmed once a scan re-pushes it as
     * a cached park that holds. While @c gen equals parkGen_, the
     * first @c unconfirmed entries of the unit's queue are not known
     * to be confirmed and the rest are; when none is left, every entry
     * still holds and the unit's scan would only rotate its queue.
     * Setting @c gen to 0 makes the next scan count afresh: a push, or
     * a slot bump under one of the unit's confirmed parks, does it.
     */
    struct UnitParks
    {
        std::uint64_t gen = 0;
        std::size_t unconfirmed = 0;
    };
    std::vector<UnitParks> unitParks_;
    /** Per slot, the units with a confirmed park on the slot's store:
     * bit b stands for every unit u with u % 64 == b. bumpSlotVersion
     * resets their counts and clears the mask. */
    std::vector<std::uint64_t> slotWatchers_;
    std::deque<InstSeqNum> robOrder_;
    InstSeqNum nextSeq_ = 1;
    core::NodeTables nodeTables_;
    std::deque<InstSeqNum> storeQueue_; // sorted by seq
    std::uint32_t outstandingCheckpoints_ = 0;

    /**
     * Checkpoint stack: seqs of the *active* block-ending branches in
     * flight, ascending. Pushed at dispatch (and at salvage
     * activation), popped from the back on squash and from the front
     * when the branch retires. Promoted-fault recovery reads its
     * target from here instead of scanning robOrder_.
     */
    std::deque<InstSeqNum> checkpointStack_;

    /** Hashed memAddr -> seqs of the address-known, un-retired
     * stores. Buckets keep their capacity across erases so steady
     * state never allocates; entries are re-validated against the
     * store's actual memAddr, so hash collisions only cost a skipped
     * element. */
    static constexpr std::uint32_t kAddrIndexBuckets = 1024;
    std::vector<std::vector<InstSeqNum>> storeAddrIndex_;
    /** In-flight stores whose address is still unknown, sorted by seq
     * (dispatch order). */
    std::vector<InstSeqNum> unknownStores_;
    /** TCSIM_VERIFY_WINDOW_INDEX=1: run the reference scans alongside
     * every indexed lookup and assert agreement. */
    bool verifyIndexed_ = false;

    /** Invalidates every parked load (see loadParked). Bumped by
     * events that can change which store a load waits for besides
     * that store's own progress: salvage activation and, under
     * Perfect, a store resolving to an address other than its oracle
     * address. */
    std::uint64_t memOrderEpoch_ = 0;

    // ------------------------------------------------------------------
    // Fetch state.
    // ------------------------------------------------------------------
    std::deque<PendingBatch> fetchQueue_;
    fetch::FetchBatch scratchBatch_;
    /** Retired FetchBatch shells recycled into scratchBatch_ so the
     * fetch loop reuses instruction-vector capacity instead of
     * reallocating every cycle. */
    std::vector<fetch::FetchBatch> batchPool_;
    Addr fetchPc_ = 0;
    std::uint64_t nextFetchGroup_ = 1;
    Cycle icacheStallUntil_ = 0;
    bool serializeStall_ = false;
    Addr resumeAfterSerialize_ = kInvalidAddr;

    // ------------------------------------------------------------------
    // Recovery state (one recovery applied per cycle, oldest wins).
    // ------------------------------------------------------------------
    bool recoveryPending_ = false;
    RecoveryRequest recovery_;

    /** Completion events by completeCycle, drained in (cycle, seq)
     * order. */
    core::CompletionCalendar completions_;

    // ------------------------------------------------------------------
    // Run state and statistics.
    // ------------------------------------------------------------------
    Cycle cycle_ = 0;
    bool done_ = false;
    bool haltRetired_ = false;
    std::uint64_t retiredInsts_ = 0;
    std::uint64_t maxInsts_ = 0;
    /** Measurement-window baselines set by resetStats(). */
    Cycle statBaseCycle_ = 0;
    std::uint64_t statBaseInsts_ = 0;
    Accounting accounting_;
    /** TCSIM_DEBUG_RETIRE=1: keep the last retirements and recoveries
     * and dump them if the retired stream diverges from the oracle. */
    bool debugRetire_ = false;
    std::deque<std::tuple<Addr, isa::Opcode, InstSeqNum, std::uint64_t>>
        debugRetireLog_;
    std::deque<std::tuple<Cycle, InstSeqNum, Addr, int, bool>>
        debugRecoveryLog_;

    std::uint64_t retiredCondBranches_ = 0;
    std::uint64_t condMispredicts_ = 0;
    std::uint64_t promotedFaults_ = 0;
    std::uint64_t indirectMispredicts_ = 0;
    std::uint64_t returnMisfetches_ = 0;
    std::uint64_t retiredReturns_ = 0;
    std::uint64_t retiredIndirects_ = 0;
    std::uint64_t promotedRetired_ = 0;
    std::uint64_t resolutionTimeSum_ = 0;
    std::uint64_t resolutionTimeCount_ = 0;
    std::uint64_t fetchesNeedingPreds_[4] = {0, 0, 0, 0};
    std::uint64_t predictionsUsedSum_ = 0;

    // ------------------------------------------------------------------
    // Observability hooks (see attach* above).
    // ------------------------------------------------------------------
    obs::Tracer *tracer_ = nullptr;
    obs::IntervalRecorder *intervals_ = nullptr;
    /** Cached next snapshot boundary (avoids a division per cycle). */
    std::uint64_t intervalNextAt_ = 0;
    obs::SelfProfiler *profiler_ = nullptr;
};

} // namespace tcsim::sim

#endif // TCSIM_SIM_PROCESSOR_H
