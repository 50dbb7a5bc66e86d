#include "sim/processor.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>

#include "common/fnv.h"
#include "common/log.h"
#include "core/rename_overlay.h"

namespace tcsim::sim
{

using core::DynInst;
using isa::Opcode;
using workload::FunctionalExecutor;

namespace
{

/** Hang detection: run(max_insts) fails once the machine has spent
 * more than max_insts * kMaxCyclesPerInst + kCycleSlack cycles. */
constexpr std::uint64_t kMaxCyclesPerInst = 200;
constexpr std::uint64_t kCycleSlack = 1'000'000;

} // namespace

const std::uint64_t Processor::kMaxRunInsts =
    (std::numeric_limits<std::uint64_t>::max() - kCycleSlack) /
    kMaxCyclesPerInst;

Processor::Processor(const ProcessorConfig &config,
                     const workload::Program &program)
    : config_(config), program_(program), hierarchy_(config.hierarchy),
      nodeTables_(config.nodeTables)
{
    if (config_.useTraceCache) {
        traceCache_ = std::make_unique<trace::TraceCache>(
            config_.traceCache);
        fillUnit_ = std::make_unique<trace::FillUnit>(config_.fillUnit,
                                                      *traceCache_);
        if (config_.mbpKind == MbpKind::Tree)
            mbp_ = std::make_unique<bpred::TreeMbp>();
        else
            mbp_ = std::make_unique<bpred::SplitMbp>();
    } else {
        hybrid_ = std::make_unique<bpred::HybridPredictor>();
    }

    fetch::FetchEngineParams fe_params;
    fe_params.useTraceCache = config_.useTraceCache;
    fe_params.fetchWidth = config_.fetchWidth;
    fetchEngine_ = std::make_unique<fetch::FetchEngine>(
        fe_params, program_, traceCache_.get(), hierarchy_.icache(),
        mbp_.get(), hybrid_.get(), frontEnd_);

    oracle_ = std::make_unique<FunctionalExecutor>(program_);
    memory_.initFrom(program_);
    archRegs_[2] = workload::kStackTop; // matches FunctionalExecutor

    robStorage_.resize(std::bit_ceil(std::uint64_t{2} * config_.robEntries));
    robMask_ = robStorage_.size() - 1;
    slotVersion_.assign(robStorage_.size(), 0);
    slotWatchers_.assign(robStorage_.size(), 0);
    unitParks_.resize(nodeTables_.numUnits());
    oracleRing_.resize(1024); // power of two; grows by doubling
    storeAddrIndex_.resize(kAddrIndexBuckets);
    verifyIndexed_ = std::getenv("TCSIM_VERIFY_WINDOW_INDEX") != nullptr;
    fetchPc_ = program_.entry();
}

Processor::~Processor() = default;

// ----------------------------------------------------------------------
// Oracle.
// ----------------------------------------------------------------------

void
Processor::growOracleRing()
{
    // Double the ring and re-place the live span by the new mask.
    std::vector<workload::StepResult> bigger(oracleRing_.size() * 2);
    const std::uint64_t new_mask = bigger.size() - 1;
    const std::uint64_t old_mask = oracleRing_.size() - 1;
    for (std::uint64_t i = 0; i < oracleCount_; ++i) {
        const std::uint64_t idx = oracleBase_ + i;
        bigger[idx & new_mask] = oracleRing_[idx & old_mask];
    }
    oracleRing_ = std::move(bigger);
}

void
Processor::extendOracle(std::uint64_t upto_idx)
{
    while (oracleBase_ + oracleCount_ <= upto_idx) {
        if (oracleCount_ == oracleRing_.size())
            growOracleRing();
        const std::uint64_t idx = oracleBase_ + oracleCount_;
        oracleRing_[idx & (oracleRing_.size() - 1)] = oracle_->step();
        ++oracleCount_;
    }
}

// ----------------------------------------------------------------------
// ROB plumbing.
// ----------------------------------------------------------------------

DynInst *
Processor::instFor(InstSeqNum seq)
{
    if (seq == kInvalidSeqNum)
        return nullptr;
    DynInst &slot = robStorage_[seq & robMask_];
    return slot.seq == seq ? &slot : nullptr;
}

const DynInst *
Processor::instFor(InstSeqNum seq) const
{
    if (seq == kInvalidSeqNum)
        return nullptr;
    const DynInst &slot = robStorage_[seq & robMask_];
    return slot.seq == seq ? &slot : nullptr;
}

void
Processor::growRobStorage()
{
    // Double the ring and re-place the live entries by the new mask;
    // every other slot starts invalid, so stale seqs still miss.
    std::vector<DynInst> bigger(robStorage_.size() * 2);
    const std::uint64_t new_mask = bigger.size() - 1;
    for (const InstSeqNum seq : robOrder_)
        bigger[seq & new_mask] = std::move(robStorage_[seq & robMask_]);
    robStorage_ = std::move(bigger);
    robMask_ = new_mask;
    // Slots moved: restart the versions and drop every cached park.
    slotVersion_.assign(robStorage_.size(), 0);
    slotWatchers_.assign(robStorage_.size(), 0);
    ++parkGen_;
}

DynInst &
Processor::allocInst()
{
    // The live span [oldest, nextSeq_] must fit the ring; it grows by
    // at most one per call. Squashes do not rewind nextSeq_, so a long
    // stall full of squashes can outgrow any fixed size.
    if (!robOrder_.empty() &&
        nextSeq_ - robOrder_.front() >= robStorage_.size()) {
        growRobStorage();
    }
    DynInst &slot = robStorage_[nextSeq_ & robMask_];
    slot.reset(nextSeq_);
    bumpSlotVersion(nextSeq_);
    robOrder_.push_back(nextSeq_);
    ++nextSeq_;
    return slot;
}

// ----------------------------------------------------------------------
// Window-indexed lookups.
//
// robOrder_ is sorted ascending but has gaps (squashes pop the back
// without rewinding nextSeq_, preserving stale-reference detection),
// so positioning is O(log n) binary search. Store address lookups go
// through small hashed seq-list buckets; membership invariants:
//   storeAddrIndex_  = address-known, un-retired stores
//   unknownStores_   = dispatched stores whose address is unresolved
//   checkpointStack_ = active block-ending branches, ascending
// maintained at dispatch, address resolution, salvage activation,
// squash, and retire.
// ----------------------------------------------------------------------

std::deque<InstSeqNum>::const_iterator
Processor::robLowerBound(InstSeqNum seq) const
{
    return std::lower_bound(robOrder_.begin(), robOrder_.end(), seq);
}

std::uint32_t
Processor::addrBucket(Addr addr)
{
    // Fibonacci hash of the word address.
    return static_cast<std::uint32_t>(
               (addr * 0x9e3779b97f4a7c15ull) >> 32) &
           (kAddrIndexBuckets - 1);
}

void
Processor::storeIndexInsert(Addr addr, InstSeqNum seq)
{
    storeAddrIndex_[addrBucket(addr)].push_back(seq);
}

void
Processor::storeIndexRemove(Addr addr, InstSeqNum seq)
{
    std::vector<InstSeqNum> &bucket = storeAddrIndex_[addrBucket(addr)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
        if (bucket[i] == seq) {
            bucket[i] = bucket.back();
            bucket.pop_back(); // capacity kept: no steady-state alloc
            return;
        }
    }
    TCSIM_ASSERT(false, "seq %llu missing from store address index",
                 static_cast<unsigned long long>(seq));
}

void
Processor::unknownStoreResolved(InstSeqNum seq)
{
    const auto it =
        std::lower_bound(unknownStores_.begin(), unknownStores_.end(), seq);
    TCSIM_ASSERT(it != unknownStores_.end() && *it == seq,
                 "resolved store missing from unknown-store list");
    unknownStores_.erase(it);
}

const DynInst *
Processor::youngestMatchingStoreBefore(const DynInst &load) const
{
    const DynInst *match = nullptr;
    for (const InstSeqNum seq : storeAddrIndex_[addrBucket(load.memAddr)]) {
        if (seq >= load.seq)
            continue;
        if (match != nullptr && seq <= match->seq)
            continue;
        const DynInst *store = instFor(seq);
        TCSIM_ASSERT(store != nullptr, "stale store-index entry");
        if (store->memAddr != load.memAddr)
            continue; // bucket collision
        if (store->discarded)
            continue;
        if (!store->active && store->fetchGroup != load.fetchGroup)
            continue;
        match = store;
    }
    return match;
}

const DynInst *
Processor::loadBlocker(const DynInst &load) const
{
    // The reference scan walks older stores youngest-first and acts on
    // the first *event*: a matching known-address store (wait if its
    // data is not ready, else forward and stop) or a blocking
    // unknown-address store (policy-dependent). Reproduce that by
    // finding each candidate event's seq and comparing.
    const DynInst *match = youngestMatchingStoreBefore(load);

    // Youngest older unknown-address store that blocks under the
    // active disambiguation policy.
    const DynInst *blocker = nullptr;
    for (auto it = std::lower_bound(unknownStores_.begin(),
                                    unknownStores_.end(), load.seq);
         it != unknownStores_.begin();) {
        --it;
        const DynInst *store = instFor(*it);
        TCSIM_ASSERT(store != nullptr, "stale unknown-store entry");
        if (store->discarded)
            continue;
        if (!store->active && store->fetchGroup != load.fetchGroup)
            continue;
        if (config_.disambiguation == Disambiguation::Perfect &&
            (store->oracleMemAddr == kInvalidAddr ||
             store->oracleMemAddr != load.memAddr)) {
            continue; // perfect model: known non-aliasing
        }
        blocker = store;
        break;
    }

    if (blocker != nullptr &&
        (match == nullptr || blocker->seq > match->seq)) {
        return blocker; // the blocking unknown store is the first event
    }
    if (match != nullptr && !match->executed)
        return match; // matching store, data not yet ready
    return nullptr;
}

bool
Processor::loadParked(const DynInst &load) const
{
    // The load stays blocked while the store it parked on is live,
    // visible and still blocking and no epoch event has passed: the
    // stores between the two were passed over at park time and cannot
    // turn into an earlier event on their own (DESIGN.md section 7,
    // "Parked loads").
    if (load.parkEpoch != memOrderEpoch_)
        return false;
    const DynInst *store = instFor(load.parkedOn);
    if (store == nullptr || store->discarded)
        return false;
    return !store->memAddrKnown ||
           (store->memAddr == load.memAddr && !store->executed);
}

// ----------------------------------------------------------------------
// Reference implementations: the original O(window) scans, kept as
// ground truth. TCSIM_VERIFY_WINDOW_INDEX=1 runs them beside every
// indexed lookup and asserts agreement.
// ----------------------------------------------------------------------

bool
Processor::slowLoadDisambiguation(const DynInst &load) const
{
    for (auto it = robOrder_.rbegin(); it != robOrder_.rend(); ++it) {
        if (*it >= load.seq)
            continue;
        const DynInst *store = instFor(*it);
        if (store == nullptr || !store->isStore() || store->discarded)
            continue;
        if (!store->active && store->fetchGroup != load.fetchGroup)
            continue;
        if (store->memAddrKnown) {
            if (store->memAddr == load.memAddr && !store->executed)
                return false;
            if (store->memAddr == load.memAddr)
                break;
            continue;
        }
        if (config_.disambiguation == Disambiguation::Conservative)
            return false;
        if (store->oracleMemAddr != kInvalidAddr &&
            store->oracleMemAddr == load.memAddr) {
            return false;
        }
    }
    return true;
}

const DynInst *
Processor::slowForwardingStore(const DynInst &load) const
{
    for (auto it = robOrder_.rbegin(); it != robOrder_.rend(); ++it) {
        if (*it >= load.seq)
            continue;
        const DynInst *store = instFor(*it);
        if (store == nullptr || !store->isStore() || store->discarded)
            continue;
        if (!store->active && store->fetchGroup != load.fetchGroup)
            continue;
        if (store->memAddrKnown && store->memAddr == load.memAddr)
            return store;
    }
    return nullptr;
}

const DynInst *
Processor::slowPreviousCheckpointFor(const DynInst &inst) const
{
    for (auto it = robOrder_.rbegin(); it != robOrder_.rend(); ++it) {
        if (*it >= inst.seq)
            continue;
        const DynInst *cand = instFor(*it);
        if (cand == nullptr || !cand->active || cand->discarded)
            continue;
        if (cand->endsBlock || cand->fetchGroup != inst.fetchGroup)
            return cand;
    }
    return nullptr;
}

const DynInst *
Processor::previousCheckpointFor(const DynInst &inst) const
{
    // The previous checkpoint is the youngest older instruction that
    // either ends a block or belongs to an older fetch group. Two
    // indexed candidates cover both cases:
    //  - s: the youngest checkpoint-stack entry below inst.seq (an
    //    active block-ending branch; stack entries are never
    //    discarded because discard only targets inactive suffixes);
    //  - c: the youngest active non-discarded instruction below the
    //    faulting fetch group's first seq (groups dispatch
    //    atomically, so seq < groupStartSeq <=> older group).
    // Any in-group candidate from the reference scan must end a block
    // (same group => the endsBlock clause), so it is on the stack; any
    // older-group candidate is bounded above by c. The reference scan
    // returns the youngest of all candidates = max(s, c).
    const DynInst *best = nullptr;
    {
        const auto it = std::lower_bound(checkpointStack_.begin(),
                                         checkpointStack_.end(), inst.seq);
        if (it != checkpointStack_.begin()) {
            best = instFor(*std::prev(it));
            TCSIM_ASSERT(best != nullptr, "stale checkpoint-stack entry");
        }
    }
    TCSIM_ASSERT(inst.groupStartSeq != kInvalidSeqNum);
    for (auto it = robLowerBound(inst.groupStartSeq);
         it != robOrder_.begin();) {
        --it;
        if (best != nullptr && *it <= best->seq)
            break; // the stack candidate is younger
        const DynInst *cand = instFor(*it);
        TCSIM_ASSERT(cand != nullptr);
        if (cand->active && !cand->discarded) {
            best = cand;
            break;
        }
    }
    return best;
}

// ----------------------------------------------------------------------
// Fetch.
// ----------------------------------------------------------------------

void
Processor::classifyFetchBatch(PendingBatch &pending)
{
    const fetch::FetchBatch &batch = pending.batch;
    pending.wasOnPath = onTruePath_;
    pending.oracleStart = oracleFetchIdx_;
    pending.correctPrefix = 0;
    if (!onTruePath_)
        return;

    const unsigned size = static_cast<unsigned>(batch.insts.size());
    extendOracle(oracleFetchIdx_ + size);

    unsigned k = 0;
    while (k < size &&
           oracleAt(oracleFetchIdx_ + k).pc == batch.insts[k].pc) {
        ++k;
    }
    pending.correctPrefix = k;
    TCSIM_ASSERT(k >= 1, "on-path fetch must match at least one inst");

    const bool stays_on =
        batch.nextFetchPc == oracleAt(oracleFetchIdx_ + k).pc;

    // Fetch-size histogram with termination reason (Figures 4/6).
    FetchReason reason;
    const fetch::FetchedInst &steer =
        batch.insts[std::min(k, size) - 1];
    if (batch.source == fetch::FetchSource::ICache) {
        if (!stays_on) {
            reason = FetchReason::MispredBR;
        } else if (size >= config_.fetchWidth) {
            reason = FetchReason::MaxSize;
        } else {
            reason = FetchReason::ICache;
        }
    } else {
        if (!stays_on) {
            if (isa::isReturn(steer.inst.op) ||
                isa::isIndirectJump(steer.inst.op)) {
                reason = FetchReason::RetIndirTrap;
            } else {
                reason = FetchReason::MispredBR;
            }
        } else if (k < size) {
            reason = FetchReason::PartialMatch;
        } else {
            switch (batch.segmentReason) {
              case trace::FillReason::MaxSize:
                reason = FetchReason::MaxSize;
                break;
              case trace::FillReason::MaxBranches:
                reason = FetchReason::MaximumBRs;
                break;
              case trace::FillReason::AtomicBlock:
              case trace::FillReason::Resync:
                reason = FetchReason::AtomicBlocks;
                break;
              case trace::FillReason::RetIndirTrap:
              default:
                reason = FetchReason::RetIndirTrap;
                break;
            }
        }
    }
    accounting_.usefulFetch(k, reason);
    ++fetchesNeedingPreds_[std::min<unsigned>(batch.predictionsUsed, 3)];
    predictionsUsedSum_ += batch.predictionsUsed;

    oracleFetchIdx_ += k;
    if (!stays_on) {
        onTruePath_ = false;
        offPathCause_ = (isa::isReturn(steer.inst.op) ||
                         isa::isIndirectJump(steer.inst.op))
                            ? CycleCategory::Misfetches
                            : CycleCategory::BranchMisses;
    }
}

void
Processor::fetchStage()
{
    if (serializeStall_) {
        accounting_.cycle(CycleCategory::Traps);
        return;
    }
    if (icacheStallUntil_ > cycle_) {
        accounting_.cycle(onTruePath_ ? CycleCategory::CacheMisses
                                      : offPathCause_);
        return;
    }

    // Structural stalls: queue space, ROB headroom, checkpoint pool.
    const bool queue_full = fetchQueue_.size() >= config_.fetchQueueBatches;
    const bool rob_full =
        robOrder_.size() + config_.fetchWidth > config_.robEntries;
    const bool ckpt_full =
        outstandingCheckpoints_ + trace::kMaxSegmentBranches >
        config_.checkpoints;
    if (queue_full || rob_full || ckpt_full) {
        accounting_.cycle(onTruePath_ ? CycleCategory::FullWindow
                                      : offPathCause_);
        return;
    }

    const bool was_on = onTruePath_;
    fetchEngine_->fetchCycle(fetchPc_, scratchBatch_);

    if (scratchBatch_.icacheStall > 0) {
        icacheStallUntil_ = cycle_ + scratchBatch_.icacheStall;
        accounting_.cycle(was_on ? CycleCategory::CacheMisses
                                 : offPathCause_);
        return;
    }

    TCSIM_ASSERT(!scratchBatch_.insts.empty(),
                 "fetch produced neither stall nor instructions");

    PendingBatch pending;
    pending.batch = std::move(scratchBatch_);
    if (batchPool_.empty()) {
        scratchBatch_ = fetch::FetchBatch{};
    } else {
        scratchBatch_ = std::move(batchPool_.back());
        batchPool_.pop_back();
    }
    if (fillUnit_ != nullptr &&
        pending.batch.source == fetch::FetchSource::ICache) {
        fillUnit_->noteFetchMiss(fetchPc_);
    }
    pending.group = nextFetchGroup_++;
    pending.fetchCycle = cycle_;
    classifyFetchBatch(pending);

    fetchPc_ = pending.batch.nextFetchPc;
    if (pending.batch.sawSerialize)
        serializeStall_ = true;

    const bool useful = was_on && pending.correctPrefix > 0;
    accounting_.cycle(useful ? CycleCategory::UsefulFetch
                             : offPathCause_);
    fetchQueue_.push_back(std::move(pending));
}

// ----------------------------------------------------------------------
// Dispatch (issue stage: rename into node tables).
// ----------------------------------------------------------------------

void
Processor::dispatchStage()
{
    if (fetchQueue_.empty())
        return;
    PendingBatch &pb = fetchQueue_.front();
    const std::size_t batch_size = pb.batch.insts.size();

    // Whole batches dispatch atomically so trace-segment groups stay
    // contiguous in the window (inactive-issue salvage relies on it).
    if (robOrder_.size() + batch_size > config_.robEntries)
        return;
    const std::uint32_t rs_capacity =
        nodeTables_.numUnits() * config_.nodeTables.entriesPerUnit;
    if (nodeTables_.totalOccupied() + batch_size > rs_capacity)
        return;

    // Inactive-issue shadow rename context: a copy-on-write overlay
    // over rat_ instead of a full RAT copy on fork (the tail beyond a
    // divergence touches only a few registers).
    core::RenameOverlay<RatEntry, isa::kNumArchRegs> shadow;
    const InstSeqNum group_start = nextSeq_;

    for (std::size_t i = 0; i < batch_size; ++i) {
        const fetch::FetchedInst &fi = pb.batch.insts[i];
        DynInst &di = allocInst();
        di.inst = fi.inst;
        di.pc = fi.pc;
        di.fetchGroup = pb.group;
        di.groupStartSeq = group_start;
        di.fetchCycle = pb.fetchCycle;
        di.source = pb.batch.source;
        di.active = fi.active;
        di.promoted = fi.promoted;
        di.promotedDir = fi.promotedDir;
        di.endsBlock = fi.endsBlock;
        di.followedDir = fi.followedDir;
        di.embeddedTaken = fi.embeddedTaken;
        di.predictionValid = fi.predictionValid;
        di.usedHybrid = fi.usedHybrid;
        if (fi.predictionValid) {
            if (fi.usedHybrid)
                di.hybridCtx = fi.hybridCtx;
            else
                di.mbpCtx = fi.mbpCtx;
        }
        di.followedNextPc = fi.followedNextPc;

        di.onCorrectPath = pb.wasOnPath && i < pb.correctPrefix;
        if (di.onCorrectPath) {
            di.oracleIdx = pb.oracleStart + i;
            const workload::StepResult &step = oracleAt(di.oracleIdx);
            di.oracleMemAddr = step.memAddr;
        }

        // Inactive-issue shadow rename context.
        const bool use_shadow = !fi.active;
        if (use_shadow && !shadow.active())
            shadow.fork(rat_);

        // Source renaming.
        const bool reads[2] = {isa::readsRs1(fi.inst),
                               isa::readsRs2(fi.inst)};
        const RegIndex regs[2] = {fi.inst.rs1, fi.inst.rs2};
        for (unsigned op = 0; op < 2; ++op) {
            di.srcReady[op] = true;
            di.srcVal[op] = 0;
            if (!reads[op] || regs[op] == isa::kRegZero)
                continue;
            const RatEntry &entry = use_shadow ? shadow.get(regs[op])
                                               : rat_[regs[op]];
            if (entry.isValue) {
                di.srcVal[op] = entry.value;
            } else {
                DynInst *producer = instFor(entry.tag);
                TCSIM_ASSERT(producer != nullptr,
                             "RAT tag without live producer");
                if (producer->executed) {
                    di.srcVal[op] = producer->result;
                } else {
                    di.srcReady[op] = false;
                    di.srcDep[op] = entry.tag;
                    producer->waiters.push_back(di.seq);
                }
            }
        }

        // Destination renaming.
        if (isa::writesReg(fi.inst)) {
            const RatEntry renamed{false, 0, di.seq};
            if (use_shadow)
                shadow.set(fi.inst.rd, renamed);
            else
                rat_[fi.inst.rd] = renamed;
        }

        // Resources.
        const bool allocated = nodeTables_.allocate(di.rsTable);
        TCSIM_ASSERT(allocated, "node table allocation must succeed");
        if (di.isStore())
            unknownStores_.push_back(di.seq); // dispatch order: sorted
        if (di.endsBlock) {
            ++outstandingCheckpoints_;
            if (di.active)
                checkpointStack_.push_back(di.seq);
        }

        di.readyCycle = cycle_ + 1;
        if (operandsReady(di))
            enqueueReady(di);
    }

    batchPool_.push_back(std::move(pb.batch));
    fetchQueue_.pop_front();
}

bool
Processor::operandsReady(const DynInst &inst) const
{
    return inst.srcReady[0] && inst.srcReady[1];
}

void
Processor::enqueueReady(DynInst &inst)
{
    if (inst.inReadyQueue || inst.fired)
        return;
    inst.inReadyQueue = true;
    nodeTables_.markReady(inst.rsTable, inst.seq);
    unitParks_[inst.rsTable].gen = 0; // a fresh entry: count afresh
}

// ----------------------------------------------------------------------
// Schedule + execute.
// ----------------------------------------------------------------------

void
Processor::executeInst(DynInst &inst)
{
    RegVal result = 0;
    Addr next_pc = 0;
    bool taken = false;
    FunctionalExecutor::computeResult(inst.inst, inst.pc, inst.srcVal[0],
                                      inst.srcVal[1], inst.result, result,
                                      next_pc, taken);
    // For loads inst.result was preloaded with the memory value by
    // tryScheduleMemory; computeResult passes it through.
    inst.result = result;
    inst.taken = taken;
    inst.actualNextPc = next_pc;
}

RegVal
Processor::loadValueFor(DynInst &load, bool &forwarded)
{
    forwarded = false;
    // The youngest older visible matching store forwards its data.
    const DynInst *store = youngestMatchingStoreBefore(load);
    if (verifyIndexed_) {
        TCSIM_ASSERT(store == slowForwardingStore(load),
                     "indexed forwarding diverges from reference scan "
                     "(load seq %llu)",
                     static_cast<unsigned long long>(load.seq));
    }
    if (store != nullptr) {
        if (!store->executed) {
            // Matching but data not ready: caller must not be here.
            panic("loadValueFor called while blocked");
        }
        forwarded = true;
        return store->storeData;
    }
    return memory_.load(load.memAddr);
}

bool
Processor::tryScheduleMemory(DynInst &inst)
{
    if (inst.isStore()) {
        inst.memAddr =
            FunctionalExecutor::effectiveAddr(inst.inst, inst.srcVal[0]);
        inst.memAddrKnown = true;
        inst.storeData = inst.srcVal[1];
        inst.completeCycle = cycle_ + config_.latAddrGen;
        // Address resolution: move the store from the unknown list
        // into the address index (runs once: the store fires after
        // this and never re-disambiguates).
        unknownStoreResolved(inst.seq);
        storeIndexInsert(inst.memAddr, inst.seq);
        bumpSlotVersion(inst.seq);
        // Perfect let younger loads pass this store by its oracle
        // address; resolving elsewhere may make it their forwarder.
        if (config_.disambiguation == Disambiguation::Perfect &&
            inst.memAddr != inst.oracleMemAddr) {
            bumpMemOrderEpoch();
        }
        return true;
    }

    TCSIM_ASSERT(inst.isLoad());
    if (loadParked(inst)) {
        if (verifyIndexed_) {
            TCSIM_ASSERT(!slowLoadDisambiguation(inst),
                         "parked load may proceed per reference scan "
                         "(load seq %llu)",
                         static_cast<unsigned long long>(inst.seq));
        }
        return false;
    }
    inst.memAddr =
        FunctionalExecutor::effectiveAddr(inst.inst, inst.srcVal[0]);

    // Disambiguate against older visible stores. (Policy notes:
    // Conservative waits on any unknown-address store; Perfect "knows"
    // the eventual addresses and waits only on true dependences.) A
    // blocked load parks on the store it waits for; later polls skip
    // the lookup while the park holds.
    const DynInst *blocker = loadBlocker(inst);
    if (verifyIndexed_) {
        TCSIM_ASSERT((blocker == nullptr) == slowLoadDisambiguation(inst),
                     "indexed disambiguation diverges from reference "
                     "scan (load seq %llu)",
                     static_cast<unsigned long long>(inst.seq));
    }
    if (blocker != nullptr) {
        inst.parkedOn = blocker->seq;
        inst.parkEpoch = memOrderEpoch_;
        return false;
    }

    bool forwarded = false;
    const RegVal value = loadValueFor(inst, forwarded);
    inst.result = value;

    std::uint32_t latency = config_.latAddrGen;
    if (forwarded) {
        latency += 1;
    } else {
        latency += config_.latDCacheHit +
                   hierarchy_.dcache().access(inst.memAddr, false);
    }
    inst.completeCycle = cycle_ + latency;
    return true;
}

void
Processor::dropWatchers(std::uint64_t slot)
{
    for (std::uint64_t mask = slotWatchers_[slot]; mask != 0;
         mask &= mask - 1)
        unitParks_[std::countr_zero(mask)].gen = 0;
    slotWatchers_[slot] = 0;
}

void
Processor::verifyConfirmedParks(std::uint8_t unit)
{
    const core::ReadyQueue &queue = nodeTables_.readyQueue(unit);
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const core::ReadyEntry &entry = queue.at(i);
        const DynInst *load = instFor(entry.seq);
        TCSIM_ASSERT(entry.parkGen == parkGen_ &&
                         slotVersion_[entry.parkSlot] == entry.slotVersion &&
                         load != nullptr && loadParked(*load) &&
                         !slowLoadDisambiguation(*load),
                     "confirmed park no longer holds (unit %u, load seq "
                     "%llu)",
                     static_cast<unsigned>(unit),
                     static_cast<unsigned long long>(entry.seq));
    }
}

void
Processor::scheduleStage()
{
    // Each unit makes up to 8 attempts a cycle: it pops entries, fires
    // the first that can go and re-pushes the rest. Units go in
    // ascending order (loads touch the dcache in that order), skipping
    // those whose queue is known to be empty.
    constexpr unsigned kAttempts = 8;
    if (verifyIndexed_) {
        for (std::uint8_t unit = 0; unit < nodeTables_.numUnits(); ++unit) {
            TCSIM_ASSERT(nodeTables_.readyQueue(unit).empty() ||
                             (nodeTables_.readyUnits() >> unit & 1) != 0,
                         "unit %u has ready entries but no mask bit",
                         static_cast<unsigned>(unit));
        }
    }
    for (std::uint64_t units = nodeTables_.readyUnits(); units != 0;
         units &= units - 1) {
        const auto unit = static_cast<std::uint8_t>(std::countr_zero(units));
        core::ReadyQueue &queue = nodeTables_.readyQueue(unit);
        if (queue.empty()) {
            nodeTables_.clearReadyUnit(unit);
            continue;
        }
        UnitParks &parks = unitParks_[unit];
        if (parks.gen != parkGen_) {
            parks.gen = parkGen_;
            parks.unconfirmed = queue.size();
        } else if (parks.unconfirmed == 0) {
            // Every entry is a confirmed park: the scan would pop and
            // re-push kAttempts of them (mod the queue size) and fire
            // none. Rotate later instead (DESIGN.md section 7,
            // "Confirmed parks").
            if (verifyIndexed_)
                verifyConfirmedParks(unit);
            queue.deferRotate(kAttempts);
            continue;
        }
        queue.settle();
        const std::size_t queued = queue.size();
        unsigned attempts = 0;
        for (std::size_t seen = 0; !queue.empty() && attempts < kAttempts;
             ++seen) {
            if (seen == queued) {
                // Every entry was seen this cycle without a fire:
                // stale ones are gone and the rest now wait for a
                // later cycle, so the remaining attempts would only
                // pop and re-push them. Rotate by that many instead.
                queue.rotate((kAttempts - attempts) % queue.size());
                break;
            }
            // The entry stays in place until its fate is known: an
            // entry that waits on moves to the back by rotate(1), the
            // pop and re-push it stands for.
            core::ReadyEntry &entry = queue.front();
            if (parks.unconfirmed > 0)
                --parks.unconfirmed;
            if (entry.parkGen == parkGen_ &&
                slotVersion_[entry.parkSlot] == entry.slotVersion) {
                // Cached park: nothing that loadParked reads has
                // changed since this load last failed to schedule, so
                // it fails again; skip it without touching the
                // DynInst (DESIGN.md section 7, "Cached parks"). Back
                // in the queue it is confirmed.
                if (verifyIndexed_) {
                    const DynInst *load = instFor(entry.seq);
                    TCSIM_ASSERT(load != nullptr && loadParked(*load) &&
                                     !slowLoadDisambiguation(*load),
                                 "cached park no longer holds (load seq "
                                 "%llu)",
                                 static_cast<unsigned long long>(
                                     entry.seq));
                }
                queue.rotate(1);
                ++attempts;
                continue;
            }
            DynInst *di = instFor(entry.seq);
            if (di == nullptr || di->fired || !di->inReadyQueue) {
                queue.pop_front(); // stale or already handled
                continue;
            }
            if (di->readyCycle > cycle_) {
                queue.rotate(1);
                parks.gen = 0; // an unconfirmed entry at the back
                ++attempts;
                continue;
            }

            if (isa::isMem(di->inst.op)) {
                if (!tryScheduleMemory(*di)) {
                    // A blocked load, now parked: cache the park, and
                    // watch its slot for the unit's confirmation.
                    di->readyCycle = cycle_ + 1;
                    entry.parkGen = parkGen_;
                    entry.parkSlot =
                        static_cast<std::uint32_t>(di->parkedOn & robMask_);
                    entry.slotVersion = slotVersion_[entry.parkSlot];
                    slotWatchers_[entry.parkSlot] |= std::uint64_t{1}
                                                     << unit;
                    queue.rotate(1);
                    ++attempts;
                    continue;
                }
            } else {
                std::uint32_t latency;
                switch (isa::instClass(di->inst.op)) {
                  case isa::InstClass::IntMult:
                    latency = config_.latIntMult;
                    break;
                  case isa::InstClass::IntDiv:
                    latency = config_.latIntDiv;
                    break;
                  default:
                    latency = config_.latIntAlu;
                    break;
                }
                di->completeCycle = cycle_ + latency;
            }

            if (di->isLoad()) {
                // Result (the loaded value) was set by
                // tryScheduleMemory; keep it for completion.
            } else {
                executeInst(*di);
            }

            queue.pop_front();
            di->fired = true;
            di->inReadyQueue = false;
            nodeTables_.release(di->rsTable);
            completions_.schedule(di->completeCycle, di->seq);
            break; // this unit started its one op for the cycle
        }
    }
}

// ----------------------------------------------------------------------
// Complete (writeback): broadcast results, resolve control.
// ----------------------------------------------------------------------

void
Processor::wakeDependents(DynInst &producer)
{
    for (const InstSeqNum waiter_seq : producer.waiters) {
        DynInst *consumer = instFor(waiter_seq);
        if (consumer == nullptr)
            continue;
        bool changed = false;
        for (unsigned op = 0; op < 2; ++op) {
            if (!consumer->srcReady[op] &&
                consumer->srcDep[op] == producer.seq) {
                consumer->srcReady[op] = true;
                consumer->srcVal[op] = producer.result;
                changed = true;
            }
        }
        if (changed && operandsReady(*consumer) && !consumer->fired) {
            consumer->readyCycle = std::max(consumer->readyCycle, cycle_);
            enqueueReady(*consumer);
        }
    }
    producer.waiters.clear();
}

void
Processor::resolveControl(DynInst &inst)
{
    if (!inst.active || inst.discarded)
        return;

    const Opcode op = inst.inst.op;

    if (isa::isCondBranch(op)) {
        if (inst.promoted) {
            if (inst.taken != inst.followedDir) {
                // Promoted-branch fault: back up to the previous
                // fetch-block checkpoint (or the retire boundary) and
                // refetch with a direction override.
                inst.resolvedFault = true;
                ++promotedFaults_;
                TCSIM_TPOINT(tracer_, Bpred, "fault",
                             "pc=0x%llx seq=%llu taken=%d",
                             static_cast<unsigned long long>(inst.pc),
                             static_cast<unsigned long long>(inst.seq),
                             inst.taken ? 1 : 0);

                RecoveryRequest req;
                req.originSeq = inst.seq;
                req.cause = CycleCategory::BranchMisses;
                req.countResolution = true;
                req.predictedCycle = inst.fetchCycle;
                req.overrideValid = true;
                req.overridePc = inst.pc;
                req.overrideDir = inst.taken;

                // Find the previous checkpoint among older in-flight
                // instructions: the nearest block-ending branch, or
                // failing that the boundary of the faulting fetch
                // group (the machine checkpoints each fetch block it
                // supplies, so a group boundary is always one).
                const DynInst *checkpoint = previousCheckpointFor(inst);
                if (verifyIndexed_) {
                    TCSIM_ASSERT(
                        checkpoint == slowPreviousCheckpointFor(inst),
                        "checkpoint stack diverges from reference scan "
                        "(fault seq %llu)",
                        static_cast<unsigned long long>(inst.seq));
                }
                if (checkpoint != nullptr) {
                    req.keepSeq = checkpoint->seq;
                    req.redirect = checkpoint->followedNextPc;
                } else {
                    // The faulting group is the oldest in flight:
                    // back up to the retire boundary and refetch from
                    // the group's first surviving instruction.
                    req.keepSeq = 0;
                    req.redirect = inst.pc;
                    for (const InstSeqNum other : robOrder_) {
                        const DynInst *cand = instFor(other);
                        if (cand != nullptr && cand->active &&
                            !cand->discarded) {
                            req.redirect = cand->pc;
                            break;
                        }
                    }
                }
                // The replay refetches any earlier dynamic instances
                // of this PC; the override must pass over them and hit
                // exactly the faulting instance.
                for (auto it = robLowerBound(req.keepSeq + 1);
                     it != robOrder_.end() && *it < inst.seq; ++it) {
                    const DynInst *prior = instFor(*it);
                    if (prior != nullptr && prior->pc == inst.pc &&
                        prior->isCondBranch() && prior->active &&
                        !prior->discarded) {
                        ++req.overrideSkip;
                    }
                }
                requestRecovery(req);
            } else if (inst.followedDir != inst.embeddedTaken) {
                // An override flipped this promoted branch off the
                // segment's embedded path and the flip was right: the
                // inactively issued suffix loses.
                for (auto it = robLowerBound(inst.seq + 1);
                     it != robOrder_.end(); ++it) {
                    DynInst *cand = instFor(*it);
                    if (cand == nullptr)
                        continue;
                    if (cand->fetchGroup != inst.fetchGroup)
                        break;
                    if (cand->active)
                        break;
                    cand->discarded = true;
                    bumpSlotVersion(cand->seq);
                }
            }
            return;
        }

        if (inst.taken != inst.followedDir) {
            inst.resolvedMispredict = true;
            TCSIM_TPOINT(tracer_, Bpred, "mispredict",
                         "pc=0x%llx seq=%llu taken=%d",
                         static_cast<unsigned long long>(inst.pc),
                         static_cast<unsigned long long>(inst.seq),
                         inst.taken ? 1 : 0);
            // The machine now follows the corrected direction; later
            // recoveries that anchor on this branch (promoted faults
            // backing up to the previous checkpoint) must resume on
            // the corrected path.
            inst.followedDir = inst.taken;
            inst.followedNextPc = inst.actualNextPc;

            RecoveryRequest req;
            req.originSeq = inst.seq;
            req.cause = CycleCategory::BranchMisses;
            req.countResolution = true;
            req.predictedCycle = inst.fetchCycle;

            // Inactive-issue salvage: when the segment's embedded path
            // agrees with the actual outcome, the inactively issued
            // suffix of this fetch group is already in the window.
            InstSeqNum last_suffix = kInvalidSeqNum;
            if (inst.endsBlock && inst.taken == inst.embeddedTaken) {
                for (auto it = robLowerBound(inst.seq + 1);
                     it != robOrder_.end(); ++it) {
                    const DynInst *cand = instFor(*it);
                    if (cand == nullptr)
                        continue;
                    if (cand->fetchGroup != inst.fetchGroup)
                        break; // groups are contiguous
                    if (!cand->active && !cand->discarded)
                        last_suffix = cand->seq;
                    else
                        break;
                }
            }
            if (last_suffix != kInvalidSeqNum) {
                req.salvage = true;
                req.salvageFrom = inst.seq;
                req.keepSeq = last_suffix;
                req.redirect = kInvalidAddr; // computed during rebuild
            } else {
                req.keepSeq = inst.seq;
                req.redirect = inst.actualNextPc;
            }
            requestRecovery(req);
        } else if (!inst.promoted && inst.endsBlock &&
                   inst.followedDir != inst.embeddedTaken) {
            // Correct prediction that diverged from the segment: the
            // inactively issued suffix loses and is discarded.
            for (auto it = robLowerBound(inst.seq + 1);
                 it != robOrder_.end(); ++it) {
                DynInst *cand = instFor(*it);
                if (cand == nullptr)
                    continue;
                if (cand->fetchGroup != inst.fetchGroup)
                    break;
                if (cand->active)
                    break;
                cand->discarded = true;
                bumpSlotVersion(cand->seq);
            }
        }
        return;
    }

    if (isa::isReturn(op) || isa::isIndirectJump(op)) {
        if (inst.actualNextPc != inst.followedNextPc) {
            inst.resolvedMisfetch = true;
            inst.followedNextPc = inst.actualNextPc;
            RecoveryRequest req;
            req.originSeq = inst.seq;
            req.keepSeq = inst.seq;
            req.redirect = inst.actualNextPc;
            req.cause = CycleCategory::Misfetches;
            req.countResolution = false;
            requestRecovery(req);
        }
        return;
    }
}

void
Processor::completeStage()
{
    // Every cycle since the last drain: a run() that stopped at its
    // budget skipped this stage once.
    completions_.drainThrough(cycle_, [this](InstSeqNum seq) {
        DynInst *di = instFor(seq);
        if (di == nullptr || di->executed || !di->fired)
            return; // squashed or stale
        di->executed = true;
        bumpSlotVersion(seq);
        di->resolveCycle = cycle_;
        wakeDependents(*di);
        if (isa::isControl(di->inst.op))
            resolveControl(*di);
    });
}

// ----------------------------------------------------------------------
// Recovery.
// ----------------------------------------------------------------------

void
Processor::requestRecovery(const RecoveryRequest &request)
{
    if (recoveryPending_ && recovery_.originSeq <= request.originSeq)
        return; // the architecturally older resolution wins
    recovery_ = request;
    recoveryPending_ = true;
}

void
Processor::squashYoungerThan(InstSeqNum keep_seq)
{
    ++parkGen_; // squashed loads and stores leave their cached parks
    while (!robOrder_.empty() && robOrder_.back() > keep_seq) {
        const InstSeqNum seq = robOrder_.back();
        robOrder_.pop_back();
        DynInst *di = instFor(seq);
        TCSIM_ASSERT(di != nullptr);
        if (!di->fired)
            nodeTables_.release(di->rsTable);
        if (di->endsBlock) {
            TCSIM_ASSERT(outstandingCheckpoints_ > 0);
            --outstandingCheckpoints_;
        }
        // Unindex before invalidating the seq (unknown stores are
        // bulk-trimmed below).
        if (di->isStore() && di->memAddrKnown)
            storeIndexRemove(di->memAddr, seq);
        di->seq = kInvalidSeqNum; // invalidate stale references
    }
    while (!unknownStores_.empty() && unknownStores_.back() > keep_seq)
        unknownStores_.pop_back();
    while (!checkpointStack_.empty() && checkpointStack_.back() > keep_seq)
        checkpointStack_.pop_back();
}

Addr
Processor::rebuildInFlightState(const DynInst *tail)
{
    // RAT from architectural values plus surviving in-flight writers.
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        rat_[r] = RatEntry{true, archRegs_[r], kInvalidSeqNum};

    std::uint64_t history = archHistory_;
    std::vector<Addr> &ras = rasScratch_;
    ras.assign(archRas_.begin(), archRas_.end());
    Addr salvage_redirect = kInvalidAddr;
    bool saw_serializer = false;

    for (const InstSeqNum seq : robOrder_) {
        DynInst *di = instFor(seq);
        TCSIM_ASSERT(di != nullptr);
        if (!di->active || di->discarded)
            continue;

        if (isa::writesReg(di->inst))
            rat_[di->inst.rd] = RatEntry{false, 0, di->seq};
        if (isa::isSerializing(di->inst.op))
            saw_serializer = true;

        const Opcode op = di->inst.op;
        if (isa::isCondBranch(op)) {
            history = (history << 1) |
                      static_cast<std::uint64_t>(di->followedDir);
        } else if (isa::isCall(op)) {
            ras.push_back(di->pc + isa::kInstBytes);
        } else if (isa::isReturn(op)) {
            Addr target = kInvalidAddr;
            if (!ras.empty()) {
                target = ras.back();
                ras.pop_back();
            }
            if (tail != nullptr && di->seq == tail->seq) {
                salvage_redirect = target == kInvalidAddr
                                       ? di->pc + isa::kInstBytes
                                       : target;
                di->followedNextPc = salvage_redirect;
            }
        }

        if (tail != nullptr && di->seq == tail->seq &&
            salvage_redirect == kInvalidAddr) {
            if (isa::isIndirectJump(op)) {
                const Addr predicted = frontEnd_.indirect.predict(di->pc);
                salvage_redirect = predicted == kInvalidAddr
                                       ? di->pc + isa::kInstBytes
                                       : predicted;
                di->followedNextPc = salvage_redirect;
            } else {
                salvage_redirect = di->followedNextPc;
            }
        }
    }

    frontEnd_.history.restore(history);
    // Swap buffers: the front end's old stack becomes next recovery's
    // scratch, so steady-state rebuilds never allocate.
    frontEnd_.ras.assignSwap(ras);
    // Serialization: a surviving in-flight trap keeps fetch stalled.
    // (Folded into this walk — the recovery path is the only caller.)
    serializeStall_ = saw_serializer;
    return salvage_redirect;
}

void
Processor::applyRecovery()
{
    if (!recoveryPending_)
        return;
    recoveryPending_ = false;
    const RecoveryRequest req = recovery_;
    if (DynInst *origin = instFor(req.originSeq))
        origin->recoveryApplied = true;

    squashYoungerThan(req.keepSeq);
    for (PendingBatch &pb : fetchQueue_)
        batchPool_.push_back(std::move(pb.batch));
    fetchQueue_.clear();

    // Salvage: activate the surviving inactive suffix.
    DynInst *tail = nullptr;
    if (req.salvage) {
        bumpMemOrderEpoch(); // newly visible stores
        for (auto it = robLowerBound(req.salvageFrom + 1);
             it != robOrder_.end(); ++it) {
            DynInst *di = instFor(*it);
            TCSIM_ASSERT(di != nullptr);
            if (!di->active) {
                di->active = true;
                // Newly activated block-ending branches become
                // checkpoints. The squash above already trimmed the
                // stack past keepSeq, so pushes stay sorted.
                if (di->endsBlock)
                    checkpointStack_.push_back(di->seq);
            }
        }
        tail = instFor(req.keepSeq);
        TCSIM_ASSERT(tail != nullptr, "salvage tail vanished");
    }

    const Addr salvage_redirect = rebuildInFlightState(tail);
    Addr redirect = req.redirect;
    if (req.salvage) {
        TCSIM_ASSERT(salvage_redirect != kInvalidAddr);
        redirect = salvage_redirect;
    }

    if (req.overrideValid) {
        frontEnd_.overrides[req.overridePc] =
            fetch::FrontEndState::Override{req.overrideSkip,
                                           req.overrideDir};
    }

    fetchPc_ = redirect;
    icacheStallUntil_ = 0;
    TCSIM_TPOINT(tracer_, Core, "recover",
                 "keep=%llu redirect=0x%llx cause=%d salvage=%d",
                 static_cast<unsigned long long>(req.keepSeq),
                 static_cast<unsigned long long>(redirect),
                 static_cast<int>(req.cause), req.salvage ? 1 : 0);

    // Oracle resynchronization. The resync anchor is the youngest
    // surviving instruction on the followed path: the keep instruction
    // itself may be discarded or already retired (deferred requests),
    // in which case the anchor falls back to an older survivor or the
    // retire boundary.
    const DynInst *anchor = nullptr;
    if (req.keepSeq != 0) {
        for (auto it = robOrder_.rbegin(); it != robOrder_.rend(); ++it) {
            const DynInst *cand = instFor(*it);
            if (cand != nullptr && cand->active && !cand->discarded) {
                anchor = cand;
                break;
            }
        }
    }
    if (anchor == nullptr) {
        onTruePath_ = redirect == oracleAt(oracleRetireIdx_).pc;
        oracleFetchIdx_ = oracleRetireIdx_;
    } else {
        if (anchor->onCorrectPath &&
            oracleAt(anchor->oracleIdx).nextPc == redirect) {
            onTruePath_ = true;
            oracleFetchIdx_ = anchor->oracleIdx + 1;
        } else {
            onTruePath_ = false;
            offPathCause_ = req.cause;
        }
    }
    if (!onTruePath_)
        offPathCause_ = req.cause;

    // Resolution-time bookkeeping (Figure 15).
    if (req.countResolution) {
        resolutionTimeSum_ += cycle_ - req.predictedCycle;
        ++resolutionTimeCount_;
    }

    // Salvaged instructions that already executed may themselves have
    // resolved against the machine's new path; re-run their checks.
    if (req.salvage) {
        for (auto it = robLowerBound(req.salvageFrom + 1);
             it != robOrder_.end(); ++it) {
            DynInst *di = instFor(*it);
            if (di != nullptr && di->executed &&
                isa::isControl(di->inst.op)) {
                resolveControl(*di);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Retire.
// ----------------------------------------------------------------------

void
Processor::retireOne(DynInst &inst)
{
    if (inst.discarded) {
        if (inst.endsBlock) {
            TCSIM_ASSERT(outstandingCheckpoints_ > 0);
            --outstandingCheckpoints_;
            // Discarded implies never activated: not on the stack.
        }
        if (inst.isStore()) {
            // Retiring implies executed implies address-resolved.
            TCSIM_ASSERT(inst.memAddrKnown);
            storeIndexRemove(inst.memAddr, inst.seq);
        }
        return;
    }

    // The retired stream must equal the functional oracle's stream.
    const workload::StepResult *golden = &oracleAt(oracleRetireIdx_);
    TCSIM_ASSERT(golden->pc == inst.pc,
                 "retired pc 0x%llx diverges from oracle pc 0x%llx "
                 "at retire index %llu",
                 static_cast<unsigned long long>(inst.pc),
                 static_cast<unsigned long long>(golden->pc),
                 static_cast<unsigned long long>(oracleRetireIdx_));
    TCSIM_ASSERT(!isa::writesReg(inst.inst) || golden->result == inst.result,
                 "retired value %llx diverges from oracle %llx at pc %llx "
                 "op=%s seq=%llu idx=%llu",
                 static_cast<unsigned long long>(inst.result),
                 static_cast<unsigned long long>(golden->result),
                 static_cast<unsigned long long>(inst.pc),
                 isa::opcodeName(inst.inst.op),
                 static_cast<unsigned long long>(inst.seq),
                 static_cast<unsigned long long>(oracleRetireIdx_));
    TCSIM_ASSERT(!isa::isMem(inst.inst.op) || golden->memAddr == inst.memAddr,
                 "retired mem addr diverges at pc %llx",
                 static_cast<unsigned long long>(inst.pc));
    TCSIM_ASSERT(!isa::isCondBranch(inst.inst.op) ||
                     golden->taken == inst.taken,
                 "retired branch direction diverges at pc %llx seq %llu",
                 static_cast<unsigned long long>(inst.pc),
                 static_cast<unsigned long long>(inst.seq));
    ++oracleRetireIdx_;
    // Retired entries are dead: fetch never looks below the retire
    // boundary (recoveries resynchronize at or above it). Ring slots
    // are reclaimed by arithmetic; no per-entry work.
    if (oracleRetireIdx_ > oracleBase_) {
        const std::uint64_t dead =
            std::min(oracleRetireIdx_ - oracleBase_, oracleCount_);
        oracleBase_ += dead;
        oracleCount_ -= dead;
    }

    const Opcode op = inst.inst.op;

    // Architectural effects.
    if (isa::writesReg(inst.inst)) {
        archRegs_[inst.inst.rd] = inst.result;
        if (!rat_[inst.inst.rd].isValue &&
            rat_[inst.inst.rd].tag == inst.seq) {
            rat_[inst.inst.rd] = RatEntry{true, inst.result,
                                          kInvalidSeqNum};
        }
    }
    if (inst.isStore()) {
        memory_.store(inst.memAddr, inst.storeData);
        hierarchy_.dcache().access(inst.memAddr, true);
        TCSIM_ASSERT(inst.memAddrKnown);
        storeIndexRemove(inst.memAddr, inst.seq);
    }

    // Predictor training and architectural mirrors.
    if (isa::isCondBranch(op)) {
        ++retiredCondBranches_;
        archHistory_ = (archHistory_ << 1) |
                       static_cast<std::uint64_t>(inst.taken);
        if (inst.predictionValid) {
            if (inst.usedHybrid)
                hybrid_->update(inst.pc, inst.hybridCtx, inst.taken);
            else
                mbp_->update(inst.mbpCtx, inst.taken);
        }
        if (inst.promoted)
            ++promotedRetired_;
        if (inst.resolvedMispredict)
            ++condMispredicts_;
    } else if (isa::isCall(op)) {
        archRas_.push_back(inst.pc + isa::kInstBytes);
    } else if (isa::isReturn(op)) {
        if (!archRas_.empty())
            archRas_.pop_back();
        ++retiredReturns_;
        if (inst.resolvedMisfetch) {
            ++indirectMispredicts_;
            ++returnMisfetches_;
        }
    } else if (isa::isIndirectJump(op)) {
        frontEnd_.indirect.update(inst.pc, inst.actualNextPc);
        ++retiredIndirects_;
        if (inst.resolvedMisfetch)
            ++indirectMispredicts_;
    } else if (op == Opcode::Trap) {
        // Resume fetch unless another in-flight serializer remains.
        serializeStall_ = false;
        for (const InstSeqNum other : robOrder_) {
            const DynInst *di = instFor(other);
            if (di != nullptr && di->seq != inst.seq && di->active &&
                !di->discarded && isa::isSerializing(di->inst.op)) {
                serializeStall_ = true;
                break;
            }
        }
    } else if (op == Opcode::Halt) {
        haltRetired_ = true;
        done_ = true;
    }

    if (inst.endsBlock) {
        TCSIM_ASSERT(outstandingCheckpoints_ > 0);
        --outstandingCheckpoints_;
        // A retiring non-discarded instruction is active, so this
        // branch is the oldest checkpoint-stack entry.
        TCSIM_ASSERT(!checkpointStack_.empty() &&
                     checkpointStack_.front() == inst.seq,
                     "checkpoint stack out of sync at retire");
        checkpointStack_.pop_front();
    }

    // Feed the fill unit from the retired stream.
    if (fillUnit_ != nullptr) {
        trace::RetiredInst retired;
        retired.inst = inst.inst;
        retired.pc = inst.pc;
        retired.taken = inst.taken;
        if (profiler_ == nullptr) {
            fillUnit_->retire(retired);
        } else {
            const std::uint64_t t0 = obs::SelfProfiler::nowNs();
            fillUnit_->retire(retired);
            profiler_->addPhase(obs::Phase::Fill,
                                obs::SelfProfiler::nowNs() - t0);
        }
    }

    ++retiredInsts_;
}

void
Processor::retireStage()
{
    unsigned retired = 0;
    while (!robOrder_.empty() && retired < config_.retireWidth) {
        const InstSeqNum seq = robOrder_.front();
        // Never retire past a pending recovery point: everything
        // younger is about to be squashed.
        if (recoveryPending_ && seq > recovery_.keepSeq)
            break;
        DynInst *di = instFor(seq);
        TCSIM_ASSERT(di != nullptr);
        if (!di->executed)
            break;
        // An inactive instruction at the head is awaiting salvage
        // activation (applied at end of cycle); hold it.
        if (!di->active && !di->discarded)
            break;
        // Safety net: a resolution whose recovery request lost
        // arbitration (to an older origin whose squash did not cover
        // it) reaches the head unhandled; re-issue it now. In-order
        // retire guarantees no wrong-path instruction can slip past.
        if (di->active && !di->discarded && !di->recoveryApplied &&
            (di->resolvedMispredict || di->resolvedFault ||
             di->resolvedMisfetch)) {
            di->followedDir = di->taken;
            di->followedNextPc = di->actualNextPc;
            RecoveryRequest req;
            req.originSeq = di->seq;
            req.keepSeq = di->seq;
            req.redirect = di->actualNextPc;
            req.cause = di->resolvedMisfetch
                            ? CycleCategory::Misfetches
                            : CycleCategory::BranchMisses;
            requestRecovery(req);
            break;
        }
        retireOne(*di);
        robOrder_.pop_front();
        bumpSlotVersion(seq);
        di->seq = kInvalidSeqNum;
        ++retired;
        if (done_)
            break;
    }
}

// ----------------------------------------------------------------------
// Top level.
// ----------------------------------------------------------------------

void
Processor::step()
{
    ++cycle_;
    if (profiler_ == nullptr) {
        retireStage();
        if (!done_) {
            completeStage();
            scheduleStage();
            dispatchStage();
            fetchStage();
            applyRecovery();
        }
    } else {
        // Same stage sequence with each stage bracketed by host-clock
        // reads; the fill unit's share is accounted inside retireOne.
        std::uint64_t t = obs::SelfProfiler::nowNs();
        retireStage();
        t = profiler_->lap(obs::Phase::Retire, t);
        if (!done_) {
            completeStage();
            t = profiler_->lap(obs::Phase::Complete, t);
            scheduleStage();
            t = profiler_->lap(obs::Phase::Schedule, t);
            dispatchStage();
            t = profiler_->lap(obs::Phase::Dispatch, t);
            fetchStage();
            t = profiler_->lap(obs::Phase::Fetch, t);
            applyRecovery();
            profiler_->lap(obs::Phase::Recovery, t);
        }
    }
    if (!done_ && maxInsts_ != 0 && retiredInsts_ >= maxInsts_)
        done_ = true;
    if (intervals_ != nullptr && retiredInsts_ >= intervalNextAt_) {
        intervals_->snapshot(intervalCounters());
        intervalNextAt_ = intervals_->nextBoundaryAfter(retiredInsts_);
    }
}

SimResult
Processor::run(std::uint64_t max_insts)
{
    TCSIM_ASSERT(max_insts <= kMaxRunInsts,
                 "run budget %llu exceeds the largest, %llu",
                 static_cast<unsigned long long>(max_insts),
                 static_cast<unsigned long long>(kMaxRunInsts));
    maxInsts_ = max_insts;
    // A previous run() may have stopped at its instruction budget;
    // resume unless the program actually halted.
    if (!haltRetired_ &&
        (maxInsts_ == 0 || retiredInsts_ < maxInsts_)) {
        done_ = false;
    }
    const std::uint64_t cycle_budget =
        (max_insts == 0 ? std::uint64_t{1} << 40
                        : max_insts * kMaxCyclesPerInst + kCycleSlack);
    Cycle last_progress_cycle = 0;
    std::uint64_t last_retired = 0;
    while (!done_) {
        step();
        if (profiler_ != nullptr)
            profiler_->maybeSample(retiredInsts_);
        if (retiredInsts_ != last_retired) {
            last_retired = retiredInsts_;
            last_progress_cycle = cycle_;
        }
        if (cycle_ - last_progress_cycle > 100'000) {
            fatal("no retirement progress for 100k cycles at cycle %llu "
                  "(%llu retired; rob=%zu fetchq=%zu serialize=%d "
                  "recovery=%d ckpts=%u icacheStall=%llu pc=%llx "
                  "onPath=%d oracleFetch=%llu oracleRetire=%llu)",
                  static_cast<unsigned long long>(cycle_),
                  static_cast<unsigned long long>(retiredInsts_),
                  robOrder_.size(), fetchQueue_.size(),
                  static_cast<int>(serializeStall_),
                  static_cast<int>(recoveryPending_),
                  outstandingCheckpoints_,
                  static_cast<unsigned long long>(icacheStallUntil_),
                  static_cast<unsigned long long>(fetchPc_),
                  static_cast<int>(onTruePath_),
                  static_cast<unsigned long long>(oracleFetchIdx_),
                  static_cast<unsigned long long>(oracleRetireIdx_));
        }
        if (cycle_ > cycle_budget) {
            fatal("cycle budget exhausted: %llu cycles, %llu retired "
                  "(deadlock?)",
                  static_cast<unsigned long long>(cycle_),
                  static_cast<unsigned long long>(retiredInsts_));
        }
    }
    if (intervals_ != nullptr)
        intervals_->finish(intervalCounters());
    if (tracer_ != nullptr)
        tracer_->flush();
    return makeResult();
}

void
Processor::attachTracer(obs::Tracer *tracer)
{
    tracer_ = tracer;
    if (tracer != nullptr)
        tracer->attachClock(&cycle_);
    fetchEngine_->setTracer(tracer);
    if (traceCache_ != nullptr)
        traceCache_->setTracer(tracer);
    if (fillUnit_ != nullptr)
        fillUnit_->setTracer(tracer);
    hierarchy_.icache().setTracer(tracer);
    hierarchy_.dcache().setTracer(tracer);
    hierarchy_.l2().setTracer(tracer);
}

void
Processor::attachIntervalRecorder(obs::IntervalRecorder *recorder)
{
    intervals_ = recorder;
    if (recorder != nullptr) {
        // Baseline at attach so the first interval's deltas exclude
        // anything already simulated (e.g. a warm-up phase).
        recorder->setBase(intervalCounters());
        intervalNextAt_ = recorder->nextBoundaryAfter(retiredInsts_);
    }
}

obs::IntervalCounters
Processor::intervalCounters() const
{
    obs::IntervalCounters c;
    c.cycles = cycle_;
    c.insts = retiredInsts_;
    c.usefulFetches = accounting_.usefulFetches();
    c.fetchedInsts = accounting_.fetchedInsts();
    c.condBranches = retiredCondBranches_;
    c.condMispredicts = condMispredicts_ + promotedFaults_;
    c.promotedFaults = promotedFaults_;
    c.promotedRetired = promotedRetired_;
    if (fillUnit_ != nullptr) {
        c.promotions = fillUnit_->biasTable().promotions();
        c.demotions = fillUnit_->biasTable().demotions();
        c.segmentsBuilt = fillUnit_->segmentsBuilt();
    }
    if (traceCache_ != nullptr) {
        c.tcLookups = traceCache_->lookups();
        c.tcHits = traceCache_->hits();
    }
    c.icacheMisses = hierarchy_.icache().misses();
    c.predictionsUsed = predictionsUsedSum_;
    c.l2Misses = hierarchy_.l2().misses();
    c.writebacks = hierarchy_.icache().writebacks() +
                   hierarchy_.dcache().writebacks() +
                   hierarchy_.l2().writebacks();
    return c;
}

void
Processor::syncToOracle()
{
    // Committed mirrors.
    memory_.copyFrom(oracle_->memory());
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        archRegs_[r] = oracle_->reg(static_cast<RegIndex>(r));

    // The oracle ring is empty and starts at the oracle's position.
    oracleBase_ = oracle_->instCount();
    oracleCount_ = 0;
    oracleFetchIdx_ = oracleBase_;
    oracleRetireIdx_ = oracleBase_;
    onTruePath_ = true;

    // In-flight state from the committed mirrors — the rebuild
    // recovery performs, minus in-flight writers (the window is
    // empty).
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        rat_[r] = RatEntry{true, archRegs_[r], kInvalidSeqNum};
    frontEnd_.history.restore(archHistory_);
    rasScratch_.assign(archRas_.begin(), archRas_.end());
    frontEnd_.ras.assignSwap(rasScratch_);
    fetchPc_ = oracle_->pc();

    retiredInsts_ = oracleBase_;
    statBaseCycle_ = cycle_;
    statBaseInsts_ = retiredInsts_;
    if (intervals_ != nullptr)
        intervalNextAt_ = intervals_->nextBoundaryAfter(retiredInsts_);
}

namespace
{

/** Walk steps: the oracle's, up to absolute retired index @p until. */
class OracleSteps
{
  public:
    OracleSteps(FunctionalExecutor &oracle, std::uint64_t until)
        : oracle_(oracle), until_(until)
    {
    }

    Addr pc() const { return oracle_.pc(); }
    bool
    more() const
    {
        return !oracle_.halted() && oracle_.instCount() < until_;
    }
    workload::StepResult next() { return oracle_.step(); }

  private:
    FunctionalExecutor &oracle_;
    std::uint64_t until_;
};

/**
 * Walk steps from a btrace: non-control instructions are walked from
 * the program image, control transfers take their directions and
 * targets from the trace. Fatal on any divergence between the walked
 * pc and the next record's pc.
 */
class ReplaySteps
{
  public:
    ReplaySteps(const workload::Program &program,
                const workload::BtraceReader &reader)
        : program_(program), reader_(reader),
          pc_(reader.header().entryPc)
    {
    }

    Addr pc() const { return pc_; }
    bool more() const { return covered_ < reader_.header().instCount; }
    workload::StepResult next();

  private:
    const workload::Program &program_;
    const workload::BtraceReader &reader_;
    Addr pc_;
    std::uint64_t nextRecord_ = 0;
    std::uint64_t covered_ = 0;
};

workload::StepResult
ReplaySteps::next()
{
    if (!program_.isCode(pc_)) {
        fatal("btrace replay walked outside the program image at "
              "pc 0x%llx",
              static_cast<unsigned long long>(pc_));
    }
    workload::StepResult step;
    step.pc = pc_;
    step.inst = program_.fetch(pc_);
    const Opcode op = step.inst.op;
    step.halted = op == Opcode::Halt;
    if (isa::isControl(op)) {
        if (nextRecord_ >= reader_.recordCount()) {
            fatal("btrace ran out of records at pc 0x%llx "
                  "(instCount says more follow)",
                  static_cast<unsigned long long>(pc_));
        }
        const workload::BtraceRecord record = reader_.record(nextRecord_);
        if (record.pc != pc_) {
            fatal("btrace divergence: walked to pc 0x%llx but the "
                  "next record is for pc 0x%llx (record %llu)",
                  static_cast<unsigned long long>(pc_),
                  static_cast<unsigned long long>(record.pc),
                  static_cast<unsigned long long>(nextRecord_));
        }
        ++nextRecord_;
        step.taken = record.taken;
        step.nextPc = record.target;
    } else {
        step.nextPc = pc_ + isa::kInstBytes;
    }
    pc_ = step.nextPc;
    ++covered_;
    return step;
}

workload::BtraceClass
btraceClassOf(Opcode op)
{
    if (isa::isCondBranch(op))
        return workload::BtraceClass::Cond;
    if (isa::isCall(op))
        return workload::BtraceClass::Call;
    if (isa::isReturn(op))
        return workload::BtraceClass::Ret;
    if (isa::isIndirectJump(op))
        return workload::BtraceClass::IndirectJump;
    if (op == Opcode::Trap)
        return workload::BtraceClass::Trap;
    if (op == Opcode::Halt)
        return workload::BtraceClass::Halt;
    return workload::BtraceClass::Jump;
}

} // namespace

template <Processor::WalkMode Mode, typename Steps>
Processor::ControlFlowResult
Processor::walk(Steps &steps, workload::BtraceWriter *writer)
{
    TCSIM_ASSERT(cycle_ == 0 && robOrder_.empty() && oracleCount_ == 0,
                 "functional walks require a pre-run processor");
    constexpr bool kControlFlow = Mode == WalkMode::ControlFlow;

    ControlFlowResult result;
    result.outcomeHash = kFnvOffsetBasis;

    // Leader = the fetch-group start address the detailed front end
    // would use for a segment beginning at this block. Training the
    // position-0 counter at (leader, history-at-leader) warms exactly
    // the entries segment-start predictions consult. Under
    // ControlFlow each new leader also costs one trace-cache lookup —
    // the fetch-rate / miss-rate signal the replay stats report.
    Addr leader = steps.pc();
    std::uint64_t leader_hist = archHistory_;
    bool leader_pending = true;

    while (steps.more()) {
        const workload::StepResult step = steps.next();
        const Opcode op = step.inst.op;
        if constexpr (kControlFlow) {
            if (leader_pending && traceCache_ != nullptr)
                traceCache_->lookup(leader);
            leader_pending = false;
            ++result.instructions;
        }
        hierarchy_.icache().access(step.pc, false);
        if constexpr (!kControlFlow) {
            if (isa::isMem(op) && step.memAddr != kInvalidAddr)
                hierarchy_.dcache().access(step.memAddr, isa::isStore(op));
        }

        if (isa::isCondBranch(op)) {
            if constexpr (kControlFlow)
                ++result.condBranches;
            if (mbp_ != nullptr) {
                const bpred::MbpCtx ctx{
                    leader, leader_hist, 0, 0,
                    mbp_->predict(leader, leader_hist, 0, 0)};
                if (kControlFlow && ctx.prediction != step.taken)
                    ++result.condMispredicts;
                mbp_->update(ctx, step.taken);
            }
            if (hybrid_ != nullptr) {
                const bpred::HybridCtx ctx =
                    hybrid_->predict(step.pc, archHistory_);
                if (kControlFlow && ctx.prediction != step.taken)
                    ++result.condMispredicts;
                hybrid_->update(step.pc, ctx, step.taken);
            }
            archHistory_ = (archHistory_ << 1) |
                           static_cast<std::uint64_t>(step.taken);
        } else if (isa::isCall(op)) {
            archRas_.push_back(step.pc + isa::kInstBytes);
        } else if (isa::isReturn(op)) {
            if constexpr (kControlFlow) {
                ++result.returns;
                if (archRas_.empty() || archRas_.back() != step.nextPc)
                    ++result.returnMispredicts;
            }
            if (!archRas_.empty())
                archRas_.pop_back();
        } else if (isa::isIndirectJump(op)) {
            if constexpr (kControlFlow) {
                ++result.indirectJumps;
                if (frontEnd_.indirect.predict(step.pc) != step.nextPc)
                    ++result.indirectMispredicts;
            }
            frontEnd_.indirect.update(step.pc, step.nextPc);
        } else if (kControlFlow && op == Opcode::Trap) {
            ++result.traps;
        }

        if (kControlFlow && isa::isControl(op)) {
            ++result.records;
            result.outcomeHash =
                fnv1aAppendScalar(result.outcomeHash, step.pc);
            result.outcomeHash =
                fnv1aAppendScalar(result.outcomeHash, step.nextPc);
            result.outcomeHash = fnv1aAppendScalar(
                result.outcomeHash,
                static_cast<std::uint8_t>(step.taken ? 1 : 0));
            if (writer != nullptr)
                writer->append(
                    {step.pc, step.nextPc, btraceClassOf(op), step.taken});
        }

        if (fillUnit_ != nullptr)
            fillUnit_->retire({step.inst, step.pc, step.taken});

        if (isa::isControl(op)) {
            leader = step.nextPc;
            leader_hist = archHistory_;
            leader_pending = true;
        }
        if (step.halted) {
            result.halted = true;
            break;
        }
    }

    result.finalHistory = archHistory_;
    result.icacheAccesses = hierarchy_.icache().accesses();
    result.icacheMisses = hierarchy_.icache().misses();
    if (traceCache_ != nullptr) {
        result.tcLookups = traceCache_->lookups();
        result.tcHits = traceCache_->hits();
    }
    return result;
}

void
Processor::functionalWarmup(std::uint64_t until)
{
    TCSIM_ASSERT(oracle_->instCount() == retiredInsts_,
                 "oracle out of sync with the committed position");
    TCSIM_ASSERT(until >= retiredInsts_);
    OracleSteps steps(*oracle_, until);
    walk<WalkMode::Warm>(steps, nullptr);
    TCSIM_ASSERT(oracle_->instCount() == until,
                 "program halted inside the functional warm-up window");
    syncToOracle();
}

Processor::ControlFlowResult
Processor::walkControlFlow(std::uint64_t max_insts)
{
    OracleSteps steps(*oracle_, max_insts);
    return walk<WalkMode::ControlFlow>(steps, nullptr);
}

Processor::ControlFlowResult
Processor::recordTrace(workload::BtraceWriter &writer,
                       std::uint64_t max_insts)
{
    OracleSteps steps(*oracle_, max_insts);
    const ControlFlowResult result =
        walk<WalkMode::ControlFlow>(steps, &writer);
    writer.close(result.instructions);
    return result;
}

Processor::ControlFlowResult
Processor::replayTrace(const workload::BtraceReader &reader)
{
    ReplaySteps steps(program_, reader);
    const ControlFlowResult result =
        walk<WalkMode::ControlFlow>(steps, nullptr);
    if (result.instructions != reader.header().instCount &&
        !result.halted) {
        fatal("btrace replay covered %llu instructions but the header "
              "promises %llu",
              static_cast<unsigned long long>(result.instructions),
              static_cast<unsigned long long>(reader.header().instCount));
    }
    return result;
}

void
Processor::resetStats()
{
    accounting_.reset();
    statBaseCycle_ = cycle_;
    statBaseInsts_ = retiredInsts_;
    retiredCondBranches_ = 0;
    condMispredicts_ = 0;
    promotedFaults_ = 0;
    indirectMispredicts_ = 0;
    returnMisfetches_ = 0;
    retiredReturns_ = 0;
    retiredIndirects_ = 0;
    promotedRetired_ = 0;
    resolutionTimeSum_ = 0;
    resolutionTimeCount_ = 0;
    for (auto &count : fetchesNeedingPreds_)
        count = 0;
    predictionsUsedSum_ = 0;
    hierarchy_.icache().resetStats();
    hierarchy_.dcache().resetStats();
    hierarchy_.l2().resetStats();
    if (traceCache_ != nullptr)
        traceCache_->resetStats();
    if (fillUnit_ != nullptr)
        fillUnit_->resetStats();
}

SimResult
Processor::makeResult() const
{
    SimResult result;
    result.benchmark = program_.name();
    result.config = config_.name;
    result.instructions = retiredInsts_ - statBaseInsts_;
    result.cycles = cycle_ - statBaseCycle_;
    result.usefulFetches = accounting_.usefulFetches();
    result.fetchedInsts = accounting_.fetchedInsts();

    result.condBranches = retiredCondBranches_;
    result.condMispredicts = condMispredicts_ + promotedFaults_;
    result.promotedFaults = promotedFaults_;
    result.indirectMispredicts = indirectMispredicts_;
    result.resolutionTimeSum = resolutionTimeSum_;
    result.resolutionTimeCount = resolutionTimeCount_;
    for (unsigned n = 0; n < 4; ++n)
        result.fetchesNeedingPreds[n] = fetchesNeedingPreds_[n];

    for (unsigned c = 0;
         c < static_cast<unsigned>(CycleCategory::NumCategories); ++c) {
        result.cycleCat[c] =
            accounting_.categoryCycles(static_cast<CycleCategory>(c));
    }
    for (unsigned r = 0;
         r < static_cast<unsigned>(FetchReason::NumReasons); ++r) {
        for (unsigned w = 0; w <= Accounting::kMaxFetchWidth; ++w) {
            result.fetchHist[r][w] = accounting_.fetchCount(
                static_cast<FetchReason>(r), w);
        }
    }

    if (traceCache_ != nullptr) {
        result.tcLookups = traceCache_->lookups();
        result.tcHits = traceCache_->hits();
    }
    result.icacheMisses = hierarchy_.icache().misses();
    result.promotedRetired = promotedRetired_;
    deriveRatios(result);

    StatDump &dump = result.stats;
    dump.add("sim.cycles", static_cast<double>(cycle_));
    dump.add("sim.insts", static_cast<double>(retiredInsts_));
    dump.add("sim.ipc", result.ipc);
    dump.add("fetch.effective_rate", result.effectiveFetchRate);
    dump.add("bpred.cond_branches",
             static_cast<double>(retiredCondBranches_));
    dump.add("bpred.cond_mispredicts",
             static_cast<double>(result.condMispredicts));
    dump.add("bpred.promoted_faults",
             static_cast<double>(promotedFaults_));
    dump.add("bpred.mispredict_rate", result.condMispredictRate);
    dump.add("bpred.mean_resolution_time", result.meanResolutionTime);
    dump.add("bpred.retired_returns", static_cast<double>(retiredReturns_));
    dump.add("bpred.return_misfetches",
             static_cast<double>(returnMisfetches_));
    dump.add("bpred.retired_indirects",
             static_cast<double>(retiredIndirects_));
    dump.add("bpred.indirect_mispredicts",
             static_cast<double>(indirectMispredicts_));
    // No policy replays a load, so this reads 0; the entry stays in
    // the dump that statsDigest and perfbench round digests cover.
    dump.add("mem.order_violations", 0.0);
    hierarchy_.dumpStats(dump);
    if (traceCache_ != nullptr)
        traceCache_->dumpStats(dump);
    if (fillUnit_ != nullptr)
        fillUnit_->dumpStats(dump);
    return result;
}

} // namespace tcsim::sim
