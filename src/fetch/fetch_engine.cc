#include "fetch/fetch_engine.h"

#include "common/log.h"

namespace tcsim::fetch
{

using isa::Opcode;

FetchEngine::FetchEngine(const FetchEngineParams &params,
                         const workload::Program &program,
                         trace::TraceCache *trace_cache,
                         memory::Cache &icache,
                         bpred::MultipleBranchPredictor *mbp,
                         bpred::HybridPredictor *hybrid,
                         FrontEndState &state)
    : params_(params), program_(program), traceCache_(trace_cache),
      icache_(icache), mbp_(mbp), hybrid_(hybrid), state_(state)
{
    TCSIM_ASSERT(params_.fetchWidth >= 1 && params_.fetchWidth <= 16);
    if (params_.useTraceCache) {
        TCSIM_ASSERT(traceCache_ != nullptr && mbp_ != nullptr,
                     "trace-cache mode needs a TC and an MBP");
    } else {
        TCSIM_ASSERT(hybrid_ != nullptr,
                     "icache-only mode needs the hybrid predictor");
    }
}

std::optional<bool>
FetchEngine::consumePendingOverride(Addr pc)
{
    const auto it = state_.overrides.find(pc);
    if (it == state_.overrides.end())
        return std::nullopt;
    if (it->second.skip > 0) {
        // An earlier replayed instance of this PC; not ours yet.
        --it->second.skip;
        return std::nullopt;
    }
    const bool dir = it->second.dir;
    state_.overrides.erase(it);
    return dir;
}

Addr
FetchEngine::indirectTargetFor(const isa::Instruction &inst, Addr pc)
{
    if (isa::isReturn(inst.op)) {
        const Addr target = state_.ras.pop();
        return target == kInvalidAddr ? pc + isa::kInstBytes : target;
    }
    const Addr target = state_.indirect.predict(pc);
    return target == kInvalidAddr ? pc + isa::kInstBytes : target;
}

void
FetchEngine::fetchCycle(Addr pc, FetchBatch &out)
{
    out.clear();
    if (params_.useTraceCache) {
        if (const trace::TraceSegment *segment = traceCache_->lookup(pc)) {
            fetchFromSegment(pc, *segment, out);
            return;
        }
    }
    fetchFromICache(pc, out);
}

void
FetchEngine::fetchFromSegment(Addr pc, const trace::TraceSegment &segment,
                              FetchBatch &out)
{
    out.source = FetchSource::TraceCache;
    out.segmentReason = segment.reason;
    out.segmentSize = segment.size();

    const std::uint64_t hist_at_start = state_.history.value();
    bool diverged = false;
    unsigned path_bits = 0;
    Addr next_pc = kInvalidAddr;

    for (const trace::TraceInst &ti : segment.insts) {
        // Built in place: every segment instruction enters the batch.
        FetchedInst &fi = out.insts.emplace_back();
        fi.inst = ti.inst;
        fi.pc = ti.pc;
        fi.active = !diverged;
        fi.promoted = ti.promoted;
        fi.promotedDir = ti.promotedDir;
        fi.endsBlock = ti.endsBlock;
        fi.embeddedTaken = ti.builtTaken;
        fi.followedNextPc = ti.embeddedNextPc();

        const Opcode op = ti.inst.op;
        if (isa::isCondBranch(op)) {
            if (ti.promoted) {
                // Promoted branch: no dynamic prediction. A fault-
                // recovery override flips the direction for this one
                // refetched instance, invalidating the rest of the
                // segment (the embedded path assumed the other way).
                bool dir = ti.promotedDir;
                if (fi.active) {
                    if (const auto ov = consumeOverride(ti.pc)) {
                        dir = *ov;
                        fi.promotedDir = dir;
                    }
                    state_.history.push(dir);
                }
                fi.followedDir = dir;
                fi.followedNextPc =
                    dir ? isa::directTarget(ti.inst, ti.pc)
                        : ti.pc + isa::kInstBytes;
                if (fi.active &&
                    fi.followedNextPc != ti.embeddedNextPc()) {
                    diverged = true;
                    next_pc = fi.followedNextPc;
                    out.partialMatch = true;
                }
            } else if (fi.active) {
                // Block-ending branch: consult the predictor (or a
                // fault-recovery override).
                bool pred;
                if (const auto ov = consumeOverride(ti.pc)) {
                    pred = *ov;
                    fi.predictionValid = false;
                } else {
                    const unsigned position = out.predictionsUsed;
                    pred = mbp_->predict(pc, hist_at_start, position,
                                         path_bits);
                    fi.predictionValid = true;
                    fi.mbpCtx.fetchAddr = pc;
                    fi.mbpCtx.history = hist_at_start;
                    fi.mbpCtx.position =
                        static_cast<std::uint8_t>(position);
                    fi.mbpCtx.path =
                        static_cast<std::uint8_t>(path_bits);
                    fi.mbpCtx.prediction = pred;
                    path_bits |= static_cast<unsigned>(pred)
                                 << position;
                }
                ++out.predictionsUsed;
                fi.followedDir = pred;
                fi.followedNextPc =
                    pred ? isa::directTarget(ti.inst, ti.pc)
                         : ti.pc + isa::kInstBytes;
                state_.history.push(pred);
                if (pred != ti.builtTaken) {
                    diverged = true;
                    next_pc = fi.followedNextPc;
                    out.partialMatch = true;
                }
            } else {
                // Inactive branch: rides the embedded path.
                fi.followedDir = ti.builtTaken;
            }
        } else if (isa::isCall(op)) {
            if (fi.active)
                state_.ras.push(ti.pc + isa::kInstBytes);
        } else if (isa::isReturn(op) || isa::isIndirectJump(op)) {
            // Always the final instruction of a segment.
            if (fi.active) {
                fi.followedNextPc = indirectTargetFor(ti.inst, ti.pc);
                next_pc = fi.followedNextPc;
            }
        } else if (isa::isSerializing(op)) {
            // Only an active serializing instruction stalls fetch; an
            // inactive one is riding a losing path.
            if (fi.active)
                out.sawSerialize = true;
            fi.followedNextPc = ti.pc + isa::kInstBytes;
        }

        if (fi.active)
            ++out.activeCount;
    }

    if (next_pc == kInvalidAddr) {
        // No divergence: continue after the last instruction along the
        // followed path.
        next_pc = out.insts.back().followedNextPc;
    }
    out.nextFetchPc = next_pc;
    TCSIM_TPOINT(tracer_, Fetch, "tc_supply",
                 "pc=0x%llx active=%u total=%zu partial=%d next=0x%llx",
                 static_cast<unsigned long long>(pc), out.activeCount,
                 out.insts.size(), out.partialMatch ? 1 : 0,
                 static_cast<unsigned long long>(out.nextFetchPc));
}

void
FetchEngine::fetchFromICache(Addr pc, FetchBatch &out)
{
    out.source = FetchSource::ICache;

    // First-line access: a miss stalls the front end.
    const std::uint32_t stall = icache_.access(pc, false);
    if (stall > 0) {
        out.icacheStall = stall;
        TCSIM_TPOINT(tracer_, Fetch, "icache_stall",
                     "pc=0x%llx cycles=%u",
                     static_cast<unsigned long long>(pc), stall);
        return;
    }

    const std::uint64_t hist_at_start = state_.history.value();
    const Addr first_line = pc / icache_.lineBytes();

    for (unsigned i = 0; i < params_.fetchWidth; ++i) {
        const Addr addr = pc + Addr{i} * isa::kInstBytes;

        // Split-line fetching: crossing into a missing second line
        // terminates the fetch at the boundary (paper footnote 2).
        if (addr / icache_.lineBytes() != first_line) {
            if (!icache_.probe(addr))
                break;
        }

        FetchedInst &fi = out.insts.emplace_back();
        ++out.activeCount;
        fi.inst = program_.fetch(addr);
        fi.pc = addr;
        fi.followedNextPc = addr + isa::kInstBytes;

        const Opcode op = fi.inst.op;
        if (isa::isCondBranch(op)) {
            bool pred;
            if (const auto ov = consumeOverride(addr)) {
                pred = *ov;
                fi.predictionValid = false;
            } else if (hybrid_ != nullptr) {
                fi.hybridCtx =
                    hybrid_->predict(addr, state_.history.value());
                fi.usedHybrid = true;
                fi.predictionValid = true;
                pred = fi.hybridCtx.prediction;
            } else {
                pred = mbp_->predict(pc, hist_at_start, 0, 0);
                fi.predictionValid = true;
                fi.mbpCtx.fetchAddr = pc;
                fi.mbpCtx.history = hist_at_start;
                fi.mbpCtx.position = 0;
                fi.mbpCtx.path = 0;
                fi.mbpCtx.prediction = pred;
            }
            ++out.predictionsUsed;
            fi.endsBlock = true;
            fi.followedDir = pred;
            fi.embeddedTaken = pred;
            fi.followedNextPc =
                pred ? isa::directTarget(fi.inst, addr)
                     : addr + isa::kInstBytes;
            state_.history.push(pred);
            break; // a fetch block ends at any control instruction
        }
        if (isa::isUncondDirect(op)) {
            if (isa::isCall(op))
                state_.ras.push(addr + isa::kInstBytes);
            fi.followedNextPc = isa::directTarget(fi.inst, addr);
            break;
        }
        if (isa::isReturn(op) || isa::isIndirectJump(op)) {
            fi.followedNextPc = indirectTargetFor(fi.inst, addr);
            break;
        }
        if (isa::isSerializing(op)) {
            out.sawSerialize = true;
            break;
        }
    }

    if (!out.insts.empty())
        out.nextFetchPc = out.insts.back().followedNextPc;
    TCSIM_TPOINT(tracer_, Fetch, "icache_supply",
                 "pc=0x%llx n=%zu next=0x%llx",
                 static_cast<unsigned long long>(pc), out.insts.size(),
                 static_cast<unsigned long long>(out.nextFetchPc));
}

} // namespace tcsim::fetch
