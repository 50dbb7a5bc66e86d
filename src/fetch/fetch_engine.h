/**
 * @file
 * The front-end fetch engine.
 *
 * In trace-cache mode the trace cache and the supporting instruction
 * cache are probed in parallel: a trace-cache hit supplies up to a
 * full segment with partial matching and inactive issue (all segment
 * instructions are issued; those beyond the predicted path's
 * divergence from the segment's embedded path are issued inactively);
 * a miss falls back to one instruction-cache fetch block.
 *
 * In icache-only mode (the paper's reference front end) a large
 * dual-ported instruction cache supplies one fetch block per cycle,
 * predicted by an aggressive hybrid predictor.
 */

#ifndef TCSIM_FETCH_FETCH_ENGINE_H
#define TCSIM_FETCH_FETCH_ENGINE_H

#include <optional>
#include <unordered_map>

#include "bpred/history.h"
#include "bpred/hybrid.h"
#include "bpred/indirect.h"
#include "bpred/multi.h"
#include "bpred/ras.h"
#include "fetch/fetch_types.h"
#include "memory/cache.h"
#include "obs/trace.h"
#include "trace/trace_cache.h"
#include "workload/program.h"

namespace tcsim::fetch
{

/** Fetch engine configuration. */
struct FetchEngineParams
{
    /** Probe the trace cache (false = icache-only reference config). */
    bool useTraceCache = true;
    /** Maximum instructions per fetch. */
    unsigned fetchWidth = 16;
};

/**
 * Mutable front-end state shared between the fetch engine and the
 * processor (which repairs it on recoveries).
 */
struct FrontEndState
{
    bpred::GlobalHistory history;
    bpred::ReturnAddressStack ras;
    bpred::IndirectPredictor indirect;
    /** A pending promoted-fault direction override. */
    struct Override
    {
        /** Dynamic instances of the PC to pass over before applying
         * (earlier instances replayed by the same recovery). */
        unsigned skip = 0;
        bool dir = false;
    };

    /**
     * One-shot per-PC direction overrides installed by promoted-branch
     * fault recovery: the refetched faulting instance executes in the
     * corrected direction.
     */
    std::unordered_map<Addr, Override> overrides;
};

/** The fetch engine proper. */
class FetchEngine
{
  public:
    /**
     * @param mbp multiple branch predictor (trace-cache mode), may be
     *        nullptr in icache-only mode
     * @param hybrid single-branch hybrid predictor (icache-only mode),
     *        may be nullptr in trace-cache mode
     */
    FetchEngine(const FetchEngineParams &params,
                const workload::Program &program,
                trace::TraceCache *trace_cache, memory::Cache &icache,
                bpred::MultipleBranchPredictor *mbp,
                bpred::HybridPredictor *hybrid, FrontEndState &state);

    /**
     * Run one fetch cycle starting at @p pc. Results land in @p out
     * (cleared first). When out.icacheStall is non-zero the cycle
     * produced nothing and the caller must stall that many cycles
     * before retrying the same pc.
     */
    void fetchCycle(Addr pc, FetchBatch &out);

    /** Attach a tracer for `fetch` trace points (null disables). */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

  private:
    void fetchFromSegment(Addr pc, const trace::TraceSegment &segment,
                          FetchBatch &out);
    void fetchFromICache(Addr pc, FetchBatch &out);

    /** Consume a one-shot override for @p pc if present. */
    std::optional<bool>
    consumeOverride(Addr pc)
    {
        if (state_.overrides.empty()) // the common case: none pending
            return std::nullopt;
        return consumePendingOverride(pc);
    }

    /** consumeOverride() with at least one override pending. */
    std::optional<bool> consumePendingOverride(Addr pc);

    /** Predicted target of a return / indirect jump at fetch time. */
    Addr indirectTargetFor(const isa::Instruction &inst, Addr pc);

    FetchEngineParams params_;
    const workload::Program &program_;
    trace::TraceCache *traceCache_;
    memory::Cache &icache_;
    bpred::MultipleBranchPredictor *mbp_;
    bpred::HybridPredictor *hybrid_;
    FrontEndState &state_;

    obs::Tracer *tracer_ = nullptr;
};

} // namespace tcsim::fetch

#endif // TCSIM_FETCH_FETCH_ENGINE_H
