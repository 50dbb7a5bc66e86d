/**
 * @file
 * The aggressive single-branch hybrid predictor used with the
 * instruction-cache front end (paper section 3): a gshare component
 * with 15 bits of global history, a PAs component with 15 bits of
 * local history and a 4K-entry branch history table, and a selector
 * indexed like the gshare component. Roughly 32 KB of state.
 */

#ifndef TCSIM_BPRED_HYBRID_H
#define TCSIM_BPRED_HYBRID_H

#include <cstdint>
#include <vector>

#include "common/saturating_counter.h"
#include "common/types.h"

namespace tcsim::bpred
{

/** Prediction context carried with each branch for a precise update. */
struct HybridCtx
{
    std::uint32_t gshareIdx = 0;
    std::uint32_t pasPatternIdx = 0;
    std::uint32_t selectorIdx = 0;
    bool gsharePred = false;
    bool pasPred = false;
    bool prediction = false;
};

/** Parameters for the hybrid predictor. */
struct HybridParams
{
    std::uint32_t historyBits = 15;  // gshare + selector index width
    std::uint32_t localHistoryBits = 15;
    std::uint32_t bhtEntries = 4096; // per-branch local histories
};

/** gshare + PAs with a gshare-indexed selector. */
class HybridPredictor
{
  public:
    explicit HybridPredictor(const HybridParams &params = HybridParams{});

    /** Predict the branch at @p pc given global history @p ghist. */
    HybridCtx predict(Addr pc, std::uint64_t ghist) const;

    /**
     * Train both components and the selector with the resolved
     * outcome. Local history is updated here (at retire).
     */
    void update(Addr pc, const HybridCtx &ctx, bool taken);

  private:
    std::uint32_t gshareIndex(Addr pc, std::uint64_t ghist) const;
    std::uint32_t bhtIndex(Addr pc) const;

    HybridParams params_;
    std::uint32_t tableMask_;
    std::uint32_t localMask_; ///< mask(localHistoryBits), hoisted
    std::uint32_t bhtMask_;   ///< bhtEntries - 1, hoisted
    std::vector<SaturatingCounter> gshare_;
    std::vector<SaturatingCounter> pasPattern_;
    std::vector<SaturatingCounter> selector_; // toward max = use PAs
    std::vector<std::uint32_t> localHistory_;
};

} // namespace tcsim::bpred

#endif // TCSIM_BPRED_HYBRID_H
