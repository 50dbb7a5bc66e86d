/**
 * @file
 * Multiple branch predictors: up to three conditional-branch
 * predictions per cycle, as required to sequence through trace
 * segments.
 *
 * Two organizations are modeled:
 *
 *  - TreeMbp (paper Figure 3, the baseline): a gshare-style pattern
 *    history table of 16K entries, each holding seven 2-bit counters
 *    arranged as a depth-3 binary tree. Counter 0 predicts the first
 *    branch; counters 1-2 predict the second branch conditioned on the
 *    first outcome; counters 3-6 predict the third conditioned on the
 *    first two. 32 KB of counter state.
 *
 *  - SplitMbp (paper section 4, used with promotion): three separate
 *    gshare tables of 64K / 16K / 8K 2-bit counters providing the
 *    first / second / third prediction respectively. 24 KB total,
 *    sized to match promotion's skew toward first predictions.
 *
 * Prediction and update use the fetch address and the global history
 * captured at fetch, which callers carry alongside each branch; for
 * retired branches the predicted intra-group path always equals the
 * actual path (later branches of a misfetched group never retire), so
 * updates train exactly the counters that were consulted.
 */

#ifndef TCSIM_BPRED_MULTI_H
#define TCSIM_BPRED_MULTI_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/saturating_counter.h"
#include "common/types.h"

namespace tcsim::bpred
{

/** Per-branch context carried from prediction to update. */
struct MbpCtx
{
    Addr fetchAddr = 0;       ///< fetch-group address
    std::uint64_t history = 0; ///< global history at fetch
    std::uint8_t position = 0; ///< 0..2 within the fetch group
    std::uint8_t path = 0;     ///< outcomes of earlier group branches
    bool prediction = false;
};

/** Abstract multi-prediction interface. */
class MultipleBranchPredictor
{
  public:
    virtual ~MultipleBranchPredictor() = default;

    /** @return the number of predictions available per cycle. */
    virtual unsigned maxPredictions() const = 0;

    /**
     * Predict the branch at @p position of the fetch group starting
     * at @p fetch_addr, given the predicted outcomes of the group's
     * earlier branches in @p path (bit i = branch i taken).
     */
    virtual bool predict(Addr fetch_addr, std::uint64_t history,
                         unsigned position, unsigned path) const = 0;

    /** Train with the resolved outcome of a retired branch. */
    virtual void update(const MbpCtx &ctx, bool taken) = 0;
};

/** The baseline 16K x 7-counter tree predictor (Figure 3). */
class TreeMbp : public MultipleBranchPredictor
{
  public:
    explicit TreeMbp(std::uint32_t entries = 16384);

    unsigned maxPredictions() const override { return 3; }
    bool predict(Addr fetch_addr, std::uint64_t history,
                 unsigned position, unsigned path) const override;
    void update(const MbpCtx &ctx, bool taken) override;

  private:
    std::uint32_t indexOf(Addr fetch_addr, std::uint64_t history) const;
    static unsigned
    counterOf(unsigned position, unsigned path)
    {
        return (1u << position) - 1 + (path & ((1u << position) - 1));
    }

    std::uint32_t entries_;
    std::uint32_t indexMask_; ///< entries_ - 1, hoisted off the hot path
    std::vector<SaturatingCounter> counters_; // entries_ x 7
};

/** The split three-table predictor used alongside promotion. */
class SplitMbp : public MultipleBranchPredictor
{
  public:
    SplitMbp(std::uint32_t first = 65536, std::uint32_t second = 16384,
             std::uint32_t third = 8192);

    unsigned maxPredictions() const override { return 3; }
    bool predict(Addr fetch_addr, std::uint64_t history,
                 unsigned position, unsigned path) const override;
    void update(const MbpCtx &ctx, bool taken) override;

  private:
    std::uint32_t indexOf(Addr fetch_addr, std::uint64_t history,
                          unsigned position) const;

    std::vector<SaturatingCounter> tables_[3];
    std::uint32_t indexMasks_[3]; ///< per-table size - 1, hoisted
};

} // namespace tcsim::bpred

#endif // TCSIM_BPRED_MULTI_H
