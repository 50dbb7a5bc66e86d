/**
 * @file
 * The branch bias table that drives branch promotion (paper Figure 5).
 *
 * A tagged, direct-mapped table indexed by branch address. Each entry
 * records the branch's previous outcome and an n-bit saturating count
 * of consecutive identical outcomes, plus the sticky promoted state:
 *
 *  - a branch is promoted once its consecutive-outcome count reaches
 *    the threshold;
 *  - a promoted branch is demoted when two or more consecutive
 *    outcomes land in the other direction, or on a bias-table miss
 *    (so a single off-direction outcome — a loop's final iteration —
 *    does not demote an otherwise strongly biased branch).
 */

#ifndef TCSIM_BPRED_BIAS_TABLE_H
#define TCSIM_BPRED_BIAS_TABLE_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "obs/trace.h"

namespace tcsim::bpred
{

/** Configuration for the bias table. */
struct BiasTableParams
{
    std::uint32_t entries = 8192;
    /** Consecutive-outcome count that triggers promotion. */
    std::uint32_t promoteThreshold = 64;
    /** Saturation limit of the consecutive counter. */
    std::uint32_t counterMax = 1023;
};

/** Promotion advice for one branch site. */
struct PromotionAdvice
{
    bool promote = false;
    bool direction = false; // true = taken
};

/** The tagged branch bias table. */
class BranchBiasTable
{
  public:
    explicit BranchBiasTable(const BiasTableParams &params);

    /**
     * Record a retired conditional branch outcome and refresh the
     * site's promoted state.
     */
    void update(Addr pc, bool taken);

    /**
     * @return whether the fill unit should embed this branch as
     * promoted, and in which direction. Consulted when the branch is
     * added to the pending segment (at retire).
     */
    PromotionAdvice advice(Addr pc) const;

    std::uint64_t promotions() const { return promotions_; }
    std::uint64_t demotions() const { return demotions_; }

    /** Attach a tracer for `promote` trace points (null disables). */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    void
    dumpStats(StatDump &dump) const
    {
        dump.add("bias_table.promotions",
                 static_cast<double>(promotions_));
        dump.add("bias_table.demotions", static_cast<double>(demotions_));
    }

  private:
    /**
     * One table slot, packed to 8 bytes (8 per cache line vs. 2 for
     * the naive bool-padded layout) so the open-addressed
     * (direct-mapped, probe-free) lookup touches fewer lines. The tag
     * is stored narrow: with 4-byte instructions and >= 1K entries a
     * 32-bit tag covers any pc below 2^44, far beyond the synthetic
     * workloads' address space (tagOf() asserts the invariant), and
     * 0xFFFFFFFF is reserved as the empty sentinel. The
     * consecutive-outcome count and the three flags share one word:
     * count in bits [0,28), lastOutcome/promoted/promotedDir in bits
     * 28/29/30.
     */
    struct Entry
    {
        std::uint32_t tag = kNoTag;
        std::uint32_t meta = 0;

        static constexpr std::uint32_t kNoTag = ~std::uint32_t{0};
        static constexpr std::uint32_t kCountMask = (1u << 28) - 1;
        static constexpr std::uint32_t kLastOutcomeBit = 1u << 28;
        static constexpr std::uint32_t kPromotedBit = 1u << 29;
        static constexpr std::uint32_t kPromotedDirBit = 1u << 30;

        std::uint32_t count() const { return meta & kCountMask; }
        bool lastOutcome() const { return meta & kLastOutcomeBit; }
        bool promoted() const { return meta & kPromotedBit; }
        bool promotedDir() const { return meta & kPromotedDirBit; }

        void
        setCount(std::uint32_t count)
        {
            meta = (meta & ~kCountMask) | (count & kCountMask);
        }
        void
        setFlag(std::uint32_t bit, bool value)
        {
            meta = value ? meta | bit : meta & ~bit;
        }
    };
    static_assert(sizeof(Entry) == 8, "eight entries per cache line");

    std::uint32_t indexOf(Addr pc) const;
    std::uint32_t tagOf(Addr pc) const;

    BiasTableParams params_;
    std::uint32_t indexMask_; ///< entries - 1, hoisted
    std::uint32_t tagShift_;  ///< log2(entries): tag by shift, not divide
    std::vector<Entry> entries_;
    std::uint64_t promotions_ = 0;
    std::uint64_t demotions_ = 0;
    obs::Tracer *tracer_ = nullptr;
};

} // namespace tcsim::bpred

#endif // TCSIM_BPRED_BIAS_TABLE_H
