/**
 * @file
 * Completion calendar: the detailed core's pending completion events,
 * bucketed by the cycle they complete in. Scheduling an event and
 * draining a cycle cost work per event; the cycles in between cost
 * nothing.
 */

#ifndef TCSIM_CORE_COMPLETION_CALENDAR_H
#define TCSIM_CORE_COMPLETION_CALENDAR_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace tcsim::core
{

/**
 * Events (cycle, seq) drained in (cycle, seq) order, the order a
 * min-heap of the pairs pops in: the processor's wakeup order, and so
 * its ready-queue and issue order, depends on it.
 *
 * Bucket b holds the events of the one cycle c in (drained, drained +
 * buckets] with c mod buckets == b, kept sorted by seq as they arrive
 * (they arrive nearly sorted, so inserting from the back is short).
 * All buckets share one flat array of equal-width rows, allocated at
 * the first event. An event due past the horizon widens it in one
 * step to the next power of two (at least doubling it), and a full
 * bucket doubles the row width; neither assumes any latency.
 *
 * An event due at or before the last drained cycle is late (a
 * zero-latency operation scheduled after its cycle drained). It waits
 * in a short list kept in (cycle, seq) order, which the next drain
 * empties first: every late cycle precedes every bucketed one.
 */
class CompletionCalendar
{
  public:
    /** No event is pending. */
    bool
    empty() const
    {
        return size_ == 0 && late_.empty();
    }

    /** Add the event that @p seq completes at @p cycle. */
    void
    schedule(Cycle cycle, InstSeqNum seq)
    {
        if (cycle <= drained_) {
            const std::pair<Cycle, InstSeqNum> event{cycle, seq};
            late_.insert(std::upper_bound(late_.begin(), late_.end(), event),
                         event);
            return;
        }
        if (cycle - drained_ > buckets_)
            growBuckets(cycle - drained_);
        const std::uint32_t bucket =
            static_cast<std::uint32_t>(cycle & mask_);
        if (count_[bucket] == width_)
            growWidth();
        InstSeqNum *row = &slots_[std::size_t{bucket} * width_];
        std::uint32_t i = count_[bucket]++;
        for (; i > 0 && row[i - 1] > seq; --i)
            row[i] = row[i - 1];
        row[i] = seq;
        ++size_;
    }

    /**
     * Call @p fn(seq) for every event due at or before @p now, in
     * (cycle, seq) order, then mark every cycle up to @p now drained.
     * @p fn must not call schedule().
     */
    template <typename Fn>
    void
    drainThrough(Cycle now, Fn &&fn)
    {
        TCSIM_ASSERT(now >= drained_);
        if (!late_.empty()) {
            for (const auto &event : late_)
                fn(event.second);
            late_.clear();
        }
        for (; drained_ < now && size_ > 0;) {
            ++drained_;
            const std::uint32_t bucket =
                static_cast<std::uint32_t>(drained_ & mask_);
            const std::uint32_t n = count_[bucket];
            if (n == 0)
                continue;
            count_[bucket] = 0;
            size_ -= n;
            const InstSeqNum *row = &slots_[std::size_t{bucket} * width_];
            for (std::uint32_t i = 0; i < n; ++i)
                fn(row[i]);
        }
        drained_ = now;
    }

  private:
    /** Widen the horizon to at least @p ahead cycles (to the next power
     * of two, and at least double): each bucket's cycle is the one in
     * the old horizon it stands for, so its whole row moves to that
     * cycle's new bucket. */
    void
    growBuckets(Cycle ahead)
    {
        TCSIM_ASSERT(ahead <= Cycle{1} << 30,
                     "completion event %llu cycles ahead",
                     static_cast<unsigned long long>(ahead));
        const std::uint32_t bigger = static_cast<std::uint32_t>(
            std::bit_ceil(std::max<Cycle>(ahead, Cycle{buckets_} * 2)));
        std::vector<InstSeqNum> slots(std::size_t{bigger} * width_);
        std::vector<std::uint32_t> count(bigger, 0);
        for (std::uint32_t b = 0; b < buckets_; ++b) {
            const Cycle cycle = drained_ + 1 + ((b - (drained_ + 1)) & mask_);
            const std::uint32_t to =
                static_cast<std::uint32_t>(cycle & (bigger - 1));
            std::copy_n(&slots_[std::size_t{b} * width_], count_[b],
                        &slots[std::size_t{to} * width_]);
            count[to] = count_[b];
        }
        slots_ = std::move(slots);
        count_ = std::move(count);
        buckets_ = bigger;
        mask_ = bigger - 1;
    }

    /** Double every row's width in place of a full one. */
    void
    growWidth()
    {
        const std::uint32_t wider = width_ * 2;
        std::vector<InstSeqNum> slots(std::size_t{buckets_} * wider);
        for (std::uint32_t b = 0; b < buckets_; ++b) {
            std::copy_n(&slots_[std::size_t{b} * width_], count_[b],
                        &slots[std::size_t{b} * wider]);
        }
        slots_ = std::move(slots);
        width_ = wider;
    }

    std::uint32_t buckets_ = 0; ///< power of two once an event came
    std::uint64_t mask_ = 0;
    std::uint32_t width_ = 8;   ///< events a bucket's row holds
    std::vector<InstSeqNum> slots_;
    std::vector<std::uint32_t> count_; ///< events in each bucket
    std::size_t size_ = 0; ///< bucketed events
    Cycle drained_ = 0;
    std::vector<std::pair<Cycle, InstSeqNum>> late_;
};

} // namespace tcsim::core

#endif // TCSIM_CORE_COMPLETION_CALENDAR_H
