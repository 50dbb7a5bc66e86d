/**
 * @file
 * Near-zero-overhead categorised trace points, in the spirit of gem5's
 * DPRINTF.
 *
 * Components hold a raw `Tracer *` (null by default). The
 * TCSIM_TPOINT macro compiles the disabled path down to a single
 * predictable branch (null-check fused with the category-mask test);
 * formatting, timestamping, and sink dispatch happen only when the
 * category is enabled. Timestamps come from a clock pointer attached
 * by the owning Processor, so leaf components (caches, bias table)
 * never need to know about simulated time.
 *
 * Sinks translate TraceRecords into one of three formats:
 *   - text:   "cyc 123 tc hit addr=0x40"         (human, greppable)
 *   - jsonl:  {"t":123,"cat":"tc","ev":"hit","detail":"addr=0x40"}
 *   - chrome: Chrome trace_event JSON ("ts" = simulated cycle), loadable
 *             in chrome://tracing / Perfetto.
 * Text and JSONL writes go through logLineAtomic() so thread-pool runs
 * never interleave mid-line.
 */

#ifndef TCSIM_OBS_TRACE_H
#define TCSIM_OBS_TRACE_H

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace tcsim::obs
{

/** Trace-point categories; one bit each in Tracer's enable mask. */
enum class Category : std::uint8_t {
    Fetch = 0, ///< fetch engine: TC vs icache supply, stalls
    TC,        ///< trace cache: lookups, inserts, replacements
    Fill,      ///< fill unit: segment finalization, resyncs
    Promote,   ///< bias table: promotions, demotions, embedded branches
    Bpred,     ///< branch outcomes: mispredicts, promoted faults
    Mem,       ///< cache hierarchy: misses, writebacks
    Core,      ///< pipeline core: recoveries
    NumCategories,
};

inline constexpr unsigned kNumCategories =
    static_cast<unsigned>(Category::NumCategories);

/** @return the lower-case CLI name for @p cat ("fetch", "tc", ...). */
const char *categoryName(Category cat);

/** Parse one category name; @return false if unknown. */
bool categoryFromName(const std::string &name, Category &out);

/**
 * Parse a comma-separated category list ("tc,promote") or "all" into an
 * enable mask. @return false and set @p error (if non-null) on an
 * unknown name.
 */
bool parseCategoryList(const std::string &list, std::uint32_t &mask,
                       std::string *error = nullptr);

/** One formatted trace event, valid only for the duration of write(). */
struct TraceRecord {
    std::uint64_t cycle = 0; ///< simulated cycle (0 if no clock attached)
    Category cat = Category::Core;
    const char *event = "";  ///< static event name, e.g. "hit"
    const char *detail = ""; ///< formatted payload, e.g. "addr=0x40"
};

/** Output backend for trace records. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void write(const TraceRecord &rec) = 0;
    /** Flush buffered output (Chrome sink writes its footer here). */
    virtual void flush() {}
};

/** Wire formats a sink can produce. */
enum class SinkFormat { Text, Jsonl, Chrome };

/** Parse "text" / "jsonl" / "chrome"; @return false if unknown. */
bool sinkFormatFromName(const std::string &name, SinkFormat &out);

/** Infer a format from a path: .jsonl -> Jsonl, .json -> Chrome,
 * anything else -> Text. */
SinkFormat inferSinkFormat(const std::string &path);

/**
 * Open a sink of @p format writing to @p path; an empty path means
 * stderr (shared with warn()/inform() via the line guard). @return
 * null and set @p error if the file cannot be opened.
 */
std::unique_ptr<TraceSink> makeSink(SinkFormat format,
                                    const std::string &path,
                                    std::string *error = nullptr);

/** In-memory sink for tests: stores owned copies of every record. */
class VectorSink : public TraceSink
{
  public:
    struct Stored {
        std::uint64_t cycle;
        Category cat;
        std::string event;
        std::string detail;
    };

    void
    write(const TraceRecord &rec) override
    {
        records_.push_back(
            {rec.cycle, rec.cat, rec.event, rec.detail});
    }

    const std::vector<Stored> &records() const { return records_; }

  private:
    std::vector<Stored> records_;
};

/**
 * Category-filtered event dispatcher. One Tracer per Processor; not
 * thread-safe itself (each thread-pool worker owns its own), but its
 * text/JSONL sinks serialize whole lines through the global log guard.
 */
class Tracer
{
  public:
    void
    enable(Category cat)
    {
        mask_ |= 1u << static_cast<unsigned>(cat);
    }

    void enableAll() { mask_ = (1u << kNumCategories) - 1; }
    void setMask(std::uint32_t mask) { mask_ = mask; }
    std::uint32_t mask() const { return mask_; }

    bool
    enabled(Category cat) const
    {
        return (mask_ >> static_cast<unsigned>(cat)) & 1u;
    }

    /** Attach the simulated-cycle counter used to stamp records. */
    void attachClock(const std::uint64_t *cycle) { clock_ = cycle; }

    void
    addSink(std::unique_ptr<TraceSink> sink)
    {
        sinks_.push_back(std::move(sink));
    }

    /** @return the number of records emitted (post-filter). */
    std::uint64_t emitted() const { return emitted_; }

    /** Flush all sinks (finalizes the Chrome footer). */
    void flush();

    /**
     * Format and dispatch one record to every sink. Call through
     * TCSIM_TPOINT, which performs the enabled() check; calling emit()
     * directly bypasses filtering on purpose (tests).
     */
    void emit(Category cat, const char *event, const char *fmt, ...)
        __attribute__((format(printf, 4, 5)));

  private:
    std::uint32_t mask_ = 0;
    const std::uint64_t *clock_ = nullptr;
    std::uint64_t emitted_ = 0;
    std::vector<std::unique_ptr<TraceSink>> sinks_;
};

} // namespace tcsim::obs

/**
 * Emit a trace point. @p tracer is a (possibly null) Tracer*;
 * @p category is an unqualified Category enumerator (Fetch, TC, ...);
 * @p event is a static string; the rest is a printf format + args for
 * the detail payload.
 *
 * Disabled cost: the null-check and mask test fuse into one
 * predictable, never-taken branch; no arguments are evaluated.
 * Define TCSIM_DISABLE_TRACEPOINTS to compile trace points out
 * entirely (used to calibrate BM_TraceOverhead).
 */
#ifndef TCSIM_DISABLE_TRACEPOINTS
#define TCSIM_TPOINT(tracer, category, event, ...)                          \
    do {                                                                    \
        ::tcsim::obs::Tracer *tcsim_tp_ = (tracer);                         \
        if (__builtin_expect(tcsim_tp_ != nullptr &&                        \
                                 tcsim_tp_->enabled(                        \
                                     ::tcsim::obs::Category::category),     \
                             0)) {                                          \
            tcsim_tp_->emit(::tcsim::obs::Category::category, event,        \
                            __VA_ARGS__);                                   \
        }                                                                   \
    } while (0)
#else
#define TCSIM_TPOINT(tracer, category, event, ...)                          \
    do {                                                                    \
    } while (0)
#endif

#endif // TCSIM_OBS_TRACE_H
