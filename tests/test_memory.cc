/**
 * @file
 * Tests for the cache model and the assembled hierarchy: hits, misses,
 * LRU replacement, write-back accounting, and latency composition.
 */

#include <gtest/gtest.h>

#include <vector>

#include "memory/cache.h"
#include "memory/hierarchy.h"
#include "obs/trace.h"

namespace tcsim::memory
{
namespace
{

CacheParams
smallCache()
{
    // 2 sets x 2 ways x 64B lines = 256 B.
    return CacheParams{"test", 256, 2, 64, 0};
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(smallCache(), nullptr, 50);
    EXPECT_EQ(cache.access(0x1000, false), 50u);
    EXPECT_EQ(cache.access(0x1000, false), 0u);
    EXPECT_EQ(cache.access(0x1030, false), 0u); // same line
    EXPECT_EQ(cache.accesses(), 3u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, SetConflictEvictsLru)
{
    Cache cache(smallCache(), nullptr, 50);
    // Three lines mapping to set 0 (line addr even): 0x000, 0x100, 0x200.
    cache.access(0x000, false);
    cache.access(0x100, false);
    cache.access(0x000, false); // touch: 0x100 becomes LRU
    cache.access(0x200, false); // evicts 0x100
    EXPECT_EQ(cache.access(0x000, false), 0u);
    EXPECT_NE(cache.access(0x100, false), 0u); // was evicted
}

TEST(Cache, ProbeDoesNotFill)
{
    Cache cache(smallCache(), nullptr, 50);
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_EQ(cache.misses(), 0u);
    cache.access(0x1000, false);
    EXPECT_TRUE(cache.probe(0x1000));
}

TEST(Cache, WritebackOnDirtyEviction)
{
    Cache cache(smallCache(), nullptr, 50);
    cache.access(0x000, true); // dirty
    cache.access(0x100, false);
    cache.access(0x200, false); // evicts dirty 0x000
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache cache(smallCache(), nullptr, 50);
    cache.access(0x000, false);
    cache.access(0x100, false);
    cache.access(0x200, false);
    EXPECT_EQ(cache.writebacks(), 0u);
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache cache(smallCache(), nullptr, 50);
    cache.access(0x1000, false);
    cache.flush();
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_NE(cache.access(0x1000, false), 0u);
}

TEST(Cache, FlushCountsDirtyWritebacks)
{
    Cache cache(smallCache(), nullptr, 50);
    cache.access(0x000, true);  // dirty
    cache.access(0x040, true);  // dirty, other set
    cache.access(0x100, false); // clean
    EXPECT_EQ(cache.writebacks(), 0u);
    cache.flush();
    EXPECT_EQ(cache.writebacks(), 2u); // one per dirty valid line
    cache.flush();
    EXPECT_EQ(cache.writebacks(), 2u); // idempotent once empty
}

TEST(Cache, FlushEmitsWritebackTracePoints)
{
    Cache cache(smallCache(), nullptr, 50);
    obs::Tracer tracer;
    auto sink = std::make_unique<obs::VectorSink>();
    obs::VectorSink *raw = sink.get();
    tracer.setMask(1u << static_cast<unsigned>(obs::Category::Mem));
    tracer.addSink(std::move(sink));
    cache.setTracer(&tracer);

    cache.access(0x000, true);
    cache.flush();
    unsigned flush_events = 0;
    for (const auto &rec : raw->records())
        if (rec.event == "flush_writeback")
            ++flush_events;
    EXPECT_EQ(flush_events, 1u);
}

TEST(Cache, LegacyDirtyEvictionCostsNothingBelow)
{
    CacheParams l2_params{"l2", 1024, 2, 64, 6};
    Cache l2(l2_params, nullptr, 50);
    Cache l1(smallCache(), &l2, 50);

    l1.access(0x000, true); // dirty; also fills l2
    l1.access(0x100, false);
    const std::uint64_t l2_accesses_before = l2.accesses();
    l1.access(0x200, false); // evicts dirty 0x000
    EXPECT_EQ(l1.writebacks(), 1u);
    // A writeback is counted, not charged: the victim never reaches
    // the next level.
    EXPECT_EQ(l2.accesses(), l2_accesses_before + 1); // demand miss only
}

TEST(Cache, MissRatio)
{
    Cache cache(smallCache(), nullptr, 50);
    cache.access(0x0, false);
    cache.access(0x0, false);
    cache.access(0x0, false);
    cache.access(0x0, false);
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.25);
}

TEST(Cache, LatencyComposesThroughLevels)
{
    CacheParams l2_params{"l2", 1024, 2, 64, 6};
    Cache l2(l2_params, nullptr, 50);
    CacheParams l1_params{"l1", 256, 2, 64, 0};
    Cache l1(l1_params, &l2, 50);

    // Cold: L1 miss + L2 miss -> 6 + 50.
    EXPECT_EQ(l1.access(0x4000, false), 56u);
    // L1 hit.
    EXPECT_EQ(l1.access(0x4000, false), 0u);
    // Evict from L1 but still in L2: L1 miss + L2 hit -> 6.
    l1.access(0x4100, false);
    l1.access(0x4200, false);
    EXPECT_EQ(l1.access(0x4000, false), 6u);
}

TEST(Cache, StatsDump)
{
    Cache cache(smallCache(), nullptr, 50);
    cache.access(0x0, false);
    StatDump dump;
    cache.dumpStats(dump);
    EXPECT_DOUBLE_EQ(dump.get("test.accesses"), 1.0);
    EXPECT_DOUBLE_EQ(dump.get("test.misses"), 1.0);
}

TEST(Cache, StatsDumpIsIntegersOnly)
{
    // Canonical-document policy: derived ratios are recomputed by the
    // display renderer, never stored in the dump.
    Cache cache(smallCache(), nullptr, 50);
    cache.access(0x0, false);
    cache.access(0x0, false);
    StatDump dump;
    cache.dumpStats(dump);
    EXPECT_FALSE(dump.has("test.miss_ratio"));
    for (const auto &[name, value] : dump.entries())
        EXPECT_EQ(value, static_cast<double>(
                             static_cast<std::uint64_t>(value)))
            << name << " is not an integer";
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache cache(smallCache(), nullptr, 50);
    cache.access(0x0, false);
    cache.resetStats();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.access(0x0, false), 0u); // still resident
}

TEST(Hierarchy, PaperGeometry)
{
    Hierarchy h;
    EXPECT_EQ(h.icache().lineBytes(), 64u);
    // 4 KB, 4-way, 64 B lines -> 16 sets.
    EXPECT_EQ(h.icache().numSets(), 16u);
    // 64 KB, 4-way -> 256 sets.
    EXPECT_EQ(h.dcache().numSets(), 256u);
}

TEST(Hierarchy, SharedL2BetweenIAndD)
{
    Hierarchy h;
    // Fill a line via the icache path, then the dcache finds it in L2.
    EXPECT_EQ(h.icache().access(0x8000, false), 56u);
    EXPECT_EQ(h.dcache().access(0x8000, false), 6u);
}

TEST(Hierarchy, StatsCoverAllLevels)
{
    Hierarchy h;
    h.icache().access(0x0, false);
    h.dcache().access(0x40, true);
    StatDump dump;
    h.dumpStats(dump);
    EXPECT_TRUE(dump.has("l1i.misses"));
    EXPECT_TRUE(dump.has("l1d.misses"));
    EXPECT_TRUE(dump.has("l2.misses"));
}

} // namespace
} // namespace tcsim::memory

namespace tcsim::memory
{
namespace
{

/**
 * Reference model of a set-associative, write-back LRU cache: each set
 * lists its lines MRU-last with a dirty bit, and evicting or flushing
 * a dirty line counts a writeback.
 */
class RefLru
{
  public:
    /** One resident line. */
    struct Entry
    {
        Addr line;
        bool dirty;
    };
    using Sets = std::vector<std::vector<Entry>>;

    RefLru(std::uint32_t sets, std::uint32_t ways, std::uint32_t line_bytes)
        : sets_(sets), ways_(ways), lineBytes_(line_bytes)
    {
    }

    /** @return true on a hit. */
    bool
    access(Addr addr, bool write)
    {
        const Addr line = addr / lineBytes_;
        std::vector<Entry> &set = sets_[line % sets_.size()];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->line == line) {
                const Entry hit{line, it->dirty || write};
                set.erase(it);
                set.push_back(hit);
                return true;
            }
        }
        if (set.size() == ways_) {
            writebacks_ += set.front().dirty ? 1 : 0;
            set.erase(set.begin());
        }
        set.push_back(Entry{line, write});
        return false;
    }

    void
    flush()
    {
        for (std::vector<Entry> &set : sets_) {
            for (const Entry &entry : set)
                writebacks_ += entry.dirty ? 1 : 0;
            set.clear();
        }
    }

    std::uint64_t writebacks() const { return writebacks_; }

  private:
    Sets sets_;
    std::uint32_t ways_;
    std::uint32_t lineBytes_;
    std::uint64_t writebacks_ = 0;
};

/**
 * Model-based property test: the cache's hit/miss behaviour must
 * match a straightforward reference model of set-associative LRU.
 */
TEST(CacheProperty, MatchesReferenceLruModel)
{
    const CacheParams params{"mbt", 1024, 4, 64, 0}; // 4 sets x 4 ways
    Cache cache(params, nullptr, 50);
    RefLru ref(cache.numSets(), 4, 64);

    std::uint64_t state = 12345;
    auto next = [&state] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state;
    };

    for (int i = 0; i < 20000; ++i) {
        // Small address space so sets conflict heavily.
        const Addr addr = (next() >> 20) % 16384;
        const bool ref_hit = ref.access(addr, false);
        const bool cache_hit = cache.access(addr, false) == 0;
        ASSERT_EQ(cache_hit, ref_hit) << "iteration " << i;
    }
    EXPECT_GT(cache.misses(), 100u);
    EXPECT_GT(cache.accesses() - cache.misses(), 100u);
}

/**
 * The repeat-line fast path against the same model: runs of 1-4
 * accesses to one line at different offsets, with writes and a flush
 * between two accesses to one line.
 */
TEST(CacheProperty, RepeatLineRunsMatchReferenceLruModel)
{
    const CacheParams params{"repeat", 1024, 4, 64, 0}; // 4 sets x 4 ways
    Cache cache(params, nullptr, 50);
    RefLru ref(cache.numSets(), 4, 64);

    std::uint64_t state = 67890;
    auto next = [&state] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    };
    const auto check = [&](Addr addr, bool write, int run) {
        const bool ref_hit = ref.access(addr, write);
        ASSERT_EQ(cache.access(addr, write) == 0, ref_hit) << "run " << run;
        ASSERT_EQ(cache.writebacks(), ref.writebacks()) << "run " << run;
    };

    unsigned flushes = 0;
    for (int run = 0; run < 6000; ++run) {
        // 64 lines over 16 ways: runs often return to an evicted line.
        const Addr line = next() % 64;
        const unsigned length = 1 + next() % 4;
        for (unsigned k = 0; k < length; ++k) {
            if (k == 1 && next() % 16 == 0) {
                cache.flush();
                ref.flush();
                ++flushes;
                ASSERT_EQ(cache.writebacks(), ref.writebacks());
            }
            check(line * 64 + next() % 64, next() % 3 == 0, run);
        }
    }
    EXPECT_GT(flushes, 50u);
    EXPECT_GT(cache.writebacks(), 100u);
    EXPECT_GT(cache.accesses() - cache.misses(), 1000u);
}

} // namespace
} // namespace tcsim::memory

namespace tcsim::memory
{
namespace
{

TEST(CacheDeath, BadGeometryAborts)
{
    CacheParams params{"bad", 100, 3, 48, 0};
    EXPECT_DEATH(Cache(params, nullptr, 50), "");
}

TEST(CacheDeath, NonPowerOfTwoSetCountAborts)
{
    // 768 B / (4 ways x 64 B) = 3 sets: indexing is shift and mask.
    CacheParams params{"odd", 768, 4, 64, 0};
    EXPECT_DEATH(Cache(params, nullptr, 50), "set count not pow2");
}

} // namespace
} // namespace tcsim::memory
