/**
 * @file
 * tcsim-btrace-v1 format and record→replay round-trip tests: a trace
 * recorded from the oracle must drive the front end to a bit-identical
 * outcome stream (outcomeHash) and predictor-visible history
 * (finalHistory) on both a legacy and a server-class workload, and the
 * reader must reject truncated or corrupted files with a specific
 * reason rather than serving bad records. Golden digests pin what the
 * functional walker (warm-up, record, replay) leaves behind.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/fnv.h"
#include "sim/config.h"
#include "sim/processor.h"
#include "test_paths.h"
#include "workload/btrace.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace tcsim::workload
{
namespace
{

constexpr std::uint64_t kTraceInsts = 40000;

std::string
tracePath(const std::string &tag)
{
    return test::scratchPath(tag + ".btrace");
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** Record @p insts instructions of @p benchmark to @p path. */
sim::Processor::ControlFlowResult
recordBenchmark(const std::string &benchmark, const std::string &path,
                std::uint64_t insts)
{
    const BenchmarkProfile &profile = findProfile(benchmark);
    const Program program = generateProgram(profile);
    BtraceWriter writer(path, kGeneratorVersion,
                        profileFingerprint(profile), program.entry());
    sim::Processor recorder(sim::icacheConfig(), program);
    return recorder.recordTrace(writer, insts);
}

class BtraceRoundTrip : public testing::TestWithParam<const char *>
{
};

// The core bit-identity contract: replaying a recorded trace through a
// fresh front end reproduces every counter, the FNV outcome hash over
// each control transfer, and the final global history register — on a
// legacy profile and on a server-class profile (deep call chains,
// indirect dispatch, large code footprint).
TEST_P(BtraceRoundTrip, RecordReplayBitIdentical)
{
    const std::string benchmark = GetParam();
    const std::string path = tracePath(benchmark);
    const auto recorded = recordBenchmark(benchmark, path, kTraceInsts);
    ASSERT_GT(recorded.records, 0u);
    EXPECT_EQ(recorded.instructions, kTraceInsts);

    BtraceReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_EQ(reader.header().formatVersion, kBtraceFormatVersion);
    EXPECT_EQ(reader.header().generatorVersion, kGeneratorVersion);
    EXPECT_EQ(reader.header().profileFingerprint,
              profileFingerprint(findProfile(benchmark)));
    EXPECT_EQ(reader.header().instCount, recorded.instructions);
    EXPECT_EQ(reader.recordCount(), recorded.records);

    const Program program = generateProgram(findProfile(benchmark));
    sim::Processor replayer(sim::icacheConfig(), program);
    const auto replayed = replayer.replayTrace(reader);

    EXPECT_EQ(replayed.outcomeHash, recorded.outcomeHash);
    EXPECT_EQ(replayed.finalHistory, recorded.finalHistory);
    EXPECT_EQ(replayed.instructions, recorded.instructions);
    EXPECT_EQ(replayed.records, recorded.records);
    EXPECT_EQ(replayed.condBranches, recorded.condBranches);
    EXPECT_EQ(replayed.condMispredicts, recorded.condMispredicts);
    EXPECT_EQ(replayed.returns, recorded.returns);
    EXPECT_EQ(replayed.returnMispredicts, recorded.returnMispredicts);
    EXPECT_EQ(replayed.indirectJumps, recorded.indirectJumps);
    EXPECT_EQ(replayed.indirectMispredicts, recorded.indirectMispredicts);
    EXPECT_EQ(replayed.traps, recorded.traps);
    EXPECT_EQ(replayed.icacheAccesses, recorded.icacheAccesses);
    EXPECT_EQ(replayed.icacheMisses, recorded.icacheMisses);
    EXPECT_EQ(replayed.tcLookups, recorded.tcLookups);
    EXPECT_EQ(replayed.tcHits, recorded.tcHits);
    EXPECT_EQ(replayed.halted, recorded.halted);

    std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(LegacyAndServer, BtraceRoundTrip,
                         testing::Values("compress", "server-oltp"),
                         [](const auto &param_info) {
                             std::string name = param_info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

/** Golden digests of the functional walker's outputs, per combo. */
struct WalkerGolden
{
    const char *bench;
    const char *config;
    std::uint64_t warm;   ///< exportWarmState blob, then stats
    std::uint64_t record; ///< btrace bytes, then ControlFlowResult
    std::uint64_t replay; ///< ControlFlowResult, then stats
};

constexpr std::uint64_t kWalkerInsts = 200000;

constexpr WalkerGolden kWalkerGolden[] = {
    {"gcc", "icache", 0xb66888cfdc3e0ddeull, 0xb9225faf7df0894cull,
     0x5f8153567575dc54ull},
    {"gcc", "baseline", 0x66ea44bfd2b0b7edull, 0x17b428ec50d8bb0eull,
     0xd90c977795b3b371ull},
    {"gcc", "promo-pack", 0x1322f01a353d7d81ull, 0x7b346a348178b2ecull,
     0x6b4959abd906f167ull},
    {"go", "icache", 0xc7e0c9279c169882ull, 0xc9e46ebb42575dcdull,
     0x0b87fa7840ed8463ull},
    {"go", "baseline", 0xe0d9b77769f30474ull, 0x466d0959bfc65ee4ull,
     0xc5d6ca6e7265f93bull},
    {"go", "promo-pack", 0x84e0dbb83ce7b181ull, 0x2005387e36384ecdull,
     0xe52a81e9860a9157ull},
    {"server-oltp", "icache", 0x343ba79f35bd7273ull, 0x0c1a4528984c595eull,
     0x9780eb7ff0cc5397ull},
    {"server-oltp", "baseline", 0x52b8dac2fe38129eull, 0x0128ec691d32b36bull,
     0x6c83270f76be2780ull},
    {"server-oltp", "promo-pack", 0x1f8634d7c640b4b6ull, 0xc2d058e4a435da9eull,
     0x9775c2b53b674d5bull},
};

sim::ProcessorConfig
walkerConfig(const std::string &name)
{
    if (name == "icache")
        return sim::icacheConfig();
    if (name == "baseline")
        return sim::baselineConfig();
    return sim::promotionPackingConfig();
}

/** FNV-1a over every statistic: each name, then its value's bits. */
std::uint64_t
foldStats(std::uint64_t hash, const StatDump &stats)
{
    for (const auto &[name, value] : stats.entries()) {
        hash = fnv1aAppend(hash, name);
        hash = fnv1aAppendScalar(hash, value);
    }
    return hash;
}

/** FNV-1a over every ControlFlowResult field, in declaration order. */
std::uint64_t
foldControlFlow(std::uint64_t hash,
                const sim::Processor::ControlFlowResult &r)
{
    for (const std::uint64_t field :
         {r.instructions, r.records, r.condBranches, r.condMispredicts,
          r.returns, r.returnMispredicts, r.indirectJumps,
          r.indirectMispredicts, r.traps, r.icacheAccesses,
          r.icacheMisses, r.tcLookups, r.tcHits, r.outcomeHash,
          r.finalHistory}) {
        hash = fnv1aAppendScalar(hash, field);
    }
    return fnv1aAppendScalar(hash, static_cast<std::uint8_t>(r.halted));
}

// Record/replay agreement and the warm-state round trip only compare
// the walker with itself; these digests, captured from the simulator
// before warm-up, record and replay shared one walker, pin its
// absolute outputs so a change that moves every mode alike fails too.
TEST(FunctionalWalker, GoldenDigests)
{
    for (const WalkerGolden &row : kWalkerGolden) {
        SCOPED_TRACE(std::string(row.bench) + "/" + row.config);
        const BenchmarkProfile &profile = findProfile(row.bench);
        const Program program = generateProgram(profile);
        const sim::ProcessorConfig config = walkerConfig(row.config);

        sim::Processor warmer(config, program);
        warmer.functionalWarmup(kWalkerInsts);
        std::ostringstream blob;
        warmer.exportWarmState(blob);
        const std::uint64_t warm = foldStats(
            fnv1a(blob.str()), warmer.makeResult().stats);

        const std::string path = tracePath(row.bench);
        sim::Processor recorder(config, program);
        BtraceWriter writer(path, kGeneratorVersion,
                            profileFingerprint(profile), program.entry());
        const auto recorded = recorder.recordTrace(writer, kWalkerInsts);
        const std::uint64_t record =
            foldControlFlow(fnv1a(readFileBytes(path)), recorded);

        BtraceReader reader;
        std::string error;
        ASSERT_TRUE(reader.open(path, &error)) << error;
        sim::Processor replayer(config, program);
        const auto replayed = replayer.replayTrace(reader);
        const std::uint64_t replay =
            foldStats(foldControlFlow(kFnvOffsetBasis, replayed),
                      replayer.makeResult().stats);
        std::filesystem::remove(path);

        EXPECT_EQ(hashHex(warm), hashHex(row.warm));
        EXPECT_EQ(hashHex(record), hashHex(row.record));
        EXPECT_EQ(hashHex(replay), hashHex(row.replay));
    }
}

// openBytes() must validate an in-memory image (the artifact-cache
// path) exactly like open() validates a file, and serve identical
// records from the adopted buffer.
TEST(Btrace, OpenBytesMatchesOpen)
{
    const std::string path = tracePath("openbytes");
    recordBenchmark("compress", path, kTraceInsts);
    const std::string bytes = readFileBytes(path);

    BtraceReader from_file;
    BtraceReader from_bytes;
    std::string error;
    ASSERT_TRUE(from_file.open(path, &error)) << error;
    ASSERT_TRUE(from_bytes.openBytes(bytes, &error)) << error;
    ASSERT_EQ(from_file.recordCount(), from_bytes.recordCount());
    EXPECT_EQ(from_file.header().profileFingerprint,
              from_bytes.header().profileFingerprint);
    for (std::uint64_t i : {std::uint64_t{0},
                            from_file.recordCount() / 2,
                            from_file.recordCount() - 1}) {
        const BtraceRecord a = from_file.record(i);
        const BtraceRecord b = from_bytes.record(i);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.target, b.target);
        EXPECT_EQ(a.cls, b.cls);
        EXPECT_EQ(a.taken, b.taken);
    }
    std::filesystem::remove(path);
}

// Corruption rejection: every class of damage must be refused with the
// right reason, both from a file and from in-memory bytes.
class BtraceCorruption : public testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = tracePath("corrupt");
        recordBenchmark("compress", path_, 20000);
        good_ = readFileBytes(path_);
        ASSERT_GT(good_.size(), kBtraceHeaderBytes + kBtraceRecordBytes);
    }

    void TearDown() override { std::filesystem::remove(path_); }

    /** Expect both open paths to reject @p bytes citing @p reason. */
    void expectRejected(const std::string &bytes,
                        const std::string &reason)
    {
        writeFileBytes(path_, bytes);
        BtraceReader from_file;
        std::string error;
        EXPECT_FALSE(from_file.open(path_, &error));
        EXPECT_EQ(error, reason);
        BtraceReader from_bytes;
        error.clear();
        EXPECT_FALSE(from_bytes.openBytes(bytes, &error));
        EXPECT_EQ(error, reason);
    }

    std::string path_;
    std::string good_;
};

TEST_F(BtraceCorruption, TruncatedBelowHeader)
{
    expectRejected(good_.substr(0, kBtraceHeaderBytes - 1),
                   "file shorter than the btrace header");
}

TEST_F(BtraceCorruption, TruncatedMidRecord)
{
    expectRejected(good_.substr(0, good_.size() - 5),
                   "btrace size does not match its record count");
}

TEST_F(BtraceCorruption, BadMagic)
{
    std::string bytes = good_;
    bytes[0] ^= 0x40;
    expectRejected(bytes, "bad btrace magic");
}

TEST_F(BtraceCorruption, HeaderBitFlip)
{
    std::string bytes = good_;
    bytes[24] ^= 0x01; // entry pc — magic intact, checksum not
    expectRejected(bytes, "btrace header checksum mismatch");
}

TEST_F(BtraceCorruption, RecordBitFlip)
{
    std::string bytes = good_;
    bytes[kBtraceHeaderBytes + kBtraceRecordBytes + 3] ^= 0x01;
    expectRejected(bytes, "btrace record checksum mismatch");
}

// A record count of 2^60 + k times 16 wraps to the size of a k-record
// file. With its header checksum recomputed, only the size check
// stands between the reader and records past the end of the map.
TEST_F(BtraceCorruption, WrappedRecordCount)
{
    std::string bytes = good_;
    std::uint64_t count = 0;
    std::memcpy(&count, bytes.data() + 40, sizeof(count));
    count += std::uint64_t{1} << 60;
    std::memcpy(bytes.data() + 40, &count, sizeof(count));
    const std::uint64_t header_fnv =
        fnv1a(std::string_view(bytes).substr(0, 56));
    std::memcpy(bytes.data() + 56, &header_fnv, sizeof(header_fnv));
    expectRejected(bytes, "btrace size does not match its record count");
}

// A writer that never reaches close() leaves a zeroed header on disk:
// a crash mid-record must not yield a readable trace.
TEST_F(BtraceCorruption, UnclosedWriterIsRejected)
{
    std::string zeroed = good_;
    for (std::size_t i = 0; i < kBtraceHeaderBytes; ++i)
        zeroed[i] = '\0';
    expectRejected(zeroed, "bad btrace magic");
}

} // namespace
} // namespace tcsim::workload
