/**
 * @file
 * Tests for the workload substrate: program builder, functional
 * executor, sparse memory, generator determinism and the benchmark
 * suite's stream properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <thread>

#include "workload/builder.h"
#include "workload/characterize.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/profile.h"
#include "workload/program.h"

namespace tcsim::workload
{
namespace
{

using isa::Opcode;

// ----------------------------------------------------------------------
// SparseMemory.
// ----------------------------------------------------------------------

TEST(SparseMemory, UnmappedReadsZero)
{
    SparseMemory mem;
    EXPECT_EQ(mem.load(0x123456789ULL), 0u);
    EXPECT_EQ(mem.numPages(), 0u);
}

TEST(SparseMemory, StoreLoadRoundTrip)
{
    SparseMemory mem;
    mem.store(0x1000, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mem.load(0x1000), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mem.numPages(), 1u);
}

TEST(SparseMemory, AccessesForceAligned)
{
    SparseMemory mem;
    mem.store(0x1003, 42); // aligns down to 0x1000
    EXPECT_EQ(mem.load(0x1000), 42u);
    EXPECT_EQ(mem.load(0x1007), 42u);
    EXPECT_EQ(mem.load(0x1008), 0u);
}

TEST(SparseMemory, DistinctPages)
{
    SparseMemory mem;
    mem.store(0x0, 1);
    mem.store(0x10000, 2);
    EXPECT_EQ(mem.numPages(), 2u);
    EXPECT_EQ(mem.load(0x0), 1u);
    EXPECT_EQ(mem.load(0x10000), 2u);
}

/** A program whose data image spans two pages. */
Program
twoPageProgram()
{
    ProgramBuilder b("cow");
    b.setData(kDataBase, 0x11);
    b.setData(kDataBase + 8, 0x22);
    b.setData(kDataBase + kPageBytes, 0x33);
    b.halt();
    return b.build();
}

constexpr Addr kPage0 = kDataBase / kPageBytes;

TEST(SparseMemory, InitFromSharesProgramPages)
{
    const Program p = twoPageProgram();
    SparseMemory mem;
    mem.initFrom(p);
    ASSERT_EQ(p.dataPages().size(), 2u);
    EXPECT_EQ(mem.pageIndices(), (std::vector<Addr>{kPage0, kPage0 + 1}));
    for (const DataPage &page : p.dataPages())
        EXPECT_EQ(mem.pageData(page.index), page.bytes.data());
    EXPECT_EQ(mem.load(kDataBase + 8), 0x22u);
    EXPECT_EQ(mem.load(kDataBase + 16), 0u);
    EXPECT_EQ(mem.load(kDataBase + kPageBytes), 0x33u);
}

TEST(SparseMemory, StoreIntoSharedPageCopiesIt)
{
    const Program p = twoPageProgram();
    const PageBytes before = p.dataPages()[0].bytes;
    SparseMemory a, b;
    a.initFrom(p);
    b.initFrom(p);
    a.store(kDataBase, 0x99);
    EXPECT_EQ(a.load(kDataBase), 0x99u);
    EXPECT_EQ(a.load(kDataBase + 8), 0x22u); // the copy keeps the rest
    EXPECT_EQ(b.load(kDataBase), 0x11u);
    EXPECT_EQ(p.dataPages()[0].bytes, before);
    EXPECT_NE(a.pageData(kPage0), p.dataPages()[0].bytes.data());
    EXPECT_EQ(a.pageData(kPage0 + 1), p.dataPages()[1].bytes.data());
    EXPECT_EQ(a.numPages(), 2u);
}

TEST(SparseMemory, CopyFromIsIndependentBothWays)
{
    const Program p = twoPageProgram();
    const PageBytes before = p.dataPages()[1].bytes;
    SparseMemory src, copy;
    src.initFrom(p);
    src.store(kDataBase, 0x1); // src owns page 0; page 1 stays shared
    copy.copyFrom(src);
    EXPECT_EQ(copy.pageIndices(), src.pageIndices());
    EXPECT_EQ(copy.load(kDataBase), 0x1u);
    EXPECT_EQ(copy.pageData(kPage0 + 1), p.dataPages()[1].bytes.data());

    src.store(kDataBase, 0x2);
    src.store(kDataBase + kPageBytes, 0x3);
    EXPECT_EQ(copy.load(kDataBase), 0x1u);
    EXPECT_EQ(copy.load(kDataBase + kPageBytes), 0x33u);

    copy.store(kDataBase + 8, 0x4);
    copy.store(kDataBase + kPageBytes + 8, 0x5);
    copy.store(0x1000, 0x6); // a page neither had
    EXPECT_EQ(src.load(kDataBase + 8), 0x22u);
    EXPECT_EQ(src.load(kDataBase + kPageBytes + 8), 0u);
    EXPECT_EQ(src.load(0x1000), 0u);
    EXPECT_EQ(src.numPages(), 2u);
    EXPECT_EQ(copy.numPages(), 3u);
    EXPECT_EQ(p.dataPages()[1].bytes, before);
}

TEST(SparseMemory, PageDataAfterStoreSeesTheStore)
{
    const Program p = twoPageProgram();
    SparseMemory mem;
    mem.initFrom(p);
    mem.store(kDataBase + 16, 0x77);
    std::array<std::uint64_t, 3> words{};
    std::memcpy(words.data(), mem.pageData(kPage0), sizeof(words));
    EXPECT_EQ(words, (std::array<std::uint64_t, 3>{0x11, 0x22, 0x77}));
}

// ----------------------------------------------------------------------
// ProgramBuilder.
// ----------------------------------------------------------------------

/** @return the initial value of the data word at @p addr, if any. */
std::optional<std::uint64_t>
initWord(const Program &p, Addr addr)
{
    const std::vector<DataWord> &data = p.initData();
    const auto it = std::lower_bound(
        data.begin(), data.end(), addr,
        [](const DataWord &word, Addr a) { return word.addr < a; });
    if (it == data.end() || it->addr != addr)
        return std::nullopt;
    return it->value;
}

TEST(Builder, ForwardAndBackwardBranchFixups)
{
    ProgramBuilder b("t");
    Label top = b.here();
    b.addi(3, 3, 1);
    Label fwd = b.newLabel();
    b.beq(3, 0, fwd);   // forward
    b.bne(3, 0, top);   // backward
    b.bind(fwd);
    b.halt();
    Program p = b.build();

    const isa::Instruction &beq = p.fetch(kCodeBase + 4);
    EXPECT_EQ(isa::directTarget(beq, kCodeBase + 4), kCodeBase + 12);
    const isa::Instruction &bne = p.fetch(kCodeBase + 8);
    EXPECT_EQ(isa::directTarget(bne, kCodeBase + 8), kCodeBase);
}

TEST(Builder, DataAllocationAlignedAndDisjoint)
{
    ProgramBuilder b("t");
    const Addr a1 = b.allocData(10);
    const Addr a2 = b.allocData(8);
    EXPECT_EQ(a1 % 8, 0u);
    EXPECT_EQ(a2 % 8, 0u);
    EXPECT_GE(a2, a1 + 10);
    b.halt();
    (void)b.build();
}

TEST(Builder, DataLabelsResolveToCode)
{
    ProgramBuilder b("t");
    const Addr slot = b.allocData(8);
    b.nop();
    Label target = b.newLabel();
    b.setDataLabel(slot, target);
    b.bind(target);
    b.halt();
    Program p = b.build();
    EXPECT_EQ(initWord(p, slot), kCodeBase + 4);
}

TEST(Builder, RepeatedSetDataKeepsLast)
{
    ProgramBuilder b("t");
    const Addr a = b.allocData(16);
    b.setData(a, 1);
    b.setData(a + 8, 2);
    b.setData(a, 3);
    b.halt();
    const Program p = b.build();
    EXPECT_EQ(p.initData(), (std::vector<DataWord>{{a, 3}, {a + 8, 2}}));
}

TEST(Builder, LabelWordWinsOverSetDataInEitherOrder)
{
    ProgramBuilder b("t");
    const Addr a = b.allocData(16);
    Label target = b.newLabel();
    b.setData(a, 5);
    b.setDataLabel(a, target);
    b.setDataLabel(a + 8, target);
    b.setData(a + 8, 7);
    b.nop();
    b.bind(target);
    b.halt();
    const Program p = b.build();
    EXPECT_EQ(p.initData(), (std::vector<DataWord>{{a, kCodeBase + 4},
                                                   {a + 8, kCodeBase + 4}}));
}

TEST(Builder, OutOfOrderWritesComeOutSorted)
{
    ProgramBuilder b("t");
    const Addr a = b.allocData(4 * kPageBytes);
    b.setData(a + 3 * kPageBytes, 4);
    b.setData(a + 8, 2);
    b.setData(a, 1);
    b.setData(a + kPageBytes, 3);
    b.halt();
    const Program p = b.build();
    EXPECT_EQ(p.initData(),
              (std::vector<DataWord>{{a, 1},
                                     {a + 8, 2},
                                     {a + kPageBytes, 3},
                                     {a + 3 * kPageBytes, 4}}));
    ASSERT_EQ(p.dataPages().size(), 3u);
    SparseMemory mem;
    mem.initFrom(p);
    for (const DataWord &word : p.initData())
        EXPECT_EQ(mem.load(word.addr), word.value);
}

TEST(Builder, LoadImm64TwoInstructionSequence)
{
    ProgramBuilder b("t");
    b.loadImm64(5, 0xabcd1234);
    b.halt();
    Program p = b.build();
    FunctionalExecutor exec(p);
    exec.step();
    exec.step();
    EXPECT_EQ(exec.reg(5), 0xabcd1234u);
}

TEST(Builder, EntryDefaultsToCodeBase)
{
    ProgramBuilder b("t");
    b.halt();
    EXPECT_EQ(b.build().entry(), kCodeBase);
}

TEST(Builder, GeneratedEncodingsRoundTrip)
{
    // Every instruction a generated benchmark emits must be encodable.
    BenchmarkProfile profile = benchmarkSuite().front();
    profile.numFunctions = 12;
    Program p = generateProgram(profile);
    for (Addr a = p.codeBase(); a < p.codeLimit(); a += isa::kInstBytes) {
        const isa::Instruction &inst = p.fetch(a);
        ASSERT_EQ(isa::decode(isa::encode(inst)), inst)
            << isa::disassemble(inst, a);
    }
}

// ----------------------------------------------------------------------
// Program image.
// ----------------------------------------------------------------------

TEST(Program, FetchOutsideCodeReturnsNop)
{
    ProgramBuilder b("t");
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.fetch(0x4).op, Opcode::Nop);
    EXPECT_EQ(p.fetch(p.codeLimit()).op, Opcode::Nop);
    EXPECT_EQ(p.fetch(kCodeBase + 2).op, Opcode::Nop); // misaligned
}

TEST(Program, IsCodeBounds)
{
    ProgramBuilder b("t");
    b.nop();
    b.halt();
    Program p = b.build();
    EXPECT_TRUE(p.isCode(kCodeBase));
    EXPECT_TRUE(p.isCode(kCodeBase + 4));
    EXPECT_FALSE(p.isCode(kCodeBase + 8));
    EXPECT_FALSE(p.isCode(kCodeBase - 4));
}

// ----------------------------------------------------------------------
// FunctionalExecutor on hand-written programs.
// ----------------------------------------------------------------------

TEST(Executor, ArithmeticAndHalt)
{
    ProgramBuilder b("t");
    b.addi(3, 0, 7);
    b.addi(4, 0, 5);
    b.add(5, 3, 4);
    b.mul(6, 3, 4);
    b.sub(7, 3, 4);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(5), 12u);
    EXPECT_EQ(exec.reg(6), 35u);
    EXPECT_EQ(static_cast<std::int64_t>(exec.reg(7)), 2);
    EXPECT_EQ(exec.instCount(), 6u);
}

TEST(Executor, LoopSum)
{
    // sum = 1 + 2 + ... + 10
    ProgramBuilder b("t");
    b.addi(3, 0, 10); // i = 10
    b.addi(4, 0, 0);  // sum = 0
    Label top = b.here();
    b.add(4, 4, 3);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(4), 55u);
}

TEST(Executor, CallAndReturn)
{
    ProgramBuilder b("t");
    Label fn = b.newLabel();
    b.call(fn);
    b.addi(4, 3, 1); // after return: r4 = r3 + 1
    b.halt();
    b.bind(fn);
    b.addi(3, 0, 41);
    b.ret();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(4), 42u);
}

TEST(Executor, JumpTableDispatch)
{
    ProgramBuilder b("t");
    const Addr table = b.allocData(16);
    Label case0 = b.newLabel(), case1 = b.newLabel(), join = b.newLabel();
    b.setDataLabel(table, case0);
    b.setDataLabel(table + 8, case1);
    // select case 1
    b.loadImm64(5, static_cast<std::uint32_t>(table));
    b.ld(6, 8, 5);
    b.jr(6);
    b.bind(case0);
    b.addi(7, 0, 100);
    b.j(join);
    b.bind(case1);
    b.addi(7, 0, 200);
    b.j(join);
    b.bind(join);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(7), 200u);
}

TEST(Executor, MemoryStoreLoad)
{
    ProgramBuilder b("t");
    const Addr buf = b.allocData(64);
    b.loadImm64(5, static_cast<std::uint32_t>(buf));
    b.addi(6, 0, 77);
    b.st(6, 16, 5);
    b.ld(7, 16, 5);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(7), 77u);
    EXPECT_EQ(exec.memory().load(buf + 16), 77u);
}

TEST(Executor, InitialDataVisible)
{
    ProgramBuilder b("t");
    const Addr buf = b.allocData(8);
    b.setData(buf, 0x1234);
    b.loadImm64(5, static_cast<std::uint32_t>(buf));
    b.ld(6, 0, 5);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(6), 0x1234u);
}

TEST(Executor, BranchDirectionsAndShifts)
{
    ProgramBuilder b("t");
    b.addi(3, 0, -5);
    b.addi(4, 0, 5);
    b.slt(5, 3, 4);   // signed: 1
    b.sltu(6, 3, 4);  // unsigned: huge > 5 -> 0
    b.srli(7, 4, 1);  // 2
    b.sra(8, 3, 7);   // -5 >> 2 = -2
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(5), 1u);
    EXPECT_EQ(exec.reg(6), 0u);
    EXPECT_EQ(static_cast<std::int64_t>(exec.reg(8)), -2);
}

TEST(Executor, DivByZeroDefined)
{
    ProgramBuilder b("t");
    b.addi(3, 0, 9);
    b.div(5, 3, 0);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(5), ~std::uint64_t{0});
}

TEST(Executor, StepAfterHaltIsIdempotent)
{
    ProgramBuilder b("t");
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    exec.step();
    EXPECT_TRUE(exec.halted());
    const Addr pc = exec.pc();
    const StepResult r = exec.step();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(exec.pc(), pc);
}

TEST(Executor, TakenRecordsAndNextPc)
{
    ProgramBuilder b("t");
    Label t = b.newLabel();
    b.addi(3, 0, 1);
    b.bne(3, 0, t); // taken
    b.nop();
    b.bind(t);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    exec.step();
    const StepResult r = exec.step();
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextPc, kCodeBase + 12);
}

// ----------------------------------------------------------------------
// Generator and suite.
// ----------------------------------------------------------------------

TEST(Generator, DeterministicForSeed)
{
    const BenchmarkProfile &profile = benchmarkSuite().front();
    Program a = generateProgram(profile);
    Program c = generateProgram(profile);
    ASSERT_EQ(a.codeSize(), c.codeSize());
    for (Addr addr = a.codeBase(); addr < a.codeLimit();
         addr += isa::kInstBytes) {
        ASSERT_EQ(a.fetch(addr), c.fetch(addr));
    }
    EXPECT_EQ(a.initData(), c.initData());
}

TEST(Generator, SeedChangesProgram)
{
    BenchmarkProfile profile = benchmarkSuite().front();
    Program a = generateProgram(profile);
    profile.seed += 1;
    Program c = generateProgram(profile);
    EXPECT_NE(a.codeSize(), c.codeSize());
}

TEST(Suite, HasFifteenBenchmarks)
{
    EXPECT_EQ(benchmarkSuite().size(), 15u);
}

TEST(Suite, FindProfileByName)
{
    EXPECT_EQ(findProfile("gcc").name, "gcc");
    EXPECT_EQ(findProfile("tex").name, "tex");
}

class SuiteStream : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteStream, StreamPropertiesInRange)
{
    const BenchmarkProfile &profile = findProfile(GetParam());
    Program p = generateProgram(profile);
    const WorkloadStats ws = characterize(p, 120000);

    EXPECT_EQ(ws.instCount, 120000u) << "program halted early";

    // Conditional-branch density typical of integer code.
    const double cond_frac =
        static_cast<double>(ws.condBranches) / ws.instCount;
    EXPECT_GT(cond_frac, 0.04);
    EXPECT_LT(cond_frac, 0.30);

    // Fill-block sizes in the range the trace cache responds to.
    EXPECT_GT(ws.avgFillBlockSize, 3.0);
    EXPECT_LT(ws.avgFillBlockSize, 13.0);

    // Taken fraction typical of loops + forward branches.
    const double taken =
        static_cast<double>(ws.condTaken) / ws.condBranches;
    EXPECT_GT(taken, 0.4);
    EXPECT_LT(taken, 0.98);

    // The stream must contain calls, returns and some indirection.
    EXPECT_GT(ws.calls, 0u);
    // The window can cut mid-call: allow the nesting depth as slack.
    EXPECT_NEAR(static_cast<double>(ws.calls),
                static_cast<double>(ws.returns), 8.0);
    EXPECT_GT(ws.indirectJumps, 0u);

    // A healthy share of dynamic branches continues long
    // same-direction runs (the promotion population).
    EXPECT_GT(ws.fracDynLongRun, 0.10);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteStream,
    ::testing::Values("compress", "gcc", "go", "ijpeg", "li", "m88ksim",
                      "perl", "vortex", "gnuchess", "ghostscript", "pgp",
                      "python", "gnuplot", "sim-outorder", "tex"),
    [](const ::testing::TestParamInfo<std::string> &param_info) {
        std::string name = param_info.param;
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });

} // namespace
} // namespace tcsim::workload

namespace tcsim::workload
{
namespace
{

TEST(ProfileStaticBias, FindsBiasedSitesWithDirections)
{
    // A loop with a never-taken check and a strongly-taken latch.
    ProgramBuilder b("prof");
    b.addi(3, 0, 2000);
    Label top = b.here();
    Label cold = b.newLabel();
    const Addr check_pc = b.pc();
    b.bne(0, 0, cold); // never taken
    b.addi(4, 4, 1);
    const Addr latch_pc = b.pc();
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    b.bind(cold);
    b.j(top);
    Program p = b.build();

    const auto biased = profileStronglyBiased(p, 100000, 0.98, 16);
    ASSERT_TRUE(biased.count(check_pc));
    EXPECT_FALSE(biased.at(check_pc)); // dominant direction: not taken
    ASSERT_TRUE(biased.count(latch_pc + isa::kInstBytes));
    EXPECT_TRUE(biased.at(latch_pc + isa::kInstBytes)); // latch: taken
}

TEST(ProfileStaticBias, IgnoresRareAndUnbiasedSites)
{
    ProgramBuilder b("prof2");
    b.addi(3, 0, 400);
    Label top = b.here();
    b.andi(5, 3, 1);
    Label skip = b.newLabel();
    const Addr alternating_pc = b.pc();
    b.beq(5, 0, skip); // alternates every iteration
    b.addi(6, 6, 1);
    b.bind(skip);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    Program p = b.build();

    const auto biased = profileStronglyBiased(p, 100000, 0.98, 16);
    EXPECT_FALSE(biased.count(alternating_pc));
}

} // namespace
} // namespace tcsim::workload

#include "workload/serialize.h"

#include <sstream>

#include "common/fnv.h"

namespace tcsim::workload
{
namespace
{

TEST(Serialize, RoundTripsGeneratedProgram)
{
    BenchmarkProfile profile = benchmarkSuite().front();
    profile.numFunctions = 8;
    Program original = generateProgram(profile);

    std::stringstream buffer;
    ASSERT_TRUE(saveProgram(original, buffer));
    auto loaded = loadProgram(buffer);
    ASSERT_TRUE(loaded.has_value());

    EXPECT_EQ(loaded->name(), original.name());
    EXPECT_EQ(loaded->codeBase(), original.codeBase());
    EXPECT_EQ(loaded->entry(), original.entry());
    ASSERT_EQ(loaded->codeSize(), original.codeSize());
    for (Addr a = original.codeBase(); a < original.codeLimit();
         a += isa::kInstBytes) {
        ASSERT_EQ(loaded->fetch(a), original.fetch(a));
    }
    EXPECT_EQ(loaded->initData(), original.initData());

    // The reloaded image executes identically.
    FunctionalExecutor exec_a(original), exec_b(*loaded);
    for (int i = 0; i < 20000; ++i) {
        const StepResult sa = exec_a.step();
        const StepResult sb = exec_b.step();
        ASSERT_EQ(sa.pc, sb.pc);
        ASSERT_EQ(sa.nextPc, sb.nextPc);
        ASSERT_EQ(sa.result, sb.result);
    }
}

TEST(Serialize, RejectsGarbage)
{
    std::stringstream buffer("definitely not a program image");
    EXPECT_FALSE(loadProgram(buffer).has_value());
}

TEST(Serialize, RejectsTruncated)
{
    BenchmarkProfile profile = benchmarkSuite().front();
    profile.numFunctions = 8;
    Program original = generateProgram(profile);
    std::stringstream buffer;
    ASSERT_TRUE(saveProgram(original, buffer));
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream truncated(bytes);
    EXPECT_FALSE(loadProgram(truncated).has_value());
}

/**
 * The image of a two-instruction program with three data words, and
 * the byte offsets of the fields the corruption tests patch.
 */
struct SmallImage
{
    std::string bytes;
    std::size_t codeBaseAt = 0;
    std::size_t entryAt = 0;
    std::size_t dataAt = 0; // the first (addr, value) pair
};

SmallImage
smallImage()
{
    ProgramBuilder b("img");
    const Addr base = b.allocData(24);
    b.setData(base, 1);
    b.setData(base + 8, 2);
    b.setData(base + 16, 3);
    b.nop();
    b.halt();
    std::ostringstream os;
    EXPECT_TRUE(saveProgram(b.build(), os));
    SmallImage image;
    image.bytes = os.str();
    // Magic, version, name length, "img".
    image.codeBaseAt = 8 + 4 + 4 + 3;
    image.entryAt = image.codeBaseAt + 8;
    // Instruction count, two instruction words, data word count.
    image.dataAt = image.entryAt + 8 + 8 + 2 * 4 + 8;
    return image;
}

std::uint64_t
read64(const std::string &bytes, std::size_t at)
{
    std::uint64_t value = 0;
    std::memcpy(&value, bytes.data() + at, sizeof(value));
    return value;
}

std::string
patched64(std::string bytes, std::size_t at, std::uint64_t value)
{
    std::memcpy(bytes.data() + at, &value, sizeof(value));
    return bytes;
}

bool
loads(const std::string &bytes)
{
    std::istringstream is(bytes);
    return loadProgram(is).has_value();
}

TEST(Serialize, RejectsCorruptHeader)
{
    const SmallImage image = smallImage();
    ASSERT_TRUE(loads(image.bytes));
    const std::uint64_t base = read64(image.bytes, image.codeBaseAt);
    ASSERT_EQ(base, kCodeBase);
    ASSERT_EQ(read64(image.bytes, image.entryAt), kCodeBase);
    EXPECT_TRUE(loads(patched64(image.bytes, image.entryAt, base + 4)));

    // The entry before, past or between the instructions.
    for (const std::uint64_t entry : {std::uint64_t{0}, base - 4, base + 8,
                                      base + 2}) {
        EXPECT_FALSE(loads(patched64(image.bytes, image.entryAt, entry)))
            << "entry 0x" << std::hex << entry;
    }
    // A misaligned code base, and one whose code would wrap past 2^64.
    for (const std::uint64_t code_base : {base + 2, ~std::uint64_t{3}}) {
        std::string bytes =
            patched64(image.bytes, image.codeBaseAt, code_base);
        EXPECT_FALSE(loads(patched64(bytes, image.entryAt, code_base)))
            << "code base 0x" << std::hex << code_base;
    }
}

TEST(Serialize, RejectsMisorderedData)
{
    const SmallImage image = smallImage();
    ASSERT_TRUE(loads(image.bytes));
    const std::uint64_t first = read64(image.bytes, image.dataAt);
    const std::size_t second_at = image.dataAt + 16;
    ASSERT_EQ(read64(image.bytes, second_at), first + 8);

    EXPECT_FALSE(loads(patched64(image.bytes, image.dataAt, first + 4)))
        << "unaligned";
    EXPECT_FALSE(loads(patched64(image.bytes, second_at, first - 8)))
        << "descending";
    EXPECT_FALSE(loads(patched64(image.bytes, second_at, first)))
        << "duplicate";
}

TEST(Serialize, RejectsTrailingBytes)
{
    const SmallImage image = smallImage();
    ASSERT_TRUE(loads(image.bytes));
    EXPECT_FALSE(loads(image.bytes + '\0'));
    EXPECT_FALSE(loads(image.bytes + image.bytes));
}

TEST(ProgramImage, GoldenDigestsAllProfiles)
{
    // FNV-1a digests of every profile's saveProgram bytes and of a
    // memory initialized from the program (each page index, then the
    // page's bytes, in pageIndices() order). Captured when data images
    // were still address-keyed trees copied word by word into memory.
    struct Golden
    {
        const char *name;
        const char *image;
        const char *memory;
    };
    static const Golden kGolden[] = {
        {"compress", "e7a3fef8bbbd80aa", "a66115ca22183e7d"},
        {"gcc", "94bd696fa53f8503", "300dde251b737f53"},
        {"go", "de7e81338353c45e", "0f46300580303021"},
        {"ijpeg", "b73bcdf842794e34", "ea665cf3f654b612"},
        {"li", "76468a0024d914d9", "36988b5359b6b4f8"},
        {"m88ksim", "3136f526dcde3d39", "08ff4cc820ca914d"},
        {"perl", "120e24454821b848", "7351135058c2c77e"},
        {"vortex", "ce03192f38b1d6a8", "75a955cbe00b8c6f"},
        {"gnuchess", "b42f92051dc53c79", "9137c798501cbcce"},
        {"ghostscript", "916da042d3819615", "b3162db8e4aa36a9"},
        {"pgp", "7774505ac48d08da", "b779c311afa410e4"},
        {"python", "66565fb697db72f7", "2500a6d5bd714df5"},
        {"gnuplot", "7fde05ef0ef9cdba", "fcd43d4ad643e610"},
        {"sim-outorder", "ebef41c283c2480d", "7d2416891f416130"},
        {"tex", "1b78d57159f10dfe", "400bd34d559e25ae"},
        {"server-oltp", "90ecf35178fb306d", "da44bda1184e2295"},
        {"server-web", "fbfae13eea05f779", "bcd0489af0bc0006"},
        {"server-cache", "76d68cbf3c9253e5", "876a57a52fa4d3b2"},
    };

    std::vector<BenchmarkProfile> profiles = benchmarkSuite();
    profiles.insert(profiles.end(), serverSuite().begin(),
                    serverSuite().end());
    ASSERT_EQ(profiles.size(), std::size(kGolden));
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const Program p = generateProgram(profiles[i]);
        std::ostringstream os;
        ASSERT_TRUE(saveProgram(p, os));
        SparseMemory mem;
        mem.initFrom(p);
        std::uint64_t memory = kFnvOffsetBasis;
        for (const Addr index : mem.pageIndices()) {
            memory = fnv1aAppendScalar(memory, index);
            memory = fnv1aAppend(
                memory,
                std::string_view(
                    reinterpret_cast<const char *>(mem.pageData(index)),
                    SparseMemory::kPageBytes));
        }
        EXPECT_EQ(profiles[i].name, kGolden[i].name);
        EXPECT_EQ(hashHex(fnv1a(os.str())), kGolden[i].image)
            << profiles[i].name;
        EXPECT_EQ(hashHex(memory), kGolden[i].memory) << profiles[i].name;
    }
}

TEST(SharedProgram, FourThreadsMatchSingleThread)
{
    // Four executors on one Program read its shared pages and copy the
    // ones they write; each must step exactly like a lone executor.
    const Program p = generateProgram(findProfile("gcc"));
    constexpr int kSteps = 50000;
    constexpr int kThreads = 4;
    std::vector<StepResult> reference;
    reference.reserve(kSteps);
    FunctionalExecutor lone(p);
    for (int i = 0; i < kSteps; ++i)
        reference.push_back(lone.step());

    std::array<int, kThreads> first_mismatch;
    first_mismatch.fill(-1);
    std::array<std::size_t, kThreads> copied_pages{};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            FunctionalExecutor exec(p);
            for (int i = 0; i < kSteps; ++i) {
                const StepResult step = exec.step();
                const StepResult &ref = reference[i];
                if (step.pc != ref.pc || step.nextPc != ref.nextPc ||
                    step.result != ref.result ||
                    step.memAddr != ref.memAddr || step.taken != ref.taken) {
                    first_mismatch[t] = i;
                    return;
                }
            }
            for (const DataPage &page : p.dataPages()) {
                if (exec.memory().pageData(page.index) != page.bytes.data())
                    ++copied_pages[t];
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(first_mismatch[t], -1) << "thread " << t;
        EXPECT_GT(copied_pages[t], 0u) << "thread " << t;
    }
}

} // namespace
} // namespace tcsim::workload

namespace tcsim::workload
{
namespace
{

TEST(BuilderDeath, DoubleBindAborts)
{
    ProgramBuilder b("t");
    Label label = b.here();
    EXPECT_DEATH(b.bind(label), "bound twice");
}

TEST(BuilderDeath, UnboundLabelAtBuildAborts)
{
    ProgramBuilder b("t");
    Label label = b.newLabel();
    b.j(label);
    EXPECT_DEATH(b.build(), "unbound label");
}

TEST(BuilderDeath, DefaultLabelAborts)
{
    ProgramBuilder b("t");
    Label label;
    EXPECT_DEATH(b.j(label), "default-constructed");
}

TEST(BuilderDeath, MisalignedDataWordAborts)
{
    ProgramBuilder b("t");
    EXPECT_DEATH(b.setData(0x1001, 1), "unaligned");
}

} // namespace
} // namespace tcsim::workload
