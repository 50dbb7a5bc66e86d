/**
 * @file
 * tcsim-btrace-v1: a compact binary branch/fetch trace format.
 *
 * A btrace captures the retired control flow of one run — every
 * control-transfer and serializing instruction, in program order — in
 * 16-byte packed little-endian records, so the front end (fetch
 * engine, fill unit, predictors) can later be driven directly from the
 * file without re-executing the program. The layout follows the
 * packed-entry buffered-writer shape of interp_rv64's trace.cc:
 * a fixed checksummed header, then a flat record array that an
 * mmap-backed reader can index in place.
 *
 * File layout (all fields little-endian host layout, like the other
 * binio artifacts — traces are consumed on the machine or fleet that
 * produced them):
 *
 *   offset size field
 *   0      8    magic "TCBTRC01"
 *   8      4    u32 format version (kBtraceFormatVersion)
 *   12     4    u32 workload generator version (kGeneratorVersion)
 *   16     8    u64 profile fingerprint (profileFingerprint())
 *   24     8    u64 entry pc
 *   32     8    u64 instCount: total dynamic instructions covered,
 *               including the non-control instructions between records
 *               (tells replay exactly where to stop, even mid-block)
 *   40     8    u64 recordCount
 *   48     8    u64 FNV-1a over all record bytes
 *   56     8    u64 FNV-1a over header bytes [0, 56)
 *   64     16*recordCount records
 *
 * Record layout (16 bytes):
 *   word0: bits [0,48) pc, bits [48,52) class, bit 52 taken
 *   word1: target (the actual next pc after this instruction)
 */

#ifndef TCSIM_WORKLOAD_BTRACE_H
#define TCSIM_WORKLOAD_BTRACE_H

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/types.h"

namespace tcsim::workload
{

/** Bump when the header or record layout changes. */
inline constexpr std::uint32_t kBtraceFormatVersion = 1;

/** Magic at offset 0 (8 bytes, no terminator). */
inline constexpr char kBtraceMagic[8] = {'T', 'C', 'B', 'T',
                                         'R', 'C', '0', '1'};

/** Bytes of the fixed header preceding the record array. */
inline constexpr std::size_t kBtraceHeaderBytes = 64;

/** Bytes per packed record. */
inline constexpr std::size_t kBtraceRecordBytes = 16;

/** Control-transfer class of a recorded instruction. */
enum class BtraceClass : std::uint8_t
{
    Cond = 0,         ///< conditional branch (taken bit meaningful)
    Jump = 1,         ///< direct unconditional jump
    Call = 2,         ///< direct call (pushes pc+4 on the RAS)
    Ret = 3,          ///< return (pops the RAS)
    IndirectJump = 4, ///< register-indirect jump (jr)
    Trap = 5,         ///< serializing trap
    Halt = 6,         ///< program end
};

/** One recorded control-flow event. */
struct BtraceRecord
{
    Addr pc = 0;
    Addr target = 0;
    BtraceClass cls = BtraceClass::Cond;
    bool taken = false;
};

/** Decoded header fields (checksums verified by the reader). */
struct BtraceHeader
{
    std::uint32_t formatVersion = 0;
    std::uint32_t generatorVersion = 0;
    std::uint64_t profileFingerprint = 0;
    Addr entryPc = 0;
    std::uint64_t instCount = 0;
    std::uint64_t recordCount = 0;
};

/**
 * Streaming record writer. Records are packed into an in-memory
 * buffer and flushed in large chunks; close() seeks back and writes
 * the checksummed header (until then the file carries a zeroed header
 * and will be rejected by the reader — a crash mid-record never
 * produces a valid trace).
 */
class BtraceWriter
{
  public:
    /** Open @p path for writing; fatal on failure. */
    BtraceWriter(const std::string &path, std::uint32_t generator_version,
                 std::uint64_t profile_fingerprint, Addr entry_pc);
    ~BtraceWriter();

    BtraceWriter(const BtraceWriter &) = delete;
    BtraceWriter &operator=(const BtraceWriter &) = delete;

    /** Append one record (program order). */
    void append(const BtraceRecord &record);

    /**
     * Flush, backpatch the header with @p inst_count (total dynamic
     * instructions the trace covers, including non-control ones) and
     * close the file. No appends allowed afterwards.
     */
    void close(std::uint64_t inst_count);

    std::uint64_t recordCount() const { return recordCount_; }

  private:
    void flushBuffer();

    std::ofstream out_;
    std::string path_;
    std::vector<char> buffer_;
    std::uint32_t generatorVersion_;
    std::uint64_t profileFingerprint_;
    Addr entryPc_;
    std::uint64_t recordCount_ = 0;
    std::uint64_t recordsFnv_;
    bool closed_ = false;
};

/**
 * mmap-backed reader: validates the header checksum, the record
 * checksum and the file size on open, then serves records by index
 * straight from the mapping.
 */
class BtraceReader
{
  public:
    BtraceReader() = default;
    ~BtraceReader();

    BtraceReader(const BtraceReader &) = delete;
    BtraceReader &operator=(const BtraceReader &) = delete;

    /**
     * Map and validate @p path. @return false (with a human-readable
     * reason in @p error when non-null) on any I/O, size, magic,
     * version or checksum problem.
     */
    bool open(const std::string &path, std::string *error = nullptr);

    const BtraceHeader &header() const { return header_; }
    std::uint64_t recordCount() const { return header_.recordCount; }

    /** @return the record at @p index (must be < recordCount()). */
    BtraceRecord record(std::uint64_t index) const;

  private:
    bool validate(std::string *error);

    BtraceHeader header_;
    const unsigned char *map_ = nullptr;
    std::size_t mapBytes_ = 0;
};

} // namespace tcsim::workload

#endif // TCSIM_WORKLOAD_BTRACE_H
