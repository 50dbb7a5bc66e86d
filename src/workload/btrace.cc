#include "workload/btrace.h"

#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fnv.h"
#include "common/log.h"

namespace tcsim::workload
{

namespace
{

/** Flush threshold for the writer's packing buffer. */
constexpr std::size_t kWriterBufferBytes = 256 * 1024;

constexpr std::uint64_t kPcMask = (std::uint64_t{1} << 48) - 1;

void
packRecord(char *out, const BtraceRecord &record)
{
    TCSIM_ASSERT((record.pc & ~kPcMask) == 0);
    const std::uint64_t word0 =
        (record.pc & kPcMask) |
        (static_cast<std::uint64_t>(record.cls) << 48) |
        (static_cast<std::uint64_t>(record.taken ? 1 : 0) << 52);
    const std::uint64_t word1 = record.target;
    std::memcpy(out, &word0, 8);
    std::memcpy(out + 8, &word1, 8);
}

BtraceRecord
unpackRecord(const unsigned char *in)
{
    std::uint64_t word0 = 0;
    std::uint64_t word1 = 0;
    std::memcpy(&word0, in, 8);
    std::memcpy(&word1, in + 8, 8);
    BtraceRecord record;
    record.pc = word0 & kPcMask;
    record.cls = static_cast<BtraceClass>((word0 >> 48) & 0xf);
    record.taken = ((word0 >> 52) & 1) != 0;
    record.target = word1;
    return record;
}

/** Serialize the 64-byte header, including its trailing checksum. */
void
packHeader(char *out, std::uint32_t generator_version,
           std::uint64_t profile_fingerprint, Addr entry_pc,
           std::uint64_t inst_count, std::uint64_t record_count,
           std::uint64_t records_fnv)
{
    std::memcpy(out, kBtraceMagic, sizeof(kBtraceMagic));
    const auto put = [out](std::size_t off, auto value) {
        std::memcpy(out + off, &value, sizeof(value));
    };
    put(8, kBtraceFormatVersion);
    put(12, generator_version);
    put(16, profile_fingerprint);
    put(24, static_cast<std::uint64_t>(entry_pc));
    put(32, inst_count);
    put(40, record_count);
    put(48, records_fnv);
    std::uint64_t header_fnv = kFnvOffsetBasis;
    for (std::size_t i = 0; i < 56; ++i) {
        header_fnv ^= static_cast<unsigned char>(out[i]);
        header_fnv *= kFnvPrime;
    }
    put(56, header_fnv);
}

bool
fail(std::string *error, const char *reason)
{
    if (error != nullptr)
        *error = reason;
    return false;
}

} // namespace

// ----------------------------------------------------------------------
// BtraceWriter
// ----------------------------------------------------------------------

BtraceWriter::BtraceWriter(const std::string &path,
                           std::uint32_t generator_version,
                           std::uint64_t profile_fingerprint, Addr entry_pc)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path),
      generatorVersion_(generator_version),
      profileFingerprint_(profile_fingerprint), entryPc_(entry_pc),
      recordsFnv_(kFnvOffsetBasis)
{
    if (!out_)
        fatal("cannot open btrace output '%s'", path.c_str());
    buffer_.reserve(kWriterBufferBytes);
    // Placeholder header: zeroed, so a crash before close() leaves a
    // file the reader rejects (bad magic) instead of a silent partial.
    const char zeros[kBtraceHeaderBytes] = {};
    out_.write(zeros, sizeof(zeros));
}

BtraceWriter::~BtraceWriter()
{
    // An unclosed writer leaves the zeroed header in place on purpose.
}

void
BtraceWriter::append(const BtraceRecord &record)
{
    TCSIM_ASSERT(!closed_);
    char packed[kBtraceRecordBytes];
    packRecord(packed, record);
    for (const char c : packed) {
        recordsFnv_ ^= static_cast<unsigned char>(c);
        recordsFnv_ *= kFnvPrime;
    }
    buffer_.insert(buffer_.end(), packed, packed + sizeof(packed));
    ++recordCount_;
    if (buffer_.size() >= kWriterBufferBytes)
        flushBuffer();
}

void
BtraceWriter::flushBuffer()
{
    if (buffer_.empty())
        return;
    out_.write(buffer_.data(),
               static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
}

void
BtraceWriter::close(std::uint64_t inst_count)
{
    TCSIM_ASSERT(!closed_);
    closed_ = true;
    flushBuffer();
    char header[kBtraceHeaderBytes];
    packHeader(header, generatorVersion_, profileFingerprint_, entryPc_,
               inst_count, recordCount_, recordsFnv_);
    out_.seekp(0);
    out_.write(header, sizeof(header));
    out_.close();
    if (!out_)
        fatal("write failure on btrace output '%s'", path_.c_str());
}

// ----------------------------------------------------------------------
// BtraceReader
// ----------------------------------------------------------------------

BtraceReader::~BtraceReader()
{
    if (map_ != nullptr)
        ::munmap(const_cast<unsigned char *>(map_), mapBytes_);
}

bool
BtraceReader::open(const std::string &path, std::string *error)
{
    TCSIM_ASSERT(map_ == nullptr);
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail(error, "cannot open trace file");
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return fail(error, "cannot stat trace file");
    }
    const auto bytes = static_cast<std::size_t>(st.st_size);
    if (bytes < kBtraceHeaderBytes) {
        ::close(fd);
        return fail(error, "file shorter than the btrace header");
    }
    void *map = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        return fail(error, "cannot mmap trace file");
    map_ = static_cast<const unsigned char *>(map);
    mapBytes_ = bytes;
    return validate(error);
}

bool
BtraceReader::validate(std::string *error)
{
    if (std::memcmp(map_, kBtraceMagic, sizeof(kBtraceMagic)) != 0)
        return fail(error, "bad btrace magic");
    const auto get = [this](std::size_t off, auto &value) {
        std::memcpy(&value, map_ + off, sizeof(value));
    };
    std::uint64_t stored_header_fnv = 0;
    get(56, stored_header_fnv);
    std::uint64_t header_fnv = kFnvOffsetBasis;
    for (std::size_t i = 0; i < 56; ++i) {
        header_fnv ^= map_[i];
        header_fnv *= kFnvPrime;
    }
    if (header_fnv != stored_header_fnv)
        return fail(error, "btrace header checksum mismatch");

    get(8, header_.formatVersion);
    get(12, header_.generatorVersion);
    get(16, header_.profileFingerprint);
    std::uint64_t entry = 0;
    get(24, entry);
    header_.entryPc = entry;
    get(32, header_.instCount);
    get(40, header_.recordCount);
    if (header_.formatVersion != kBtraceFormatVersion)
        return fail(error, "unsupported btrace format version");

    // Divide rather than multiply: recordCount * 16 wraps for a
    // count near 2^60 and would match a much shorter file.
    const std::size_t record_bytes = mapBytes_ - kBtraceHeaderBytes;
    if (record_bytes % kBtraceRecordBytes != 0 ||
        header_.recordCount != record_bytes / kBtraceRecordBytes) {
        return fail(error, "btrace size does not match its record count");
    }

    std::uint64_t stored_records_fnv = 0;
    get(48, stored_records_fnv);
    std::uint64_t records_fnv = kFnvOffsetBasis;
    for (std::size_t i = kBtraceHeaderBytes; i < mapBytes_; ++i) {
        records_fnv ^= map_[i];
        records_fnv *= kFnvPrime;
    }
    if (records_fnv != stored_records_fnv)
        return fail(error, "btrace record checksum mismatch");
    return true;
}

BtraceRecord
BtraceReader::record(std::uint64_t index) const
{
    TCSIM_ASSERT(index < header_.recordCount);
    return unpackRecord(map_ + kBtraceHeaderBytes +
                        index * kBtraceRecordBytes);
}

} // namespace tcsim::workload
