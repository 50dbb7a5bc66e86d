/**
 * @file
 * Program image serialization: save generated (or hand-built)
 * workloads to disk and reload them bit-exactly, so experiment
 * artifacts can be archived and shared independently of the
 * generator's RNG.
 *
 * Format (little-endian, versioned):
 *   magic "TCSIMPRG", u32 version, u32 name length, name bytes,
 *   u64 code base, u64 entry, u64 instruction count, u32 words...,
 *   u64 data word count, (u64 addr, u64 value)...
 */

#ifndef TCSIM_WORKLOAD_SERIALIZE_H
#define TCSIM_WORKLOAD_SERIALIZE_H

#include <iosfwd>
#include <optional>
#include <string>

#include "workload/program.h"

namespace tcsim::workload
{

/** Write @p program to @p os. @return false on stream failure. */
bool saveProgram(const Program &program, std::ostream &os);

/** Write @p program to @p path. @return false on failure. */
bool saveProgram(const Program &program, const std::string &path);

/**
 * Read a program from @p is, which must end with the image. A
 * truncated or malformed image (bad magic or version, entry outside
 * the code, misaligned code base, data words unaligned or not
 * strictly ascending, trailing bytes) returns an empty optional.
 */
std::optional<Program> loadProgram(std::istream &is);

/** Read a program from @p path. */
std::optional<Program> loadProgram(const std::string &path);

} // namespace tcsim::workload

#endif // TCSIM_WORKLOAD_SERIALIZE_H
