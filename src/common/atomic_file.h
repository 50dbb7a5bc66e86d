/**
 * @file
 * The one atomic file writer, for documents and fragments alike.
 */

#ifndef TCSIM_COMMON_ATOMIC_FILE_H
#define TCSIM_COMMON_ATOMIC_FILE_H

#include <string>
#include <string_view>

namespace tcsim
{

/**
 * Write @p bytes to "<path>.tmp.<pid>.<n>", a name no other call in
 * any process gets, then rename it over @p path, so a reader sees the
 * old file or the whole new one. A failed write removes its temp file.
 * "-" writes to stdout.
 * @return false on I/O failure.
 */
bool writeFileAtomic(const std::string &path, std::string_view bytes);

} // namespace tcsim

#endif // TCSIM_COMMON_ATOMIC_FILE_H
