/**
 * @file
 * The one atomic file writer, for documents, fragments and cached
 * artifacts alike.
 */

#ifndef TCSIM_COMMON_ATOMIC_FILE_H
#define TCSIM_COMMON_ATOMIC_FILE_H

#include <string>
#include <string_view>

namespace tcsim
{

/** @return "<path>.tmp.<pid>.<n>": no other call in any process gets
 * the same name, so concurrent writers never share a temp file. */
std::string uniqueTempPath(const std::string &path);

/**
 * Write @p bytes to uniqueTempPath(@p path), then rename it over
 * @p path, so a reader sees the old file or the whole new one. A
 * failed write removes its temp file. "-" writes to stdout.
 * @return false on I/O failure.
 */
bool writeFileAtomic(const std::string &path, std::string_view bytes);

} // namespace tcsim

#endif // TCSIM_COMMON_ATOMIC_FILE_H
