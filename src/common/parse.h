/**
 * @file
 * Strict number parsing for flags and environment variables: "4M" and
 * "abc" are errors, not 4 and 0.
 */

#ifndef TCSIM_COMMON_PARSE_H
#define TCSIM_COMMON_PARSE_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace tcsim
{

constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();

/** @return @p text as a decimal integer <= @p max — non-empty, ASCII
 * digits only — or empty optional. */
std::optional<std::uint64_t> parseUint(std::string_view text,
                                       std::uint64_t max = kNoLimit);

/** @return @p text as a finite double that strtod consumes entirely
 * (no blanks around it), or empty optional. */
std::optional<double> parseDouble(std::string_view text);

/** parseUint() / parseDouble(), or fatal() naming @p what (the flag or
 * variable). */
std::uint64_t requireUint(const char *what, std::string_view text,
                          std::uint64_t max = kNoLimit);
double requireDouble(const char *what, std::string_view text);

/** requireUint() of environment variable @p name; empty when unset. */
std::optional<std::uint64_t> envUint(const char *name);

} // namespace tcsim

#endif // TCSIM_COMMON_PARSE_H
