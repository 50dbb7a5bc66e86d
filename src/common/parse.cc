#include "common/parse.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/log.h"

namespace tcsim
{

std::optional<std::uint64_t>
parseUint(std::string_view text, std::uint64_t max)
{
    std::uint64_t value = 0;
    for (const char c : text) {
        const unsigned digit = static_cast<unsigned>(c - '0');
        if (digit > 9 || digit > max || value > (max - digit) / 10)
            return std::nullopt;
        value = value * 10 + digit;
    }
    return text.empty() ? std::nullopt : std::optional(value);
}

std::optional<double>
parseDouble(std::string_view text)
{
    const std::string copy(text);
    char *end = nullptr;
    const double value = std::strtod(copy.c_str(), &end);
    if (copy.empty() || std::isspace(static_cast<unsigned char>(copy[0])) ||
        end != copy.c_str() + copy.size() || !std::isfinite(value))
        return std::nullopt;
    return value;
}

std::uint64_t
requireUint(const char *what, std::string_view text, std::uint64_t max)
{
    const std::optional<std::uint64_t> value = parseUint(text, max);
    if (!value) {
        fatal("%s: '%.*s' is not a decimal integer%s", what,
              static_cast<int>(text.size()), text.data(),
              max == kNoLimit ? ""
                              : (" up to " + std::to_string(max)).c_str());
    }
    return *value;
}

double
requireDouble(const char *what, std::string_view text)
{
    const std::optional<double> value = parseDouble(text);
    if (!value) {
        fatal("%s: '%.*s' is not a number", what,
              static_cast<int>(text.size()), text.data());
    }
    return *value;
}

std::optional<std::uint64_t>
envUint(const char *name)
{
    const char *text = std::getenv(name);
    return text == nullptr ? std::nullopt
                           : std::optional(requireUint(name, text));
}

} // namespace tcsim
