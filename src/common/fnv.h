/**
 * @file
 * FNV-1a 64-bit hashing, the content-addressing primitive of the
 * sweep work-unit protocol and the btrace checksums. Deterministic
 * across processes and runs (no pointer or seed salting), which is
 * what makes hashes usable as stable on-disk keys.
 */

#ifndef TCSIM_COMMON_FNV_H
#define TCSIM_COMMON_FNV_H

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace tcsim
{

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold @p data into a running FNV-1a state @p hash. */
constexpr std::uint64_t
fnv1aAppend(std::uint64_t hash, std::string_view data)
{
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= kFnvPrime;
    }
    return hash;
}

/** Fold the raw bytes of a trivially copyable scalar into @p hash. */
template <typename T>
std::uint64_t
fnv1aAppendScalar(std::uint64_t hash, T value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const auto bytes =
        std::bit_cast<std::array<unsigned char, sizeof(T)>>(value);
    for (const unsigned char b : bytes) {
        hash ^= b;
        hash *= kFnvPrime;
    }
    return hash;
}

/** @return the FNV-1a 64 hash of @p data. */
constexpr std::uint64_t
fnv1a(std::string_view data)
{
    return fnv1aAppend(kFnvOffsetBasis, data);
}

/** @return @p hash rendered as 16 lowercase hex digits. */
inline std::string
hashHex(std::uint64_t hash)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[hash & 0xf];
        hash >>= 4;
    }
    return out;
}

} // namespace tcsim

#endif // TCSIM_COMMON_FNV_H
