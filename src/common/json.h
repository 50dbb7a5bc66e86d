/**
 * @file
 * A minimal JSON reader for the machine-readable artifacts the
 * simulator itself writes (bench fragments, results documents), plus
 * the one string escaper and the one double formatter every JSON
 * writer in tcsim uses.
 *
 * Scope: strict-enough recursive-descent parsing of the full JSON
 * grammar into an owning tree. Numbers keep their source lexeme so
 * 64-bit integers written by our emitters round-trip exactly (doubles
 * lose nothing either: asUint64/asInt64 reparse the lexeme). Object
 * member order is preserved. This is a reader for trusted,
 * self-produced inputs — it rejects malformed documents but does not
 * aim to be a hardened parser for hostile ones.
 */

#ifndef TCSIM_COMMON_JSON_H
#define TCSIM_COMMON_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tcsim::json
{

/** One parsed JSON value (owning tree). */
class Value
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return bool_; }
    double asDouble() const;
    std::uint64_t asUint64() const;
    std::int64_t asInt64() const;
    /** String payload (String) or raw number lexeme (Number). */
    const std::string &asString() const { return str_; }

    const std::vector<Value> &items() const { return items_; }
    const std::vector<std::pair<std::string, Value>> &
    members() const
    {
        return members_;
    }

    /** @return the member named @p key, or nullptr. */
    const Value *find(std::string_view key) const;

    /** Typed member lookups; @p fallback when absent or wrong type. */
    std::uint64_t getUint64(std::string_view key,
                            std::uint64_t fallback = 0) const;
    double getDouble(std::string_view key, double fallback = 0.0) const;
    std::string getString(std::string_view key,
                          std::string fallback = {}) const;

    // Builders (used by the parser; exposed for tests).
    static Value makeNull() { return Value(Kind::Null); }
    static Value makeBool(bool v);
    static Value makeNumber(std::string lexeme);
    static Value makeString(std::string v);
    static Value makeArray(std::vector<Value> items);
    static Value
    makeObject(std::vector<std::pair<std::string, Value>> members);

  private:
    explicit Value(Kind kind) : kind_(kind) {}

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string str_; // String payload or Number lexeme
    std::vector<Value> items_;
    std::vector<std::pair<std::string, Value>> members_;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed).
 * @return the value, or std::nullopt with @p error set (when non-null)
 * to a "offset N: reason" message.
 */
std::optional<Value> parse(std::string_view text,
                           std::string *error = nullptr);

/** Parse the entire file at @p path; empty optional on I/O failure. */
std::optional<Value> parseFile(const std::string &path,
                               std::string *error = nullptr);

/** Append @p text to @p out as the contents of a JSON string, with
 * \n \t \r and \u00XX for the control characters. */
void appendEscaped(std::string &out, std::string_view text);

/** @return appendEscaped() of @p text. */
std::string escape(std::string_view text);

/** Render @p value with "%.17g", which round-trips every double and
 * formats alike in every process (the byte-identical documents). */
std::string formatDouble(double value);

} // namespace tcsim::json

#endif // TCSIM_COMMON_JSON_H
