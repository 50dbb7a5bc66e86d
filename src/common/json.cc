#include "common/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace tcsim::json
{

double
Value::asDouble() const
{
    return kind_ == Kind::Number ? std::strtod(str_.c_str(), nullptr)
                                 : 0.0;
}

std::uint64_t
Value::asUint64() const
{
    return kind_ == Kind::Number
               ? std::strtoull(str_.c_str(), nullptr, 10)
               : 0;
}

std::int64_t
Value::asInt64() const
{
    return kind_ == Kind::Number
               ? std::strtoll(str_.c_str(), nullptr, 10)
               : 0;
}

const Value *
Value::find(std::string_view key) const
{
    for (const auto &[name, value] : members_) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

std::uint64_t
Value::getUint64(std::string_view key, std::uint64_t fallback) const
{
    const Value *v = find(key);
    return v != nullptr && v->isNumber() ? v->asUint64() : fallback;
}

double
Value::getDouble(std::string_view key, double fallback) const
{
    const Value *v = find(key);
    return v != nullptr && v->isNumber() ? v->asDouble() : fallback;
}

std::string
Value::getString(std::string_view key, std::string fallback) const
{
    const Value *v = find(key);
    return v != nullptr && v->isString() ? v->asString()
                                         : std::move(fallback);
}

Value
Value::makeBool(bool v)
{
    Value value(Kind::Bool);
    value.bool_ = v;
    return value;
}

Value
Value::makeNumber(std::string lexeme)
{
    Value value(Kind::Number);
    value.str_ = std::move(lexeme);
    return value;
}

Value
Value::makeString(std::string v)
{
    Value value(Kind::String);
    value.str_ = std::move(v);
    return value;
}

Value
Value::makeArray(std::vector<Value> items)
{
    Value value(Kind::Array);
    value.items_ = std::move(items);
    return value;
}

Value
Value::makeObject(std::vector<std::pair<std::string, Value>> members)
{
    Value value(Kind::Object);
    value.members_ = std::move(members);
    return value;
}

namespace
{

/** Recursive-descent parser over a string_view. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<Value>
    run(std::string *error)
    {
        std::optional<Value> value = parseValue();
        if (value) {
            skipWs();
            if (pos_ != text_.size())
                value = fail("trailing content");
        }
        if (!value && error != nullptr) {
            std::ostringstream os;
            os << "offset " << pos_ << ": " << error_;
            *error = os.str();
        }
        return value;
    }

  private:
    std::optional<Value>
    fail(const char *reason)
    {
        if (error_.empty())
            error_ = reason;
        return std::nullopt;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consumeWord(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    std::optional<Value>
    parseValue()
    {
        if (++depth_ > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        std::optional<Value> result;
        switch (text_[pos_]) {
        case '{':
            result = parseObject();
            break;
        case '[':
            result = parseArray();
            break;
        case '"': {
            std::optional<std::string> str = parseString();
            result = str ? std::optional<Value>(
                               Value::makeString(std::move(*str)))
                         : std::nullopt;
            break;
        }
        case 't':
            result = consumeWord("true")
                         ? std::optional<Value>(Value::makeBool(true))
                         : fail("bad literal");
            break;
        case 'f':
            result = consumeWord("false")
                         ? std::optional<Value>(Value::makeBool(false))
                         : fail("bad literal");
            break;
        case 'n':
            result = consumeWord("null")
                         ? std::optional<Value>(Value::makeNull())
                         : fail("bad literal");
            break;
        default:
            result = parseNumber();
        }
        --depth_;
        return result;
    }

    std::optional<Value>
    parseObject()
    {
        ++pos_; // '{'
        std::vector<std::pair<std::string, Value>> members;
        skipWs();
        if (consume('}'))
            return Value::makeObject(std::move(members));
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::optional<std::string> key = parseString();
            if (!key)
                return std::nullopt;
            skipWs();
            if (!consume(':'))
                return fail("expected ':'");
            std::optional<Value> value = parseValue();
            if (!value)
                return std::nullopt;
            members.emplace_back(std::move(*key), std::move(*value));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return Value::makeObject(std::move(members));
            return fail("expected ',' or '}'");
        }
    }

    std::optional<Value>
    parseArray()
    {
        ++pos_; // '['
        std::vector<Value> items;
        skipWs();
        if (consume(']'))
            return Value::makeArray(std::move(items));
        while (true) {
            std::optional<Value> value = parseValue();
            if (!value)
                return std::nullopt;
            items.push_back(std::move(*value));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return Value::makeArray(std::move(items));
            return fail("expected ',' or ']'");
        }
    }

    std::optional<std::string>
    parseString()
    {
        ++pos_; // '"'
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("control character in string");
                return std::nullopt;
            }
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return std::nullopt;
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else {
                        fail("bad \\u escape");
                        return std::nullopt;
                    }
                }
                // UTF-8 encode the BMP code point (surrogate pairs in
                // our own emitters never occur; a lone surrogate is
                // encoded as-is, matching the lenient-reader scope).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
            }
            default:
                fail("bad escape");
                return std::nullopt;
            }
        }
        fail("unterminated string");
        return std::nullopt;
    }

    std::optional<Value>
    parseNumber()
    {
        const std::size_t start = pos_;
        if (consume('-')) {
            // sign consumed
        }
        if (pos_ >= text_.size() || !std::isdigit(
                static_cast<unsigned char>(text_[pos_]))) {
            return fail("bad number");
        }
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        if (consume('.')) {
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
                return fail("bad number");
            }
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-')) {
                ++pos_;
            }
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
                return fail("bad number");
            }
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        return Value::makeNumber(
            std::string(text_.substr(start, pos_ - start)));
    }

    static constexpr int kMaxDepth = 64;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

} // namespace

std::optional<Value>
parse(std::string_view text, std::string *error)
{
    return Parser(text).run(error);
}

std::optional<Value>
parseFile(const std::string &path, std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (error != nullptr)
            *error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream os;
    os << is.rdbuf();
    const std::string text = os.str();
    return parse(text, error);
}

void
appendEscaped(std::string &out, std::string_view text)
{
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n' || c == '\t' || c == '\r') {
            out += c == '\n' ? "\\n" : c == '\t' ? "\\t" : "\\r";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char hex[8];
            std::snprintf(hex, sizeof(hex), "\\u%04x",
                          static_cast<unsigned>(c));
            out += hex;
        } else {
            out += c;
        }
    }
}

std::string
escape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    appendEscaped(out, text);
    return out;
}

std::string
formatDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace tcsim::json
