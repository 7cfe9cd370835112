#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"

namespace nnbaton {

void
JsonWriter::separator()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!hasElement_.empty()) {
        if (hasElement_.back())
            buf_ += ',';
        hasElement_.back() = true;
    }
}

void
JsonWriter::escape(std::string_view s)
{
    buf_ += '"';
    size_t run = 0; // start of the bytes that need no escape
    for (size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        buf_.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"':
            buf_ += "\\\"";
            break;
          case '\\':
            buf_ += "\\\\";
            break;
          case '\n':
            buf_ += "\\n";
            break;
          case '\t':
            buf_ += "\\t";
            break;
          case '\r':
            buf_ += "\\r";
            break;
          default: {
            const char hex[] = "0123456789abcdef";
            const char code[] = {'\\', 'u', '0', '0', hex[c >> 4],
                                 hex[c & 0xf]};
            buf_.append(code, sizeof(code));
          }
        }
    }
    buf_.append(s.data() + run, s.size() - run);
    buf_ += '"';
}

void
JsonWriter::ended()
{
    if (hasElement_.empty() || buf_.size() >= kFlushBytes)
        flush();
}

void
JsonWriter::flush()
{
    if (buf_.empty())
        return;
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
}

JsonWriter &
JsonWriter::beginObject()
{
    separator();
    buf_ += '{';
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (hasElement_.empty())
        panic("JsonWriter: endObject without beginObject");
    hasElement_.pop_back();
    buf_ += '}';
    ended();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separator();
    buf_ += '[';
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (hasElement_.empty())
        panic("JsonWriter: endArray without beginArray");
    hasElement_.pop_back();
    buf_ += ']';
    ended();
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    separator();
    escape(name);
    buf_ += ':';
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separator();
    escape(v);
    ended();
    return *this;
}

JsonWriter &
JsonWriter::value(int64_t v)
{
    separator();
    char buf[24];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    buf_.append(buf, r.ptr);
    ended();
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separator();
    if (!std::isfinite(v)) {
        buf_ += "null";
    } else {
        // The text of snprintf("%.9g"), without the format parsing.
        char buf[32];
        const std::to_chars_result r = std::to_chars(
            buf, buf + sizeof(buf), v, std::chars_format::general, 9);
        buf_.append(buf, r.ptr);
    }
    ended();
    return *this;
}

JsonWriter &
JsonWriter::valueExact(double v)
{
    separator();
    if (!std::isfinite(v)) {
        buf_ += "null";
    } else {
        char buf[32]; // the longest shortest form is 24 characters
        const std::to_chars_result r =
            std::to_chars(buf, buf + sizeof(buf), v);
        buf_.append(buf, r.ptr);
    }
    ended();
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separator();
    buf_ += v ? "true" : "false";
    ended();
    return *this;
}

JsonWriter &
JsonWriter::rawValue(std::string_view json)
{
    separator();
    buf_ += json;
    ended();
    return *this;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace {

/** Recursive-descent parser over the document text. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonParseResult
    parse()
    {
        JsonParseResult r;
        skipWs();
        if (!parseValue(r.value))
            return fail(r);
        skipWs();
        if (pos_ != text_.size()) {
            error_ = "trailing characters after document";
            return fail(r);
        }
        return r;
    }

  private:
    static constexpr int kMaxDepth = 256;

    JsonParseResult
    fail(JsonParseResult &r)
    {
        r.error = error_.empty() ? "parse error" : error_;
        r.errorOffset = pos_;
        r.value = JsonValue{};
        return r;
    }

    bool
    atEnd() const
    {
        return pos_ >= text_.size();
    }

    char
    peek() const
    {
        return text_[pos_];
    }

    void
    skipWs()
    {
        while (!atEnd()) {
            const char c = peek();
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    expect(char c)
    {
        if (atEnd() || peek() != c) {
            error_ = strprintf("expected '%c'", c);
            return false;
        }
        ++pos_;
        return true;
    }

    bool
    literal(const char *word, JsonValue &out, JsonValue::Type type,
            bool boolean)
    {
        const size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0) {
            error_ = strprintf("invalid literal (expected %s)", word);
            return false;
        }
        pos_ += len;
        out.type = type;
        out.boolean = boolean;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (++depth_ > kMaxDepth) {
            error_ = "nesting too deep";
            return false;
        }
        skipWs();
        if (atEnd()) {
            error_ = "unexpected end of input";
            return false;
        }
        bool ok = false;
        switch (peek()) {
          case '{':
            ok = parseObject(out);
            break;
          case '[':
            ok = parseArray(out);
            break;
          case '"':
            out.type = JsonValue::Type::String;
            ok = parseString(out.string);
            break;
          case 't':
            ok = literal("true", out, JsonValue::Type::Bool, true);
            break;
          case 'f':
            ok = literal("false", out, JsonValue::Type::Bool, false);
            break;
          case 'n':
            ok = literal("null", out, JsonValue::Type::Null, false);
            break;
          default:
            ok = parseNumber(out);
            break;
        }
        --depth_;
        return ok;
    }

    bool
    parseObject(JsonValue &out)
    {
        ++pos_; // '{'
        out.type = JsonValue::Type::Object;
        skipWs();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (atEnd() || peek() != '"') {
                error_ = "expected object key";
                return false;
            }
            if (!parseString(key))
                return false;
            skipWs();
            if (!expect(':'))
                return false;
            // Parsed in place: a failed document is discarded whole.
            out.object.emplace_back(std::move(key), JsonValue{});
            if (!parseValue(out.object.back().second))
                return false;
            skipWs();
            if (atEnd()) {
                error_ = "unterminated object";
                return false;
            }
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            return expect('}');
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        ++pos_; // '['
        out.type = JsonValue::Type::Array;
        skipWs();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            if (!parseValue(out.array.emplace_back()))
                return false;
            skipWs();
            if (atEnd()) {
                error_ = "unterminated array";
                return false;
            }
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            return expect(']');
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // '"'
        out.clear();
        while (true) {
            // Append the run up to the next quote or escape at once.
            const size_t run = pos_;
            while (!atEnd() && peek() != '"' && peek() != '\\')
                ++pos_;
            out.append(text_.data() + run, pos_ - run);
            if (atEnd()) {
                error_ = "unterminated string";
                return false;
            }
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (atEnd()) {
                error_ = "unterminated escape";
                return false;
            }
            c = text_[pos_++];
            switch (c) {
              case '"':
              case '\\':
              case '/':
                out += c;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    error_ = "truncated \\u escape";
                    return false;
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
                        error_ = "invalid \\u escape";
                        return false;
                    }
                }
                // The writer only emits \u00xx control escapes; keep
                // the parser at the same scope (Latin-1 subset).
                if (code > 0xff) {
                    error_ = "\\u escape above U+00FF unsupported";
                    return false;
                }
                out += static_cast<char>(code);
                break;
              }
              default:
                error_ = "invalid escape";
                return false;
            }
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        const size_t start = pos_;
        if (!atEnd() && peek() == '-')
            ++pos_;
        while (!atEnd() &&
               (std::isdigit(static_cast<unsigned char>(peek())) ||
                peek() == '.' || peek() == 'e' || peek() == 'E' ||
                peek() == '+' || peek() == '-')) {
            ++pos_;
        }
        const std::string_view token = text_.substr(start, pos_ - start);
        if (token.empty()) {
            error_ = "invalid value";
            return false;
        }
        const char *const last = token.data() + token.size();
        double v = 0.0;
        const std::from_chars_result r =
            std::from_chars(token.data(), last, v);
        if (r.ec != std::errc() || r.ptr != last) {
            // from_chars reads the tokens strtod reads, with the same
            // value, except a leading '+' and a result out of range
            // (strtod gives +-inf or the underflowed value); strtod
            // decides those rare tokens, and rejects the malformed.
            const std::string text(token);
            char *end = nullptr;
            v = std::strtod(text.c_str(), &end);
            if (end != text.c_str() + text.size()) {
                error_ = strprintf("invalid number '%s'", text.c_str());
                pos_ = start;
                return false;
            }
        }
        out.type = JsonValue::Type::Number;
        out.number = v;
        return true;
    }

    const std::string_view text_;
    size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

} // namespace

JsonParseResult
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

const JsonValue *
JsonReader::get(const JsonValue *v, std::string_view name,
                JsonValue::Type type)
{
    if (v != nullptr && v->type == type)
        return v;
    static constexpr const char *kTypeNames[] = {
        "null", "a boolean", "a number", "a string", "an array",
        "an object"};
    if (v == nullptr) {
        refuse("missing '%.*s'", static_cast<int>(name.size()),
               name.data());
    } else {
        refuse("'%.*s' must be %s", static_cast<int>(name.size()),
               name.data(), kTypeNames[static_cast<int>(type)]);
    }
    return nullptr;
}

std::optional<int64_t>
JsonReader::integer(const JsonValue *v, std::string_view name,
                    int64_t lo, int64_t hi)
{
    if (get(v, name, JsonValue::Type::Number) == nullptr)
        return std::nullopt;
    // [-2^63, 2^63) holds every int64_t and is exact in a double, so
    // the cast below is defined; NaN fails the comparisons.
    const double d = v->number;
    if (d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d)) {
        const int64_t n = static_cast<int64_t>(d);
        if (n >= lo && n <= hi)
            return n;
    }
    refuse("'%.*s' must be an integer in [%lld, %lld], got %.17g",
           static_cast<int>(name.size()), name.data(),
           static_cast<long long>(lo), static_cast<long long>(hi), d);
    return std::nullopt;
}

void
JsonReader::read(const JsonValue *v, std::string_view name, double &out)
{
    if (get(v, name, JsonValue::Type::Number) == nullptr)
        return;
    if (!std::isfinite(v->number)) {
        refuse("'%.*s' must be a finite number, got %g",
               static_cast<int>(name.size()), name.data(), v->number);
        return;
    }
    out = v->number;
}

void
JsonReader::read(const JsonValue *v, std::string_view name,
                 std::string &out)
{
    if (get(v, name, JsonValue::Type::String) != nullptr)
        out = v->string;
}

void
JsonReader::refuse(const char *fmt, ...)
{
    if (!status_.ok())
        return;
    va_list ap;
    va_start(ap, fmt);
    status_ = Status(code_, vstrprintf(fmt, ap));
    va_end(ap);
}

} // namespace nnbaton
