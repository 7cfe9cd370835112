#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
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
            os_ << ",";
        hasElement_.back() = true;
    }
}

void
JsonWriter::escape(const std::string &s)
{
    os_ << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os_ << "\\\"";
            break;
          case '\\':
            os_ << "\\\\";
            break;
          case '\n':
            os_ << "\\n";
            break;
          case '\t':
            os_ << "\\t";
            break;
          case '\r':
            os_ << "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os_ << buf;
            } else {
                os_ << c;
            }
        }
    }
    os_ << '"';
}

JsonWriter &
JsonWriter::beginObject()
{
    separator();
    os_ << "{";
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (hasElement_.empty())
        panic("JsonWriter: endObject without beginObject");
    hasElement_.pop_back();
    os_ << "}";
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separator();
    os_ << "[";
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (hasElement_.empty())
        panic("JsonWriter: endArray without beginArray");
    hasElement_.pop_back();
    os_ << "]";
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    separator();
    escape(name);
    os_ << ":";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separator();
    escape(v);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(int64_t v)
{
    separator();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separator();
    if (!std::isfinite(v)) {
        os_ << "null";
        return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os_ << buf;
    return *this;
}

JsonWriter &
JsonWriter::valueExact(double v)
{
    separator();
    if (!std::isfinite(v)) {
        os_ << "null";
        return *this;
    }
    char buf[32]; // the longest shortest form is 24 characters
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    os_.write(buf, r.ptr - buf);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separator();
    os_ << (v ? "true" : "false");
    return *this;
}

const JsonValue *
JsonValue::find(const std::string &key) const
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
    explicit JsonParser(const std::string &text) : text_(text) {}

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
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.object.emplace_back(std::move(key), std::move(v));
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
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.array.push_back(std::move(v));
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
            if (atEnd()) {
                error_ = "unterminated string";
                return false;
            }
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
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
        const std::string token = text_.substr(start, pos_ - start);
        if (token.empty()) {
            error_ = "invalid value";
            return false;
        }
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            error_ = strprintf("invalid number '%s'", token.c_str());
            pos_ = start;
            return false;
        }
        out.type = JsonValue::Type::Number;
        out.number = v;
        return true;
    }

    const std::string &text_;
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

} // namespace nnbaton
