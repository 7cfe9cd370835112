/**
 * @file
 * A minimal streaming JSON writer for the export interfaces (mapping
 * reports for the hardware compiler, DSE dumps for plotting), plus a
 * small recursive-descent parser (JsonValue / parseJson) so tests and
 * tools can round-trip what the library emits.  Scope is limited to
 * what the library needs: objects, arrays, strings, numbers and
 * booleans, with correct escaping and machine-stable number
 * formatting.
 */

#ifndef NNBATON_COMMON_JSON_HPP
#define NNBATON_COMMON_JSON_HPP

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace nnbaton {

/**
 * Streaming JSON writer with explicit begin/end nesting.
 *
 * @code
 *   JsonWriter j(os);
 *   j.beginObject();
 *   j.key("name").value("conv1");
 *   j.key("tiles").beginArray().value(4).value(8).endArray();
 *   j.endObject();
 * @endcode
 *
 * Text is appended to an internal buffer and handed to the stream
 * when a top-level value ends, whenever the buffer reaches
 * kFlushBytes, and at destruction: a small document costs one stream
 * write, and a large one (a sweep export) never sits in memory whole.
 * Once a top-level value has ended, the stream holds all of it, so a
 * caller may write to the stream directly between documents.
 */
class JsonWriter
{
  public:
    /** Buffered bytes that go to the stream mid-document. */
    static constexpr size_t kFlushBytes = size_t{64} << 10;

    explicit JsonWriter(std::ostream &os) : os_(os) {}
    ~JsonWriter() { flush(); }

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Write an object key; must be followed by a value or begin*(). */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(int64_t v);
    JsonWriter &value(int v) { return value(static_cast<int64_t>(v)); }
    /** %.9g for display (non-finite values as null). */
    JsonWriter &value(double v);
    JsonWriter &value(bool v);

    /** Write @p json, one already serialized JSON value, verbatim. */
    JsonWriter &rawValue(std::string_view json);

    /**
     * Write a double as the shortest text that reads back to the same
     * double (std::to_chars), where value() rounds to %.9g for
     * display.  Checkpoints use this so a resumed sweep restores
     * bit-identical scores.
     */
    JsonWriter &valueExact(double v);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** key() + valueExact() in one call. */
    JsonWriter &
    fieldExact(std::string_view name, double v)
    {
        key(name);
        return valueExact(v);
    }

  private:
    void separator();
    void escape(std::string_view s);
    /** A value just ended: flush at the top level or a full buffer. */
    void ended();
    /** Hand the buffer to the stream. */
    void flush();

    std::ostream &os_;
    std::string buf_;
    std::vector<bool> hasElement_; //!< per nesting level
    bool pendingKey_ = false;
};

/**
 * A parsed JSON document node.  Objects keep their members in
 * insertion order (the writer's emit order), numbers are stored as
 * doubles (the writer never emits integers above 2^53).  Documents
 * from outside the process are read through JsonReader.
 */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member by key, or nullptr (also for non-objects). */
    const JsonValue *find(std::string_view key) const;
};

/** parseJson() outcome: a value, or an error with its text offset. */
struct JsonParseResult
{
    JsonValue value;
    std::string error; //!< empty on success
    size_t errorOffset = 0;

    bool ok() const { return error.empty(); }
};

/** Parse one JSON document; trailing whitespace is allowed. */
JsonParseResult parseJson(const std::string &text);

/**
 * Checked reads of a parsed document that came from outside the
 * process (a request, a checkpoint journal, a sweepUnit reply, a
 * metrics scrape), and the one reader of JsonValue::number.  A read
 * asks one question of a member: is it there with the given type, is
 * it an exact integer in a range that fits its field, is it a finite
 * number.  The first refusal sticks, names the member and carries the
 * caller's StatusCode; a refused read leaves its field alone.
 *
 * @code
 *   JsonReader in(StatusCode::DataLoss);
 *   in.read(cost.find("cycles"), "cycles", p.cycles, 0);
 *   in.read(cost.find("clockGhz"), "clockGhz", p.clockGhz);
 *   if (!in.ok())
 *       return in.status();
 * @endcode
 */
class JsonReader
{
  public:
    explicit JsonReader(StatusCode code) : code_(code) {}

    /** @p v, a find() result (nullptr when absent), when it has type
     *  @p type; else nullptr. */
    const JsonValue *get(const JsonValue *v, std::string_view name,
                         JsonValue::Type type);

    /** Set @p out to @p v when it is an exact integer in
     *  [@p lo, @p hi] and in the range of @p out's type. */
    template <std::signed_integral Int>
    void
    read(const JsonValue *v, std::string_view name, Int &out,
         int64_t lo = std::numeric_limits<Int>::min(),
         int64_t hi = std::numeric_limits<Int>::max())
    {
        using Limits = std::numeric_limits<Int>;
        if (const std::optional<int64_t> n =
                integer(v, name, std::max<int64_t>(lo, Limits::min()),
                        std::min<int64_t>(hi, Limits::max())))
            out = static_cast<Int>(*n);
    }

    /** Set @p out to @p v when it is a finite number. */
    void read(const JsonValue *v, std::string_view name, double &out);

    /** Set @p out to @p v when it is a string. */
    void read(const JsonValue *v, std::string_view name,
              std::string &out);

    /** Refuse the document for a reason of the caller's own. */
    void refuse(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    bool ok() const { return status_.ok(); }
    const Status &status() const { return status_; }

  private:
    std::optional<int64_t> integer(const JsonValue *v,
                                   std::string_view name, int64_t lo,
                                   int64_t hi);

    const StatusCode code_;
    Status status_;
};

} // namespace nnbaton

#endif // NNBATON_COMMON_JSON_HPP
