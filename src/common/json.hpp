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

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
 * doubles (the writer never emits integers above 2^53).
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

} // namespace nnbaton

#endif // NNBATON_COMMON_JSON_HPP
