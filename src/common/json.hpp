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
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Write an object key; must be followed by a value or begin*(). */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(int64_t v);
    JsonWriter &value(int v) { return value(static_cast<int64_t>(v)); }
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
    field(const std::string &name, T v)
    {
        key(name);
        return value(v);
    }

    /** key() + valueExact() in one call. */
    JsonWriter &
    fieldExact(const std::string &name, double v)
    {
        key(name);
        return valueExact(v);
    }

  private:
    void separator();
    void escape(const std::string &s);

    std::ostream &os_;
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
    const JsonValue *find(const std::string &key) const;
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
