/**
 * @file
 * Tests for the JSON writer and the flow export functions.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "baton/baton.hpp"
#include "baton/export.hpp"
#include "common/json.hpp"

using namespace nnbaton;

TEST(JsonWriter, ObjectWithFields)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject();
    j.field("a", 1);
    j.field("b", "x");
    j.field("c", true);
    j.endObject();
    EXPECT_EQ(ss.str(), R"({"a":1,"b":"x","c":true})");
}

TEST(JsonWriter, NestedArraysAndObjects)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject();
    j.key("list").beginArray();
    j.value(1).value(2);
    j.beginObject().field("k", 3).endObject();
    j.endArray();
    j.endObject();
    EXPECT_EQ(ss.str(), R"({"list":[1,2,{"k":3}]})");
}

TEST(JsonWriter, StringEscaping)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject();
    j.field("s", "a\"b\\c\nd");
    j.endObject();
    EXPECT_EQ(ss.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");

    // Every control character is escaped and reads back.
    std::string raw = "q";
    for (char c = 1; c < 0x20; ++c)
        raw += c;
    std::ostringstream controls;
    JsonWriter(controls).value(raw);
    EXPECT_NE(controls.str().find("\\u0001"), std::string::npos);
    EXPECT_NE(controls.str().find("\\u001f"), std::string::npos);
    const JsonParseResult r = parseJson(controls.str());
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.value.string, raw);
}

TEST(JsonWriter, Doubles)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginArray();
    j.value(1.5);
    j.value(0.0);
    j.value(std::numeric_limits<double>::infinity()); // -> null
    j.endArray();
    EXPECT_EQ(ss.str(), "[1.5,0,null]");
}

TEST(JsonWriter, TopLevelValueSequenceInArray)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginArray().value("x").value(static_cast<int64_t>(-7)).endArray();
    EXPECT_EQ(ss.str(), R"(["x",-7])");
}

namespace {

/** Finite doubles to format: bit patterns drawn from @p rng across
 *  every exponent, values near the %.9g rounding and notation
 *  boundaries, and the edge cases (+-0, denormals, +-DBL_MAX). */
std::vector<double>
doubleCorpus(std::mt19937_64 &rng, int draws)
{
    std::vector<double> out = {
        0.0,     -0.0,     DBL_MAX,  -DBL_MAX, DBL_MIN,
        -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN, 2.2250738585072009e-308,
        1e-5,    9.99999999e-5, 1e-4,   999999999.5, 999999999.4,
        1e9,     123456789.0,  1234567890.0, 0.1,    1.0 / 3.0};
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    for (int i = 0; i < draws; ++i) {
        const uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        if (std::isfinite(v))
            out.push_back(v);
        out.push_back(std::ldexp(unit(rng),
                                 static_cast<int>(rng() % 2100) - 1075));
        out.push_back(std::round(unit(rng) * 1e12) / 1e3);
    }
    return out;
}

/** What @p write puts on a fresh stream as a top-level value. */
template <typename Write>
std::string
written(Write write)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    write(j);
    return ss.str();
}

} // namespace

TEST(JsonWriter, IntegersMatchSnprintf)
{
    std::mt19937_64 rng(20211);
    std::vector<int64_t> corpus = {0,
                                   -1,
                                   1,
                                   std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max(),
                                   std::numeric_limits<int32_t>::min(),
                                   std::numeric_limits<int32_t>::max()};
    for (int i = 0; i < 20000; ++i) {
        const int64_t v = static_cast<int64_t>(rng());
        corpus.push_back(v);
        corpus.push_back(v >> (rng() % 64)); // every magnitude
    }
    for (const int64_t v : corpus) {
        char expect[32];
        std::snprintf(expect, sizeof(expect), "%" PRId64, v);
        ASSERT_EQ(written([v](JsonWriter &j) { j.value(v); }), expect);
    }
}

TEST(JsonWriter, DisplayDoublesMatchSnprintfPrecision9)
{
    std::mt19937_64 rng(20212);
    for (const double v : doubleCorpus(rng, 40000)) {
        char expect[40];
        std::snprintf(expect, sizeof(expect), "%.9g", v);
        ASSERT_EQ(written([v](JsonWriter &j) { j.value(v); }), expect)
            << std::hexfloat << v;
    }
    EXPECT_EQ(written([](JsonWriter &j) { j.value(std::nan("")); }),
              "null");
}

TEST(JsonWriter, LargeDocumentReachesTheStreamBeforeItCloses)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginArray();
    const std::string chunk(1000, 'x');
    size_t logical = 1; // the bytes written so far, '[' first
    size_t values = 0;
    while (logical < 3 * JsonWriter::kFlushBytes) {
        j.value(chunk);
        ++values;
        logical += chunk.size() + 3; // quotes and the comma
        // The writer buffers at most kFlushBytes plus one value.
        ASSERT_GE(ss.str().size() + JsonWriter::kFlushBytes + 3 +
                      chunk.size(),
                  logical);
    }
    EXPECT_GT(ss.str().size(), JsonWriter::kFlushBytes);
    j.endArray();
    const JsonParseResult r = parseJson(ss.str());
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.value.array.size(), values);
}

TEST(JsonWriter, EachTopLevelValueReachesTheStreamWhole)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject().field("a", 1);
    EXPECT_EQ(ss.str(), ""); // a small unfinished document stays buffered
    j.endObject();
    EXPECT_EQ(ss.str(), R"({"a":1})");
    ss << '\n'; // a caller may frame documents between values
    j.beginArray().value(true).endArray();
    EXPECT_EQ(ss.str(), "{\"a\":1}\n[true]");
}

namespace {

/** Very small JSON structural validator: balanced braces/brackets
 *  outside strings, non-empty. */
bool
structurallyValid(const std::string &s)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : s) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_string && !s.empty();
}

} // namespace

TEST(JsonParser, RoundTripsWriterOutput)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject();
    j.field("name", "conv\"1\"");
    j.field("count", 42);
    j.field("ratio", -1.25);
    j.field("ok", true);
    j.key("tiles").beginArray().value(4).value(8).endArray();
    j.key("nested").beginObject().field("deep", 7).endObject();
    j.endObject();

    const JsonParseResult r = parseJson(ss.str());
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(r.value.isObject());
    EXPECT_EQ(r.value.find("name")->string, "conv\"1\"");
    EXPECT_DOUBLE_EQ(r.value.find("count")->number, 42.0);
    EXPECT_DOUBLE_EQ(r.value.find("ratio")->number, -1.25);
    EXPECT_TRUE(r.value.find("ok")->boolean);
    ASSERT_TRUE(r.value.find("tiles")->isArray());
    EXPECT_EQ(r.value.find("tiles")->array.size(), 2u);
    EXPECT_DOUBLE_EQ(r.value.find("nested")->find("deep")->number, 7.0);
}

TEST(JsonParser, ReportsErrors)
{
    EXPECT_FALSE(parseJson("").ok());
    EXPECT_FALSE(parseJson("{\"a\":1").ok());
    EXPECT_FALSE(parseJson("{\"a\" 1}").ok());
    EXPECT_FALSE(parseJson("[1,2,]").ok());
    EXPECT_FALSE(parseJson("{} trailing").ok());
    EXPECT_FALSE(parseJson("nul").ok());
    EXPECT_FALSE(parseJson("\"open run").ok());
    EXPECT_FALSE(parseJson("\"bad \\q escape\"").ok());
    const JsonParseResult r = parseJson("{\"a\":bogus}");
    EXPECT_FALSE(r.ok());
    EXPECT_GT(r.errorOffset, 0u);
}

TEST(JsonParser, AcceptsWhitespaceAndEscapes)
{
    const JsonParseResult r =
        parseJson(" { \"s\" : \"a\\n\\t\\u0041\" , \"n\" : null } \n");
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.value.find("s")->string, "a\n\tA");
    EXPECT_TRUE(r.value.find("n")->isNull());

    const JsonParseResult runs =
        parseJson("[\"plain run\",\"a\\\"b\\\\c\\/d\\u00e9e\",\"\"]");
    ASSERT_TRUE(runs.ok()) << runs.error;
    EXPECT_EQ(runs.value.array.at(0).string, "plain run");
    EXPECT_EQ(runs.value.array.at(1).string, "a\"b\\c/d\xe9" "e");
    EXPECT_EQ(runs.value.array.at(2).string, "");
}

namespace {

/** The number tokens to parse: the writer's own output (shortest and
 *  %.9g/%.17g forms), the forms only strtod reads (a leading '+',
 *  overflow to +-inf, underflow, denormals), and random strings over
 *  the token alphabet, most of them malformed. */
std::vector<std::string>
numberTokens(std::mt19937_64 &rng)
{
    std::vector<std::string> out = {
        "0",      "-0",      "+0",       "+1.5",    "1e400",   "-1e400",
        "1e-400", "-1e-400", "4.9e-324", "2.4e-324", "2.5e-324",
        "1e-320", "2.2250738585072011e-308", "1.7976931348623157e308",
        "1.7976931348623159e308", "1e",     "1e+",     "--1",
        "1..2",   ".5",      "5.",       "-.5",     "+.5",     "1e5.5",
        "-",      "+",       "e5",       "1-2",     "00012",   "1E+02",
        "0.1e-2", "123456789012345678901234567890", "9007199254740993"};
    std::mt19937_64 local(rng());
    for (const double v : doubleCorpus(local, 5000)) {
        char buf[40];
        std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
        out.emplace_back(buf, r.ptr);
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        out.emplace_back(buf);
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out.emplace_back(buf);
    }
    const char alphabet[] = "0123456789.eE+-";
    for (int i = 0; i < 20000; ++i) {
        std::string token;
        const size_t len = 1 + rng() % 10;
        for (size_t k = 0; k < len; ++k)
            token += alphabet[rng() % (sizeof(alphabet) - 1)];
        out.push_back(token);
    }
    return out;
}

} // namespace

TEST(JsonParser, NumbersReadExactlyAsStrtodDoes)
{
    std::mt19937_64 rng(20213);
    int accepted = 0;
    for (const std::string &token : numberTokens(rng)) {
        // The parser reads a token made only of number characters as
        // strtod does, and accepts it iff strtod reads all of it.
        char *end = nullptr;
        const double expect = std::strtod(token.c_str(), &end);
        const bool whole = end == token.c_str() + token.size();
        for (const std::string &doc : {token, "[" + token + "]"}) {
            const JsonParseResult r = parseJson(doc);
            ASSERT_EQ(r.ok(), whole) << doc;
            if (!whole)
                continue;
            const JsonValue &v =
                r.value.isArray() ? r.value.array.at(0) : r.value;
            ASSERT_TRUE(v.isNumber()) << doc;
            ASSERT_EQ(std::memcmp(&v.number, &expect, sizeof(expect)), 0)
                << doc;
        }
        accepted += whole;
    }
    EXPECT_GT(accepted, 15000); // the corpus is not all malformed
}

TEST(Export, PostDesignJsonIsStructured)
{
    Model m("mini", 64);
    m.addLayer(makeConv("a", 32, 32, 128, 64, 3, 3, 1));
    PostDesignFlow flow(caseStudyConfig(), defaultTech(),
                        SearchEffort::Fast);
    const PostDesignReport report = flow.run(m);

    std::ostringstream ss;
    exportPostDesign(report, ss);
    const std::string out = ss.str();
    EXPECT_TRUE(structurallyValid(out)) << out;
    EXPECT_NE(out.find("\"model\":\"mini\""), std::string::npos);
    EXPECT_NE(out.find("\"layers\":["), std::string::npos);
    EXPECT_NE(out.find("\"spatial\""), std::string::npos);
    EXPECT_NE(out.find("\"temporal\""), std::string::npos);
    EXPECT_NE(out.find("\"chipletTile\""), std::string::npos);

    // The full export (including the observability block) parses.
    const JsonParseResult parsed = parseJson(out);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue *observability = parsed.value.find("observability");
    ASSERT_NE(observability, nullptr);
    EXPECT_NE(observability->find("profile"), nullptr);
    EXPECT_NE(observability->find("metrics"), nullptr);
}

TEST(Export, PreDesignJsonCarriesPoints)
{
    Model m("mini", 64);
    m.addLayer(makeConv("a", 32, 32, 128, 64, 3, 3, 1));
    DseOptions opt;
    opt.totalMacs = 2048;
    opt.proportionalMem = true;
    opt.effort = SearchEffort::Sketch;
    PreDesignFlow flow(opt);
    const PreDesignReport report = flow.run(m);

    std::ostringstream ss;
    exportPreDesign(report, ss);
    const std::string out = ss.str();
    EXPECT_TRUE(structurallyValid(out));
    EXPECT_NE(out.find("\"points\":["), std::string::npos);
    EXPECT_NE(out.find("\"recommended\""), std::string::npos);
    EXPECT_NE(out.find("\"chipletAreaMm2\""), std::string::npos);
}

TEST(Export, MappingJsonStandsAlone)
{
    Mapping m;
    m.pkgSpatial = PackagePartition::Plane;
    m.pkgSplit = {2, 2};
    m.chipSpatial = ChipletPartition::Hybrid;
    m.chipChannelWays = 2;
    m.chipSplit = {2, 2};
    m.chipletTile = {16, 16, 64};
    m.hoC = 8;
    m.woC = 8;
    std::ostringstream ss;
    exportMapping(m, ss);
    const std::string out = ss.str();
    EXPECT_TRUE(structurallyValid(out));
    EXPECT_NE(out.find("\"package\":\"P\""), std::string::npos);
    EXPECT_NE(out.find("\"chiplet\":\"H\""), std::string::npos);
    EXPECT_NE(out.find("\"packagePattern\":\"2:2\""),
              std::string::npos);
}
