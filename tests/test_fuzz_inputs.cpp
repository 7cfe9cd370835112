/**
 * @file
 * Malformed-input fuzzing (seeded, deterministic): the JSON parser,
 * the strict CLI numeric parsers, the model-file loader and the sweep
 * checkpoint loader must reject arbitrary garbage with a structured
 * error — never crash, hang or silently accept it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/parse.hpp"
#include "common/status.hpp"
#include "dse/checkpoint.hpp"
#include "nn/parser.hpp"

using namespace nnbaton;

namespace {

std::string
tmpFile(const char *name, const std::string &contents)
{
    const std::string path = ::testing::TempDir() + name;
    FILE *f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    if (f) {
        std::fwrite(contents.data(), 1, contents.size(), f);
        std::fclose(f);
    }
    return path;
}

} // namespace

TEST(JsonFuzz, MalformedDocumentsAreRejected)
{
    const char *cases[] = {
        "",
        "   ",
        "{",
        "}",
        "[",
        "]",
        "{\"a\"",
        "{\"a\":}",
        "{\"a\":1,}",
        "{,}",
        "[1,]",
        "[1 2]",
        "{\"a\":1}{",
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"bad unicode \\u12g4\"",
        "tru",
        "nul",
        "1e",
        "1e+",
        "-",
        "--1",
        "0x10",
        "NaN",
        "Infinity",
        "{'single': 1}",
        "{\"dup\": 1 \"dup\": 2}",
    };
    for (const char *text : cases) {
        const JsonParseResult r = parseJson(text);
        EXPECT_FALSE(r.ok()) << "accepted: " << text;
        EXPECT_FALSE(r.error.empty()) << text;
    }
}

TEST(JsonFuzz, TruncationsOfAValidDocumentAreRejected)
{
    const std::string doc = "{\"a\": [1, 2.5, true, null], "
                            "\"b\": {\"c\": \"str\\n\", \"d\": -3e2}}";
    ASSERT_TRUE(parseJson(doc).ok());
    // Every strict prefix is malformed (none happens to be a shorter
    // valid document for this text).
    for (size_t n = 0; n + 1 < doc.size(); ++n) {
        const JsonParseResult r = parseJson(doc.substr(0, n));
        EXPECT_FALSE(r.ok()) << "prefix length " << n;
    }
}

TEST(JsonFuzz, DeepNestingHitsTheDepthGuardNotTheStack)
{
    const std::string deep(100000, '[');
    const JsonParseResult r = parseJson(deep);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("deep"), std::string::npos) << r.error;

    // At-the-limit nesting still parses.
    std::string ok;
    for (int i = 0; i < 100; ++i)
        ok += '[';
    for (int i = 0; i < 100; ++i)
        ok += ']';
    EXPECT_TRUE(parseJson(ok).ok());
}

TEST(JsonFuzz, RandomByteNoiseNeverCrashes)
{
    std::mt19937 gen(0xf00d);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> len(0, 64);
    for (int iter = 0; iter < 2000; ++iter) {
        std::string text;
        const int n = len(gen);
        for (int i = 0; i < n; ++i)
            text.push_back(static_cast<char>(byte(gen)));
        // Must terminate and either parse or report an offset inside
        // (or just past) the input.
        const JsonParseResult r = parseJson(text);
        if (!r.ok())
            EXPECT_LE(r.errorOffset, text.size());
    }
}

TEST(ParseFuzz, NumericFlagGarbageIsRejected)
{
    const char *bad[] = {
        "",     " ",    "x",        "12x",  "x12",  "1 2",  "-1",
        "0",    "+",    "1e",       "0x10", "␀",    "¹²",   " 1",
        "1 ",   "--2",  "99999999999999999999999999", "12.5",
    };
    for (const char *text : bad) {
        EXPECT_FALSE(parsePositiveInt64("--n", text).ok()) << text;
        EXPECT_FALSE(parsePositiveInt("--n", text).ok()) << text;
    }
    // Int-range boundary: fits in 64 bits but not in int.
    EXPECT_TRUE(parsePositiveInt64("--n", "3000000000").ok());
    EXPECT_FALSE(parsePositiveInt("--n", "3000000000").ok());
    EXPECT_EQ(parsePositiveInt("--n", "3000000000").status().code(),
              StatusCode::InvalidArgument);

    const char *bad_double[] = {"", "x", "1x", "-1.5", "0",
                                "nan", "inf", "-inf", "1e999"};
    for (const char *text : bad_double)
        EXPECT_FALSE(parsePositiveDouble("--d", text).ok()) << text;
    EXPECT_DOUBLE_EQ(parsePositiveDouble("--d", "2.5").value(), 2.5);
    // Error messages name the flag so the CLI user knows what to fix.
    EXPECT_NE(parsePositiveInt("--threads", "x")
                  .status()
                  .message()
                  .find("--threads"),
              std::string::npos);
}

TEST(ModelFileFuzz, GarbageModelFilesAreStructuredErrors)
{
    EXPECT_EQ(loadModelFile(::testing::TempDir() + "missing_model.nn")
                  .status()
                  .code(),
              StatusCode::NotFound);

    const char *bad[] = {
        "",
        "conv a 1 1 1 1 1 1 1\n",          // layer before model line
        "model\n",                          // missing fields
        "model m 0\n",                      // non-positive resolution
        "model m 224\n",                    // no layers
        "model m 224\nmodel m 224\n",       // duplicate model line
        "model m 224\nconv a 1 2\n",        // wrong arity
        "model m 224\nconv a 1 1 1 1 1 1 x\n", // bad integer
        "model m 224\nwarp a 1 1\n",        // unknown layer kind
        "model m 224\nfc a -4 4\n",         // negative feature count
    };
    int idx = 0;
    for (const char *text : bad) {
        const std::string path = tmpFile(
            ("fuzz_model_" + std::to_string(idx++) + ".nn").c_str(),
            text);
        const StatusOr<Model> r = loadModelFile(path);
        EXPECT_FALSE(r.ok()) << text;
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument)
            << text;
        std::remove(path.c_str());
    }
}

TEST(CheckpointFuzz, GarbageCheckpointsAreDataLoss)
{
    const char *bad[] = {
        "",
        "not json at all",
        "[]",
        "42",
        "{}",
        "{\"format\": \"wrong\"}",
        "{\"format\": \"nn-baton-sweep-checkpoint\"}",
        "{\"format\": \"nn-baton-sweep-checkpoint\", \"version\": 99,"
        " \"fingerprint\": \"f\", \"complete\": true,"
        " \"entries\": []}",
        "{\"format\": \"nn-baton-sweep-checkpoint\", \"version\": 1,"
        " \"fingerprint\": \"f\", \"complete\": true,"
        " \"entries\": 7}",
        "{\"format\": \"nn-baton-sweep-checkpoint\", \"version\": 1,"
        " \"fingerprint\": \"f\", \"complete\": true,"
        " \"entries\": [{\"kind\": \"valid\"}]}",
        // Journals: a header without its fingerprint, an unknown or
        // non-numeric version, a malformed inner line, a valid record
        // without its point.
        "{\"format\": \"nn-baton-sweep-checkpoint\", \"version\": 2}\n"
        "{\"complete\": true}\n",
        "{\"format\": \"nn-baton-sweep-checkpoint\", \"version\": 3,"
        " \"fingerprint\": \"f\"}\n{\"complete\": true}\n",
        "{\"format\": \"nn-baton-sweep-checkpoint\", \"version\": \"2\","
        " \"fingerprint\": \"f\"}\n",
        "{\"format\": \"nn-baton-sweep-checkpoint\", \"version\": 2,"
        " \"fingerprint\": \"f\"}\n{\"key\": \"k\", \"kin\n"
        "{\"complete\": true}\n",
        "{\"format\": \"nn-baton-sweep-checkpoint\", \"version\": 2,"
        " \"fingerprint\": \"f\"}\n{\"key\": \"k\", \"kind\": \"valid\"}\n",
    };
    int idx = 0;
    for (const char *text : bad) {
        const std::string path = tmpFile(
            ("fuzz_ckpt_" + std::to_string(idx++) + ".json").c_str(),
            text);
        const auto r = loadSweepCheckpoint(path);
        EXPECT_FALSE(r.ok()) << text;
        EXPECT_EQ(r.status().code(), StatusCode::DataLoss) << text;
        std::remove(path.c_str());
    }

    // A journal whose one number @p slot (the header's "version", a
    // record's "cycles", its "compute1" array term, ...) reads @p text.
    // Compute terms are positive ints, byte sizes and cycles
    // non-negative int64_t, every other number a finite double.
    const std::string key = "1-16-16-16|48|1024|49152|49152";
    const auto journal = [&key](const std::string &slot,
                                const std::string &text) {
        const auto num = [&](const std::string &name, const char *good) {
            return name == slot ? text : std::string(good);
        };
        const auto terms = [&](const std::string &name,
                               std::vector<const char *> goods) {
            std::string out = "[";
            for (size_t i = 0; i < goods.size(); ++i) {
                out += (i ? "," : "") +
                       num(name + std::to_string(i), goods[i]);
            }
            return out + "]";
        };
        const std::vector<const char *> energy(10, "1.5");
        return "{\"format\":\"nn-baton-sweep-checkpoint\",\"version\":" +
               num("version", "2") + ",\"fingerprint\":\"f\"}\n" +
               "{\"key\":\"" + key + "\",\"kind\":\"valid\",\"point\":{" +
               "\"compute\":" + terms("compute", {"1", "16", "16", "16"}) +
               ",\"memory\":" +
               terms("memory", {"48", "1024", "49152", "49152"}) +
               ",\"area\":" +
               terms("area", {"0.5", "0.2", "0.01", "0.38", "1"}) +
               ",\"clockGhz\":" + num("clockGhz", "0.5") +
               ",\"cost\":{\"model\":\"m\",\"cycles\":" +
               num("cycles", "4244503") + ",\"energy\":" +
               terms("energy", energy) +
               ",\"layers\":[{\"name\":\"c1\",\"cycles\":" +
               num("layerCycles", "62730") + ",\"utilization\":" +
               num("utilization", "0.25") + ",\"energy\":" +
               terms("layerEnergy", energy) + "}]}}}\n{\"complete\":true}\n";
    };
    const std::string path = tmpFile("fuzz_ckpt_numbers.json", "");
    const auto load = [&path, &journal](const std::string &slot,
                                        const std::string &text) {
        std::ofstream(path, std::ios::trunc) << journal(slot, text);
        return loadSweepCheckpoint(path).status();
    };
    ASSERT_TRUE(load("", "").ok()) << load("", "").toString();
    std::vector<std::pair<std::string, const char *>> slots = {
        {"version", "3"},
        {"cycles", "9223372036854775808"},
        {"layerCycles", "9223372036854775808"}};
    for (int i = 0; i < 4; ++i) {
        slots.emplace_back("compute" + std::to_string(i), "2147483648");
        slots.emplace_back("memory" + std::to_string(i),
                           "9223372036854775808");
    }
    for (const auto &[slot, onePast] : slots) {
        for (const char *bad : {"2.5", "1e400", "-1e300", onePast, "\"7\""}) {
            const Status s = load(slot, bad);
            EXPECT_EQ(s.code(), StatusCode::DataLoss)
                << slot << "=" << bad << ": " << s.toString();
            if (slot != "version") {
                EXPECT_NE(s.message().find("entry " + key),
                          std::string::npos)
                    << s.toString();
            }
        }
    }
    std::vector<std::string> doubles = {"clockGhz", "utilization"};
    for (int i = 0; i < 10; ++i) {
        if (i < 5)
            doubles.push_back("area" + std::to_string(i));
        doubles.push_back("energy" + std::to_string(i));
        doubles.push_back("layerEnergy" + std::to_string(i));
    }
    for (const std::string &slot : doubles) {
        const Status s = load(slot, "1e400");
        EXPECT_EQ(s.code(), StatusCode::DataLoss)
            << slot << ": " << s.toString();
    }
    std::remove(path.c_str());
}
