/**
 * @file
 * Tests for the flight recorder: it records with no setup, ring
 * wraparound keeps only the newest events and marks the dump
 * truncated, request ids flow into recorded events, and the
 * async-signal-safe fd writer produces a parseable document.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/json.hpp"
#include "common/trace.hpp"

using namespace nnbaton;

namespace {

/** The flight recorder's current JSON value, parsed. */
JsonValue
parsedRecorder()
{
    const std::string text = obs::flightRecorderJson();
    JsonParseResult parsed = parseJson(text);
    EXPECT_TRUE(parsed.ok())
        << parsed.error << " at offset " << parsed.errorOffset << "\n"
        << text;
    return std::move(parsed.value);
}

/** The calling thread's "events" array in a recorder value. */
const JsonValue *
eventsForThisThread(const JsonValue &recorder)
{
    const JsonValue *threads = recorder.find("threads");
    if (!threads || !threads->isArray())
        return nullptr;
    const double tid = static_cast<double>(obs::currentThreadTag());
    for (const JsonValue &t : threads->array) {
        const JsonValue *id = t.find("tid");
        if (id && id->isNumber() && id->number == tid)
            return t.find("events");
    }
    return nullptr;
}

} // namespace

TEST(Flight, EnabledByDefault)
{
    // With no setup and tracing off, a span lands in this thread's
    // ring.
    EXPECT_GT(obs::flightRingCapacity(), 0u);
    {
        NNBATON_TRACE_SCOPE("flight.test.default_on");
    }
    const JsonValue rec = parsedRecorder();
    const JsonValue *events = eventsForThisThread(rec);
    ASSERT_NE(events, nullptr);
    ASSERT_FALSE(events->array.empty());
    const JsonValue *lastName = events->array.back().find("name");
    ASSERT_NE(lastName, nullptr);
    EXPECT_EQ(lastName->string, "flight.test.default_on");
}

TEST(Flight, RingWrapsAndKeepsNewestEvents)
{
    const size_t cap = obs::flightRingCapacity();
    // Overfill the ring: only the newest `cap` marks survive.
    for (size_t i = 0; i < cap + 100; ++i)
        obs::flightMark("flight.test.wrap");
    obs::flightMark("flight.test.last");

    const JsonValue rec = parsedRecorder();
    const JsonValue *capacity = rec.find("capacity");
    ASSERT_NE(capacity, nullptr);
    EXPECT_EQ(capacity->number, static_cast<double>(cap));

    const JsonValue *events = eventsForThisThread(rec);
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_LE(events->array.size(), cap);
    EXPECT_GE(events->array.size(), cap / 2); // ring is actually full
    // Oldest-first order: the very last event is the newest mark.
    ASSERT_FALSE(events->array.empty());
    const JsonValue *lastName = events->array.back().find("name");
    ASSERT_NE(lastName, nullptr);
    EXPECT_EQ(lastName->string, "flight.test.last");
}

TEST(Flight, TruncatedDumpIsValidAndCapped)
{
    // Overfill this thread's ring: the dump says it wrapped and holds
    // no more than one ring per thread.
    const size_t cap = obs::flightRingCapacity();
    for (size_t i = 0; i < cap + 1; ++i)
        obs::flightMark("flight.test.fill");

    const JsonValue rec = parsedRecorder();
    const JsonValue *truncated = rec.find("truncated");
    ASSERT_NE(truncated, nullptr);
    EXPECT_TRUE(truncated->boolean);
    const JsonValue *threads = rec.find("threads");
    ASSERT_NE(threads, nullptr);
    for (const JsonValue &t : threads->array) {
        const JsonValue *events = t.find("events");
        ASSERT_NE(events, nullptr);
        EXPECT_LE(events->array.size(), cap);
    }
}

TEST(Flight, EventsCarryTheRequestId)
{
    {
        obs::RequestIdScope ridScope(987654);
        NNBATON_TRACE_SCOPE("flight.test.with_rid");
    }
    const JsonValue rec = parsedRecorder();
    const JsonValue *events = eventsForThisThread(rec);
    ASSERT_NE(events, nullptr);
    bool found = false;
    for (const JsonValue &e : events->array) {
        const JsonValue *name = e.find("name");
        const JsonValue *rid = e.find("rid");
        ASSERT_NE(name, nullptr);
        ASSERT_NE(rid, nullptr);
        if (name->string == "flight.test.with_rid" &&
            rid->number == 987654.0)
            found = true;
    }
    EXPECT_TRUE(found);
    // Outside the scope the thread has no current request id.
    EXPECT_EQ(obs::currentRequestId(), 0u);
}

TEST(Flight, SignalSafeFdDumpParses)
{
    obs::flightMark("flight.test.fd");
    char path[] = "/tmp/nnbaton_flight_fd_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    obs::writeFlightRecorderToFd(fd);
    ::close(fd);

    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    std::remove(path);

    const JsonParseResult parsed = parseJson(content.str());
    ASSERT_TRUE(parsed.ok())
        << parsed.error << " at offset " << parsed.errorOffset
        << "\n" << content.str();
    const JsonValue *rec = parsed.value.find("flightRecorder");
    ASSERT_NE(rec, nullptr);
    const JsonValue *events = eventsForThisThread(*rec);
    ASSERT_NE(events, nullptr);
    bool found = false;
    for (const JsonValue &e : events->array) {
        const JsonValue *name = e.find("name");
        if (name && name->string == "flight.test.fd")
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Flight, RequestIdsAreFreshAndScoped)
{
    const uint64_t a = obs::nextRequestId();
    const uint64_t b = obs::nextRequestId();
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
    {
        obs::RequestIdScope outer(a);
        EXPECT_EQ(obs::currentRequestId(), a);
        {
            obs::RequestIdScope inner(b);
            EXPECT_EQ(obs::currentRequestId(), b);
        }
        EXPECT_EQ(obs::currentRequestId(), a);
    }
    EXPECT_EQ(obs::currentRequestId(), 0u);
}
