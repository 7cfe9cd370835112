/**
 * @file
 * Unit tests for runLanes(): every lane runs once, the caller is one of
 * the lanes, one lane or fewer runs inline on the caller, and a lane's
 * exception (a StatusError intact) reaches the caller once every lane
 * has joined.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/status.hpp"

using namespace nnbaton;

TEST(HardwareThreads, AtLeastOne)
{
    EXPECT_GE(hardwareThreads(), 1);
}

TEST(ParallelLanes, EveryLaneRunsExactlyOnce)
{
    // The lanes share a cursor, as the sweep lanes do: every index is
    // claimed exactly once and every lane runs fn exactly once.
    for (int lanes : {1, 2, 4, 7}) {
        constexpr int64_t n = 1000;
        std::vector<std::atomic<int>> visits(n);
        std::atomic<int64_t> next{0};
        std::atomic<int> calls{0};
        runLanes(lanes, [&] {
            ++calls;
            for (int64_t i = next++; i < n; i = next++)
                visits[static_cast<size_t>(i)].fetch_add(1);
        });
        EXPECT_EQ(calls.load(), lanes);
        for (int64_t i = 0; i < n; ++i)
            ASSERT_EQ(visits[static_cast<size_t>(i)].load(), 1)
                << "lanes " << lanes << " index " << i;
    }
}

TEST(ParallelLanes, CallerIsOneOfTheLanes)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (int lanes : {2, 4, 7}) {
        std::mutex m;
        std::multiset<std::thread::id> threads;
        runLanes(lanes, [&] {
            std::lock_guard<std::mutex> lock(m);
            threads.insert(std::this_thread::get_id());
        });
        // The caller runs one lane and `lanes - 1` new threads run the
        // rest, each on its own thread (no lane joins before runLanes()
        // returns, so no thread id is reused).
        EXPECT_EQ(threads.size(), static_cast<size_t>(lanes)) << lanes;
        EXPECT_EQ(threads.count(caller), 1u) << lanes;
        EXPECT_EQ(std::set<std::thread::id>(threads.begin(), threads.end())
                      .size(),
                  static_cast<size_t>(lanes))
            << lanes;
    }
}

TEST(ParallelLanes, OneLaneRunsInlineOnCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    int calls = 0;
    std::thread::id ran;
    runLanes(1, [&] {
        ++calls;
        ran = std::this_thread::get_id();
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(ran, caller);
}

TEST(ParallelLanes, ZeroAndNegativeLanesRunOnceInline)
{
    // A lane count below one degenerates to the caller's lane; it never
    // runs fn zero times.
    const std::thread::id caller = std::this_thread::get_id();
    for (int lanes : {0, -3}) {
        int calls = 0;
        runLanes(lanes, [&] {
            ++calls;
            EXPECT_EQ(std::this_thread::get_id(), caller) << lanes;
        });
        EXPECT_EQ(calls, 1) << lanes;
    }
}

TEST(ParallelLanes, ExceptionPropagatesToCaller)
{
    // One lane throws; the caller sees that exception, and the other
    // lanes still run to their end (runLanes() does not stop them).
    for (int lanes : {1, 4}) {
        std::atomic<bool> thrown{false};
        std::atomic<int> finished{0};
        try {
            runLanes(lanes, [&] {
                if (!thrown.exchange(true))
                    throw std::runtime_error("boom");
                ++finished;
            });
            ADD_FAILURE() << "expected a runtime_error, lanes " << lanes;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom");
        }
        EXPECT_EQ(finished.load(), lanes - 1) << lanes;
        // Nothing is left behind: the next call runs every lane.
        std::atomic<int> ok{0};
        runLanes(lanes, [&] { ++ok; });
        EXPECT_EQ(ok.load(), lanes);
    }
}

TEST(ParallelLanes, StatusErrorCrossesTheJoinIntact)
{
    // The resilient sweep relies on a lane's StatusError arriving at
    // the caller with its code and message preserved, whichever lane
    // threw, and only after the other lanes have finished.
    const std::thread::id caller = std::this_thread::get_id();
    for (bool callerThrows : {true, false}) {
        std::atomic<bool> thrown{false};
        std::atomic<int> finished{0};
        try {
            runLanes(4, [&] {
                const bool onCaller = std::this_thread::get_id() == caller;
                if (onCaller == callerThrows && !thrown.exchange(true))
                    throwStatus(errUnavailable("lane fault"));
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                ++finished;
            });
            ADD_FAILURE() << "expected a StatusError";
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code(), StatusCode::Unavailable);
            EXPECT_EQ(e.status().message(), "lane fault");
        }
        EXPECT_EQ(finished.load(), 3) << "callerThrows " << callerThrows;
    }
}
