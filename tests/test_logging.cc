/**
 * @file
 * Logging tests: message formatting, per-thread tags, and the
 * gem5-style panic/fatal semantics.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"

using namespace pact;

TEST(Logging, BuildMessageConcatenates)
{
    EXPECT_EQ(detail::buildMessage("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(detail::buildMessage(), "");
}

TEST(Logging, TagRoundTripsAndClears)
{
    EXPECT_EQ(logTag(), "");
    setLogTag("run-7");
    EXPECT_EQ(logTag(), "run-7");
    setLogTag("");
    EXPECT_EQ(logTag(), "");
}

TEST(Logging, TagIsThreadLocal)
{
    setLogTag("main");
    std::string seenBefore, seenAfter;
    std::thread t([&] {
        seenBefore = logTag(); // fresh thread: no inherited tag
        setLogTag("worker");
        seenAfter = logTag();
    });
    t.join();
    EXPECT_EQ(seenBefore, "");
    EXPECT_EQ(seenAfter, "worker");
    EXPECT_EQ(logTag(), "main"); // untouched by the worker
    setLogTag("");
}

TEST(Logging, ConcurrentWarnsDoNotRace)
{
    // TSan-facing: concurrent tagged warn()s must be data-race-free and
    // each must land on stderr as one whole line.
    testing::internal::CaptureStderr();
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; i++) {
        threads.emplace_back([i] {
            setLogTag("t" + std::to_string(i));
            for (int k = 0; k < 100; k++)
                warn("concurrent warn ", k);
        });
    }
    for (auto &t : threads)
        t.join();
    std::istringstream err(testing::internal::GetCapturedStderr());
    std::string line;
    int lines = 0;
    while (std::getline(err, line)) {
        EXPECT_EQ(line.rfind("warn: [t", 0), 0u) << line;
        EXPECT_NE(line.find("] concurrent warn "), std::string::npos)
            << line;
        lines++;
    }
    EXPECT_EQ(lines, 400);
}

TEST(LoggingDeath, TaggedWarnCarriesPrefix)
{
    EXPECT_DEATH(
        {
            setLogTag("runX");
            warn("tagged message");
            std::abort();
        },
        "warn: \\[runX\\] tagged message");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH({ panic("boom ", 42); }, "boom 42");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT({ fatal("bad config"); },
                ::testing::ExitedWithCode(1), "bad config");
}

TEST(LoggingDeath, PanicIfOnlyOnCondition)
{
    panic_if(false, "must not fire");
    EXPECT_DEATH({ panic_if(true, "fires"); }, "fires");
}

TEST(LoggingDeath, FatalIfOnlyOnCondition)
{
    fatal_if(false, "must not fire");
    EXPECT_EXIT({ fatal_if(true, "fires"); },
                ::testing::ExitedWithCode(1), "fires");
}
