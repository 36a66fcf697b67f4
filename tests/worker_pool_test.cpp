/**
 * @file
 * Stress tests for the engine's worker pool: its batch handoff is two
 * atomics (an epoch and a countdown) with yield-then-park waiters, so
 * these tests run many back-to-back batches whose data flows through
 * plain, unsynchronized memory.  A missing happens-before edge shows
 * up as a wrong value here and as a report under the thread
 * sanitizer (TCSIM_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/worker_pool.h"

namespace tcsim {
namespace {

TEST(WorkerPool, EachWorkerRunsOncePerBatch)
{
    WorkerPool pool(4);
    ASSERT_EQ(pool.threads(), 4);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> calls(4, 0);
    std::vector<std::thread::id> owner(4);
    // Plain (non-atomic) data written by the caller before a batch and
    // read by the workers, then written by the workers and read by the
    // caller after it: the handoff must order both directions.
    std::vector<uint64_t> input(4, 0);
    std::vector<uint64_t> output(4, 0);
    for (int batch = 0; batch < 5000; ++batch) {
        for (int t = 0; t < 4; ++t)
            input[static_cast<size_t>(t)] =
                static_cast<uint64_t>(batch) * 4 + static_cast<uint64_t>(t);
        pool.for_each_worker([&](int t) {
            const auto i = static_cast<size_t>(t);
            ++calls[i];
            if (batch == 0)
                owner[i] = std::this_thread::get_id();
            else
                EXPECT_EQ(owner[i], std::this_thread::get_id())
                    << "worker " << t << " moved threads";
            output[i] = input[i] * 2;
        });
        for (int t = 0; t < 4; ++t) {
            const auto i = static_cast<size_t>(t);
            ASSERT_EQ(calls[i], batch + 1) << "worker " << t;
            ASSERT_EQ(output[i], input[i] * 2) << "worker " << t;
        }
    }
    EXPECT_EQ(owner[0], caller);
    for (int t = 1; t < 4; ++t)
        EXPECT_NE(owner[static_cast<size_t>(t)], caller);
}

TEST(WorkerPool, CallerWaitsForTheSlowestWorker)
{
    // Every tenth batch one worker (rotating, the caller included)
    // sleeps well past the yield rounds, so the others — and the
    // caller — park before the batch completes.
    WorkerPool pool(3);
    std::vector<int> out(3, -1);
    for (int batch = 0; batch < 600; ++batch) {
        const int slow = batch % 10 == 0 ? (batch / 10) % 3 : -1;
        pool.for_each_worker([&](int t) {
            if (t == slow)
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            out[static_cast<size_t>(t)] = batch;
        });
        for (int t = 0; t < 3; ++t)
            ASSERT_EQ(out[static_cast<size_t>(t)], batch) << "worker " << t;
    }
}

TEST(WorkerPool, SingleThreadPoolRunsOnTheCaller)
{
    WorkerPool pool(1);
    ASSERT_EQ(pool.threads(), 1);
    const std::thread::id caller = std::this_thread::get_id();
    int calls = 0;
    for (int batch = 0; batch < 1000; ++batch) {
        pool.for_each_worker([&](int t) {
            EXPECT_EQ(t, 0);
            EXPECT_EQ(std::this_thread::get_id(), caller);
            ++calls;
        });
    }
    EXPECT_EQ(calls, 1000);
    EXPECT_EQ(WorkerPool(0).threads(), 1);
}

TEST(WorkerPool, DestroyWhileWorkersAreParked)
{
    for (int round = 0; round < 20; ++round) {
        WorkerPool pool(4);
        int calls = 0;
        pool.for_each_worker([&](int t) {
            if (t == 0)
                ++calls;
        });
        EXPECT_EQ(calls, 1);
        // Long enough for every worker to finish yielding and park.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Never used: destroyed while its workers start up or wait for a
    // first batch.
    for (int round = 0; round < 20; ++round)
        WorkerPool idle(3);
}

TEST(WorkerPool, RethrowsAWorkerExceptionAndStaysUsable)
{
    WorkerPool pool(4);
    for (int thrower : {0, 2}) {
        EXPECT_THROW(pool.for_each_worker([&](int t) {
            if (t == thrower)
                throw std::runtime_error("worker failed");
        }),
                     std::runtime_error);
    }
    std::vector<int> calls(4, 0);
    pool.for_each_worker([&](int t) { ++calls[static_cast<size_t>(t)]; });
    EXPECT_EQ(calls, std::vector<int>(4, 1));
}

}  // namespace
}  // namespace tcsim
