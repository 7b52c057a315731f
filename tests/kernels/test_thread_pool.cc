/**
 * @file
 * Unit tests for the kernel thread pool: exactly-once chunk coverage,
 * deterministic chunk boundaries, inline fallback, nested and
 * concurrent callers (the latter primarily for TSan runs), and
 * runPair()'s frame trace context hand-off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "kernels/thread_pool.h"
#include "obs/exemplar.h"
#include "obs/trace_recorder.h"

namespace reuse {
namespace {

using kernels::KernelThreadPool;

/** Runs a parallelFor and returns its sorted chunk boundaries. */
std::vector<std::pair<int64_t, int64_t>>
collectChunks(KernelThreadPool &pool, int64_t total, int64_t grain)
{
    std::mutex mutex;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    pool.parallelFor(total, grain, [&](int64_t begin, int64_t end) {
        const std::lock_guard<std::mutex> lock(mutex);
        chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
}

TEST(KernelThreadPool, CoversEveryElementExactlyOnce)
{
    KernelThreadPool pool(3);
    const int64_t total = 10'007;  // prime: ragged last chunk
    std::vector<std::atomic<int>> hits(static_cast<size_t>(total));
    pool.parallelFor(total, 64, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i)
            hits[static_cast<size_t>(i)].fetch_add(
                1, std::memory_order_relaxed);
    });
    for (int64_t i = 0; i < total; ++i)
        ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "i=" << i;
}

TEST(KernelThreadPool, ZeroWorkersRunsInline)
{
    KernelThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0u);
    const std::thread::id caller = std::this_thread::get_id();
    int64_t covered = 0;
    pool.parallelFor(1000, 128, [&](int64_t begin, int64_t end) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        covered += end - begin;
    });
    EXPECT_EQ(covered, 1000);
}

TEST(KernelThreadPool, ChunkBoundariesIndependentOfWorkerCount)
{
    KernelThreadPool inline_pool(0);
    KernelThreadPool threaded_pool(3);
    for (const int64_t total : {1, 63, 64, 65, 4096, 10'007}) {
        const auto a = collectChunks(inline_pool, total, 64);
        const auto b = collectChunks(threaded_pool, total, 64);
        EXPECT_EQ(a, b) << "total=" << total;
    }
}

TEST(KernelThreadPool, EmptyRangeRunsNothing)
{
    KernelThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(0, 64, [&](int64_t, int64_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(KernelThreadPool, ConcurrentCallersSerializeCorrectly)
{
    // Several threads issue jobs against one pool at once; every job
    // must still cover its own range exactly once, whether it got the
    // pool or ran inline because another caller held it.  Exercises
    // the busy-pool path under TSan.
    KernelThreadPool pool(2);
    constexpr int kCallers = 4;
    constexpr int64_t kTotal = 2048;
    std::vector<std::vector<std::atomic<int>>> hits(kCallers);
    for (auto &h : hits) {
        std::vector<std::atomic<int>> fresh(kTotal);
        h.swap(fresh);
    }
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&pool, &hits, c] {
            for (int round = 0; round < 8; ++round) {
                pool.parallelFor(kTotal, 32,
                                 [&hits, c](int64_t begin, int64_t end) {
                    for (int64_t i = begin; i < end; ++i)
                        hits[static_cast<size_t>(c)]
                            [static_cast<size_t>(i)].fetch_add(
                                1, std::memory_order_relaxed);
                });
            }
        });
    }
    for (std::thread &t : callers)
        t.join();
    for (int c = 0; c < kCallers; ++c) {
        for (int64_t i = 0; i < kTotal; ++i) {
            ASSERT_EQ(hits[static_cast<size_t>(c)]
                          [static_cast<size_t>(i)].load(),
                      8)
                << "caller " << c << " i=" << i;
        }
    }
}

TEST(KernelThreadPool, GrainLargerThanTotalIsOneChunk)
{
    KernelThreadPool pool(2);
    const auto chunks = collectChunks(pool, 10, 1024);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].first, 0);
    EXPECT_EQ(chunks[0].second, 10);
}

/**
 * Runs `fn` on a detached thread and reports whether it returned
 * within `limit` (a deadlock fails the test instead of hanging it).
 */
template <typename Fn>
bool
finishesWithin(std::chrono::seconds limit, Fn fn)
{
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> finished = done->get_future();
    std::thread([fn, done] {
        fn();
        done->set_value();
    }).detach();
    return finished.wait_for(limit) == std::future_status::ready;
}

/** Float work whose bits depend on the chunk boundaries. */
void
fillChunk(float *out, int64_t begin, int64_t end, float seed)
{
    float acc = seed;
    for (int64_t i = begin; i < end; ++i) {
        acc = acc * 1.0001f + static_cast<float>(i) * 0.37f;
        out[i] = acc;
    }
}

/** Outer x inner nested parallelFor; returns the outputs. */
std::vector<float>
nestedRun(KernelThreadPool &pool)
{
    constexpr int64_t kOuter = 8;
    constexpr int64_t kInner = 1000;
    std::vector<float> out(static_cast<size_t>(kOuter * kInner));
    pool.parallelFor(kOuter, 1, [&](int64_t o, int64_t) {
        float *row = out.data() + o * kInner;
        pool.parallelFor(kInner, 64, [&](int64_t begin, int64_t end) {
            fillChunk(row, begin, end, static_cast<float>(o));
        });
    });
    return out;
}

class KernelThreadPoolSizes : public ::testing::TestWithParam<size_t>
{
};

TEST_P(KernelThreadPoolSizes, NestedParallelForCompletesBitExact)
{
    KernelThreadPool serial(0);
    const std::vector<float> want = nestedRun(serial);
    const size_t workers = GetParam();
    auto got = std::make_shared<std::vector<float>>();
    ASSERT_TRUE(finishesWithin(std::chrono::seconds(60), [workers, got] {
        KernelThreadPool pool(workers);
        *got = nestedRun(pool);
    })) << "nested parallelFor did not complete (deadlock?)";
    ASSERT_EQ(got->size(), want.size());
    EXPECT_EQ(std::memcmp(got->data(), want.data(),
                          want.size() * sizeof(float)),
              0);
}

TEST_P(KernelThreadPoolSizes, ConcurrentCallersBothComplete)
{
    constexpr int64_t kTotal = 4096;
    std::vector<float> want(kTotal);
    KernelThreadPool serial(0);
    serial.parallelFor(kTotal, 128, [&](int64_t begin, int64_t end) {
        fillChunk(want.data(), begin, end, 1.0f);
    });
    const size_t workers = GetParam();
    auto got = std::make_shared<std::vector<std::vector<float>>>(
        2, std::vector<float>(kTotal));
    ASSERT_TRUE(finishesWithin(std::chrono::seconds(60), [workers, got] {
        KernelThreadPool pool(workers);
        std::vector<std::thread> callers;
        for (size_t c = 0; c < 2; ++c) {
            callers.emplace_back([&pool, &out = (*got)[c]] {
                for (int round = 0; round < 16; ++round) {
                    pool.parallelFor(
                        kTotal, 128, [&](int64_t begin, int64_t end) {
                            fillChunk(out.data(), begin, end, 1.0f);
                        });
                }
            });
        }
        for (std::thread &t : callers)
            t.join();
    })) << "concurrent callers did not complete";
    for (const std::vector<float> &out : *got)
        EXPECT_EQ(std::memcmp(out.data(), want.data(),
                              want.size() * sizeof(float)),
                  0);
}

TEST_P(KernelThreadPoolSizes, RunPairAdoptsCallerFrameContext)
{
    // Both tasks see the caller's session/frame ids on whichever
    // thread runs them, and their staged exemplar spans land in the
    // caller's buffer first-task-first.  With workers, the first task
    // waits for the second to start, so the two run on two threads.
    const size_t workers = GetParam();
    KernelThreadPool pool(workers);
    std::atomic<bool> second_started{false};
    obs::FrameContext &ctx = obs::frameContext();
    const obs::FrameContext saved = ctx;
    obs::ExemplarStaging staging;
    ctx.depth = 1;
    ctx.session = 7;
    ctx.frame = 42;
    ctx.staging = &staging;
    uint64_t ids[2][2] = {};
    const auto task = [&](int t, int32_t layer) {
        if (t == 1)
            second_started.store(true);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (t == 0 && workers > 0 && !second_started.load() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        ids[t][0] = obs::frameContext().session;
        ids[t][1] = obs::frameContext().frame;
        for (int k = 0; k < 3; ++k)
            obs::TraceSpan span(obs::SpanKind::LayerScan, layer);
    };
    pool.runPair([&] { task(0, 10); }, [&] { task(1, 20); });
    obs::frameContext() = saved;
    for (const auto &id : ids) {
        EXPECT_EQ(id[0], 7u);
        EXPECT_EQ(id[1], 42u);
    }
    ASSERT_EQ(staging.count, 6u);
    for (uint32_t k = 0; k < staging.count; ++k)
        EXPECT_EQ(staging.spans[k].layer, k < 3 ? 10 : 20) << k;
}

INSTANTIATE_TEST_SUITE_P(Workers, KernelThreadPoolSizes,
                         ::testing::Values(size_t{0}, size_t{1},
                                           size_t{3}));

} // namespace
} // namespace reuse
