// Unit tests for the thread pool.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace smartstore::util {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(1000, [&](std::size_t i) { counts[i]++; });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIterations) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.parallel_for(3, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPool, SizeReportsWorkerCount) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(ThreadPool, ParallelForChunksCoverTheRangeInGrainSteps) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(1001);
  std::atomic<int> short_chunks{0};
  pool.parallel_for(1001, 64, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo % 64, 0u);
    EXPECT_LE(hi - lo, 64u);
    if (hi - lo < 64) short_chunks++;
    for (std::size_t i = lo; i < hi; ++i) counts[i]++;
  });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
  EXPECT_EQ(short_chunks.load(), 1);  // 1001 = 15 * 64 + 41
}

TEST(ThreadPool, ParallelForWaitsForEveryChunkBeforeRethrowing) {
  // Declared before the pool, so they outlive its workers even if
  // parallel_for returned early.
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t i) {
                                   if (i == 0) {
                                     // Fail once the other chunks all run.
                                     while (started.load() < 3)
                                       std::this_thread::yield();
                                     throw std::runtime_error("chunk 0");
                                   }
                                   started++;
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(100));
                                   finished++;
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

TEST(ThreadPool, ParallelForStartsNoChunkAfterAFailure) {
  ThreadPool pool(1);  // one worker claims the chunks strictly in order
  std::vector<int> ran(10, 0);
  EXPECT_THROW(pool.parallel_for(10, 1,
                                 [&](std::size_t lo, std::size_t) {
                                   ran[lo] = 1;
                                   if (lo == 2) throw std::runtime_error("2");
                                 }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 0, 0, 0, 0, 0, 0, 0}));
}

TEST(ThreadPool, ForEachChunkWithoutAPoolIsOneCallOnTheCaller) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  for_each_chunk(nullptr, 10, 3, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    calls.emplace_back(lo, hi);
  });
  EXPECT_EQ(calls, (std::vector<std::pair<std::size_t, std::size_t>>{{0, 10}}));
  for_each_chunk(nullptr, 0, 3,
                 [&](std::size_t, std::size_t) { ADD_FAILURE(); });
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

}  // namespace
}  // namespace smartstore::util
