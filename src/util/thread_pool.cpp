#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace smartstore::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mu_);
      cv_.wait(lock, [this]() SS_REQUIRES(mu_) {
        return stop_ || !tasks_.empty();
      });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks = (n + grain - 1) / grain;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  // Written once, by the claimer that flips `failed`; read after every
  // claimer's future is ready, which orders the write before the read.
  std::exception_ptr first_error;
  auto claim = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      try {
        fn(c * grain, std::min(n, (c + 1) * grain));
      } catch (...) {
        if (!failed.exchange(true)) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::future<void>> claimers;
  const std::size_t tasks = std::min(chunks, workers_.size());
  claimers.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) claimers.push_back(submit(claim));
  for (auto& c : claimers) c.wait();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  const std::size_t per = (n + workers_.size() - 1) / workers_.size();
  parallel_for(n, per, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

void for_each_chunk(ThreadPool* pool, std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (pool == nullptr) {
    if (n > 0) fn(0, n);
    return;
  }
  pool->parallel_for(n, grain, fn);
}

}  // namespace smartstore::util
