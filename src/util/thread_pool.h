// Minimal fixed-size thread pool with a parallel_for helper.
//
// Used for embarrassingly parallel work: SmartStore's bulk build (the
// k-means placement's distance passes, unit population and the tree's
// per-level summaries) and the facade's multi-writer ingest. The pool
// follows the share-nothing decomposition idiom: tasks communicate only
// through their captured inputs and the returned futures, and every
// parallel_for chunk writes outputs no other chunk touches.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace smartstore::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future yields its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      const MutexLock lock(mu_);
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(lo, hi) over [0, n) cut into consecutive chunks of `grain`
  /// indices (the last may be shorter), which the workers claim in index
  /// order. Blocks until every chunk that started has finished — also when
  /// one throws: no chunk starts after the first failure, and that first
  /// exception is rethrown here, so `fn` never outlives the call.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Runs fn(i) for i in [0, n), one contiguous chunk per worker, with the
  /// same completion and failure contract as above.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  /// Queue mutex: a terminal (kLeaf) lock — submit() may be called from
  /// under higher-rank locks, and nothing is acquired while holding it.
  /// condition_variable_any because the wait path re-locks through the
  /// annotated wrapper, not a raw std::unique_lock<std::mutex>.
  Mutex mu_;
  std::queue<std::function<void()>> tasks_ SS_GUARDED_BY(mu_);
  std::condition_variable_any cv_;
  bool stop_ SS_GUARDED_BY(mu_) = false;
};

/// fn(lo, hi) over [0, n) in chunks of `grain` on `pool`, or as one call
/// fn(0, n) on the calling thread when `pool` is null — the form callers
/// use when whether to fan out is decided elsewhere.
void for_each_chunk(ThreadPool* pool, std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace smartstore::util
