// The one background checkpoint slot over the delta engine. Its cadence
// action is DeltaEngine::checkpoint() — a fold into a fresh base image
// when the WAL tail has grown to the base's size, nothing otherwise — on
// a worker thread, concurrent with live traffic (the fold writes the
// store as of the commit seq it pinned at its freeze and honors the MVCC
// GC watermark, so readers and writers keep running).
//
// The class is intentionally thin — all correctness lives in DeltaEngine,
// whose internal mutex serializes every checkpoint and fold (a caller
// checkpoints or folds on its own thread through the engine directly).
// This class only keeps at most one background job in flight: a trigger
// while one runs is rejected, since the job in flight already covers the
// window that tripped it.
#pragma once

#include <atomic>
#include <future>

#include "persist/delta_checkpoint.h"

namespace smartstore::persist {

class Compactor {
 public:
  /// `engine` must outlive the compactor.
  explicit Compactor(DeltaEngine& engine) : engine_(engine) {}

  /// Waits for an in-flight job (swallowing its error — use wait() to
  /// observe failures before destruction).
  ~Compactor() {
    if (inflight_.valid()) {
      try {
        inflight_.get();
      } catch (...) {
        // The next checkpoint/fold/recover sees a state every crash
        // window of the checkpoint protocol keeps consistent.
      }
    }
  }

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// Starts DeltaEngine::checkpoint() on a background thread. Returns
  /// false, and does nothing, when one is already in flight. A finished
  /// job's failure is rethrown here rather than discarded with its future
  /// (and no new job starts).
  bool trigger();

  /// Blocks until the in-flight job (if any) finishes; rethrows its
  /// failure. Returns true when a job actually ran.
  bool wait();

  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  DeltaEngine& engine_;

  std::atomic<bool> running_{false};
  std::future<void> inflight_;
};

}  // namespace smartstore::persist
