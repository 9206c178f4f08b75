// The one background checkpoint slot over the delta engine. Its cadence
// action is a delta cut followed, when the cut leaves the chain past a
// configured length or byte budget, by a fold into a fresh base image —
// on a worker thread, concurrent with live traffic (the fold reuses the
// store's epoch-freeze/COW protocol and honors the MVCC GC watermark, so
// readers and writers keep running).
//
// The class is intentionally thin — all correctness lives in DeltaEngine,
// whose internal mutex serializes every cut and fold. This class only
// decides WHEN and keeps at most one background job in flight: a trigger
// while one runs is rejected, since the job in flight already covers the
// window that tripped it.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>

#include "persist/delta_checkpoint.h"

namespace smartstore::persist {

class Compactor {
 public:
  /// A fold follows a cut when the chain exceeds `max_chain_len` cuts OR
  /// `max_chain_bytes` delta bytes (0 disables that trigger; both 0
  /// disables automatic folds — compact_now() still works). `engine` must
  /// outlive the compactor.
  Compactor(DeltaEngine& engine, std::size_t max_chain_len,
            std::uint64_t max_chain_bytes)
      : engine_(engine),
        max_chain_len_(max_chain_len),
        max_chain_bytes_(max_chain_bytes) {}

  /// Waits for an in-flight job (swallowing its error — use wait() to
  /// observe failures before destruction).
  ~Compactor() {
    if (inflight_.valid()) {
      try {
        inflight_.get();
      } catch (...) {
        // The next cut/fold/recover sees a state every crash window of
        // the checkpoint protocol keeps consistent.
      }
    }
  }

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// Starts the cadence action (cut, then fold when over budget) on a
  /// background thread. Returns false, and does nothing, when one is
  /// already in flight. A finished job's failure is rethrown here rather
  /// than discarded with its future.
  bool trigger();

  /// The cadence action on the caller's thread, after waiting out (and
  /// rethrowing the failure of) any in-flight job.
  DeltaCutStats checkpoint_now();

  /// Folds the whole chain into a fresh base on the caller's thread, after
  /// waiting out any in-flight job.
  DeltaCutStats compact_now();

  /// Blocks until the in-flight job (if any) finishes; rethrows its
  /// failure. Returns true when a job actually ran.
  bool wait();

  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  DeltaCutStats cut_then_fold();
  bool over_budget() const {
    const std::uint64_t len = engine_.chain_len();
    const std::uint64_t bytes = engine_.chain_bytes();
    return (max_chain_len_ > 0 && len > max_chain_len_) ||
           (max_chain_bytes_ > 0 && bytes > max_chain_bytes_);
  }

  DeltaEngine& engine_;
  std::size_t max_chain_len_;
  std::uint64_t max_chain_bytes_;

  std::atomic<bool> running_{false};
  std::future<void> inflight_;
};

}  // namespace smartstore::persist
