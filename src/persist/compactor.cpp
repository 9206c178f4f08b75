#include "persist/compactor.h"

namespace smartstore::persist {

bool Compactor::trigger() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel))
    return false;
  // From here until the worker owns it, any exit path must release
  // running_ — a stuck flag would disable checkpointing forever while the
  // WAL grows unboundedly.
  struct ClearRunning {
    std::atomic<bool>& flag;
    bool armed = true;
    ~ClearRunning() {
      if (armed) flag.store(false, std::memory_order_release);
    }
  } caller_guard{running_};

  if (inflight_.valid()) inflight_.get();  // surface a finished job's failure

  inflight_ = std::async(std::launch::async, [this] {
    ClearRunning worker_guard{running_};
    engine_.checkpoint();
  });
  caller_guard.armed = false;  // the worker's guard owns the flag now
  return true;
}

bool Compactor::wait() {
  if (!inflight_.valid()) return false;
  inflight_.get();
  return true;
}

}  // namespace smartstore::persist
