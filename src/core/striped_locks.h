// Address-keyed striped mutex pools: the leaf-level synchronization for
// the multi-writer serving path's *summary* and *replica-sync* updates.
//
// The store's coarse shape (which units exist, tree topology, the variant
// list) is guarded by a reader/writer structure lock; storage-unit records
// get DEDICATED per-unit mutexes (the journal logs under them and may wait
// out a shard fsync, so they must never alias anything else); the
// remaining shared state every insert touches is guarded here, striped by
// object address, in two pools with distinct ranks: an index unit's
// MBR/Bloom/centroid sums (kSummaryStripe) and a group's replica sync
// state (kSyncStripe).
// Writers routed to different storage units then only ever contend where
// their ancestor paths overlap (the root stripe), and that critical
// section is a few bit-sets and adds — never I/O.
//
// Discipline (what keeps this deadlock-free):
//   * at most ONE stripe-or-unit-lock is held at a time — walkers lock a
//     node, update it, release, then move to the parent; summary updates
//     are commutative (MBR expand, filter insert, sum add), so cross-node
//     atomicity is not needed and readers tolerate the transient widening;
//   * a stripe may be held while taking a leaf-class lock (the freeze
//     mutex, a WAL shard mutex, the sim-cluster mutex) — never the reverse;
//   * striping is by current address: objects only move (vector
//     reallocation) under the exclusive structure lock, when no stripe can
//     be held.
//
// Clang TSA cannot model these locks (which mutex you take is a runtime
// hash of an address), so the discipline is enforced dynamically instead:
// every stripe carries the pool's LockRank and reports to the
// LockOrderValidator — holding any stripe while taking another (same pool
// or not) aborts a debug/asan/tsan run, and assert_held() gives callees an
// ASSERT_CAPABILITY-style runtime check that their caller really locked
// the stripe they are about to mutate under.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>

#include "util/lock_rank.h"

namespace smartstore::core {

class StripedMutexPool {
 public:
  static constexpr std::size_t kStripes = 64;

  explicit StripedMutexPool(
      util::LockRank rank = util::LockRank::kSummaryStripe) noexcept
      : rank_(rank) {}

  util::LockRank rank() const noexcept { return rank_; }

  /// The stripe guarding the object at `p`. Distinct objects may share a
  /// stripe (that is the point); the same address always maps to the same
  /// stripe while any lock is held.
  std::mutex& for_ptr(const void* p) const {
    auto h = reinterpret_cast<std::uintptr_t>(p);
    h ^= h >> 17;  // drop allocation-granularity bias before folding
    h *= 0x9E3779B97F4A7C15ULL;
    return mu_[(h >> 32) % kStripes];
  }

  /// Runtime REQUIRES stand-in for the stripe TSA cannot name: aborts in
  /// validator builds unless the calling thread holds `p`'s stripe.
  void assert_held([[maybe_unused]] const void* p) const {
#ifdef SMARTSTORE_LOCK_RANK_ACTIVE
    if (!util::LockOrderValidator::holds(&for_ptr(p))) {
      std::fprintf(stderr,
                   "lock-rank violation: assert_held(%s stripe) failed\n",
                   util::lock_rank_name(rank_));
      std::abort();
    }
#endif
  }

 private:
  mutable std::array<std::mutex, kStripes> mu_;
  const util::LockRank rank_;
};

/// RAII guard for one stripe; empty when constructed with a null pool (the
/// single-threaded paths — bulk build, recovery replay — skip the locking
/// without a second code path). Registers with the LockOrderValidator so a
/// thread holding any stripe-or-above lock of equal or greater rank aborts
/// before it can deadlock.
class StripeLock {
 public:
  StripeLock() noexcept = default;
  StripeLock(const StripedMutexPool* pool, const void* p) {
    if (pool == nullptr) return;
    mu_ = &pool->for_ptr(p);
    rank_ = pool->rank();
    util::LockOrderValidator::on_acquire(mu_, rank_);
    mu_->lock();
  }
  ~StripeLock() {
    if (mu_ == nullptr) return;
    mu_->unlock();
    util::LockOrderValidator::on_release(mu_, rank_);
  }

  StripeLock(const StripeLock&) = delete;
  StripeLock& operator=(const StripeLock&) = delete;

 private:
  std::mutex* mu_ = nullptr;
  util::LockRank rank_ = util::LockRank::kLeaf;
};

/// Locks `p`'s stripe when `pool` is non-null; otherwise an empty guard.
inline StripeLock maybe_lock(const StripedMutexPool* pool, const void* p) {
  return StripeLock(pool, p);
}

}  // namespace smartstore::core
