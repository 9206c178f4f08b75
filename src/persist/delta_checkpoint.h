// The checkpoint engine — the one way a durable deployment checkpoints,
// over the on-disk layout in persist/segment.h.
//
// The WAL is the delta: until a fold, a logged record lives only in its
// unit's shard log, and recovery replays the shard tails past the
// manifest's fence over the base image. A checkpoint therefore has one
// job — decide when the log tail has grown enough to be worth folding
// into a fresh base — and one rule: it folds when there is no base yet,
// or when the WAL holds at least as many records committed since the
// base's fence as the base holds (and at least one). Otherwise it reads
// a few counters and writes nothing. A fold's image therefore holds at
// most twice the records logged since the previous fold, and a reopen
// replays at most about the base's own record count.
//
// A *fold* is the only operation that writes, and the only one that
// freezes: the ARIES-style fuzzy checkpoint. FREEZE — inside the store's
// exclusive section, commit every shard and record the frontier, then
// pin the commit seq they stand at. WRITE — concurrent with live traffic,
// serialize the store as of that seq (each unit read under its own lock,
// honoring the MVCC GC watermark the frozen core captures) to a fresh
// FULL image ckpt/base-<id>, published under a new manifest. TRUNCATE —
// rebase the shards and end the freeze, releasing the pin. Superseded
// bases are pruned afterwards.
//
// Crash windows (the crash-injection suite sweeps every publish stage):
//   * before the manifest publish: the old manifest, its base and the
//     full WAL tail are intact (a half-written new base is unreferenced);
//   * between publish and rebase: the manifest fence matches the shard
//     generations, so recovery skips exactly the records the new base
//     holds — nothing applies twice;
//   * after the rebase: generations changed, the whole remaining tail
//     replays over the base.
// In every window each acknowledged write is in the base or the WAL —
// never nowhere, never twice.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/smartstore.h"
#include "persist/segment.h"
#include "persist/wal_shard.h"
#include "util/annotated_mutex.h"

namespace smartstore::persist {

struct CheckpointStats {
  bool folded = false;  ///< false: the checkpoint wrote nothing
  std::size_t base_bytes = 0;         ///< fold: size of the new image
  /// fold: commit seqs stamped between its freeze and its end
  std::uint64_t mutations_during = 0;
  double freeze_s = 0;    ///< serving threads excluded
  double write_s = 0;     ///< base image + manifest
  double truncate_s = 0;  ///< per-shard WAL rebase
};

/// One engine per deployment directory; every checkpoint and fold
/// serializes on its internal mutex (rank kCompactor — legal to hold
/// across the store's structure/freeze locks), so a scheduled background
/// checkpoint and an explicit fold can never interleave their publish
/// steps.
class DeltaEngine {
 public:
  /// `store` and `wal` must outlive the engine; `wal` must own
  /// <dir>/wal/. An existing <dir>/ckpt/MANIFEST is read here. The base's
  /// population is then taken as the store's minus the records the WAL
  /// holds past the fence: a lower bound, since each logged record moves
  /// the population by at most one, so the first checkpoint after a
  /// reopen can fold early but never late.
  DeltaEngine(core::SmartStore& store, ShardedWal& wal, std::string dir);

  DeltaEngine(const DeltaEngine&) = delete;
  DeltaEngine& operator=(const DeltaEngine&) = delete;

  /// The one checkpoint (see the rule above): a fold or nothing. Runs on
  /// the caller's thread; concurrent mutations proceed except during a
  /// fold's O(1) freeze.
  CheckpointStats checkpoint();

  /// Folds the WAL tail into a fresh base image, whatever its length.
  CheckpointStats fold();

  /// Stats of the last checkpoint or fold that completed (waits out one
  /// in flight).
  CheckpointStats last_stats() const;

  // ---- introspection (safe from any thread) -------------------------------

  std::uint64_t folds() const {
    return folds_.load(std::memory_order_relaxed);
  }
  /// Commit seq the newest fold captured (the manifest's fold seq).
  std::uint64_t fold_seq() const {
    return fold_seq_.load(std::memory_order_relaxed);
  }
  /// Id of the current base image ckpt/base-<id>.bin (0 = none yet).
  std::uint64_t base_id() const {
    return base_id_.load(std::memory_order_relaxed);
  }
  /// Checkpoints (those that wrote nothing included) and folds completed
  /// since construction.
  std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  /// Summed over every fold since construction.
  std::uint64_t total_mutations_during() const {
    return total_mutations_during_.load(std::memory_order_relaxed);
  }

  const std::string& dir() const { return dir_; }

 private:
  CheckpointStats fold_locked() SS_REQUIRES(mu_);
  /// Records committed to the WAL past the manifest's fence, summed over
  /// the shards.
  std::uint64_t logged_since_base_locked() const SS_REQUIRES(mu_);
  void publish_manifest_locked(DeltaManifest m) SS_REQUIRES(mu_);
  /// Books a completed operation into last_ and the running totals.
  void record_locked(const CheckpointStats& st) SS_REQUIRES(mu_);

  core::SmartStore& store_;
  ShardedWal& wal_;
  std::string dir_;

  /// Serializes checkpoint/fold end to end. kCompactor ranks below every
  /// store lock, so holding it across begin_checkpoint is legal.
  mutable util::Mutex mu_{util::LockRank::kCompactor};
  bool loaded_ SS_GUARDED_BY(mu_) = false;  ///< a manifest exists
  DeltaManifest manifest_ SS_GUARDED_BY(mu_);
  /// Files the base image holds (see the constructor for a reopen).
  std::uint64_t base_files_ SS_GUARDED_BY(mu_) = 0;
  CheckpointStats last_ SS_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> folds_{0};
  std::atomic<std::uint64_t> fold_seq_{0};
  std::atomic<std::uint64_t> base_id_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> total_mutations_during_{0};
};

}  // namespace smartstore::persist
