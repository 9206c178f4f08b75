// The checkpoint engine — the one way a durable deployment checkpoints:
// WAL-delta cuts and compaction folds over the on-disk layout in
// persist/segment.h.
//
// A *cut* is the cheap, frequent operation. Inside one store mutation
// barrier (exclusive structure lock, NO freeze/COW) it commits every WAL
// shard and records the frontier, the commit seq, and — since mutators
// hold their unit lock across stamp+apply — a state every stamped record
// is part of. It then, fully concurrent with resumed traffic, copies each
// contributing shard's new-records slice into that unit's segment file,
// publishes a manifest whose chain grew by one cut, and rebases the WAL.
// A unit with no records since the previous cut contributes nothing; a
// wholly cold store makes the cut a no-op (no manifest write, no rebase).
//
// A *fold* is the compaction, and the only operation that freezes: the
// ARIES-style fuzzy checkpoint. FREEZE — inside the store's exclusive
// section, commit every shard and record the frontier, then start the
// epoch freeze that makes later mutations copy still-unserialized pieces
// on first write. WRITE — concurrent with live traffic, serialize the
// frozen view (honoring the MVCC GC watermark the frozen core captures)
// to a fresh FULL image ckpt/base-<id>, published under a manifest with
// an EMPTY chain. TRUNCATE — rebase the shards and end the freeze.
// Superseded bases and segments are pruned afterwards. The engine
// escalates a cut to a fold on its own when there is no base to chain
// from (a never-checkpointed store).
//
// Crash windows (the crash-injection suite sweeps every publish stage):
//   * before the manifest publish: at worst orphan segment bytes past the
//     previous manifest's known end — invisible to recovery, truncated by
//     the next cut;
//   * between publish and rebase: the manifest fence matches the shard
//     generations, so recovery skips exactly the records the new delta
//     carries (and the next cut skips the same prefix) — nothing applies
//     twice;
//   * after the rebase: generations changed, the whole remaining tail
//     replays over base + deltas.
// In every window each acknowledged write is in the base, a delta, or the
// WAL — never nowhere, never twice.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/smartstore.h"
#include "persist/segment.h"
#include "persist/wal_shard.h"
#include "util/annotated_mutex.h"

namespace smartstore::persist {

struct DeltaCutStats {
  bool folded = false;  ///< the operation compacted to a fresh base image
  bool noop = false;    ///< wholly cold store: nothing written at all
  std::uint64_t cut_seq = 0;          ///< commit seq at the barrier
  std::uint64_t delta_records = 0;    ///< records captured this operation
  std::uint64_t delta_bytes = 0;      ///< segment bytes appended this op
  std::uint64_t units_contributing = 0;
  std::uint64_t units_cold = 0;       ///< fenced shards with no new records
  std::uint64_t chain_len = 0;        ///< cuts in the chain afterwards
  std::uint64_t chain_bytes = 0;      ///< delta bytes in the chain afterwards
  std::size_t base_bytes = 0;         ///< fold only: size of the new image
  // A cut never freezes, so the two counters below stay 0 for cuts.
  std::uint64_t cow_copies = 0;       ///< fold: pieces copied on write
  std::uint64_t mutations_during = 0; ///< fold: mutations while frozen
  double freeze_s = 0;    ///< serving threads excluded (barrier/freeze)
  double write_s = 0;     ///< segment slices or base image + manifest
  double truncate_s = 0;  ///< per-shard WAL rebase
  double seconds = 0;
};

/// One engine per deployment directory; every cut and fold serializes on
/// its internal mutex (rank kCompactor — legal to hold across the store's
/// structure/freeze locks), so a scheduled background fold and a cadence
/// cut can never interleave their publish steps.
class DeltaEngine {
 public:
  /// `store` and `wal` must outlive the engine; `wal` must own
  /// <dir>/wal/. An existing <dir>/ckpt/MANIFEST is read here, so the
  /// chain counters describe the recovered state from the start.
  DeltaEngine(core::SmartStore& store, ShardedWal& wal, std::string dir);

  DeltaEngine(const DeltaEngine&) = delete;
  DeltaEngine& operator=(const DeltaEngine&) = delete;

  /// Takes one delta cut (escalating to a fold when no base exists yet).
  /// Runs on the caller's thread; concurrent mutations proceed except
  /// during the O(1) barrier.
  DeltaCutStats cut();

  /// Folds the whole chain into a fresh base image (full compaction).
  DeltaCutStats fold();

  /// Rebuilds the store exactly as of the last cut, OFFLINE, from the
  /// manifest's base + delta chain only — no WAL scan, so it is immune to
  /// concurrent appends. Replication bootstrap uses it to ship a
  /// snapshot-at-cut without freezing the serving store. Throws
  /// PersistError kNotFound when no checkpoint exists yet; `seq_out`
  /// (optional) receives the chain's last cut seq.
  std::unique_ptr<core::SmartStore> reconstruct_at_last_cut(
      std::uint64_t* seq_out = nullptr);

  /// Stats of the last cut or fold that completed (waits out one in
  /// flight).
  DeltaCutStats last_stats() const;

  // ---- introspection (safe from any thread) -------------------------------

  std::uint64_t cuts() const { return cuts_.load(std::memory_order_relaxed); }
  std::uint64_t folds() const {
    return folds_.load(std::memory_order_relaxed);
  }
  std::uint64_t chain_len() const {
    return chain_len_.load(std::memory_order_relaxed);
  }
  std::uint64_t chain_bytes() const {
    return chain_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t last_cut_seq() const {
    return last_cut_seq_.load(std::memory_order_relaxed);
  }
  /// Id of the current base image ckpt/base-<id>.bin (0 = none yet).
  std::uint64_t base_id() const {
    return base_id_.load(std::memory_order_relaxed);
  }
  /// Cuts (no-ops included) and folds completed since construction.
  std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  /// Summed over every fold since construction.
  std::uint64_t total_cow_copies() const {
    return total_cow_copies_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_mutations_during() const {
    return total_mutations_during_.load(std::memory_order_relaxed);
  }
  /// Segment bytes appended across every cut (lifetime total) — the
  /// numerator of the "incremental writes ≪ full-image bytes" claim.
  std::uint64_t total_delta_bytes() const {
    return total_delta_bytes_.load(std::memory_order_relaxed);
  }

  const std::string& dir() const { return dir_; }

 private:
  DeltaCutStats cut_locked() SS_REQUIRES(mu_);
  DeltaCutStats fold_locked() SS_REQUIRES(mu_);
  void publish_stats_locked(const DeltaManifest& m) SS_REQUIRES(mu_);
  /// Books a completed operation into last_ and the running totals.
  void record_locked(const DeltaCutStats& st) SS_REQUIRES(mu_);

  core::SmartStore& store_;
  ShardedWal& wal_;
  std::string dir_;

  /// Serializes cut/fold end to end. kCompactor ranks below every store
  /// lock, so holding it across mutation_barrier/begin_checkpoint is legal.
  mutable util::Mutex mu_{util::LockRank::kCompactor};
  bool loaded_ SS_GUARDED_BY(mu_) = false;  ///< a manifest exists
  DeltaManifest manifest_ SS_GUARDED_BY(mu_);
  DeltaCutStats last_ SS_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> cuts_{0};
  std::atomic<std::uint64_t> folds_{0};
  std::atomic<std::uint64_t> chain_len_{0};
  std::atomic<std::uint64_t> chain_bytes_{0};
  std::atomic<std::uint64_t> last_cut_seq_{0};
  std::atomic<std::uint64_t> base_id_{0};
  std::atomic<std::uint64_t> total_delta_bytes_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> total_cow_copies_{0};
  std::atomic<std::uint64_t> total_mutations_during_{0};
};

}  // namespace smartstore::persist
