// Sharded write-ahead log: one log per storage unit, so concurrent
// writers stop serializing on a single append/fsync point.
//
// Layout on disk: <deploy dir>/wal/<unit id>.log, each a WalWriter log
// (persist/wal.h) whose records carry the store-wide commit seq the core
// stamped: the WAL records the seq it is handed and counts nothing
// itself. The log is the store's core::Journal (core/journal.h), attached
// once per store. Every record goes through one call, append(), run from
// log_insert/log_remove under the routed unit's lock, which makes each
// shard's record order equal that unit's in-memory apply order. The
// commit has one call too: commit(unit), run after the unit lock is
// released once per mutation, which returns only when an fsync covers
// everything the shard had logged, so every acknowledged mutation is
// durable. The fsync stalls only the writers of the shard it flushes:
// shards commit and fsync independently, so writers routed to different
// units overlap their durability waits.
// Recovery (persist/recovery.h) scans every shard and replays the merged
// record stream in sequence order — records that cross shards are
// independent (they touch different units), so losing an *unacknowledged*
// suffix of one shard never invalidates an acknowledged record in another.
//
// Only data records are logged. A topology change (add/remove unit,
// autoconfigure) writes nothing here; the next fold's base image captures
// it (persist/delta_checkpoint.h).
//
// Checkpoint fencing is per shard: frontier() commits all shards at the
// frozen mutation boundary and returns a WalFence carrying one
// (generation, records, byte offset) entry per shard; rebase_to() splices
// each shard's tail past that offset into the next generation, one shard
// mutex at a time, concurrent with live appends to the other shards. A
// crash between per-shard rebases leaves some shards fenced (generation
// matches: recovery skips the prefix) and some rebased (generation
// changed: recovery replays the whole tail) — consistent either way,
// shard by shard.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/journal.h"
#include "persist/wal.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace smartstore::persist {

class ShardedWal final : public core::Journal {
 public:
  /// Observer for records that have become COMMITTED (durable) in this
  /// log. Invoked under the owning shard's mutex (rank kWalShard), one
  /// record at a time in that shard's commit order; the callee may take
  /// locks ranked above kWalShard only (the replication buffer uses
  /// kReplBuffer). Every logged record is delivered, so a seq-ordered
  /// stream never waits on a consumed seq.
  using CommitTap = std::function<void(const WalRecord&)>;

  /// Opens (creating if needed) the shard directory under `deploy_dir` and
  /// every existing shard log in it, plus shards [0, num_shards). A shard
  /// of a unit the recovered shape no longer has is opened too: its
  /// records were replayed, so the next checkpoint must fence them.
  ShardedWal(std::string deploy_dir, std::size_t num_shards);

  ShardedWal(const ShardedWal&) = delete;
  ShardedWal& operator=(const ShardedWal&) = delete;

  static std::string shard_dir(const std::string& deploy_dir);
  static std::string shard_path(const std::string& deploy_dir,
                                std::size_t shard);

  /// Parses a shard filename ("<digits>.log") into its shard id; false
  /// for anything else, including all-digit stems too long to be a real
  /// unit id (an unchecked std::stoull would throw out_of_range — not a
  /// PersistError — out of recover()). Shared by the writer's directory
  /// scan and recovery's.
  static bool parse_shard_id(const std::filesystem::path& p,
                             std::uint64_t* id_out);

  // ---- core::Journal ------------------------------------------------------
  /// Buffer one record into shard `unit`'s pending batch under exactly
  /// `seq`: encode and buffer only, never an fsync. The core calls them
  /// under the routed unit's lock. A replication follower also logs the
  /// remove of a name it does not hold under the PRIMARY's seq, so its log
  /// stays seq-identical to what clients were acked and recovery on a
  /// promoted follower lines up.
  void log_insert(core::UnitId unit, const metadata::FileMetadata& f,
                  std::uint64_t seq) override {
    append(unit, WalRecord::insert(f, seq));
  }
  void log_remove(core::UnitId unit, const std::string& name,
                  std::uint64_t seq) override {
    append(unit, WalRecord::remove(name, seq));
  }
  /// Commits shard `unit`'s pending records as one block and returns once
  /// the fsync has completed, holding the shard mutex throughout. A
  /// caller whose record a concurrent commit already covered finds
  /// nothing pending and returns at once. The core calls it after the
  /// unit lock is released, so the fsync never blocks another writer
  /// routed to the same unit from applying, only from logging to the
  /// shard it flushes.
  void commit(core::UnitId unit) override;

  /// Arms (or, with nullptr, disarms) the commit tap. Disarming discards
  /// any tapped-but-uncommitted records. Safe to call concurrently with
  /// appends: the pointer swap is atomic under a leaf lock and each
  /// shard's pending tap queue is guarded by that shard's mutex.
  void set_commit_tap(CommitTap tap);

  /// Commits every shard's pending records (fsync per dirty shard).
  void commit_all();

  /// Commits every shard and returns the sharded fence at that frontier:
  /// one (generation, records, byte offset) entry per shard, `present`
  /// set. Call at a mutation boundary (the delta engine calls it from
  /// inside a fold's frozen section).
  WalFence frontier();

  /// Drops each shard's fenced prefix under its next generation, splicing
  /// the tail from the fence's byte offset. Safe to run concurrently with
  /// live appends: each shard swaps under its own mutex. `fence` must come
  /// from frontier() — a fence decoded from a manifest carries no offsets,
  /// and WalWriter::rebase rejects them.
  void rebase_to(const WalFence& fence);

  /// Drops all handles and pending batches without committing — the
  /// in-process stand-in for the process dying (crash-injection tests).
  void abandon();

  std::size_t num_shards() const;
  std::uint64_t committed_records(std::size_t shard) const;
  std::uint64_t pending_records(std::size_t shard) const;
  std::uint64_t generation(std::size_t shard) const;
  /// Records per commit block across every shard since this log was
  /// opened, rounded to the nearest integer; 0 before the first commit.
  std::uint64_t records_per_commit() const;
  const std::string& dir() const { return dir_; }

 private:
  struct Shard {
    explicit Shard(std::unique_ptr<WalWriter> w) : writer(std::move(w)) {}
    /// Guards `writer` (append/commit/swap). kWalShard ranks above every
    /// store lock, so a shard mutex may be taken from under a unit lock or
    /// the freeze mutex — and must never be held while taking either.
    mutable util::Mutex mu{util::LockRank::kWalShard};
    std::unique_ptr<WalWriter> writer SS_GUARDED_BY(mu);
    /// Records appended while the tap was armed but not yet known
    /// committed. The drain invariant: the first
    /// `tap_pending.size() - writer->pending_records()` entries are
    /// durable and get delivered (works no matter where the commit
    /// happened — commit(), commit_all() or a frontier), because
    /// tapped records commit strictly in append order.
    std::vector<WalRecord> tap_pending SS_GUARDED_BY(mu);
  };

  /// The shard for `i`, created lazily (units admitted at runtime get
  /// their shard on first record). Returned reference is stable.
  Shard& shard(std::size_t i);
  Shard* shard_if_exists(std::size_t i) const;
  /// The one record path of log_insert and log_remove.
  void append(std::size_t shard, const WalRecord& rec);
  /// Copies `rec` into the shard's tap queue iff the tap is armed.
  void tap_append(Shard& s, const WalRecord& rec) SS_REQUIRES(s.mu);
  /// Delivers the committed prefix of the shard's tap queue (see the
  /// tap_pending invariant).
  void drain_tap(Shard& s) SS_REQUIRES(s.mu);
  std::shared_ptr<const CommitTap> tap_snapshot() const;

  std::string deploy_dir_;
  std::string dir_;  ///< <deploy_dir>/wal
  /// Guards the shard vector's SHAPE only; Shard objects themselves are
  /// heap-stable and carry their own mutex (never held together with this
  /// one — shard()/shard_if_exists() release it before returning).
  mutable util::Mutex map_mu_{util::LockRank::kWalShardMap};
  std::vector<std::unique_ptr<Shard>> shards_ SS_GUARDED_BY(map_mu_);
  /// Leaf-ranked: guards only the shared_ptr swap/copy (never held while
  /// invoking the tap), so it may be taken from under any shard mutex.
  mutable util::Mutex tap_mu_{util::LockRank::kLeaf};
  std::shared_ptr<const CommitTap> tap_ SS_GUARDED_BY(tap_mu_);
};

}  // namespace smartstore::persist
