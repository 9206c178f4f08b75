// Sharded write-ahead log: one log per storage unit, so concurrent
// writers stop serializing on a single append/fsync point.
//
// Layout on disk: <deploy dir>/wal/<unit id>.log, each a WalWriter log
// (persist/wal.h) whose records carry a store-wide monotonic sequence
// number. Every data record goes through one call, append(), run from the
// store's WalHook under the routed unit's lock, which makes each shard's
// record order equal that unit's in-memory apply order. The group commit
// has one trigger too: maybe_commit(), run from the store's flush hook
// after the unit lock is released, so an fsync stalls only the writers of
// the shard it flushes. Shards group-commit and fsync independently, so
// writers routed to different units overlap their durability waits.
// Recovery (persist/recovery.h) scans every shard and replays the merged
// record stream in sequence order — records that cross shards are
// independent (they touch different units), so losing an *unacknowledged*
// suffix of one shard never invalidates an acknowledged record in another.
//
// Structural operations (add/remove unit, autoconfigure) are logged under
// the store's exclusive structure lock through a barrier: every shard is
// committed first, then the structural record lands in shard 0 and is
// committed immediately. No per-unit record logged before the structural
// op can therefore be less durable than the structural record itself, so
// the merged replay order around topology changes is exact.
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

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "persist/wal.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace smartstore::persist {

class ShardedWal {
 public:
  /// Observer for records that have become COMMITTED (durable) in this
  /// log. Invoked under the owning shard's mutex (rank kWalShard), one
  /// record at a time in that shard's commit order; the callee may take
  /// locks ranked above kWalShard only (the replication buffer uses
  /// kReplBuffer). Every record that consumes a stamp is delivered — data
  /// records (kInsert/kRemove) AND structural records; the consumer maps
  /// structural records (replica-private unit topology) to seq-hole
  /// markers so a seq-ordered stream never waits on a consumed seq.
  using CommitTap = std::function<void(const WalRecord&)>;

  /// Opens (creating if needed) the shard directory under `deploy_dir` and
  /// every existing shard log in it, plus shards [0, num_shards). The
  /// store-wide sequence counter resumes past the largest sequence found.
  ///
  /// With `adaptive` set, `group_commit` is only the starting point: each
  /// shard re-sizes its own batch from an EWMA of its fsync latency and
  /// record inter-arrival gap — batch ≈ sync_cost / arrival_gap, clamped
  /// to [1, kMaxAdaptiveGroupCommit] — so a hot shard amortizes the fsync
  /// over more records while an idle one stays at latency-optimal 1.
  /// Adaptive timing makes commit points wall-clock-dependent; the
  /// deterministic crash sweeps pass explicit static sizes instead.
  ShardedWal(std::string deploy_dir, std::size_t num_shards,
             std::size_t group_commit = 4, bool adaptive = false);

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

  // ---- per-unit records ---------------------------------------------------

  /// Buffers a data record (kInsert/kRemove) into shard `shard`'s pending
  /// batch and returns its seq. Called from the store's WalHook, under the
  /// routed unit's lock: encode and buffer only, never an fsync. A record
  /// with seq 0 is stamped with the next store-wide seq — the store adopts
  /// it as the mutation's commit timestamp (MVCC snapshot visibility). A
  /// nonzero seq is kept and the counter raised past it: a replication
  /// follower re-logs the PRIMARY's seq, so its log stays seq-identical to
  /// what clients were acked and recovery on a promoted follower lines up.
  std::uint64_t append(std::size_t shard, WalRecord rec);
  /// Commits `shard` if its pending batch reached the group-commit size —
  /// the only group-commit trigger. Called from the store's flush hook
  /// after the unit lock is released, so the fsync never blocks another
  /// writer routed to the same unit, only the shard it flushes.
  void maybe_commit(std::size_t shard);

  /// Arms (or, with nullptr, disarms) the commit tap. Disarming discards
  /// any tapped-but-uncommitted records. Safe to call concurrently with
  /// appends: the pointer swap is atomic under a leaf lock and each
  /// shard's pending tap queue is guarded by that shard's mutex.
  void set_commit_tap(CommitTap tap);

  // ---- structural records (caller holds the store's exclusive structure
  // ---- lock; all shards are barrier-committed first) ---------------------

  std::uint64_t log_add_unit();
  std::uint64_t log_remove_unit(std::uint64_t unit);
  std::uint64_t log_autoconfigure(
      const std::vector<metadata::AttrSubset>& subsets);

  /// Commits every shard's pending batch (fsync per dirty shard).
  void commit_all();

  /// Commits every shard and returns the sharded fence at that frontier:
  /// one (generation, records, byte offset) entry per shard, `present`
  /// set. Call at a mutation boundary (the delta engine calls it from
  /// inside its cut barrier or a fold's frozen section).
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
  /// Next sequence number to be stamped (monotonic across all shards).
  std::uint64_t next_seq() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// Raises the sequence counter so the next stamp is at least `floor`.
  /// Store::Open calls this with last_commit_seq() + 1 after recovery:
  /// rebases drop replayed records, so the directory scan alone can
  /// under-resume the counter and reuse seqs a loaded checkpoint already
  /// carries.
  void ensure_seq_at_least(std::uint64_t floor) {
    std::uint64_t cur = next_seq_.load(std::memory_order_relaxed);
    while (cur < floor && !next_seq_.compare_exchange_weak(
                              cur, floor, std::memory_order_relaxed)) {
    }
  }
  std::size_t group_commit() const { return group_commit_; }
  bool adaptive() const { return adaptive_; }
  /// The group-commit size actually in force: the static configuration
  /// when not adaptive, else the mean of the per-shard adaptive targets
  /// (shards that have not yet converged report the starting size).
  std::size_t effective_group_commit() const;
  const std::string& dir() const { return dir_; }

  /// Ceiling of the adaptive batch size: past this, the marginal fsync
  /// amortization is negligible but the unacked-loss window on a torn
  /// tail keeps growing.
  static constexpr std::size_t kMaxAdaptiveGroupCommit = 64;

 private:
  struct Shard {
    explicit Shard(std::unique_ptr<WalWriter> w) : writer(std::move(w)) {}
    /// Guards `writer` (append/commit/swap). kWalShard ranks above every
    /// store lock, so a shard mutex may be taken from under a unit lock or
    /// the freeze mutex — and must never be held while taking either.
    mutable util::Mutex mu{util::LockRank::kWalShard};
    std::unique_ptr<WalWriter> writer SS_GUARDED_BY(mu);
    // Adaptive group-commit state (all under mu; unused when the log runs
    // a static size). Gaps and sync costs are EWMA-smoothed so one slow
    // fsync or one idle stretch does not whipsaw the batch size.
    double ewma_sync_s SS_GUARDED_BY(mu) = 0;
    double ewma_gap_s SS_GUARDED_BY(mu) = 0;
    double last_append_s SS_GUARDED_BY(mu) = -1;  ///< steady-clock seconds
    std::size_t target SS_GUARDED_BY(mu) = 0;     ///< 0 = not yet converged
    /// Data records appended while the tap was armed but not yet known
    /// committed. The drain invariant: the first
    /// `tap_pending.size() - writer->pending_records()` entries are
    /// durable and get delivered (works no matter where the commit
    /// happened — maybe_commit(), a frontier or a barrier), because
    /// tapped records commit strictly in append order.
    std::vector<WalRecord> tap_pending SS_GUARDED_BY(mu);
  };

  /// The shard for `i`, created lazily (units admitted at runtime get
  /// their shard on first record). Returned reference is stable.
  Shard& shard(std::size_t i);
  Shard* shard_if_exists(std::size_t i) const;
  std::uint64_t stamp() {
    return next_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t log_structural(const WalRecord& rec);
  /// Copies `rec` into the shard's tap queue iff the tap is armed.
  void tap_append(Shard& s, const WalRecord& rec) SS_REQUIRES(s.mu);
  /// Delivers the committed prefix of the shard's tap queue (see the
  /// tap_pending invariant).
  void drain_tap(Shard& s) SS_REQUIRES(s.mu);
  std::shared_ptr<const CommitTap> tap_snapshot() const;

  // ---- adaptive sizing (no-ops when adaptive_ is unset) -------------------
  /// Folds the inter-arrival gap since the shard's previous append into
  /// its EWMA. Call on every data append, under s.mu.
  void note_append(Shard& s) SS_REQUIRES(s.mu);
  /// Commits the shard's batch, timing the flush+fsync into the EWMA and
  /// recomputing the target batch size.
  void timed_commit(Shard& s) SS_REQUIRES(s.mu);
  /// This shard's in-force batch size.
  std::size_t shard_group_commit(const Shard& s) const SS_REQUIRES(s.mu) {
    return adaptive_ && s.target > 0 ? s.target : group_commit_;
  }

  std::string deploy_dir_;
  std::string dir_;  ///< <deploy_dir>/wal
  std::size_t group_commit_;
  bool adaptive_ = false;
  /// Guards the shard vector's SHAPE only; Shard objects themselves are
  /// heap-stable and carry their own mutex (never held together with this
  /// one — shard()/shard_if_exists() release it before returning).
  mutable util::Mutex map_mu_{util::LockRank::kWalShardMap};
  std::vector<std::unique_ptr<Shard>> shards_ SS_GUARDED_BY(map_mu_);
  std::atomic<std::uint64_t> next_seq_{1};
  /// Leaf-ranked: guards only the shared_ptr swap/copy (never held while
  /// invoking the tap), so it may be taken from under any shard mutex.
  mutable util::Mutex tap_mu_{util::LockRank::kLeaf};
  std::shared_ptr<const CommitTap> tap_ SS_GUARDED_BY(tap_mu_);
};

}  // namespace smartstore::persist
