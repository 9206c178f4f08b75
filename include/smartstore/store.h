// smartstore::db::Store — the single-handle embedding API over the
// SmartStore metadata system.
//
// One Open() composes the loose parts of the lower layers: it constructs
// or recovers the core store (checkpoint base image, then the
// sequence-merged WAL-shard tail), takes an exclusive LOCK file against a
// second process opening the same data directory, attaches the per-unit
// WAL shards as the core's journal, and arms the background checkpoint
// slot at the configured cadence. Close() (or the destructor) tears it
// all down in the only safe order: drain the in-flight checkpoint,
// commit the WAL shards, release the lock. No caller ever re-derives the
// WAL-fencing protocol.
//
// On a durable store an acknowledged mutation is a durable one: Put,
// Delete, Write, ApplyReplicated and LoadBootstrap return only after the
// WAL commit covering each record has been fsynced. A power cut loses
// only mutations whose call had not returned.
//
// The boundary is exception-free: every operation returns Status (or
// StatusOr), including the crash-injection harness's simulated power cuts
// (kFaultInjected, armed with persist::fault_arm — after which the store
// is poisoned exactly as a dead process's on-disk state would be: pending
// WAL records are abandoned, never committed by destructors).
//
// Thread safety: Put / Delete / Write / Query / Flush / Checkpoint may be
// called from any number of threads concurrently (the core's striped
// mutation path orders them; one background checkpoint rides along).
// Close and Abandon are exclusive — they wait out every in-flight
// operation, and anything arriving after returns kFailedPrecondition.
// GetProperty and GetSpaceInfo run concurrently with mutators against a
// pinned MVCC snapshot (only "smartstore.invariants-ok" still quiesces).
//
// MVCC: every acknowledged mutation carries a store-wide commit sequence
// number from the core's one commit clock (the WAL records it on durable
// stores, and it survives a reopen). GetSnapshot() pins the current
// seq; Query with ReadOptions scans at a pinned (or historical) seq and is
// bit-identical no matter what writers do in between. Tombstoned versions
// are garbage-collected up to the oldest live Snapshot, so time-travel
// below that watermark is best-effort (deleted records may be gone).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metadata/file_metadata.h"
#include "smartstore/options.h"
#include "smartstore/query.h"
#include "smartstore/status.h"
#include "smartstore/write_batch.h"

namespace smartstore::db {

/// What Open found on disk (all zero for a freshly created deployment).
struct RecoveryInfo {
  bool recovered = false;        ///< a checkpoint or WAL tail was loaded
  std::size_t wal_records = 0;   ///< replayed (fenced prefix excluded)
  std::size_t wal_blocks = 0;
  std::size_t wal_fenced = 0;    ///< skipped: already in the checkpoint
  std::size_t wal_shards = 0;    ///< shard logs scanned
  bool wal_tail_torn = false;    ///< a torn tail was dropped at a
                                 ///< commit boundary
  bool used_manifest = false;    ///< a checkpoint manifest was loaded
                                 ///< (false: WAL replay onto an empty
                                 ///< build, no checkpoint yet)
  /// Always 0: the WAL is the delta, so no cut chain is applied before
  /// the tail (every logged record counts in wal_records). Kept because
  /// perfbench's ingest_durable workload reads them.
  std::size_t delta_cuts = 0;
  std::size_t delta_records = 0;
};

/// Average per-storage-unit space breakdown (see GetSpaceInfo).
struct SpaceInfo {
  std::size_t metadata_bytes = 0;  ///< records + local indexes
  std::size_t index_bytes = 0;     ///< hosted index units
  std::size_t replica_bytes = 0;   ///< replicated group summaries
  std::size_t version_bytes = 0;   ///< attached versions
  std::size_t total_bytes = 0;
};

/// A pinned, immutable view of the store at one commit sequence number.
/// Copyable (shared pin); tombstone GC cannot reclaim any version this
/// view can see while any copy is alive. Safe to destroy after the Store.
class Snapshot {
 public:
  Snapshot() = default;

  /// The pinned commit sequence — feed it to ReadOptions::snapshot_seq
  /// (or ship it to other shards/processes for a cluster-wide cut).
  std::uint64_t sequence() const { return seq_; }

 private:
  friend class Store;
  Snapshot(std::uint64_t seq, std::shared_ptr<void> pin)
      : seq_(seq), pin_(std::move(pin)) {}

  std::uint64_t seq_ = 0;
  std::shared_ptr<void> pin_;
};

/// Per-read options for the snapshot Query overload.
struct ReadOptions {
  /// kReadLatest pins the current commit seq for the duration of the one
  /// query; any other value reads as-of that historical seq (exact for
  /// seqs at or above the GC watermark — use GetSnapshot to hold one).
  std::uint64_t snapshot_seq = kReadLatest;

  static constexpr std::uint64_t kReadLatest =
      static_cast<std::uint64_t>(-1);
};

/// Checkpoint accounting since Open (see GetCheckpointInfo). A
/// checkpoint either folds or writes nothing; the last_* figures describe
/// the last one that completed (all 0 when it wrote nothing).
struct CheckpointInfo {
  /// Checkpoints (those that wrote nothing included) + Compact() folds.
  std::uint64_t completed = 0;
  /// Mutations that rode along with a fold's frozen view (commit seqs
  /// stamped while it ran), summed.
  std::uint64_t total_mutations_during = 0;
  /// Always 0: a fold reads the store as of its pinned seq and copies
  /// nothing. Kept because perfbench's ingest_durable workload reads it.
  std::uint64_t total_cow_copies = 0;
  double last_freeze_s = 0;    ///< serving threads excluded
  double last_write_s = 0;     ///< base image + manifest
  double last_truncate_s = 0;  ///< per-shard WAL rebase
  std::size_t last_snapshot_bytes = 0;  ///< base image bytes
  /// Always 0: there are no delta cuts (the WAL is the delta). Kept
  /// because perfbench's ingest_durable workload reads it.
  std::uint64_t delta_cuts = 0;
  std::uint64_t delta_folds = 0;  ///< folds since Open
};

/// One record of the replication stream: a committed insert or remove
/// together with its store-wide commit sequence number — the same two
/// kinds, under the same seqs, as the primary's WAL records, so the stream
/// has no holes. The primary's commit tap emits these; a follower feeds
/// them back through ApplyReplicated, which re-applies each under the SAME
/// seq so MVCC visibility and the durable frontier line up across
/// replicas.
struct ReplicatedOp {
  bool is_insert = true;
  std::uint64_t seq = 0;
  metadata::FileMetadata file;  ///< inserts
  std::string name;             ///< removes
};

class Store {
 public:
  /// Opens (building or recovering) the deployment at `path`. Errors:
  ///   kInvalidArgument  bad Options or an empty path
  ///   kBusy             another handle holds the directory's LOCK file
  ///   kNotFound         create_if_missing is false and `path` holds
  ///                     neither ckpt/MANIFEST nor a WAL shard log
  ///                     (nothing is created)
  ///   kCorruption       checkpoint/WAL failed a checksum or format check
  ///   kIOError          the filesystem said no
  ///   kFailedPrecondition  the directory holds a layout of earlier
  ///                     builds: a bare snapshot.bin or wal.bin (the
  ///                     pre-manifest single-log layout) and no
  ///                     ckpt/MANIFEST, a manifest whose base is an
  ///                     adopted snapshot.bin (base kind 1), or a
  ///                     manifest chaining delta cuts (a non-zero cut
  ///                     count); there is no importer
  ///   kFaultInjected    a fault point armed by persist::fault_arm fired
  ///   kUnknown          any other failure
  static StatusOr<std::unique_ptr<Store>> Open(const Options& options,
                                               const std::string& path);

  /// Closes (best-effort) if the caller did not.
  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  // ---- bulk load ---------------------------------------------------------

  /// Builds the deployment over a population in one shot: semantic
  /// placement (balanced k-means in LSI space), bottom-up tree
  /// construction, replica initialization. Only valid while the store is
  /// empty (a fresh Open with no Puts yet) — the paper's build() is a
  /// whole-deployment operation, not an incremental one. Bulkload is not
  /// write-ahead logged; on a durable store it folds the deployment into a
  /// fresh checkpoint base before returning (cheap next to the build), so
  /// the population is crash-safe from the moment Bulkload returns OK.
  Status Bulkload(const std::vector<metadata::FileMetadata>& files);

  // ---- mutations ---------------------------------------------------------

  /// Returns once the insert is durable (on a durable store).
  /// kInvalidArgument for an empty filename.
  Status Put(const metadata::FileMetadata& file);

  /// Returns once the removal is durable (on a durable store). kNotFound
  /// when no file of that name exists; kInvalidArgument for an empty
  /// filename.
  Status Delete(const std::string& name);

  /// Applies the batch in order, each op as Put or Delete would (see
  /// write_batch.h), so each op is durable before the next applies. A
  /// Delete of an absent name inside a batch is not an error.
  Status Write(WriteBatch&& batch);

  // ---- queries -----------------------------------------------------------

  StatusOr<QueryResult> Query(const QueryRequest& request);

  // ---- snapshot reads / time travel --------------------------------------

  /// Pins the current commit sequence. All reads through the returned
  /// Snapshot's seq see exactly the mutations acknowledged before this
  /// call, regardless of concurrent writers.
  StatusOr<Snapshot> GetSnapshot();

  /// Exact exhaustive scan at `options.snapshot_seq` (or at a freshly
  /// pinned seq for kReadLatest). Unlike the routed overload above it
  /// follows no semantic routing and returns canonical (sorted)
  /// results: two scans at the same seq are bit-identical no matter what
  /// writers do in between — this is the time-travel / audit read path.
  StatusOr<QueryResult> Query(const QueryRequest& request,
                              const ReadOptions& options);

  /// Commit sequence of the latest acknowledged mutation (0 = none yet).
  std::uint64_t LatestSequence() const;

  // ---- durability control ------------------------------------------------

  /// Commits every WAL shard. Every acknowledged mutation is durable
  /// already; this retries records whose commit failed (their callers
  /// got the error), and returns once nothing is pending.
  Status Flush();

  /// Checkpoints the deployment into the data directory, concurrent with
  /// serving threads. The WAL is the delta, so a checkpoint folds (a
  /// fresh base image, manifest published, shards rebased) when there is
  /// no base yet or when the shards hold at least as many records logged
  /// since the base as the base holds, and writes nothing otherwise. The
  /// same action the background cadence runs. A background checkpoint's
  /// failure that no caller could be told of is returned here first.
  Status Checkpoint();

  /// Folds the WAL tail into a fresh base image however short it is,
  /// concurrent with serving (the image is the store as of the seq the
  /// fold pinned at its freeze), and prunes
  /// the superseded base — the explicit "compact now" call. Like
  /// Checkpoint(), it returns a background checkpoint's untold failure
  /// first.
  Status Compact();

  // ---- replication -------------------------------------------------------

  /// Observer for mutations that became DURABLE here (WAL-committed).
  /// Called from arbitrary operation threads while a per-shard WAL mutex
  /// is held — the callee must be fast, must not call back into this
  /// Store, and may only take locks ranked above kWalShard (the
  /// replication buffer's kReplBuffer qualifies).
  using CommitTap = std::function<void(const ReplicatedOp&)>;

  /// Arms (nullptr: disarms) the durable-commit tap. Requires a WAL.
  /// Per-shard record order is preserved; cross-shard order is not (the
  /// consumer reorders by seq). Records already durable before arming are
  /// not replayed — pair with DumpSnapshot to bootstrap a follower.
  Status SetCommitTap(CommitTap tap);

  /// Applies a run of replicated records in seq order, WAL-logging and
  /// committing each under the primary's seq — on return every
  /// non-skipped record is durable HERE. Records at or below the current
  /// frontier are skipped (duplicate batches and bootstrap overlap are
  /// idempotent). `*frontier_out` receives the new durable frontier.
  /// Requires a WAL; removes of absent names are OK (already-applied).
  Status ApplyReplicated(const std::vector<ReplicatedOp>& ops,
                         std::uint64_t* frontier_out);

  /// Pins the current commit seq and returns every record visible at it
  /// in canonical (id, name) order; `*seq_out` receives the pinned seq.
  /// This is the bootstrap payload for an empty follower — and the
  /// oracle-comparison read (two stores with the same history dump ==).
  StatusOr<std::vector<metadata::FileMetadata>> DumpSnapshot(
      std::uint64_t* seq_out);

  /// Installs a DumpSnapshot taken elsewhere at commit seq `seq` into
  /// this EMPTY store, then advances the local frontier to `seq` so the
  /// replication stream resumes cleanly at seq+1. A durable store with
  /// `seq` > 0 folds before returning, as Bulkload does, so the frontier
  /// survives a restart. kFailedPrecondition if the store has ever
  /// applied a mutation.
  Status LoadBootstrap(std::uint64_t seq,
                       const std::vector<metadata::FileMetadata>& files);

  // ---- introspection -----------------------------------------------------

  /// Named properties ("smartstore.total-files", "smartstore.wal.frontier",
  /// "smartstore.space.total-bytes", "smartstore.mvcc.commit-seq", ... —
  /// see the README's table). Returns false for unknown names. Structural
  /// and space reads run against a pinned snapshot, concurrent with
  /// mutators; only "smartstore.invariants-ok" still quiesces.
  bool GetProperty(const std::string& name, std::string* value);

  const RecoveryInfo& recovery_info() const;
  CheckpointInfo GetCheckpointInfo() const;
  /// One snapshot-pinned read of the per-unit space breakdown (concurrent
  /// with mutators; computes all five numbers in a single pass).
  SpaceInfo GetSpaceInfo();
  const Options& options() const;
  const std::string& path() const;

  // ---- lifecycle ---------------------------------------------------------

  /// Waits out in-flight operations and the background checkpoint,
  /// commits the WAL shards, releases the LOCK file. Returns a
  /// background checkpoint failure no earlier call returned. Idempotent.
  /// Every operation after Close returns kFailedPrecondition.
  Status Close();

  /// Crash simulation (test/bench harness): drops every durability handle
  /// WITHOUT committing pending WAL records — the in-process stand-in for
  /// the process dying — and releases the LOCK file so the directory can
  /// be re-Opened to exercise recovery. The handle is poisoned afterwards.
  void Abandon();

 private:
  Store();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace smartstore::db
