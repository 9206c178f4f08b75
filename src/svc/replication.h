// ReplicationSender: the primary-side half of per-shard WAL replication.
//
// The db::Store commit tap hands this object every mutation the moment it
// becomes durable on the primary (under a kWalShard mutex, any operation
// thread, per-shard order only). The sender reorders the records into one
// seq-contiguous stream, ships them to the follower in kReplAppend batches
// over an rpc::Channel, and tracks the follower's durable frontier from
// the acks. MetaService's ack barrier (WaitDurable) blocks each client
// response on that frontier, which is what turns "acked" into "durable on
// BOTH replicas" — the invariant promotion relies on.
//
// Sync / degraded state machine:
//
//   SYNC      sync_engaged_ == true. Every ack waits for the follower
//             frontier. Batches ship with the sync flag set; the follower
//             latches the flag into its promotion-eligibility `ready` bit.
//   DEGRADED  no follower, or the follower is still catching up after a
//             bootstrap. WaitDurable returns immediately (primary-only
//             durability) but records the acked seq in degraded_acked_.
//             The follower may only become ready once its frontier covers
//             degraded_acked_ — otherwise promoting it would lose a write
//             some client was told is durable.
//   DEPOSED   the follower answered kFailedPrecondition: a higher map
//             epoch exists, so a promotion already happened and THIS node
//             is the stale primary. WaitDurable fails from then on —
//             acking from the losing side of a split brain is the one
//             unforgivable move. The epoch is cluster-wide, so a
//             promotion on a DIFFERENT shard also bumps it; cluster
//             orchestration re-certifies every surviving primary via
//             AdoptEpoch before followers learn the new map, and a
//             rejection of a frame stamped before that re-certification
//             is treated as transient (re-shipped at the adopted epoch),
//             not as deposition.
//
// The degraded->sync flip happens under mu_ on ack receipt (never
// predictively at batch-build time): degraded acks are recorded under the
// same mutex, so a concurrent WaitDurable can never slip an acked seq past
// a flag the follower already latched.
//
// Lock discipline: mu_ has rank kReplBuffer (56) — ABOVE kWalShard, so the
// commit tap may take it, and never held across a channel Call (the
// in-process transport runs the follower's handler, which descends to
// store rank 0, on the calling thread).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "rpc/transport.h"
#include "rpc/wire.h"
#include "smartstore/store.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace smartstore::svc {

struct ReplicationOptions {
  /// Records per kReplAppend frame (bounds frame size and the ack delay a
  /// burst can add).
  std::size_t max_batch = 256;
  /// Consecutive send failures before the sender declares the follower
  /// dead and detaches (degraded solo) instead of stalling acks forever.
  int max_consecutive_failures = 5;
  /// Pause between retries of a failing send (woken early by new commits).
  std::uint64_t retry_delay_ms = 10;
};

class ReplicationSender {
 public:
  explicit ReplicationSender(ReplicationOptions options = {});
  ~ReplicationSender();  ///< calls Stop()

  ReplicationSender(const ReplicationSender&) = delete;
  ReplicationSender& operator=(const ReplicationSender&) = delete;

  /// The db::Store commit-tap entry point. Called under a kWalShard mutex
  /// from arbitrary operation threads; buffers the record (when a follower
  /// is attached or retention is armed) and wakes the sender.
  void OnCommit(const db::ReplicatedOp& op);

  /// Bootstraps `follower` (which must be an EMPTY store — cluster
  /// orchestration wipes stale replicas before rejoin) and attaches the
  /// append stream to it:
  ///   1. arms retain-everything buffering,
  ///   2. dumps the primary at snapshot seq S (no quiescing — anything
  ///      committing after the pin lands in the buffer),
  ///   3. pushes the dump via kReplBootstrap and verifies frontier == S,
  ///   4. resumes the stream at S+1 from the buffer.
  /// `epoch` rides every frame's map_version so a deposed sender is
  /// rejected. `store` is the primary (dump source); it must outlive the
  /// call. On error the sender is left detached (degraded).
  db::Status AttachFollower(db::Store* store,
                            std::shared_ptr<rpc::Channel> follower,
                            std::uint64_t epoch);

  /// Drops the follower (crash of the follower node, topology change).
  /// Pending buffered records are discarded; waiters re-check and take the
  /// degraded-ack path.
  void DetachFollower();

  /// Raises the epoch this sender stamps on its frames. Called by cluster
  /// orchestration when a promotion on ANOTHER shard bumps the cluster
  /// epoch while this node remains its own shard's legitimate primary —
  /// without it, this sender's next append would be rejected as stale and
  /// it would wrongly self-depose. No-op if `epoch` is not higher (or the
  /// sender is already deposed).
  void AdoptEpoch(std::uint64_t epoch);

  /// The ack barrier: blocks until `seq` is durable on the follower (sync
  /// mode), or records it as a degraded ack and returns OK (no follower /
  /// catching up), or fails kFailedPrecondition (deposed) / kTimeout
  /// (follower unresponsive but not yet detached — the client must retry,
  /// the write is NOT acked).
  db::Status WaitDurable(std::uint64_t seq, std::uint64_t timeout_ms);

  /// Stops the sender thread. Idempotent; waiters are failed kUnavailable.
  void Stop();

  // ---- introspection (tests / bench) -------------------------------------
  std::uint64_t ack_frontier() const;
  bool sync_engaged() const;
  bool deposed() const;

 private:
  void SenderLoop();
  /// One send round: builds the contiguous batch, ships it, folds the ack
  /// back in. Returns false when there was nothing to do (caller waits).
  /// Enters and leaves with `lock` held on mu_, but releases it across the
  /// channel Call — beyond what TSA can express, hence the opt-out.
  bool ShipOnce(util::UniqueLock& lock) SS_NO_THREAD_SAFETY_ANALYSIS;
  void DetachLocked() SS_REQUIRES(mu_);

  const ReplicationOptions options_;

  mutable util::Mutex mu_{util::LockRank::kReplBuffer};
  std::condition_variable_any cv_;

  /// Seq-ordered reorder buffer: per-shard tap order is not global seq
  /// order, so records park here until the next contiguous run is ready.
  std::map<std::uint64_t, db::ReplicatedOp> pending_ SS_GUARDED_BY(mu_);
  std::uint64_t next_to_ship_ SS_GUARDED_BY(mu_) = 1;
  std::uint64_t ack_frontier_ SS_GUARDED_BY(mu_) = 0;
  /// Highest seq acked while NOT sync-engaged; the follower cannot be
  /// declared ready until its frontier covers this.
  std::uint64_t degraded_acked_ SS_GUARDED_BY(mu_) = 0;
  bool sync_engaged_ SS_GUARDED_BY(mu_) = false;
  /// Whether the current sync_engaged_ == true state has been shipped to
  /// the follower (a flip ships an empty flag batch if no data is queued).
  bool flag_shipped_ SS_GUARDED_BY(mu_) = false;
  /// Retain-everything mode during bootstrap: buffer commits even though
  /// no follower is attached yet.
  bool retaining_ SS_GUARDED_BY(mu_) = false;
  bool have_follower_ SS_GUARDED_BY(mu_) = false;
  bool deposed_ SS_GUARDED_BY(mu_) = false;
  bool stop_ SS_GUARDED_BY(mu_) = false;
  std::shared_ptr<rpc::Channel> follower_ SS_GUARDED_BY(mu_);
  std::uint64_t epoch_ SS_GUARDED_BY(mu_) = 0;
  int consecutive_failures_ SS_GUARDED_BY(mu_) = 0;
  std::uint64_t repl_seq_ SS_GUARDED_BY(mu_) = 0;  ///< frame seq counter

  std::thread sender_;
};

}  // namespace smartstore::svc
