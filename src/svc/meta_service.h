// MetaService: the stateless server-side operator that turns one shard's
// db::Store into a metadata service endpoint.
//
// "Stateless" in the serving sense: everything a request needs is in the
// frame, and everything durable is in the Store — the service object
// itself holds only the shard's partition map (an immutable value) and an
// in-memory request-id dedup table that exists purely to absorb transport
// retries. Losing the service object (crash) loses nothing a retry cannot
// reconstruct.
//
// Request-id dedup / exactly-once contract:
//   - every KEYED MUTATION (Put / Delete / BatchWrite) carries
//     (client_id, seq); a retry resends the SAME pair.
//   - the first arrival installs a Pending entry, applies the mutation
//     with NO service lock held (Store calls start at lock rank 0 — the
//     validator aborts a hold-across-the-facade), then publishes the
//     response as Done.
//   - concurrent duplicates WAIT on the Pending entry; later duplicates
//     replay the Done response. Either way the store applies once.
//   - across a crash/restart the table is empty, so mutations must ALSO be
//     idempotent at the store level: Put is an upsert (replace-on-exists)
//     and Delete treats already-absent as success. A replayed mutation
//     therefore converges to the same state instead of failing.
//   - queries are read-only and skip the table entirely.
//
// One handler per request kind: HandleMutation serves Put, Delete and
// BatchWrite (a Put or Delete is a one-op batch), HandleQuery serves the
// three query kinds, latest or as-of a pinned seq.
//
// Ownership: keyed requests are checked against the shard's current map
// BEFORE dedup registration; scatter slices and snapshot pins are checked
// for the primary role. A kWrongShard response carries the current map in
// its payload so a stale client refreshes in one round trip.
//
// Store error mapping: kFaultInjected / kFailedPrecondition from the store
// mean the shard is mid-crash or already torn down — the client-visible
// truth is "this shard is unavailable, retry elsewhere/later", so both map
// to kUnavailable in the response frame.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <utility>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rpc/transport.h"
#include "rpc/wire.h"
#include "smartstore/store.h"
#include "svc/partition.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace smartstore::svc {

struct MetaServiceOptions {
  std::uint32_t shard_id = 0;
  /// This endpoint's NODE id in a replicated topology (a logical shard is
  /// served by several nodes; only the map's primary node accepts keyed
  /// requests). kNodeIsShard keeps the legacy one-node-per-shard identity.
  static constexpr std::uint32_t kNodeIsShard =
      static_cast<std::uint32_t>(-1);
  std::uint32_t node_id = kNodeIsShard;
  /// Ack-barrier bound: how long a keyed mutation may wait for the
  /// follower's durable ack before answering kTimeout (the client retries
  /// with the same id; the write is NOT acked).
  std::uint64_t repl_ack_timeout_ms = 2'000;
  /// Dedup entries retained (FIFO eviction of completed entries). Sized to
  /// cover every in-flight-or-recently-acked request across all clients;
  /// an evicted entry degrades to the store-level idempotence path.
  std::size_t dedup_capacity = 4096;
  /// Concurrent snapshot leases this shard will hold open. A full table
  /// rejects kSnapPin with kUnavailable — clients fall back to unpinned
  /// (latest) reads rather than silently breaking someone else's pin.
  std::size_t snapshot_lease_capacity = 64;
  /// A lease not released within the TTL is swept; the GC watermark can
  /// then advance past a crashed client's pin.
  std::uint64_t snapshot_lease_ttl_ms = 10'000;
};

class ReplicationSender;

class MetaService {
 public:
  /// `store` must outlive the service and every in-flight Handle call.
  MetaService(db::Store* store, PartitionMap map, MetaServiceOptions options);

  /// Serves one request frame; always returns a response frame (decode
  /// errors and store failures travel in the response's status byte).
  /// Thread-safe.
  rpc::Frame Handle(const rpc::Frame& req);

  /// Adapter for transport Bind.
  rpc::Handler handler() {
    return [this](const rpc::Frame& req) { return Handle(req); };
  }

  /// Attaches (or, with nullptr, detaches) the primary-role replication
  /// sender: every keyed mutation then blocks on WaitDurable before its
  /// response leaves — "acked" means durable on both replicas in sync
  /// mode. The sender must outlive the service or be detached first.
  void set_replication(ReplicationSender* sender) {
    sender_.store(sender, std::memory_order_release);
  }

  /// Adopts `map` if its version is newer than the installed one (the
  /// failover manager pushes post-promotion maps through this).
  void InstallMap(PartitionMap map);

  PartitionMap map() const;  ///< copy of the installed map

  /// Promotion eligibility (followers): latched true when a kReplAppend
  /// batch arrives with the sync flag — the primary's statement that this
  /// replica's frontier covers every acked write.
  bool ready() const { return ready_.load(std::memory_order_acquire); }

 private:
  /// A published (or pending) response for one request id.
  struct DedupEntry {
    bool done = false;
    db::StatusCode status = db::StatusCode::kOk;
    std::vector<std::uint8_t> payload;
  };
  using DedupKey = std::pair<std::uint64_t, std::uint64_t>;
  struct DedupKeyHash {
    std::size_t operator()(const DedupKey& k) const {
      // Splitmix-style combine; both halves are already well-distributed.
      std::uint64_t h = k.first * 0x9e3779b97f4a7c15ull ^ k.second;
      h ^= h >> 32;
      return static_cast<std::size_t>(h);
    }
  };

  /// Claims the request id. Returns true when the caller is the FIRST
  /// arrival and must apply + Publish; false when the response was served
  /// from the table (after waiting out a pending twin if necessary) —
  /// `status`/`payload` are then filled with the cached response.
  bool Claim(const DedupKey& key, db::StatusCode* status,
             std::vector<std::uint8_t>* payload);

  /// Publishes the first arrival's outcome and wakes waiting duplicates.
  void Publish(const DedupKey& key, db::StatusCode status,
               const std::vector<std::uint8_t>& payload);

  // Per-method handlers: fill the response's status + payload.
  /// Put / Delete / BatchWrite: decode into a batch, ownership-check every
  /// op, claim the request id, apply the ops in order, one ack barrier,
  /// publish.
  void HandleMutation(const rpc::Frame& req, rpc::Frame* resp);
  /// Point / Range / TopK: decode into a db::QueryRequest, check ownership
  /// (by key for a point lookup, the primary role for a scatter slice),
  /// read latest or as-of the frame's token.
  void HandleQuery(const rpc::Frame& req, rpc::Frame* resp);
  void HandleFlush(rpc::Frame* resp);
  void HandleGetMap(rpc::Frame* resp);
  void HandleStats(rpc::Frame* resp);
  void HandleSnapPin(rpc::Frame* resp);
  void HandleSnapRelease(const rpc::Frame& req, rpc::Frame* resp);
  void HandleReplAppend(const rpc::Frame& req, rpc::Frame* resp);
  void HandleReplFrontier(rpc::Frame* resp);
  void HandleReplBootstrap(const rpc::Frame& req, rpc::Frame* resp);

  /// Upsert: replace-on-exists so a replayed Put converges.
  db::Status ApplyPut(const metadata::FileMetadata& file);
  /// Idempotent delete: already-absent is success.
  db::Status ApplyDelete(const std::string& name);

  /// The ack barrier: with a replication sender attached, blocks until the
  /// store's latest seq is durable on the follower (or degraded-acks).
  /// Without one, returns OK immediately.
  db::Status AckDurable();

  /// True (and fills the kWrongShard response) when this NODE must not
  /// serve the request under the current map: `name`'s owning shard is
  /// different, or this node is not its shard's primary (a follower
  /// redirects writers to the promoted/current primary the same way a
  /// stale shard does). A null `name` (scatter slices, snapshot pins)
  /// checks the primary role only — a follower would serve a lagging view.
  bool RejectWrongShard(const std::string* name, rpc::Frame* resp);

  /// True (and fills a kFailedPrecondition response) when a replication
  /// frame carries an epoch older than the installed map's — the sender is
  /// a deposed primary and must never be applied or acked.
  bool RejectStaleEpoch(const rpc::Frame& req, rpc::Frame* resp);

  db::Store* const store_;
  const MetaServiceOptions options_;

  /// The installed partition map. Mutable since failover: promotion ships
  /// a higher-version/higher-epoch map that every surviving node adopts.
  mutable util::SharedMutex map_mu_{util::LockRank::kSvcMap};
  PartitionMap map_ SS_GUARDED_BY(map_mu_);

  /// Primary-role replication sender (null when unreplicated/follower).
  std::atomic<ReplicationSender*> sender_{nullptr};
  /// Follower-role promotion eligibility (see ready()).
  std::atomic<bool> ready_{false};

  /// One held shard snapshot per outstanding lease. The db::Snapshot is
  /// the pin: while it lives, tombstone GC cannot advance past its seq.
  struct LeaseEntry {
    db::Snapshot snapshot;
    std::chrono::steady_clock::time_point expires;
  };

  util::Mutex dedup_mu_{util::LockRank::kSvcDedup};
  std::condition_variable_any dedup_cv_;
  std::unordered_map<DedupKey, std::shared_ptr<DedupEntry>, DedupKeyHash>
      dedup_ SS_GUARDED_BY(dedup_mu_);
  std::deque<DedupKey> dedup_fifo_ SS_GUARDED_BY(dedup_mu_);

  util::Mutex lease_mu_{util::LockRank::kSvcLease};
  std::unordered_map<std::uint64_t, LeaseEntry> leases_
      SS_GUARDED_BY(lease_mu_);
  std::uint64_t next_lease_id_ SS_GUARDED_BY(lease_mu_) = 1;

  // Counters for Method::kStats (atomics: no rank interaction).
  std::atomic<std::uint64_t> applied_puts_{0};
  std::atomic<std::uint64_t> applied_deletes_{0};
  std::atomic<std::uint64_t> dup_hits_{0};
  std::atomic<std::uint64_t> wrong_shard_{0};
};

}  // namespace smartstore::svc
