// Cluster: N shard stores, each wrapped in a MetaService and bound to an
// in-process transport endpoint — the whole deployment in one address
// space, so the oracle tests (and bench_cluster) run the REAL service
// stack under CTest, ASan, TSan, and the lock-rank validator.
//
// Topology: a LOGICAL shard s is served by `replication_factor` NODES
// (transport endpoints), node id = s * rf + replica. rf == 1 is the
// legacy layout (node k == shard k, directory `<dir>/shard-<k>`); rf == 2
// adds a warm-standby follower per shard (`<dir>/node-<n>`): the primary
// streams every committed WAL record to it (svc/replication.h) and keyed
// mutations are acked only once durable on BOTH replicas (sync mode) or
// explicitly degraded-acked (solo primary). Replication requires a
// durable cluster. A durable node's store commits each mutation before it
// returns (db::Store), so an ack never leaves ahead of its WAL record.
//
// Failover: a manager thread pings every shard's primary each heartbeat
// interval. After `heartbeat_misses` consecutive misses it promotes the
// most-caught-up READY follower — ready means the dead primary certified
// (by shipping the sync flag) that the follower's frontier covered every
// acked write, so promotion cannot lose an acked mutation. Promotion
// bumps the map's version AND epoch, installs the new map on every live
// service, and arms the winner as a (degraded, solo) primary; clients
// learn the new map from kWrongShard bounces and kGetMap probes. A
// deposed primary that tries to keep streaming is rejected by the epoch
// check and fails its own ack barrier from then on.
//
// Failure-detection assumption: in-process heartbeats cannot be wrong —
// an unbound endpoint IS a dead process. Real deployments would need
// leases/fencing to close the partitioned-alive-primary hole; here the
// epoch check on the replication stream is the fence.
//
// Crash discipline (mirrors a process dying):
//   Crash(n):  Unbind the endpoint FIRST (new calls fail kUnavailable),
//              stop the node's replication sender (waiters fail, clients
//              retry), then Abandon the store — pending WAL batches are
//              dropped un-committed, the LOCK file is released. When the
//              crashed node was a FOLLOWER, the primary's sender detaches
//              proactively (degraded solo) instead of timing out acks.
//   Restart(n): role-aware under the CURRENT map.
//              - still primary: re-Open the directory (snapshot load +
//                WAL replay), resume as a degraded primary, and re-sync a
//                live follower by wiping + re-bootstrapping it (its
//                `ready` latch predates the crash and must not survive).
//              - deposed or follower: local state may diverge from the
//                promoted timeline (unacked suffix) — wipe the directory,
//                open EMPTY, and rejoin via snapshot bootstrap from the
//                current primary. Requires that primary to be up: every
//                acked write lives on it, so the wipe loses nothing.
//
// In-flight safety: the bound handler keeps the shard node alive via
// shared_ptr, so a delivery racing a crash completes against the old node
// (whose store answers kFailedPrecondition -> kUnavailable once
// abandoned) instead of a dangling pointer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rpc/inproc.h"
#include "smartstore/store.h"
#include "svc/meta_service.h"
#include "svc/partition.h"
#include "svc/replication.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace smartstore::svc {

struct ClusterOptions {
  std::uint32_t num_shards = 4;
  /// Nodes per logical shard: 1 (legacy, unreplicated) or 2 (primary +
  /// follower with automatic failover). rf == 2 requires a durable
  /// cluster — followers re-log the replication stream into their WAL.
  std::uint32_t replication_factor = 1;
  /// In-memory shards: fast, but Restart recovers an EMPTY store (crash
  /// oracles need a durable cluster).
  bool in_memory = true;
  /// Root directory for durable shards (ignored when in_memory).
  std::string dir;
  /// Template for every node's store (per-node: path and seed differ).
  db::Options store_options;
  std::uint64_t map_version = 1;
  std::size_t dedup_capacity = 4096;
  /// Ack-barrier bound on replicated shards (kTimeout past this; the
  /// client retries with the same request id).
  std::uint64_t repl_ack_timeout_ms = 2'000;
  /// Snapshot-lease table bound and TTL for every node's service: leases
  /// a crashed client (or a torn cluster pin) left behind are swept
  /// after the TTL so the GC watermark cannot stay pinned forever.
  std::size_t snapshot_lease_capacity = 64;
  std::uint64_t snapshot_lease_ttl_ms = 10'000;
  /// Failover manager (rf == 2 only): primaries are pinged every
  /// interval; this many consecutive misses triggers promotion.
  bool auto_failover = true;
  std::uint64_t heartbeat_interval_ms = 20;
  int heartbeat_misses = 2;
};

class Cluster {
 public:
  /// Opens every node store and binds every endpoint (replicated
  /// clusters also bootstrap each follower and start the failover
  /// manager). On any failure the already-started nodes are torn down.
  static db::StatusOr<std::unique_ptr<Cluster>> Start(
      const ClusterOptions& options);

  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Simulated power cut for node n. kFailedPrecondition if already down.
  db::Status Crash(std::uint32_t node);

  /// Role-aware recovery of node n (see the header comment) + rebind.
  db::Status Restart(std::uint32_t node);

  /// Forces one failover evaluation for `shard` right now — exactly what
  /// the manager does after heartbeat loss. kFailedPrecondition when the
  /// primary is up; kUnavailable when no ready follower exists (the
  /// shard stays down-but-promotable-later).
  db::Status Promote(std::uint32_t shard);

  /// Graceful shutdown of every live node (Close, not Abandon).
  /// Idempotent; the destructor calls it.
  db::Status Stop();

  /// A client channel to node n (valid across crash/restart cycles).
  std::shared_ptr<rpc::Channel> Connect(std::uint32_t node) {
    return network_.Connect(node);
  }
  /// Channels [0, num_nodes) — the Router's constructor argument.
  std::vector<std::shared_ptr<rpc::Channel>> ConnectAll();

  PartitionMap map() const;  ///< snapshot of the current (mutable) map
  std::uint32_t num_shards() const { return options_.num_shards; }
  std::uint32_t num_nodes() const {
    return options_.num_shards * options_.replication_factor;
  }
  bool IsUp(std::uint32_t node) const;
  rpc::InprocNetwork* network() { return &network_; }

 private:
  /// One node's store + service (+ primary-role replication sender),
  /// kept alive together by the bound handler's shared_ptr.
  struct Node {
    std::unique_ptr<db::Store> store;
    std::unique_ptr<ReplicationSender> sender;  ///< primary role only
    std::unique_ptr<MetaService> service;
  };

  explicit Cluster(const ClusterOptions& options);

  std::uint32_t shard_of_node(std::uint32_t node) const {
    return node / options_.replication_factor;
  }
  db::Options NodeStoreOptions(std::uint32_t node) const;
  std::string NodePath(std::uint32_t node) const;
  db::StatusOr<std::shared_ptr<Node>> OpenNode(std::uint32_t node) const;
  void BindNode(std::uint32_t node, const std::shared_ptr<Node>& n);

  /// Gives `node` the primary role: fresh sender (degraded until a
  /// follower attaches), commit tap, ack barrier.
  db::Status ArmPrimary(const std::shared_ptr<Node>& node);

  /// One direct request to a node endpoint — no retry loop (the manager
  /// must observe failures, not paper over them).
  db::Status DirectCall(std::uint32_t node, rpc::Method method,
                        rpc::Frame* resp);

  /// The promotion decision + map install. Caller holds topo_mu_.
  db::Status PromoteLocked(std::uint32_t shard);

  /// Wipes node `f`'s on-disk state and rejoins it as an empty follower
  /// bootstrapped from `shard`'s current primary. Caller holds topo_mu_.
  db::Status WipeAndRejoinLocked(std::uint32_t f, std::uint32_t shard);

  void ManagerLoop();

  const ClusterOptions options_;
  rpc::InprocNetwork network_;

  /// Serializes every topology mutation (Crash / Restart / Promote /
  /// Stop) END TO END, including the store and replication calls inside
  /// them. DELIBERATELY a plain std::mutex outside the lock-rank system:
  /// it is held across facade calls that descend to rank 0, which the
  /// validator forbids for ranked locks. Safe because no request handler
  /// and no commit tap ever touches it — only the manager thread and
  /// external orchestration calls do.
  std::mutex topo_mu_;

  mutable util::Mutex mu_{util::LockRank::kSvcCluster};
  PartitionMap map_ SS_GUARDED_BY(mu_);
  std::vector<std::shared_ptr<Node>> nodes_ SS_GUARDED_BY(mu_);
  std::vector<char> up_ SS_GUARDED_BY(mu_);

  std::atomic<bool> manager_stop_{false};
  std::vector<int> misses_;  ///< manager-thread private, per shard
  std::thread manager_;      ///< last member: joins before the rest dies
};

}  // namespace smartstore::svc
