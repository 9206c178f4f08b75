// Router: the client half of the service tier — one object that makes a
// sharded cluster look like a single Store-shaped endpoint.
//
// Routing contract (the mirror image of meta_service.h's server half).
// Every request goes through one retry loop, Call():
//   - keyed ops (Put / Delete / Point) hash the filename through the
//     CACHED partition map; shard-addressed ops (batch slices, scatter
//     slices, pins, control) name the shard. Either way the frame goes to
//     the shard's primary node, re-resolved on every attempt;
//   - a kWrongShard response carries the server's current map — the router
//     installs it (if newer) and, when that moves the target node,
//     re-routes IMMEDIATELY, no backoff: the redirect is information, not
//     congestion. A bounce that leaves the target unchanged backs off and
//     probes for a newer map (keyed) or is handed back to the caller
//     (shard-addressed: Write re-splits the slice by key);
//   - kUnavailable / kTimeout (transport or in-band) back off with bounded
//     exponential delay and RETRY WITH THE SAME (client_id, seq) — reusing
//     the id is what lets server dedup keep a maybe-applied mutation
//     exactly-once;
//   - attempts are bounded; exhaustion surfaces the last error.
//
// Range and top-k queries scatter to every shard and merge: shards hold
// disjoint records, so range is a concatenation (re-sorted by id for a
// canonical cross-shard answer) and top-k is a k-truncated merge globally
// re-sorted by (distance, id). Per-shard query stats are summed.
//
// Snapshot scatter: Range/TopK first pin one cluster-wide cut — a
// kSnapPin round collects every shard's current commit seq under a lease
// — then scatter as-of those seqs, then release. Writers racing the
// scatter land at later seqs on every shard, so the merged answer is a
// consistent cut instead of a torn read across shards. If any shard
// cannot pin (older server, full lease table) the scatter falls back to
// unpinned latest reads. PinSnapshot()/ReleaseSnapshot() expose the same
// machinery for callers that want to run MANY queries against one cut
// (time travel, audits).
//
// Thread-safe: any number of threads may share one Router. The map cache
// sits under a reader/writer lock (rank kSvcRouter) and the shard id is
// copied out before any Call — no router lock is ever held across a
// transport call.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rpc/transport.h"
#include "rpc/wire.h"
#include "smartstore/store.h"
#include "svc/partition.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace smartstore::svc {

struct RouterOptions {
  /// Distinguishes this client's request ids from every other client's.
  /// Two Router instances MUST NOT share a client_id.
  std::uint64_t client_id = 1;
  /// Per-operation attempt bound (first try included). Redirect re-routes
  /// do not count against it — only unavailability/timeouts do.
  int max_attempts = 8;
  std::uint32_t backoff_init_us = 100;
  std::uint32_t backoff_max_us = 50'000;
  /// Router-wide retry budget: total retries this router may spend across
  /// ALL operations (0 = unlimited). Once exhausted, retryable failures
  /// surface immediately — a saturating brake on retry storms during an
  /// outage, so callers fail fast instead of amplifying the load.
  std::uint64_t retry_budget = 0;
};

/// Client-side accounting (monotonic; read with stats()).
struct RouterStats {
  std::uint64_t sends = 0;      ///< frames put on a channel
  std::uint64_t retries = 0;    ///< re-sends after kUnavailable/kTimeout
  std::uint64_t redirects = 0;  ///< kWrongShard re-routes
  std::uint64_t gave_up = 0;    ///< ops that exhausted attempts or budget
  std::uint64_t map_installs = 0;  ///< newer maps adopted from responses
  std::uint64_t snapshot_pins = 0;     ///< cluster-wide pin rounds completed
  std::uint64_t unpinned_scatters = 0;  ///< scatters that fell back to latest
};

/// One pinned cut across the cluster: shard k's commit seq plus the lease
/// holding it (leases[k].lease_id == 0 marks an unpinned slot). Obtain
/// with Router::PinSnapshot(), feed to the pinned Range/TopK overloads,
/// and ReleaseSnapshot() when done — an unreleased lease holds the
/// shard's GC watermark back until its server-side TTL sweeps it.
struct ClusterSnapshot {
  std::vector<rpc::SnapshotLease> leases;  ///< indexed by shard

  std::uint64_t seq_of(std::uint32_t shard) const {
    return shard < leases.size() ? leases[shard].seq : 0;
  }
};

class Router {
 public:
  /// `channels[k]` reaches NODE k (== shard k on unreplicated maps).
  /// `initial_map` seeds the cache (it may be stale or even wrong —
  /// redirects correct it); FetchMap() can replace it with the
  /// authoritative one. On replicated maps keyed ops and scatter slices
  /// route to each shard's PRIMARY node, re-resolved per attempt, so a
  /// promotion redirects traffic as soon as the new map is learned.
  Router(std::vector<std::shared_ptr<rpc::Channel>> channels,
         PartitionMap initial_map, RouterOptions options);

  // ---- keyed ops --------------------------------------------------------

  db::Status Put(const metadata::FileMetadata& file);
  db::Status Delete(const std::string& name);
  db::StatusOr<db::QueryResult> Point(const std::string& filename);

  /// Splits `ops` by owning shard and issues one BatchWrite per shard.
  /// On a redirect the remaining ops re-split under the new map.
  db::Status Write(const std::vector<rpc::BatchOp>& ops);

  // ---- scatter-gather ---------------------------------------------------

  /// Pin a cut, scatter as-of it, release. Falls back to unpinned latest
  /// reads when pinning fails (stats().unpinned_scatters counts those).
  db::StatusOr<db::QueryResult> Range(const metadata::RangeQuery& query);
  db::StatusOr<db::QueryResult> TopK(const metadata::TopKQuery& query);

  /// Scatter against an already-pinned cut (one PinSnapshot, many
  /// queries: every call sees the identical cluster state).
  db::StatusOr<db::QueryResult> Range(const metadata::RangeQuery& query,
                                      const ClusterSnapshot& snapshot);
  db::StatusOr<db::QueryResult> TopK(const metadata::TopKQuery& query,
                                     const ClusterSnapshot& snapshot);

  /// Pins every shard's current commit seq under a lease (one kSnapPin
  /// round). On any failure the already-pinned prefix is released and the
  /// error surfaces.
  db::StatusOr<ClusterSnapshot> PinSnapshot();

  /// Drops every lease in `snapshot` (best-effort: a shard that cannot be
  /// reached sweeps the lease by TTL). Returns the first error.
  db::Status ReleaseSnapshot(const ClusterSnapshot& snapshot);

  // ---- control ----------------------------------------------------------

  /// Group-commits every shard's WAL.
  db::Status Flush();

  /// Replaces the cached map with the newest one any node serves (rounds
  /// of TryRefreshMap, backing off between rounds in which no node
  /// answers).
  db::Status FetchMap();

  db::StatusOr<rpc::ShardStats> Stats(std::uint32_t shard);

  /// Liveness probe against one shard.
  db::Status Ping(std::uint32_t shard);

  PartitionMap map() const;  ///< snapshot of the cached map
  RouterStats stats() const;
  /// Logical shards under the cached map (== channel count on legacy
  /// unreplicated maps, where node k is shard k).
  std::uint32_t num_shards() const;

 private:
  /// Fresh request id (client_id fixed, seq monotonic).
  std::uint64_t NextSeq() {
    return seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// The one retry loop. The target is the primary node of `*key`'s
  /// owning shard, or of `shard` when `key` is null, re-resolved from the
  /// cached map on every attempt; every attempt resends the SAME request
  /// id. A kWrongShard bounce installs the bouncer's map and, when that
  /// moves the target node, re-routes at once without spending an attempt.
  /// A bounce that leaves the target unchanged backs off and probes the
  /// map for a keyed request, and is handed back as kWrongShard for a
  /// shard-addressed one (only Write can re-split by key). kUnavailable /
  /// kTimeout back off and probe. When a node answers, `resp` holds its
  /// frame and the result is the frame's in-band status.
  db::Status Call(rpc::Method method, const std::string* key,
                  std::uint32_t shard, std::vector<std::uint8_t> payload,
                  rpc::Frame* resp);

  /// Best-effort map refresh: one kGetMap probe per node (direct, no
  /// retry loop) installing the newest map any survivor advertises.
  /// Returns whether any node answered.
  bool TryRefreshMap();

  /// True while the router-wide retry budget allows another retry.
  bool SpendRetry();

  /// Sends one scatter query to every shard and merges canonically.
  /// `encode` builds the payload per shard (the as-of token differs).
  db::StatusOr<db::QueryResult> Scatter(
      rpc::Method method, db::QueryKind kind, std::size_t k,
      const std::function<void(std::uint32_t, std::vector<std::uint8_t>*)>&
          encode);

  /// Adopts `encoded` (a partition map payload) if newer than the cache.
  void MaybeInstallMap(const std::vector<std::uint8_t>& encoded);

  void Backoff(int attempt) const;

  const std::vector<std::shared_ptr<rpc::Channel>> channels_;
  const RouterOptions options_;

  mutable util::SharedMutex map_mu_{util::LockRank::kSvcRouter};
  PartitionMap map_ SS_GUARDED_BY(map_mu_);

  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> sends_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> redirects_{0};
  std::atomic<std::uint64_t> gave_up_{0};
  std::atomic<std::uint64_t> map_installs_{0};
  std::atomic<std::uint64_t> snapshot_pins_{0};
  std::atomic<std::uint64_t> unpinned_scatters_{0};
  std::atomic<std::uint64_t> retries_spent_{0};  ///< against retry_budget
  mutable std::atomic<std::uint64_t> jitter_state_{0x9e3779b97f4a7c15ull};
};

}  // namespace smartstore::svc
