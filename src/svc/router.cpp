#include "svc/router.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>

namespace smartstore::svc {

namespace {

bool retryable(db::StatusCode c) {
  return c == db::StatusCode::kUnavailable || c == db::StatusCode::kTimeout;
}

}  // namespace

Router::Router(std::vector<std::shared_ptr<rpc::Channel>> channels,
               PartitionMap initial_map, RouterOptions options)
    : channels_(std::move(channels)),
      options_(options),
      map_(std::move(initial_map)) {}

void Router::Backoff(int attempt) const {
  const int shift = std::min(attempt, 16);
  std::uint64_t us = static_cast<std::uint64_t>(options_.backoff_init_us)
                     << shift;
  us = std::min<std::uint64_t>(us, options_.backoff_max_us);
  if (us == 0) return;
  // Jitter the sleep into [us/2, us]: clients that failed together (one
  // node died under all of them) must not retry in lockstep, or every
  // backoff round re-delivers the same synchronized burst. Splitmix64
  // over an atomic counter — deterministic per process, lock-free.
  std::uint64_t z = jitter_state_.fetch_add(0x9e3779b97f4a7c15ull,
                                            std::memory_order_relaxed);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebull;
  z ^= z >> 31;
  const std::uint64_t floor_us = us / 2;
  if (us > floor_us) us = floor_us + z % (us - floor_us + 1);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

bool Router::SpendRetry() {
  if (options_.retry_budget != 0) {
    const std::uint64_t used =
        retries_spent_.fetch_add(1, std::memory_order_relaxed);
    if (used >= options_.retry_budget) return false;
  }
  retries_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Router::TryRefreshMap() {
  // One direct probe per node, no retry loop (this runs INSIDE retry
  // loops): during a failover the dead primary cannot teach us the new
  // map, but any survivor can — the manager installs it everywhere.
  bool answered = false;
  for (std::uint32_t node = 0; node < channels_.size(); ++node) {
    rpc::Frame req;
    req.type = rpc::MsgType::kRequest;
    req.method = rpc::Method::kGetMap;
    req.shard = node;
    rpc::Frame resp;
    if (!channels_[node]->Call(req, &resp).ok()) continue;
    if (resp.status != db::StatusCode::kOk) continue;
    answered = true;
    MaybeInstallMap(resp.payload);
  }
  return answered;
}

PartitionMap Router::map() const {
  const util::ReaderLock lock(map_mu_);
  return map_;
}

RouterStats Router::stats() const {
  RouterStats s;
  s.sends = sends_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.redirects = redirects_.load(std::memory_order_relaxed);
  s.gave_up = gave_up_.load(std::memory_order_relaxed);
  s.map_installs = map_installs_.load(std::memory_order_relaxed);
  s.snapshot_pins = snapshot_pins_.load(std::memory_order_relaxed);
  s.unpinned_scatters = unpinned_scatters_.load(std::memory_order_relaxed);
  return s;
}

std::uint32_t Router::num_shards() const {
  const util::ReaderLock lock(map_mu_);
  return map_.num_shards;
}

void Router::MaybeInstallMap(const std::vector<std::uint8_t>& encoded) {
  PartitionMap incoming;
  if (!decode_partition_map(encoded, &incoming).ok()) return;
  const util::WriterLock lock(map_mu_);
  if (incoming.version > map_.version) {
    map_ = std::move(incoming);
    map_installs_.fetch_add(1, std::memory_order_relaxed);
  }
}

db::Status Router::Call(rpc::Method method, const std::string* key,
                        std::uint32_t shard, std::vector<std::uint8_t> payload,
                        rpc::Frame* resp) {
  rpc::Frame req;
  req.type = rpc::MsgType::kRequest;
  req.method = method;
  req.client_id = options_.client_id;
  req.seq = NextSeq();  // SAME id on every retry: the dedup contract
  req.payload = std::move(payload);
  db::Status last = db::Status::Unavailable("no attempt made");
  // Redirects are re-routes, not failures: they get their own (generous)
  // bound instead of consuming retry attempts.
  const int max_redirects = static_cast<int>(channels_.size()) * 2 + 4;
  int redirects = 0;
  for (int attempt = 0; attempt < options_.max_attempts;) {
    std::uint32_t node;
    {
      // Copy the routing decision out — no router lock across a Call.
      const util::ReaderLock lock(map_mu_);
      req.shard = key ? map_.shard_of(*key) : shard;
      node = map_.primary_node_of(req.shard);
      req.map_version = map_.version;
    }
    if (node >= channels_.size()) {
      return db::Status::InvalidArgument(
          "partition map routes shard " + std::to_string(req.shard) +
          " to node " + std::to_string(node) + " but the router has " +
          std::to_string(channels_.size()) + " channels");
    }

    sends_.fetch_add(1, std::memory_order_relaxed);
    const db::Status sent = channels_[node]->Call(req, resp);
    if (!sent.ok()) {
      last = sent;
    } else if (resp->status == db::StatusCode::kWrongShard) {
      redirects_.fetch_add(1, std::memory_order_relaxed);
      MaybeInstallMap(resp->payload);
      if (++redirects > max_redirects) {
        gave_up_.fetch_add(1, std::memory_order_relaxed);
        return db::Status::Unavailable(
            "redirect loop: shards disagree with every map version the "
            "router can obtain");
      }
      {
        // Re-route immediately when the bounce changed the target node.
        const util::ReaderLock lock(map_mu_);
        if (map_.primary_node_of(key ? map_.shard_of(*key) : shard) != node)
          continue;
      }
      // The target stands. For a shard-addressed request the disagreement
      // is about bucket OWNERSHIP, not node role: hand the answer back
      // (Write re-splits its slice by key under the refreshed map, which a
      // fixed-shard loop cannot do). For a keyed one the bouncer's map is
      // older than ours — a node that has not yet learned of a promotion —
      // so spinning on it is pointless: back off and probe for a newer map.
      if (!key) return rpc::response_status(*resp);
      last = rpc::response_status(*resp);
    } else if (retryable(resp->status)) {
      last = rpc::response_status(*resp);
    } else {
      return rpc::response_status(*resp);
    }
    if (!SpendRetry()) break;
    Backoff(attempt);
    // The node we were told to use is not answering (or not serving the
    // key) — maybe a failover already re-homed the shard. Ask the
    // survivors before re-sending.
    TryRefreshMap();
    ++attempt;
  }
  gave_up_.fetch_add(1, std::memory_order_relaxed);
  return last;
}

// ---- keyed ops --------------------------------------------------------------

db::Status Router::Put(const metadata::FileMetadata& file) {
  std::vector<std::uint8_t> payload;
  rpc::encode_file(file, &payload);
  rpc::Frame resp;
  return Call(rpc::Method::kPut, &file.name, 0, std::move(payload), &resp);
}

db::Status Router::Delete(const std::string& name) {
  std::vector<std::uint8_t> payload;
  rpc::encode_name(name, &payload);
  rpc::Frame resp;
  return Call(rpc::Method::kDelete, &name, 0, std::move(payload), &resp);
}

db::StatusOr<db::QueryResult> Router::Point(const std::string& filename) {
  metadata::PointQuery q;
  q.filename = filename;
  std::vector<std::uint8_t> payload;
  rpc::encode_point_query(q, &payload);
  rpc::Frame resp;
  db::Status s =
      Call(rpc::Method::kPointQuery, &filename, 0, std::move(payload), &resp);
  if (!s.ok()) return s;
  db::QueryResult result;
  s = rpc::decode_query_result(resp.payload, &result);
  if (!s.ok()) return s;
  return result;
}

db::Status Router::Write(const std::vector<rpc::BatchOp>& ops) {
  std::vector<rpc::BatchOp> pending = ops;
  // Each round splits the remaining ops by shard under the current map; a
  // kWrongShard answer (Call already installed the bouncer's map) sends
  // that slice around again. Bounded: a round either applies slices or
  // installs a newer map.
  for (int round = 0; round < 8 && !pending.empty(); ++round) {
    const PartitionMap snapshot = map();
    std::unordered_map<std::uint32_t, std::vector<rpc::BatchOp>> by_shard;
    for (const rpc::BatchOp& op : pending) {
      const std::string& name = op.is_put ? op.file.name : op.name;
      by_shard[snapshot.shard_of(name)].push_back(op);
    }
    std::vector<rpc::BatchOp> leftover;
    for (auto& [shard, slice] : by_shard) {
      std::vector<std::uint8_t> payload;
      rpc::encode_batch(slice, &payload);
      rpc::Frame resp;
      const db::Status s = Call(rpc::Method::kBatchWrite, nullptr, shard,
                                std::move(payload), &resp);
      if (s.IsWrongShard()) {
        // Nothing applied (ownership precedes dedup and apply): safe to
        // re-split this slice under the refreshed map with fresh ids.
        leftover.insert(leftover.end(), slice.begin(), slice.end());
        continue;
      }
      if (!s.ok()) return s;
    }
    pending = std::move(leftover);
  }
  if (!pending.empty()) {
    return db::Status::Unavailable(
        "batch re-split did not converge: shards disagree about ownership");
  }
  return db::Status();
}

// ---- scatter-gather ---------------------------------------------------------

db::StatusOr<db::QueryResult> Router::Scatter(
    rpc::Method method, db::QueryKind kind, std::size_t k,
    const std::function<void(std::uint32_t, std::vector<std::uint8_t>*)>&
        encode) {
  db::QueryResult merged;
  merged.kind = kind;
  // Scatter covers every LOGICAL shard (each slice lands on the shard's
  // current primary) — not every channel: followers hold lagging copies.
  const std::uint32_t n = num_shards();
  for (std::uint32_t shard = 0; shard < n; ++shard) {
    std::vector<std::uint8_t> payload;
    encode(shard, &payload);
    rpc::Frame resp;
    db::Status s = Call(method, nullptr, shard, std::move(payload), &resp);
    if (!s.ok()) return s;
    db::QueryResult part;
    s = rpc::decode_query_result(resp.payload, &part);
    if (!s.ok()) return s;
    merged.ids.insert(merged.ids.end(), part.ids.begin(), part.ids.end());
    merged.hits.insert(merged.hits.end(), part.hits.begin(), part.hits.end());
    merged.stats.messages += part.stats.messages;
    merged.stats.hops += part.stats.hops;
    merged.stats.groups_visited += part.stats.groups_visited;
    merged.stats.records_scanned += part.stats.records_scanned;
    merged.stats.failed = merged.stats.failed || part.stats.failed;
  }
  if (kind == db::QueryKind::kTopK) {
    // Global re-sort by (distance, id) BEFORE truncating to k: per-shard
    // answers are each sorted, but their concatenation is not, and the id
    // tie-break keeps equidistant cross-shard hits deterministic.
    std::sort(merged.hits.begin(), merged.hits.end());
    if (merged.hits.size() > k) merged.hits.resize(k);
    merged.ids.clear();
    merged.ids.reserve(merged.hits.size());
    for (const auto& [dist, id] : merged.hits) merged.ids.push_back(id);
  } else {
    // Canonical range answer: shard arrival order is an accident of the
    // scatter, so re-sort by id — two scatters over the same cut must be
    // bit-identical.
    std::sort(merged.ids.begin(), merged.ids.end());
  }
  return merged;
}

db::StatusOr<db::QueryResult> Router::Range(const metadata::RangeQuery& query) {
  db::StatusOr<ClusterSnapshot> pinned = PinSnapshot();
  if (pinned.ok()) {
    db::StatusOr<db::QueryResult> r = Range(query, *pinned);
    (void)ReleaseSnapshot(*pinned);  // best-effort; TTL sweeps stragglers
    return r;
  }
  unpinned_scatters_.fetch_add(1, std::memory_order_relaxed);
  return Scatter(rpc::Method::kRangeQuery, db::QueryKind::kRange, 0,
                 [&](std::uint32_t, std::vector<std::uint8_t>* out) {
                   rpc::encode_range_query(query, out, rpc::kAsOfLatest);
                 });
}

db::StatusOr<db::QueryResult> Router::TopK(const metadata::TopKQuery& query) {
  db::StatusOr<ClusterSnapshot> pinned = PinSnapshot();
  if (pinned.ok()) {
    db::StatusOr<db::QueryResult> r = TopK(query, *pinned);
    (void)ReleaseSnapshot(*pinned);
    return r;
  }
  unpinned_scatters_.fetch_add(1, std::memory_order_relaxed);
  return Scatter(rpc::Method::kTopKQuery, db::QueryKind::kTopK, query.k,
                 [&](std::uint32_t, std::vector<std::uint8_t>* out) {
                   rpc::encode_topk_query(query, out, rpc::kAsOfLatest);
                 });
}

db::StatusOr<db::QueryResult> Router::Range(const metadata::RangeQuery& query,
                                            const ClusterSnapshot& snapshot) {
  return Scatter(rpc::Method::kRangeQuery, db::QueryKind::kRange, 0,
                 [&](std::uint32_t shard, std::vector<std::uint8_t>* out) {
                   rpc::encode_range_query(
                       query, out, rpc::as_of_token(snapshot.seq_of(shard)));
                 });
}

db::StatusOr<db::QueryResult> Router::TopK(const metadata::TopKQuery& query,
                                           const ClusterSnapshot& snapshot) {
  return Scatter(rpc::Method::kTopKQuery, db::QueryKind::kTopK, query.k,
                 [&](std::uint32_t shard, std::vector<std::uint8_t>* out) {
                   rpc::encode_topk_query(
                       query, out, rpc::as_of_token(snapshot.seq_of(shard)));
                 });
}

db::StatusOr<ClusterSnapshot> Router::PinSnapshot() {
  ClusterSnapshot snap;
  const std::uint32_t n = num_shards();
  snap.leases.resize(n);
  for (std::uint32_t shard = 0; shard < n; ++shard) {
    rpc::Frame resp;
    db::Status s = Call(rpc::Method::kSnapPin, nullptr, shard, {}, &resp);
    if (s.ok()) s = rpc::decode_snapshot_lease(resp.payload,
                                               &snap.leases[shard]);
    if (!s.ok()) {
      // A torn pin is worthless: release the prefix and surface the error
      // (callers fall back to unpinned reads).
      (void)ReleaseSnapshot(snap);
      return s;
    }
  }
  snapshot_pins_.fetch_add(1, std::memory_order_relaxed);
  return snap;
}

db::Status Router::ReleaseSnapshot(const ClusterSnapshot& snapshot) {
  db::Status first_error;
  const std::uint32_t n = static_cast<std::uint32_t>(
      std::min<std::size_t>(snapshot.leases.size(), num_shards()));
  for (std::uint32_t shard = 0; shard < n; ++shard) {
    if (snapshot.leases[shard].lease_id == 0) continue;  // never pinned
    std::vector<std::uint8_t> payload;
    rpc::encode_snapshot_lease(snapshot.leases[shard], &payload);
    rpc::Frame resp;
    const db::Status s = Call(rpc::Method::kSnapRelease, nullptr, shard,
                              std::move(payload), &resp);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

// ---- control ----------------------------------------------------------------

db::Status Router::Flush() {
  const std::uint32_t n = num_shards();
  for (std::uint32_t shard = 0; shard < n; ++shard) {
    rpc::Frame resp;
    const db::Status s = Call(rpc::Method::kFlush, nullptr, shard, {}, &resp);
    if (!s.ok()) return s;
  }
  return db::Status();
}

db::Status Router::FetchMap() {
  // Every NODE serves kGetMap (followers included). One round asks each
  // node once and installs the newest map any of them serves; only a
  // round in which no node answers costs a retry.
  for (int attempt = 0;; ++attempt) {
    if (TryRefreshMap()) return db::Status();
    if (attempt + 1 >= options_.max_attempts || !SpendRetry()) break;
    Backoff(attempt);
  }
  gave_up_.fetch_add(1, std::memory_order_relaxed);
  return db::Status::Unavailable("no node answered kGetMap");
}

db::StatusOr<rpc::ShardStats> Router::Stats(std::uint32_t shard) {
  rpc::Frame resp;
  db::Status s = Call(rpc::Method::kStats, nullptr, shard, {}, &resp);
  if (!s.ok()) return s;
  rpc::ShardStats stats;
  s = rpc::decode_shard_stats(resp.payload, &stats);
  if (!s.ok()) return s;
  return stats;
}

db::Status Router::Ping(std::uint32_t shard) {
  rpc::Frame resp;
  return Call(rpc::Method::kPing, nullptr, shard, {}, &resp);
}

}  // namespace smartstore::svc
