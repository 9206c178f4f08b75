#include "svc/meta_service.h"

#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>

#include "svc/replication.h"

namespace smartstore::svc {

namespace {

/// What a store failure means to a remote client. kFaultInjected (crash
/// point fired) and kFailedPrecondition (handle already torn down) both
/// mean "this shard cannot serve right now" — the retryable kUnavailable.
/// Everything else (kNotFound, kCorruption, ...) is a real answer and
/// passes through.
db::StatusCode client_code(const db::Status& s) {
  if (s.IsFaultInjected() || s.IsFailedPrecondition()) {
    return db::StatusCode::kUnavailable;
  }
  return s.code();
}

void set_result(rpc::Frame* resp, const db::Status& s) {
  resp->status = client_code(s);
  resp->payload.clear();
  if (!s.ok()) rpc::encode_message(s.message(), &resp->payload);
}

/// A retry with the same request id must RE-EXECUTE these (the outcome
/// may change — the shard recovers, the follower acks), so their dedup
/// entries are published-then-erased instead of cached forever.
bool retryable_outcome(db::StatusCode c) {
  return c == db::StatusCode::kUnavailable || c == db::StatusCode::kTimeout;
}

MetaServiceOptions normalize(MetaServiceOptions o) {
  if (o.node_id == MetaServiceOptions::kNodeIsShard) o.node_id = o.shard_id;
  return o;
}

}  // namespace

MetaService::MetaService(db::Store* store, PartitionMap map,
                         MetaServiceOptions options)
    : store_(store), options_(normalize(options)), map_(std::move(map)) {}

PartitionMap MetaService::map() const {
  const util::ReaderLock lock(map_mu_);
  return map_;
}

void MetaService::InstallMap(PartitionMap map) {
  const util::WriterLock lock(map_mu_);
  if (map.version > map_.version) map_ = std::move(map);
}

rpc::Frame MetaService::Handle(const rpc::Frame& req) {
  rpc::Frame resp;
  resp.type = rpc::MsgType::kResponse;
  resp.method = req.method;
  resp.shard = options_.shard_id;
  resp.client_id = req.client_id;
  resp.seq = req.seq;
  {
    const util::ReaderLock lock(map_mu_);
    resp.map_version = map_.version;
  }

  if (req.type != rpc::MsgType::kRequest) {
    set_result(&resp,
               db::Status::InvalidArgument("response frame sent as request"));
    return resp;
  }

  switch (req.method) {
    case rpc::Method::kPing:
      resp.payload = req.payload;  // echo
      break;
    case rpc::Method::kPut:
    case rpc::Method::kDelete:
    case rpc::Method::kBatchWrite:
      HandleMutation(req, &resp);
      break;
    case rpc::Method::kPointQuery:
    case rpc::Method::kRangeQuery:
    case rpc::Method::kTopKQuery:
      HandleQuery(req, &resp);
      break;
    case rpc::Method::kFlush:
      HandleFlush(&resp);
      break;
    case rpc::Method::kGetMap:
      HandleGetMap(&resp);
      break;
    case rpc::Method::kStats:
      HandleStats(&resp);
      break;
    case rpc::Method::kSnapPin:
      HandleSnapPin(&resp);
      break;
    case rpc::Method::kSnapRelease:
      HandleSnapRelease(req, &resp);
      break;
    case rpc::Method::kReplAppend:
      HandleReplAppend(req, &resp);
      break;
    case rpc::Method::kReplFrontier:
      HandleReplFrontier(&resp);
      break;
    case rpc::Method::kReplBootstrap:
      HandleReplBootstrap(req, &resp);
      break;
  }
  return resp;
}

// ---- dedup ------------------------------------------------------------------

bool MetaService::Claim(const DedupKey& key, db::StatusCode* status,
                        std::vector<std::uint8_t>* payload) {
  util::UniqueLock lock(dedup_mu_);
  auto it = dedup_.find(key);
  if (it == dedup_.end()) {
    dedup_.emplace(key, std::make_shared<DedupEntry>());
    dedup_fifo_.push_back(key);
    // FIFO eviction of COMPLETED entries only: a pending entry at the
    // front blocks eviction (it has live waiters; capacity overshoot is
    // bounded by in-flight requests).
    while (dedup_fifo_.size() > options_.dedup_capacity) {
      const DedupKey victim = dedup_fifo_.front();
      auto vit = dedup_.find(victim);
      if (vit != dedup_.end() && !vit->second->done) break;
      dedup_fifo_.pop_front();
      if (vit != dedup_.end()) dedup_.erase(vit);
    }
    return true;
  }
  // Duplicate: wait out a pending twin, then replay the published answer.
  // The shared_ptr keeps the entry alive independent of eviction.
  const std::shared_ptr<DedupEntry> entry = it->second;
  dup_hits_.fetch_add(1, std::memory_order_relaxed);
  dedup_cv_.wait(lock, [&] { return entry->done; });
  *status = entry->status;
  *payload = entry->payload;
  return false;
}

void MetaService::Publish(const DedupKey& key, db::StatusCode status,
                          const std::vector<std::uint8_t>& payload) {
  {
    const util::MutexLock lock(dedup_mu_);
    auto it = dedup_.find(key);
    if (it != dedup_.end()) {
      it->second->status = status;
      it->second->payload = payload;
      it->second->done = true;
      // A retryable outcome (shard mid-crash, follower ack timed out) must
      // not be replayed to a LATER retry of the same id — the retry has to
      // re-execute and may now succeed. Waiters already parked on this
      // entry still read it through their shared_ptr; the stale fifo key
      // is skipped harmlessly by Claim's eviction sweep.
      if (retryable_outcome(status)) dedup_.erase(it);
    }
  }
  dedup_cv_.notify_all();
}

// ---- keyed mutations --------------------------------------------------------

db::Status MetaService::ApplyPut(const metadata::FileMetadata& file) {
  // Upsert: replace-on-exists, so a retry replayed after a crash (empty
  // dedup table) converges to the same record instead of duplicating it.
  const db::Status removed = store_->Delete(file.name);
  if (!removed.ok() && !removed.IsNotFound()) return removed;
  return store_->Put(file);
}

db::Status MetaService::ApplyDelete(const std::string& name) {
  // Idempotent: "already absent" and "deleted it" are the same outcome to
  // a client whose earlier attempt may have applied invisibly.
  const db::Status s = store_->Delete(name);
  if (s.IsNotFound()) return db::Status();
  return s;
}

db::Status MetaService::AckDurable() {
  ReplicationSender* sender = sender_.load(std::memory_order_acquire);
  if (!sender) return db::Status();
  // LatestSequence is at or above the seq this mutation committed at, so
  // waiting on it covers the mutation (plus any concurrent neighbors —
  // they are about to need the same ack anyway).
  return sender->WaitDurable(store_->LatestSequence(),
                             options_.repl_ack_timeout_ms);
}

bool MetaService::RejectWrongShard(const std::string* name,
                                   rpc::Frame* resp) {
  const util::ReaderLock lock(map_mu_);
  const std::uint32_t owner = name ? map_.shard_of(*name) : options_.shard_id;
  // Two ways this node must not serve the request: the key's owning shard
  // is a different one (classic resharding), or this node is not the
  // shard's primary (a follower, or a deposed primary that already adopted
  // the post-promotion map). A request without a key — a scatter slice, a
  // snapshot pin — can only fail the second: a follower's view lags by the
  // in-flight replication window. Both answer with the installed map —
  // the redirect teaches the stale client the authoritative routing (and
  // the new primary) in one round trip.
  if (owner == options_.shard_id &&
      map_.primary_node_of(owner) == options_.node_id) {
    return false;
  }
  wrong_shard_.fetch_add(1, std::memory_order_relaxed);
  resp->status = db::StatusCode::kWrongShard;
  resp->payload.clear();
  encode_partition_map(map_, &resp->payload);
  return true;
}

bool MetaService::RejectStaleEpoch(const rpc::Frame& req, rpc::Frame* resp) {
  std::uint64_t epoch;
  {
    const util::ReaderLock lock(map_mu_);
    epoch = map_.epoch;
  }
  // Replication frames carry the sender's epoch in map_version. A lower
  // epoch means the sender lost a promotion it has not heard about yet:
  // applying (or acking) its records would resurrect the split brain the
  // epoch exists to prevent. kFailedPrecondition is NOT mapped to
  // kUnavailable for replication methods — the sender must see it raw and
  // self-depose.
  if (req.map_version >= epoch) return false;
  resp->status = db::StatusCode::kFailedPrecondition;
  resp->payload.clear();
  rpc::encode_message("stale replication epoch " +
                          std::to_string(req.map_version) + " < " +
                          std::to_string(epoch),
                      &resp->payload);
  return true;
}

void MetaService::HandleMutation(const rpc::Frame& req, rpc::Frame* resp) {
  // Put and Delete travel as a one-op batch from here on.
  std::vector<rpc::BatchOp> ops;
  db::Status s;
  if (req.method == rpc::Method::kBatchWrite) {
    s = rpc::decode_batch(req.payload, &ops);
  } else if (req.method == rpc::Method::kPut) {
    s = rpc::decode_file(req.payload, &ops.emplace_back().file);
  } else {
    rpc::BatchOp& op = ops.emplace_back();
    op.is_put = false;
    s = rpc::decode_name(req.payload, &op.name);
  }
  if (!s.ok()) {
    set_result(resp, s);
    return;
  }
  // Ownership before dedup: a wrong-shard rejection must not occupy a
  // request id the client will reuse against the right shard. The whole
  // batch must belong here; the router splits per shard, so a mixed batch
  // means a stale map — reject before anything applies.
  for (const rpc::BatchOp& op : ops) {
    if (RejectWrongShard(op.is_put ? &op.file.name : &op.name, resp)) return;
  }

  const DedupKey key{req.client_id, req.seq};
  db::StatusCode code = db::StatusCode::kOk;
  std::vector<std::uint8_t> payload;
  if (!Claim(key, &code, &payload)) {
    resp->status = code;
    resp->payload = std::move(payload);
    return;
  }
  // Applied op-by-op through the idempotent forms, in order, with no
  // service lock held (store is rank 0), so a replay after a mid-batch
  // crash re-converges instead of double-applying the prefix that made it
  // to the WAL.
  for (const rpc::BatchOp& op : ops) {
    s = op.is_put ? ApplyPut(op.file) : ApplyDelete(op.name);
    if (!s.ok()) break;
    (op.is_put ? applied_puts_ : applied_deletes_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  // The ack barrier, one for the whole batch (LatestSequence covers every
  // op): the response may not leave until the writes are as durable as
  // the replication mode promises. A kTimeout here is NOT an ack — the
  // dedup entry is published-then-erased, so the client's retry
  // re-executes (idempotently) instead of replaying the failure.
  if (s.ok()) s = AckDurable();
  set_result(resp, s);
  Publish(key, resp->status, resp->payload);
}

// ---- queries ----------------------------------------------------------------

void MetaService::HandleQuery(const rpc::Frame& req, rpc::Frame* resp) {
  db::QueryRequest request;
  std::uint64_t as_of = rpc::kAsOfLatest;
  db::Status s;
  if (req.method == rpc::Method::kPointQuery) {
    s = rpc::decode_point_query(
        req.payload, &request.op.emplace<metadata::PointQuery>(), &as_of);
  } else if (req.method == rpc::Method::kRangeQuery) {
    s = rpc::decode_range_query(
        req.payload, &request.op.emplace<metadata::RangeQuery>(), &as_of);
  } else {
    s = rpc::decode_topk_query(
        req.payload, &request.op.emplace<metadata::TopKQuery>(), &as_of);
  }
  if (!s.ok()) {
    set_result(resp, s);
    return;
  }
  // A point lookup is keyed (ownership by name); a range or top-k request
  // is a scatter slice, which must come from the shard's primary.
  const auto* point = std::get_if<metadata::PointQuery>(&request.op);
  if (RejectWrongShard(point ? &point->filename : nullptr, resp)) return;
  // A pinned as-of token selects the exact snapshot scan (time travel /
  // pinned scatter-gather); kAsOfLatest keeps the routed read path.
  db::StatusOr<db::QueryResult> r =
      as_of != rpc::kAsOfLatest
          ? store_->Query(request, db::ReadOptions{as_of - 1})
          : store_->Query(request);
  if (!r.ok()) {
    set_result(resp, r.status());
    return;
  }
  resp->status = db::StatusCode::kOk;
  resp->payload.clear();
  rpc::encode_query_result(*r, &resp->payload);
}

// ---- control ----------------------------------------------------------------

void MetaService::HandleFlush(rpc::Frame* resp) {
  // An in-memory shard has no WAL to commit; "everything acked is as
  // durable as it will ever be" is trivially true, not a precondition
  // failure the client should retry.
  if (store_->options().in_memory) {
    set_result(resp, db::Status());
    return;
  }
  set_result(resp, store_->Flush());
}

void MetaService::HandleGetMap(rpc::Frame* resp) {
  resp->status = db::StatusCode::kOk;
  resp->payload.clear();
  const util::ReaderLock lock(map_mu_);
  encode_partition_map(map_, &resp->payload);
}

void MetaService::HandleStats(rpc::Frame* resp) {
  rpc::ShardStats stats;
  stats.applied_puts = applied_puts_.load(std::memory_order_relaxed);
  stats.applied_deletes = applied_deletes_.load(std::memory_order_relaxed);
  stats.dup_hits = dup_hits_.load(std::memory_order_relaxed);
  stats.wrong_shard = wrong_shard_.load(std::memory_order_relaxed);
  std::string value;
  if (store_->GetProperty("smartstore.total-files", &value)) {
    stats.total_files = std::strtoull(value.c_str(), nullptr, 10);
  }
  resp->status = db::StatusCode::kOk;
  resp->payload.clear();
  rpc::encode_shard_stats(stats, &resp->payload);
}

// ---- snapshot leases --------------------------------------------------------

void MetaService::HandleSnapPin(rpc::Frame* resp) {
  // A follower's pin would anchor a lagging cut.
  if (RejectWrongShard(nullptr, resp)) return;
  // Pin first, with no service lock held: GetSnapshot enters the store
  // (rank 0), so taking lease_mu_ (rank kSvcLease) around it would invert
  // the lock order the validator enforces.
  db::StatusOr<db::Snapshot> snap = store_->GetSnapshot();
  if (!snap.ok()) {
    set_result(resp, snap.status());
    return;
  }

  rpc::SnapshotLease lease;
  {
    const util::MutexLock lock(lease_mu_);
    // TTL sweep: drop leases whose clients went away without releasing,
    // so their pins stop holding the GC watermark back.
    const auto now = std::chrono::steady_clock::now();
    for (auto it = leases_.begin(); it != leases_.end();) {
      it = it->second.expires <= now ? leases_.erase(it) : std::next(it);
    }
    if (leases_.size() >= options_.snapshot_lease_capacity) {
      set_result(resp, db::Status::Unavailable(
                           "snapshot lease table full; retry or read latest"));
      return;
    }
    lease.lease_id = next_lease_id_++;
    lease.seq = snap->sequence();
    leases_.emplace(
        lease.lease_id,
        LeaseEntry{*std::move(snap),
                   now + std::chrono::milliseconds(
                             options_.snapshot_lease_ttl_ms)});
  }
  resp->status = db::StatusCode::kOk;
  resp->payload.clear();
  rpc::encode_snapshot_lease(lease, &resp->payload);
}

void MetaService::HandleSnapRelease(const rpc::Frame& req, rpc::Frame* resp) {
  rpc::SnapshotLease lease;
  const db::Status s = rpc::decode_snapshot_lease(req.payload, &lease);
  if (!s.ok()) {
    set_result(resp, s);
    return;
  }
  {
    const util::MutexLock lock(lease_mu_);
    // Releasing an unknown (already swept) lease is success: the client's
    // goal — "my pin is gone" — already holds.
    leases_.erase(lease.lease_id);
  }
  set_result(resp, db::Status());
}

// ---- replication (follower role) --------------------------------------------

void MetaService::HandleReplAppend(const rpc::Frame& req, rpc::Frame* resp) {
  if (RejectStaleEpoch(req, resp)) return;
  rpc::ReplBatch batch;
  db::Status s = rpc::decode_repl_batch(req.payload, &batch);
  if (!s.ok()) {
    set_result(resp, s);
    return;
  }
  std::uint64_t frontier = store_->LatestSequence();
  if (!batch.ops.empty()) {
    s = store_->ApplyReplicated(batch.ops, &frontier);
    if (!s.ok()) {
      set_result(resp, s);  // store errors map to kUnavailable, not a depose
      return;
    }
  }
  // The sync flag latches: from the primary's mouth, this replica's
  // frontier now covers every acked write, so it is promotion-eligible.
  if (batch.sync_engaged) ready_.store(true, std::memory_order_release);
  rpc::ReplStatus st;
  st.frontier = frontier;
  st.ready = ready_.load(std::memory_order_acquire);
  resp->status = db::StatusCode::kOk;
  resp->payload.clear();
  rpc::encode_repl_status(st, &resp->payload);
}

void MetaService::HandleReplFrontier(rpc::Frame* resp) {
  // The promotion scan's probe. No epoch check: reading the frontier is
  // harmless from anyone, and the manager may legitimately probe with an
  // older map in hand.
  rpc::ReplStatus st;
  st.frontier = store_->LatestSequence();
  st.ready = ready_.load(std::memory_order_acquire);
  resp->status = db::StatusCode::kOk;
  resp->payload.clear();
  rpc::encode_repl_status(st, &resp->payload);
}

void MetaService::HandleReplBootstrap(const rpc::Frame& req,
                                      rpc::Frame* resp) {
  if (RejectStaleEpoch(req, resp)) return;
  rpc::ReplBootstrap boot;
  db::Status s = rpc::decode_repl_bootstrap(req.payload, &boot);
  if (!s.ok()) {
    set_result(resp, s);
    return;
  }
  // LoadBootstrap enforces the empty-store precondition itself (a stale
  // replica must be wiped and reopened by the cluster, never overwritten).
  s = store_->LoadBootstrap(boot.seq, boot.files);
  if (!s.ok()) {
    set_result(resp, s);
    return;
  }
  ready_.store(false, std::memory_order_release);  // not caught up yet
  rpc::ReplStatus st;
  st.frontier = store_->LatestSequence();
  st.ready = false;
  resp->status = db::StatusCode::kOk;
  resp->payload.clear();
  rpc::encode_repl_status(st, &resp->payload);
}

}  // namespace smartstore::svc
