#include "svc/replication.h"

#include <chrono>
#include <utility>

namespace smartstore::svc {

ReplicationSender::ReplicationSender(ReplicationOptions options)
    : options_(options), sender_([this] { SenderLoop(); }) {}

ReplicationSender::~ReplicationSender() { Stop(); }

void ReplicationSender::Stop() {
  {
    const util::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (sender_.joinable()) sender_.join();
}

void ReplicationSender::OnCommit(const db::ReplicatedOp& op) {
  bool wake = false;
  {
    const util::MutexLock lock(mu_);
    // No consumer and no bootstrap in progress: nothing retains the
    // record (re-arming always goes through a fresh bootstrap).
    if (!retaining_ && !have_follower_) return;
    pending_.emplace(op.seq, op);
    wake = have_follower_;
  }
  // Caller still holds a kWalShard mutex: notify takes no locks.
  if (wake) cv_.notify_all();
}

void ReplicationSender::DetachLocked() {
  have_follower_ = false;
  sync_engaged_ = false;
  flag_shipped_ = false;
  follower_.reset();
  pending_.clear();
  consecutive_failures_ = 0;
}

void ReplicationSender::DetachFollower() {
  {
    const util::MutexLock lock(mu_);
    DetachLocked();
  }
  // Waiters re-check: no follower -> degraded ack path, they return OK.
  cv_.notify_all();
}

void ReplicationSender::AdoptEpoch(std::uint64_t epoch) {
  const util::MutexLock lock(mu_);
  if (!deposed_ && epoch > epoch_) epoch_ = epoch;
}

db::Status ReplicationSender::AttachFollower(
    db::Store* store, std::shared_ptr<rpc::Channel> follower,
    std::uint64_t epoch) {
  {
    const util::MutexLock lock(mu_);
    if (deposed_) {
      return db::Status::FailedPrecondition(
          "deposed primary cannot attach a follower");
    }
    // Retention armed BEFORE the snapshot pin: every record committing
    // after the pinned seq S lands in the buffer, so the dump (<= S) plus
    // the buffered stream (> S) covers the history with no gap and no
    // quiescing of writers.
    DetachLocked();
    retaining_ = true;
    epoch_ = epoch;
  }
  std::uint64_t snap_seq = 0;
  auto dump = store->DumpSnapshot(&snap_seq);
  db::Status s = dump.status();
  rpc::ReplStatus st;
  if (s.ok()) {
    rpc::ReplBootstrap boot;
    boot.seq = snap_seq;
    boot.files = std::move(dump).value();
    rpc::Frame req;
    req.type = rpc::MsgType::kRequest;
    req.method = rpc::Method::kReplBootstrap;
    req.map_version = epoch;
    rpc::encode_repl_bootstrap(boot, &req.payload);
    rpc::Frame resp;
    s = follower->Call(req, &resp);
    if (s.ok()) s = rpc::response_status(resp);
    if (s.ok()) s = rpc::decode_repl_status(resp.payload, &st);
    if (s.ok() && st.frontier != snap_seq) {
      s = db::Status::FailedPrecondition(
          "bootstrap frontier mismatch: follower reports " +
          std::to_string(st.frontier) + ", dump was at " +
          std::to_string(snap_seq));
    }
  }
  bool wake = false;
  bool sync_now = false;
  std::uint64_t flag_seq = 0;
  std::shared_ptr<rpc::Channel> attached;
  {
    const util::MutexLock lock(mu_);
    retaining_ = false;
    if (!s.ok() || deposed_) {
      pending_.clear();
      return s.ok() ? db::Status::FailedPrecondition("deposed during attach")
                    : s;
    }
    // Records the dump already covers were buffered too — drop them; the
    // stream resumes at S+1.
    pending_.erase(pending_.begin(), pending_.upper_bound(snap_seq));
    next_to_ship_ = snap_seq + 1;
    ack_frontier_ = snap_seq;
    follower_ = std::move(follower);
    attached = follower_;
    have_follower_ = true;
    // Sync engages right away iff the dump already covers every degraded
    // ack; otherwise the flip waits for the ack that proves coverage. The
    // sender ships the flag (an empty batch if it must) so the follower
    // latches `ready` even on an idle shard.
    sync_engaged_ = degraded_acked_ <= snap_seq;
    flag_shipped_ = false;
    sync_now = sync_engaged_;
    if (sync_now) flag_seq = ++repl_seq_;
    wake = true;
  }
  if (wake) cv_.notify_all();
  if (sync_now) {
    // Deliver the sync flag on THIS thread before returning: once attach
    // completes, the follower must already be promotion-eligible. Racing
    // the sender loop here would leave a window where the primary dies
    // right after Start()/rejoin with a fully-caught-up follower that was
    // never certified `ready` — the shard would be unpromotable forever.
    rpc::ReplBatch batch;
    batch.sync_engaged = true;
    rpc::Frame req;
    req.type = rpc::MsgType::kRequest;
    req.method = rpc::Method::kReplAppend;
    req.client_id = 0;
    req.seq = flag_seq;
    req.map_version = epoch;
    rpc::encode_repl_batch(batch, &req.payload);
    rpc::Frame resp;
    db::Status shipped = attached->Call(req, &resp);
    if (shipped.ok()) shipped = rpc::response_status(resp);
    rpc::ReplStatus st;
    if (shipped.ok()) shipped = rpc::decode_repl_status(resp.payload, &st);
    if (shipped.ok()) {
      const util::MutexLock lock(mu_);
      if (have_follower_ && follower_ == attached) {
        flag_shipped_ = true;
        if (st.frontier > ack_frontier_) ack_frontier_ = st.frontier;
      }
    }
    // On failure the sender loop re-ships the flag with its normal retry
    // and failure accounting — attach itself still succeeded.
  }
  return db::Status();
}

db::Status ReplicationSender::WaitDurable(std::uint64_t seq,
                                          std::uint64_t timeout_ms) {
  util::UniqueLock lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  bool timed_out = false;
  for (;;) {
    if (stop_) return db::Status::Unavailable("replication sender stopped");
    if (deposed_) {
      // Acking from the losing side of a split brain loses the write when
      // this replica is wiped on rejoin — fail instead; the client
      // retries against the promoted primary.
      return db::Status::FailedPrecondition(
          "deposed primary: a newer map epoch exists");
    }
    if (!have_follower_ || !sync_engaged_) {
      // Degraded (solo, or follower catching up): primary durability is
      // the ack. Record the seq so no follower can be declared ready
      // until its frontier covers it.
      if (seq > degraded_acked_) degraded_acked_ = seq;
      return db::Status();
    }
    if (ack_frontier_ >= seq) return db::Status();
    if (timed_out) {
      return db::Status::Timeout(
          "replicated ack for seq " + std::to_string(seq) +
          " did not arrive in " + std::to_string(timeout_ms) + "ms");
    }
    timed_out = cv_.wait_until(lock, deadline) == std::cv_status::timeout;
  }
}

void ReplicationSender::SenderLoop() {
  util::UniqueLock lock(mu_);
  while (!stop_) {
    // ShipOnce can discover stop_ only after re-acquiring mu_: Stop() may
    // run entirely inside the unlocked Call window, notifying while no one
    // waits. Re-check before parking or that notify is lost and Stop()'s
    // join hangs forever.
    if (!ShipOnce(lock) && !stop_) cv_.wait(lock);
  }
}

bool ReplicationSender::ShipOnce(util::UniqueLock& lock) {
  if (!have_follower_) return false;
  rpc::ReplBatch batch;
  batch.sync_engaged = sync_engaged_;
  auto it = pending_.begin();
  while (it != pending_.end() && it->first < next_to_ship_) {
    it = pending_.erase(it);  // covered by the bootstrap dump or an ack
  }
  std::uint64_t expect = next_to_ship_;
  while (it != pending_.end() && it->first == expect &&
         batch.ops.size() < options_.max_batch) {
    batch.ops.push_back(it->second);
    ++expect;
    ++it;
  }
  // Nothing contiguous (a lower seq is still committing on another WAL
  // shard — a transient gap) and no sync flag to deliver: wait for a
  // commit or an ack to change the picture.
  if (batch.ops.empty() && !(sync_engaged_ && !flag_shipped_)) return false;

  const bool flag = batch.sync_engaged;
  const std::shared_ptr<rpc::Channel> ch = follower_;
  const std::uint64_t frame_epoch = epoch_;
  rpc::Frame req;
  req.type = rpc::MsgType::kRequest;
  req.method = rpc::Method::kReplAppend;
  req.client_id = 0;
  req.seq = ++repl_seq_;
  req.map_version = frame_epoch;  // the epoch check rides map_version
  rpc::encode_repl_batch(batch, &req.payload);

  // Never hold mu_ across the Call: the in-process transport runs the
  // follower's handler — which descends to store rank 0 — on this thread.
  lock.unlock();
  rpc::Frame resp;
  db::Status sent = ch->Call(req, &resp);
  bool stale_epoch = false;
  rpc::ReplStatus st;
  if (sent.ok()) {
    stale_epoch = resp.status == db::StatusCode::kFailedPrecondition;
    sent = rpc::response_status(resp);
    if (sent.ok()) sent = rpc::decode_repl_status(resp.payload, &st);
  }
  lock.lock();

  if (stop_) return false;
  if (!have_follower_ || follower_ != ch) return true;  // detached meanwhile
  if (sent.ok()) {
    consecutive_failures_ = 0;
    if (flag) flag_shipped_ = true;
    if (st.frontier > ack_frontier_) ack_frontier_ = st.frontier;
    pending_.erase(pending_.begin(), pending_.upper_bound(ack_frontier_));
    if (ack_frontier_ + 1 > next_to_ship_) next_to_ship_ = ack_frontier_ + 1;
    if (!sync_engaged_ && ack_frontier_ >= degraded_acked_) {
      // The flip: every degraded ack is now durable on the follower. From
      // here acks wait on the frontier, so shipping the flag (latching
      // the follower's `ready`) cannot race a concurrent degraded ack —
      // both paths serialize on mu_.
      sync_engaged_ = true;
      flag_shipped_ = false;
    }
    cv_.notify_all();
    return true;
  }
  if (stale_epoch) {
    if (epoch_ > frame_epoch) {
      // A promotion on ANOTHER shard bumped the cluster epoch while this
      // frame was in flight, and orchestration already re-certified this
      // node (AdoptEpoch) as its own shard's primary. The rejection is
      // about the stamp, not the role: re-ship at the adopted epoch.
      consecutive_failures_ = 0;
      return true;
    }
    // A higher epoch exists and nobody re-certified us: a promotion
    // happened and this node lost. Every future ack must fail — detaching
    // alone would silently fall back to degraded acks, which is exactly
    // the split-brain loss.
    deposed_ = true;
    DetachLocked();
    cv_.notify_all();
    return true;
  }
  if (++consecutive_failures_ >= options_.max_consecutive_failures) {
    DetachLocked();  // follower is gone: degraded solo until re-attach
    cv_.notify_all();
    return true;
  }
  // Transient failure: re-ship the same run after a pause (new commits or
  // a detach wake us early).
  cv_.wait_for(lock, std::chrono::milliseconds(options_.retry_delay_ms));
  return true;
}

std::uint64_t ReplicationSender::ack_frontier() const {
  const util::MutexLock lock(mu_);
  return ack_frontier_;
}

bool ReplicationSender::sync_engaged() const {
  const util::MutexLock lock(mu_);
  return sync_engaged_;
}

bool ReplicationSender::deposed() const {
  const util::MutexLock lock(mu_);
  return deposed_;
}

}  // namespace smartstore::svc
