#include "svc/cluster.h"

#include <chrono>
#include <filesystem>
#include <utility>

namespace smartstore::svc {

namespace {

/// splitmix64 finalizer: decorrelates per-node placement rngs. The old
/// `seed + shard` gave adjacent CLUSTER seeds (seed 1 shard 1 vs seed 2
/// shard 0) identical store seeds — two "independent" test clusters then
/// shared placement decisions.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t node) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (node + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

db::Status frame_error(const rpc::Frame& f) {
  std::string msg;
  (void)rpc::decode_message(f.payload, &msg);  // best-effort
  return db::Status::FromCode(f.status, std::move(msg));
}

}  // namespace

Cluster::Cluster(const ClusterOptions& options)
    : options_(options),
      map_(options.replication_factor > 1
               ? PartitionMap::Replicated(options.num_shards,
                                          options.replication_factor,
                                          options.map_version)
               : PartitionMap::RoundRobin(options.num_shards,
                                          options.map_version)) {}

std::string Cluster::NodePath(std::uint32_t node) const {
  // rf == 1 keeps the legacy `shard-<k>` layout so existing durable test
  // directories keep recovering; replicated clusters name endpoints.
  if (options_.replication_factor == 1) {
    return options_.dir + "/shard-" + std::to_string(node);
  }
  return options_.dir + "/node-" + std::to_string(node);
}

db::Options Cluster::NodeStoreOptions(std::uint32_t node) const {
  db::Options o = options_.store_options;
  o.in_memory = options_.in_memory;
  o.create_if_missing = true;
  o.seed = mix_seed(o.seed, node);  // distinct placement rngs per node
  if (options_.in_memory) {
    // In-memory stores reject durability knobs (nothing to checkpoint).
    o.checkpoint_every = 0;
  } else {
    // Acked => durable: every mutation's WAL record is committed before
    // the response leaves the shard, so Abandon cannot lose an acked write.
    // A batch above 1 (static or adaptive) would ack records still pending
    // in the log. On a replicated shard the ack barrier also waits for the
    // follower to cover THIS mutation's seq, which needs it committed.
    o.group_commit = 1;
  }
  return o;
}

db::StatusOr<std::shared_ptr<Cluster::Node>> Cluster::OpenNode(
    std::uint32_t node) const {
  auto opened = db::Store::Open(
      NodeStoreOptions(node),
      options_.in_memory ? std::string() : NodePath(node));
  if (!opened.ok()) return opened.status();
  auto n = std::make_shared<Node>();
  n->store = std::move(opened).value();
  MetaServiceOptions service_options;
  service_options.shard_id = shard_of_node(node);
  if (options_.replication_factor > 1) service_options.node_id = node;
  service_options.dedup_capacity = options_.dedup_capacity;
  service_options.repl_ack_timeout_ms = options_.repl_ack_timeout_ms;
  service_options.snapshot_lease_capacity = options_.snapshot_lease_capacity;
  service_options.snapshot_lease_ttl_ms = options_.snapshot_lease_ttl_ms;
  PartitionMap map_snapshot;
  {
    const util::MutexLock lock(mu_);
    map_snapshot = map_;
  }
  n->service = std::make_unique<MetaService>(
      n->store.get(), std::move(map_snapshot), service_options);
  return n;
}

void Cluster::BindNode(std::uint32_t node, const std::shared_ptr<Node>& n) {
  // The handler holds the node: a delivery racing Crash() completes
  // against the old store (which answers kUnavailable once abandoned)
  // rather than a dangling pointer.
  network_.Bind(node, [n](const rpc::Frame& req) {
    return n->service->Handle(req);
  });
}

db::Status Cluster::ArmPrimary(const std::shared_ptr<Node>& node) {
  node->sender = std::make_unique<ReplicationSender>();
  ReplicationSender* sender = node->sender.get();
  // Tap BEFORE any follower attach: AttachFollower's retention window
  // must already be fed by the time it pins the bootstrap snapshot.
  const db::Status s = node->store->SetCommitTap(
      [sender](const db::ReplicatedOp& op) { sender->OnCommit(op); });
  if (!s.ok()) {
    node->sender.reset();
    return s;
  }
  node->service->set_replication(sender);
  return db::Status();
}

db::Status Cluster::DirectCall(std::uint32_t node, rpc::Method method,
                               rpc::Frame* resp) {
  rpc::Frame req;
  req.type = rpc::MsgType::kRequest;
  req.method = method;
  req.shard = node;
  const db::Status s = network_.Connect(node)->Call(req, resp);
  if (!s.ok()) return s;
  if (resp->status != db::StatusCode::kOk) return frame_error(*resp);
  return db::Status();
}

db::StatusOr<std::unique_ptr<Cluster>> Cluster::Start(
    const ClusterOptions& options) {
  if (options.num_shards == 0) {
    return db::Status::InvalidArgument("num_shards must be > 0");
  }
  if (options.replication_factor != 1 && options.replication_factor != 2) {
    return db::Status::InvalidArgument(
        "replication_factor must be 1 or 2 (one warm standby per shard)");
  }
  if (options.replication_factor > 1 && options.in_memory) {
    return db::Status::InvalidArgument(
        "replicated cluster must be durable: followers re-log the "
        "replication stream into their WAL");
  }
  if (!options.in_memory && options.dir.empty()) {
    return db::Status::InvalidArgument(
        "durable cluster needs a root directory");
  }
  std::unique_ptr<Cluster> cluster(new Cluster(options));
  const std::uint32_t num_nodes = cluster->num_nodes();
  {
    const util::MutexLock lock(cluster->mu_);
    cluster->nodes_.resize(num_nodes);
    cluster->up_.assign(num_nodes, 0);
  }
  for (std::uint32_t node = 0; node < num_nodes; ++node) {
    auto opened = cluster->OpenNode(node);
    if (!opened.ok()) {
      (void)cluster->Stop();  // tear down the nodes that did start
      return opened.status();
    }
    {
      const util::MutexLock lock(cluster->mu_);
      cluster->nodes_[node] = opened.value();
      cluster->up_[node] = 1;
    }
    cluster->BindNode(node, opened.value());
  }
  if (options.replication_factor > 1) {
    const std::uint64_t epoch = cluster->map().epoch;
    for (std::uint32_t shard = 0; shard < options.num_shards; ++shard) {
      const std::uint32_t p = shard * options.replication_factor;
      const std::uint32_t f = p + 1;
      std::shared_ptr<Node> primary;
      {
        const util::MutexLock lock(cluster->mu_);
        primary = cluster->nodes_[p];
      }
      db::Status s = cluster->ArmPrimary(primary);
      if (s.ok()) {
        s = primary->sender->AttachFollower(
            primary->store.get(), cluster->network_.Connect(f), epoch);
      }
      if (!s.ok()) {
        (void)cluster->Stop();
        return s;
      }
    }
    if (options.auto_failover) {
      cluster->misses_.assign(options.num_shards, 0);
      cluster->manager_ = std::thread([c = cluster.get()] {
        c->ManagerLoop();
      });
    }
  }
  return cluster;
}

Cluster::~Cluster() { (void)Stop(); }

db::Status Cluster::Crash(std::uint32_t node) {
  const std::lock_guard<std::mutex> topo(topo_mu_);
  std::shared_ptr<Node> victim;
  PartitionMap cur;
  {
    const util::MutexLock lock(mu_);
    if (node >= nodes_.size()) {
      return db::Status::InvalidArgument("no such node");
    }
    if (!up_[node]) {
      return db::Status::FailedPrecondition("node already down");
    }
    up_[node] = 0;
    victim = nodes_[node];
    cur = map_;
  }
  // Unbind first: new calls fail kUnavailable instead of racing the
  // abandon. Then stop the sender (in-flight ack barriers fail, clients
  // retry) and Abandon with no cluster lock held (rank 0 descent).
  network_.Unbind(node);
  if (victim->sender) {
    victim->sender->Stop();
    (void)victim->store->SetCommitTap(nullptr);
  }
  victim->store->Abandon();
  if (options_.replication_factor > 1) {
    const std::uint32_t shard = shard_of_node(node);
    const std::uint32_t p = cur.primary_node_of(shard);
    if (p != node) {
      // A FOLLOWER died. Detach the primary's stream proactively so the
      // next ack degrades immediately instead of timing out through the
      // sender's own failure counter.
      std::shared_ptr<Node> primary;
      {
        const util::MutexLock lock(mu_);
        if (p < up_.size() && up_[p]) primary = nodes_[p];
      }
      if (primary && primary->sender) primary->sender->DetachFollower();
    }
  }
  return db::Status();
}

db::Status Cluster::Restart(std::uint32_t node) {
  const std::lock_guard<std::mutex> topo(topo_mu_);
  PartitionMap cur;
  {
    const util::MutexLock lock(mu_);
    if (node >= nodes_.size()) {
      return db::Status::InvalidArgument("no such node");
    }
    if (up_[node]) {
      return db::Status::FailedPrecondition("node is up; Crash it first");
    }
    cur = map_;
  }
  const std::uint32_t shard = shard_of_node(node);
  if (options_.replication_factor > 1 &&
      cur.primary_node_of(shard) != node) {
    // Deposed (a promotion happened while this node was down) or plain
    // follower: the local timeline may diverge from the promoted one by
    // an unacked suffix. Every ACKED write lives on the current primary,
    // so wiping loses nothing a client was promised.
    {
      const util::MutexLock lock(mu_);
      const std::uint32_t p = cur.primary_node_of(shard);
      if (!(p < up_.size() && up_[p])) {
        return db::Status::FailedPrecondition(
            "shard " + std::to_string(shard) +
            "'s primary is down; restart it first (it holds every acked "
            "write)");
      }
    }
    return WipeAndRejoinLocked(node, shard);
  }

  // Still the primary (rf == 1 always lands here): recover the directory
  // — snapshot load + WAL replay — and resume.
  auto opened = OpenNode(node);
  if (!opened.ok()) return opened.status();
  if (options_.replication_factor > 1) {
    const db::Status s = ArmPrimary(opened.value());
    if (!s.ok()) return s;
  }
  std::shared_ptr<Node> retired;
  {
    const util::MutexLock lock(mu_);
    retired = std::move(nodes_[node]);
    nodes_[node] = opened.value();
    up_[node] = 1;
  }
  // `retired` (the crashed node) drops its last reference HERE, outside
  // the cluster lock: ~Store descends to the rank-0 lifecycle lock, and
  // holding rank kSvcCluster across that is a validator abort.
  retired.reset();
  BindNode(node, opened.value());
  if (options_.replication_factor > 1) {
    // A live follower's `ready` latch predates the crash: acks taken
    // since recovery (degraded) are not covered by it, so trusting it
    // could promote a stale replica later. Re-sync from scratch.
    for (const std::uint32_t f : cur.replicas_of(shard)) {
      if (f == node) continue;
      bool follower_up;
      {
        const util::MutexLock lock(mu_);
        follower_up = f < up_.size() && up_[f] != 0;
      }
      if (!follower_up) continue;
      const db::Status s = WipeAndRejoinLocked(f, shard);
      if (!s.ok()) return s;  // primary is up; follower stays degraded
    }
  }
  return db::Status();
}

db::Status Cluster::WipeAndRejoinLocked(std::uint32_t f,
                                        std::uint32_t shard) {
  std::shared_ptr<Node> old;
  bool was_up;
  {
    const util::MutexLock lock(mu_);
    old = nodes_[f];
    was_up = up_[f] != 0;
    up_[f] = 0;
  }
  if (was_up && old) {
    network_.Unbind(f);
    if (old->sender) {
      old->sender->Stop();
      (void)old->store->SetCommitTap(nullptr);
    }
    old->store->Abandon();  // releases the LOCK file before the wipe
  }
  {
    const util::MutexLock lock(mu_);
    nodes_[f].reset();
  }
  old.reset();  // last owner (barring in-flight handlers) dies lock-free
  std::error_code ec;
  std::filesystem::remove_all(NodePath(f), ec);
  if (ec) {
    return db::Status::IOError("wipe of " + NodePath(f) +
                               " failed: " + ec.message());
  }
  auto opened = OpenNode(f);  // fresh empty store, ready_ == false
  if (!opened.ok()) return opened.status();
  {
    const util::MutexLock lock(mu_);
    nodes_[f] = opened.value();
    up_[f] = 1;
  }
  BindNode(f, opened.value());

  std::shared_ptr<Node> primary;
  std::uint64_t epoch;
  {
    const util::MutexLock lock(mu_);
    const std::uint32_t p = map_.primary_node_of(shard);
    if (p < up_.size() && up_[p]) primary = nodes_[p];
    epoch = map_.epoch;
  }
  if (!primary || !primary->sender) {
    return db::Status::FailedPrecondition(
        "no armed primary to bootstrap the rejoined follower from");
  }
  return primary->sender->AttachFollower(primary->store.get(),
                                         network_.Connect(f), epoch);
}

db::Status Cluster::Promote(std::uint32_t shard) {
  if (options_.replication_factor == 1) {
    return db::Status::FailedPrecondition("cluster is not replicated");
  }
  if (shard >= options_.num_shards) {
    return db::Status::InvalidArgument("no such shard");
  }
  const std::lock_guard<std::mutex> topo(topo_mu_);
  return PromoteLocked(shard);
}

db::Status Cluster::PromoteLocked(std::uint32_t shard) {
  PartitionMap cur;
  {
    const util::MutexLock lock(mu_);
    cur = map_;
    const std::uint32_t p = cur.primary_node_of(shard);
    if (p < up_.size() && up_[p]) {
      return db::Status::FailedPrecondition("primary is up");
    }
  }
  const std::uint32_t dead = cur.primary_node_of(shard);
  // The most-caught-up READY follower wins. Ready is the dead primary's
  // certification that the follower's frontier covered every acked
  // write; a non-ready follower may be missing degraded acks and MUST
  // NOT be promoted — better unavailable than wrong.
  std::uint32_t winner = static_cast<std::uint32_t>(-1);
  std::uint64_t winner_frontier = 0;
  for (const std::uint32_t r : cur.replicas_of(shard)) {
    if (r == dead) continue;
    {
      const util::MutexLock lock(mu_);
      if (!(r < up_.size() && up_[r])) continue;
    }
    rpc::Frame resp;
    if (!DirectCall(r, rpc::Method::kReplFrontier, &resp).ok()) continue;
    rpc::ReplStatus st;
    if (!rpc::decode_repl_status(resp.payload, &st).ok()) continue;
    if (!st.ready) continue;
    if (winner == static_cast<std::uint32_t>(-1) ||
        st.frontier > winner_frontier) {
      winner = r;
      winner_frontier = st.frontier;
    }
  }
  if (winner == static_cast<std::uint32_t>(-1)) {
    return db::Status::Unavailable(
        "shard " + std::to_string(shard) +
        " has no ready follower to promote");
  }

  PartitionMap next = cur;
  next.version = cur.version + 1;
  next.epoch = cur.epoch + 1;  // fences the deposed primary's stream
  next.shard_primary[shard] = winner;

  std::shared_ptr<Node> w;
  std::vector<std::shared_ptr<Node>> others;
  {
    const util::MutexLock lock(mu_);
    w = nodes_[winner];
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      if (n != winner && up_[n]) others.push_back(nodes_[n]);
    }
  }
  // Arm the winner BEFORE it can accept a write: from its first keyed
  // mutation every ack must flow through the (degraded, solo) barrier so
  // degraded_acked_ tracking starts at seq one-past-the-promoted-state.
  const db::Status s = ArmPrimary(w);
  if (!s.ok()) return s;
  // Re-certify every OTHER shard's surviving primary at the new epoch
  // BEFORE any follower learns the new map. The epoch is cluster-wide:
  // without this, shard k's follower would start rejecting its own
  // legitimate primary's old-epoch frames and that primary would wrongly
  // self-depose. Ordering makes the remaining race benign — a frame
  // stamped with the old epoch that loses to the install is re-shipped
  // at the adopted epoch (see ReplicationSender::ShipOnce).
  for (const std::shared_ptr<Node>& n : others) {
    if (n->sender) n->sender->AdoptEpoch(next.epoch);
  }
  if (w->sender) w->sender->AdoptEpoch(next.epoch);
  w->service->InstallMap(next);
  // The winner knows first; stragglers learn next. A client that beats
  // an install sees kWrongShard from the straggler and bounces to the
  // winner, whose map is already current.
  for (const std::shared_ptr<Node>& n : others) n->service->InstallMap(next);
  {
    const util::MutexLock lock(mu_);
    map_ = next;
  }
  return db::Status();
}

void Cluster::ManagerLoop() {
  using clock = std::chrono::steady_clock;
  const auto interval =
      std::chrono::milliseconds(options_.heartbeat_interval_ms);
  while (!manager_stop_.load(std::memory_order_acquire)) {
    // Sleep in small slices so Stop() never waits a full interval.
    const auto wake = clock::now() + interval;
    while (clock::now() < wake) {
      if (manager_stop_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    PartitionMap m;
    std::vector<char> up;
    {
      const util::MutexLock lock(mu_);
      m = map_;
      up = up_;
    }
    for (std::uint32_t shard = 0; shard < options_.num_shards; ++shard) {
      const std::uint32_t p = m.primary_node_of(shard);
      bool alive = false;
      if (p < up.size() && up[p]) {
        rpc::Frame resp;
        alive = DirectCall(p, rpc::Method::kPing, &resp).ok();
      }
      if (alive) {
        misses_[shard] = 0;
        continue;
      }
      if (++misses_[shard] < options_.heartbeat_misses) continue;
      misses_[shard] = 0;
      const std::lock_guard<std::mutex> topo(topo_mu_);
      // Re-verified under topo_mu_: a concurrent Restart may have
      // brought the primary back, or a manual Promote may have won.
      (void)PromoteLocked(shard);
    }
  }
}

db::Status Cluster::Stop() {
  manager_stop_.store(true, std::memory_order_release);
  if (manager_.joinable()) manager_.join();
  const std::lock_guard<std::mutex> topo(topo_mu_);
  std::vector<std::shared_ptr<Node>> live;
  std::size_t node_count;
  {
    const util::MutexLock lock(mu_);
    node_count = nodes_.size();
    for (std::size_t node = 0; node < nodes_.size(); ++node) {
      if (!up_[node]) continue;
      up_[node] = 0;
      live.push_back(nodes_[node]);
    }
  }
  for (std::uint32_t node = 0; node < node_count; ++node) {
    network_.Unbind(node);
  }
  // Senders first: an in-flight ack barrier must fail before its store
  // closes under it.
  for (const std::shared_ptr<Node>& n : live) {
    if (n->sender) {
      n->sender->Stop();
      (void)n->store->SetCommitTap(nullptr);
    }
  }
  db::Status first_error;
  for (const std::shared_ptr<Node>& n : live) {
    const db::Status s = n->store->Close();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

PartitionMap Cluster::map() const {
  const util::MutexLock lock(mu_);
  return map_;
}

bool Cluster::IsUp(std::uint32_t node) const {
  const util::MutexLock lock(mu_);
  return node < up_.size() && up_[node] != 0;
}

std::vector<std::shared_ptr<rpc::Channel>> Cluster::ConnectAll() {
  const std::uint32_t n = num_nodes();
  std::vector<std::shared_ptr<rpc::Channel>> channels;
  channels.reserve(n);
  for (std::uint32_t node = 0; node < n; ++node) {
    channels.push_back(network_.Connect(node));
  }
  return channels;
}

}  // namespace smartstore::svc
