#include "sim/cluster.h"

#include <algorithm>
#include <cassert>

namespace smartstore::sim {

Cluster::Cluster(std::size_t num_nodes, CostModel cost)
    : cost_(cost), free_at_(num_nodes, 0.0), alive_(num_nodes, true) {
  assert(num_nodes > 0);
}

Session Cluster::start_session(NodeId home, double arrival) {
  assert(home < size());
  return Session(this, nullptr, home, arrival);
}

void Cluster::set_node_alive(NodeId n, bool alive) {
  assert(n < size());
  const util::MutexLock lock(mu_);
  alive_[n] = alive;
}

NodeId Cluster::add_node() {
  const util::MutexLock lock(mu_);
  free_at_.push_back(0.0);
  alive_.push_back(true);
  return free_at_.size() - 1;
}

void Session::visit(double cpu_s, std::size_t records) {
  if (!cluster_) {
    if (!(*alive_)[at_]) failed_ = true;
    return;
  }
  const util::MutexLock lock(cluster_->mu_);
  if (!cluster_->alive_[at_]) {
    failed_ = true;
    return;
  }
  const double work =
      cpu_s + static_cast<double>(records) * cluster_->cost_.per_record_scan_s;
  double& free_at = cluster_->free_at_[at_];
  const double start = std::max(clock_, free_at);
  const double end = start + work;
  free_at = end;
  clock_ = end;
}

void Session::send_to(NodeId to, std::size_t bytes) {
  assert(to < (cluster_ ? cluster_->size() : alive_->size()));
  if (to == at_) return;  // local handoff
  at_ = to;
  if (cluster_) {
    const util::MutexLock lock(cluster_->mu_);
    if (!cluster_->alive_[to]) {
      failed_ = true;
      return;
    }
    clock_ += cluster_->cost_.transfer_time(bytes);
    clock_ += cluster_->cost_.per_message_cpu_s;
  } else if (!(*alive_)[to]) {
    failed_ = true;
    return;
  }
  ++hops_;
  ++messages_;
}

void Session::join(const std::vector<Session>& branches) {
  for (const Session& b : branches) {
    clock_ = std::max(clock_, b.clock_);
    hops_ += b.hops_;
    messages_ += b.messages_;
    failed_ = failed_ || b.failed_;
  }
}

}  // namespace smartstore::sim
