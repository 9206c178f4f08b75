// Virtual-time simulation of a decentralized metadata-server cluster.
//
// Model: every server ("storage unit") is a FIFO resource with a
// next-free-at timestamp. A query is a Session whose clock advances through
// visits (CPU work on a node, waiting while the node is busy) and sends
// (network hops). Sessions can fork parallel branches — used for multicast
// fan-out, where the overall latency is the max over branches — and join.
//
// IMPORTANT: nodes are scalar FIFO resources (a next-free-at timestamp),
// so sessions touching a node must be *started in non-decreasing arrival
// order*; a session processed later but with an earlier arrival would
// queue behind work that logically hadn't arrived yet. Experiment drivers
// interleave background load and queries chronologically.
//
// Concurrency: sessions on concurrent threads are data-race-free (one
// mutex per visit/send), but the FIFO model sees them in lock order, so
// their latencies mean little, and the mutex serializes them. The
// simulator is for the paper's experiments; a store serving concurrent
// callers runs counting sessions (Session::counting) instead: no cluster,
// clock or lock, the same message and hop counts.
//
// This captures the two effects the paper's evaluation hinges on:
//   * centralization: baselines funnel every query through one node, so
//     under an intensified (TIF-scaled) arrival stream queries queue up and
//     latency explodes (Table 4's thousands of seconds);
//   * decentralization: SmartStore scatters home units uniformly and
//     bounds most queries inside one semantic group (Figure 8), so queue
//     depth stays near zero.
//
// Failure injection (node crash) is supported so tests can exercise the
// root multi-mapping recovery path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/cost_model.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace smartstore::sim {

using NodeId = std::size_t;

class Cluster;

/// One query/operation flowing through the cluster. Cheap to copy: forked
/// copies share the cluster and diverge only in clock and location.
class Session {
 public:
  /// A session with no cluster, for a store that serves: its clock stays
  /// 0, a visit costs nothing and a send only moves and counts, taking no
  /// lock. Touching a node whose `alive` flag (indexed by node; outlives
  /// the session unchanged) is false fails it, as a dead node would.
  static Session counting(NodeId home, const std::vector<bool>& alive) {
    return Session(nullptr, &alive, home, 0.0);
  }

  /// Whether this session runs on a cluster's virtual clock.
  bool simulated() const { return cluster_ != nullptr; }
  double clock() const { return clock_; }
  NodeId location() const { return at_; }
  std::uint64_t hops() const { return hops_; }
  std::uint64_t messages() const { return messages_; }
  bool failed() const { return failed_; }

  /// Performs `cpu_s` of work on the current node, waiting for the node to
  /// free up first, then scans `records` metadata records (simulated
  /// sessions; a counting session only checks that the node is alive).
  void visit(double cpu_s, std::size_t records = 0);

  /// Sends a `bytes`-sized message to `to` and moves the session there.
  /// A send to the current node is local (no hop, no message). A send to
  /// a dead node moves the session and fails it, counting nothing.
  void send_to(NodeId to, std::size_t bytes = 256);

  /// Forks a branch that starts at the current clock and location. The
  /// branch's message/hop counters start at zero so that join() adds pure
  /// deltas (a branch inheriting the parent's counts would double-count,
  /// exponentially so under nested fork/join).
  Session fork() const {
    Session b = *this;
    b.hops_ = 0;
    b.messages_ = 0;
    return b;
  }

  /// Joins parallel branches: clock becomes the max of this session's and
  /// all branches' clocks (multicast completes when the slowest reply is
  /// in); message/hop counts accumulate; failure is sticky.
  void join(const std::vector<Session>& branches);

 private:
  friend class Cluster;
  Session(Cluster* c, const std::vector<bool>* alive, NodeId at, double start)
      : cluster_(c), alive_(alive), at_(at), clock_(start) {}

  Cluster* cluster_;                 ///< null for a counting session
  const std::vector<bool>* alive_;   ///< a counting session's node flags
  NodeId at_;
  double clock_;
  std::uint64_t hops_ = 0;
  std::uint64_t messages_ = 0;
  bool failed_ = false;
};

class Cluster {
 public:
  Cluster(std::size_t num_nodes, CostModel cost = {});

  std::size_t size() const {
    const util::MutexLock lock(mu_);
    return free_at_.size();
  }

  /// Starts a session at `home` arriving at absolute time `arrival`.
  Session start_session(NodeId home, double arrival);

  /// Crashes / revives a node. Visits and sends touching a dead node mark
  /// the session failed.
  void set_node_alive(NodeId n, bool alive);

  /// Adds a node to the cluster (used when a storage unit is admitted at
  /// runtime, Section 3.2.1). Returns its id.
  NodeId add_node();

 private:
  friend class Session;

  CostModel cost_;
  /// Guards the node queues and alive flags against sessions on
  /// concurrent threads, taken per visit/send. kCluster ranks above every
  /// store lock: visits/sends fire from under unit locks and stripes, and
  /// never call back out while holding this.
  mutable util::Mutex mu_{util::LockRank::kCluster};
  std::vector<double> free_at_ SS_GUARDED_BY(mu_);
  std::vector<bool> alive_ SS_GUARDED_BY(mu_);
};

}  // namespace smartstore::sim
