// Tests for the virtual-time cluster simulation: latency accounting,
// FIFO queuing, multicast join semantics, failure injection — and for the
// counting sessions a serving store runs instead.
#include "sim/cluster.h"

#include <gtest/gtest.h>

namespace smartstore::sim {
namespace {

CostModel test_cost() {
  CostModel c;
  c.hop_latency_s = 1e-3;
  c.bandwidth_bytes_per_s = 1e6;
  c.per_message_cpu_s = 0;
  c.per_record_scan_s = 1e-6;
  c.per_node_visit_s = 0;
  return c;
}

TEST(Cluster, VisitAdvancesClockByWork) {
  Cluster c(4, test_cost());
  Session s = c.start_session(0, 10.0);
  s.visit(0.5);
  EXPECT_DOUBLE_EQ(s.clock(), 10.5);
  s.visit(0.0, 1000);  // 1000 records at 1us
  EXPECT_DOUBLE_EQ(s.clock(), 10.501);
}

TEST(Cluster, SendMovesAndCharges) {
  Cluster c(4, test_cost());
  Session s = c.start_session(0, 0.0);
  s.send_to(2, 1000);  // 1ms hop + 1ms transfer
  EXPECT_EQ(s.location(), 2u);
  EXPECT_DOUBLE_EQ(s.clock(), 0.002);
  EXPECT_EQ(s.hops(), 1u);
  EXPECT_EQ(s.messages(), 1u);
}

TEST(Cluster, SelfSendIsFree) {
  Cluster c(4, test_cost());
  Session s = c.start_session(1, 0.0);
  s.send_to(1);
  EXPECT_DOUBLE_EQ(s.clock(), 0.0);
  EXPECT_EQ(s.messages(), 0u);
}

TEST(Cluster, FifoQueuingSerializesSameNode) {
  Cluster c(2, test_cost());
  Session a = c.start_session(0, 0.0);
  a.visit(1.0);  // occupies node 0 until t=1
  Session b = c.start_session(0, 0.5);
  b.visit(1.0);  // must wait until t=1, finishes at t=2
  EXPECT_DOUBLE_EQ(a.clock(), 1.0);
  EXPECT_DOUBLE_EQ(b.clock(), 2.0);
}

TEST(Cluster, DifferentNodesRunInParallel) {
  Cluster c(2, test_cost());
  Session a = c.start_session(0, 0.0);
  Session b = c.start_session(1, 0.0);
  a.visit(1.0);
  b.visit(1.0);
  EXPECT_DOUBLE_EQ(a.clock(), 1.0);
  EXPECT_DOUBLE_EQ(b.clock(), 1.0);  // no interference
}

TEST(Cluster, ForkJoinTakesMaxOfBranches) {
  Cluster c(4, test_cost());
  Session s = c.start_session(0, 0.0);
  std::vector<Session> branches;
  for (NodeId n = 1; n <= 3; ++n) {
    Session b = s.fork();
    b.send_to(n, 0);          // 1ms
    b.visit(0.001 * n);       // 1..3 ms of work
    branches.push_back(b);
  }
  s.join(branches);
  EXPECT_NEAR(s.clock(), 0.001 + 0.003, 1e-12);  // slowest branch
  EXPECT_EQ(s.messages(), 3u);
}

TEST(Cluster, CountersAccumulate) {
  // A session counts its own messages and hops; a forked branch counts
  // from zero, and join() adds what it sent.
  Cluster c(3, test_cost());
  Session s = c.start_session(0, 0.0);
  s.send_to(1);
  s.visit(0.1, 50);
  s.send_to(2);
  EXPECT_EQ(s.messages(), 2u);
  EXPECT_EQ(s.hops(), 2u);
  Session b = s.fork();
  EXPECT_EQ(b.messages(), 0u);
  b.send_to(0);
  s.join({b});
  EXPECT_EQ(s.messages(), 3u);
  EXPECT_EQ(s.hops(), 3u);
}

TEST(Cluster, DeadNodeFailsSessions) {
  Cluster c(3, test_cost());
  c.set_node_alive(1, false);
  Session s = c.start_session(0, 0.0);
  s.send_to(1);
  EXPECT_TRUE(s.failed());
  // Failure is sticky through joins.
  Session root = c.start_session(0, 0.0);
  Session branch = root.fork();
  branch.send_to(1);
  root.join({branch});
  EXPECT_TRUE(root.failed());
  // Revival restores service.
  c.set_node_alive(1, true);
  Session ok = c.start_session(0, 0.0);
  ok.send_to(1);
  EXPECT_FALSE(ok.failed());
}

TEST(Cluster, VisitOnDeadNodeFails) {
  Cluster c(2, test_cost());
  Session s = c.start_session(1, 0.0);
  c.set_node_alive(1, false);
  s.visit(1.0);
  EXPECT_TRUE(s.failed());
}

TEST(Cluster, AddNodeGrowsCluster) {
  Cluster c(2, test_cost());
  const NodeId n = c.add_node();
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(c.size(), 3u);
  Session s = c.start_session(0, 0.0);
  s.send_to(n);
  EXPECT_FALSE(s.failed());
}

TEST(Cluster, TransferTimeScalesWithBytes) {
  CostModel cm = test_cost();
  EXPECT_DOUBLE_EQ(cm.transfer_time(0), 1e-3);
  EXPECT_DOUBLE_EQ(cm.transfer_time(1000000), 1e-3 + 1.0);
}

TEST(Cluster, CentralizationQueuesUnderLoad) {
  // 100 queries to one node vs spread across 10 nodes: the centralized
  // makespan must be ~10x worse — the core Table 4 effect.
  CostModel cm = test_cost();
  Cluster central(10, cm);
  double central_done = 0;
  for (int i = 0; i < 100; ++i) {
    Session s = central.start_session(0, 0.0);
    s.visit(0.01);
    central_done = std::max(central_done, s.clock());
  }
  Cluster spread(10, cm);
  double spread_done = 0;
  for (int i = 0; i < 100; ++i) {
    Session s = spread.start_session(i % 10, 0.0);
    s.visit(0.01);
    spread_done = std::max(spread_done, s.clock());
  }
  EXPECT_NEAR(central_done / spread_done, 10.0, 0.5);
}

TEST(CountingSession, CountsWhatASimulatedSessionCountsWithoutAClock) {
  Cluster c(3, test_cost());
  const std::vector<bool> alive(3, true);
  Session simulated = c.start_session(0, 5.0);
  Session counting = Session::counting(0, alive);
  for (Session* s : {&simulated, &counting}) {
    s->visit(0.5, 10);
    s->send_to(1);
    s->send_to(1);  // local: no message
    Session b = s->fork();
    b.send_to(2);
    s->join({b});
  }
  EXPECT_TRUE(simulated.simulated());
  EXPECT_FALSE(counting.simulated());
  EXPECT_GT(simulated.clock(), 5.0);
  EXPECT_DOUBLE_EQ(counting.clock(), 0.0);  // no clock to advance
  EXPECT_EQ(counting.messages(), 2u);
  EXPECT_EQ(counting.messages(), simulated.messages());
  EXPECT_EQ(counting.hops(), simulated.hops());
  EXPECT_EQ(counting.location(), simulated.location());
  EXPECT_FALSE(counting.failed());
}

TEST(CountingSession, InactiveNodeFailsIt) {
  const std::vector<bool> alive{true, false, true};
  Session s = Session::counting(0, alive);
  s.send_to(2);
  EXPECT_FALSE(s.failed());
  s.send_to(1);  // moves there, fails, counts nothing
  EXPECT_TRUE(s.failed());
  EXPECT_EQ(s.location(), 1u);
  EXPECT_EQ(s.messages(), 1u);
  Session v = Session::counting(1, alive);
  v.visit(1.0);
  EXPECT_TRUE(v.failed());
  // Failure is sticky through joins, as on a cluster.
  Session root = Session::counting(0, alive);
  Session branch = root.fork();
  branch.send_to(1);
  root.join({branch});
  EXPECT_TRUE(root.failed());
}

}  // namespace
}  // namespace smartstore::sim
