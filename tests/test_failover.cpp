// The replication & failover oracle suite: per-shard WAL replication
// (primary -> warm-standby follower), the sync/degraded ack barrier,
// follower promotion, epoch fencing of deposed primaries, and the chaos
// sweep — kill the primary at every phase of a live write load and prove
// ZERO acked writes are lost while the cluster resumes without operator
// action.
//
// Everything runs the real stack (Router -> wire format -> transport ->
// MetaService -> ReplicationSender -> db::Store) in one process, so ASan,
// TSan, and the lock-rank validator watch every test. The chaos sweep is
// seed-deterministic; the nightly CI job elevates the fault-injection
// knobs via SMARTSTORE_CHAOS_* env vars (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "metadata/schema.h"
#include "rpc/fault.h"
#include "svc/cluster.h"
#include "svc/partition.h"
#include "svc/router.h"

namespace {

using namespace smartstore;

std::filesystem::path temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("smartstore_test_failover_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string trace_name(std::uint64_t id) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/sub%u/u%03u/app%03u/f%06u.dat",
                static_cast<unsigned>(id % 2), static_cast<unsigned>(id % 7),
                static_cast<unsigned>(id % 13), static_cast<unsigned>(id));
  return buf;
}

metadata::FileMetadata make_file(std::uint64_t id) {
  metadata::FileMetadata f;
  f.id = id;
  f.name = trace_name(id);
  for (std::size_t a = 0; a < metadata::kNumAttrs; ++a) {
    f.attrs[a] = static_cast<double>((id * 31 + a * 7) % 1000);
  }
  return f;
}

/// A replicated (rf == 2) durable cluster rooted at `dir`. Manual
/// promotion by default: deterministic tests drive Promote() themselves;
/// the automatic-failover tests flip auto_failover back on.
svc::ClusterOptions replicated_cluster(const std::string& dir,
                                       std::uint32_t shards) {
  svc::ClusterOptions o;
  o.num_shards = shards;
  o.replication_factor = 2;
  o.in_memory = false;
  o.dir = dir;
  o.store_options.num_units = 4;
  o.store_options.fanout = 4;
  o.store_options.seed = 7;
  o.store_options.routing = db::Routing::kOnline;
  o.repl_ack_timeout_ms = 2'000;
  o.auto_failover = false;
  return o;
}

std::unique_ptr<svc::Cluster> start_or_die(const svc::ClusterOptions& o) {
  auto started = svc::Cluster::Start(o);
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return std::move(started).value();
}

/// A patient router: enough attempts to ride out a full crash-detect-
/// promote-refresh window.
svc::Router make_router(svc::Cluster& cluster, std::uint64_t client_id = 1,
                        int max_attempts = 64) {
  svc::RouterOptions o;
  o.client_id = client_id;
  o.max_attempts = max_attempts;
  o.backoff_init_us = 50;
  o.backoff_max_us = 20'000;
  return svc::Router(cluster.ConnectAll(), cluster.map(), o);
}

/// Polls until the cluster map reaches `epoch` (or the deadline passes).
/// Used to wait out the automatic failover manager.
bool wait_for_epoch(svc::Cluster& cluster, std::uint64_t epoch,
                    std::uint64_t timeout_ms = 5'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cluster.map().epoch >= epoch) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cluster.map().epoch >= epoch;
}

/// Polls node `node`'s kReplFrontier probe until it reports ready (its
/// primary certified that its frontier covers every acked write). A
/// chaos kill of the node's primary is only guaranteed survivable once
/// this holds — before that, the shard is DESIGNED to stay down rather
/// than promote a follower that may be missing degraded acks.
bool wait_follower_ready(svc::Cluster& cluster, std::uint32_t node,
                         std::uint64_t timeout_ms = 5'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    rpc::Frame req;
    req.type = rpc::MsgType::kRequest;
    req.method = rpc::Method::kReplFrontier;
    rpc::Frame resp;
    if (cluster.Connect(node)->Call(req, &resp).ok() &&
        resp.status == db::StatusCode::kOk) {
      rpc::ReplStatus st;
      if (rpc::decode_repl_status(resp.payload, &st).ok() && st.ready) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// ---- replicated topology basics ---------------------------------------------

TEST(Failover, ReplicatedStartupServesAndMapDescribesTopology) {
  const auto dir = temp_dir("startup");
  auto cluster = start_or_die(replicated_cluster(dir.string(), 2));
  EXPECT_EQ(cluster->num_nodes(), 4u);
  const svc::PartitionMap map = cluster->map();
  EXPECT_EQ(map.epoch, 1u);
  EXPECT_EQ(map.num_nodes, 4u);
  EXPECT_EQ(map.primary_node_of(0), 0u);
  EXPECT_EQ(map.primary_node_of(1), 2u);

  svc::Router router = make_router(*cluster);
  constexpr std::uint64_t kPuts = 50;
  for (std::uint64_t id = 0; id < kPuts; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok()) << id;
  }
  for (std::uint64_t id = 0; id < kPuts; ++id) {
    auto r = router.Point(trace_name(id));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found);
    EXPECT_EQ(r->id, id);
  }
  // Scatter reads route to primaries only and see everything exactly once.
  metadata::RangeQuery rq;  // covers every attr value make_file produces
  rq.dims = metadata::AttrSubset({metadata::Attr::kFileSize});
  rq.lo = {0.0};
  rq.hi = {1000.0};
  auto range = router.Range(rq);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->ids.size(), kPuts);
  ASSERT_TRUE(cluster->Stop().ok());
  std::filesystem::remove_all(dir);
}

TEST(Failover, PromotionKeepsEveryAckedWriteAndBumpsEpoch) {
  const auto dir = temp_dir("promote");
  auto cluster = start_or_die(replicated_cluster(dir.string(), 1));
  svc::Router router = make_router(*cluster);

  constexpr std::uint64_t kAcked = 40;
  for (std::uint64_t id = 0; id < kAcked; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }

  // Power-cut the primary; promote the (synced, ready) follower.
  ASSERT_TRUE(cluster->Crash(0).ok());
  ASSERT_TRUE(cluster->Promote(0).ok());
  const svc::PartitionMap map = cluster->map();
  EXPECT_EQ(map.primary_node_of(0), 1u);
  EXPECT_EQ(map.epoch, 2u);

  // Every acked write survived onto the promoted follower, and the
  // router finds its way there through map refresh + redirects alone.
  for (std::uint64_t id = 0; id < kAcked; ++id) {
    auto r = router.Point(trace_name(id));
    ASSERT_TRUE(r.ok()) << trace_name(id) << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << trace_name(id) << " lost in failover";
  }
  // And the shard takes new writes (degraded: the old primary is gone).
  for (std::uint64_t id = kAcked; id < kAcked + 10; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  auto stats = router.Stats(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->total_files, kAcked + 10);
  ASSERT_TRUE(cluster->Stop().ok());
  std::filesystem::remove_all(dir);
}

TEST(Failover, FollowerCrashDegradesThenRejoinResyncs) {
  const auto dir = temp_dir("degrade");
  auto cluster = start_or_die(replicated_cluster(dir.string(), 1));
  svc::Router router = make_router(*cluster);

  for (std::uint64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  // Follower dies: the primary detaches proactively and keeps acking
  // (degraded) without stalling on the dead stream.
  ASSERT_TRUE(cluster->Crash(1).ok());
  for (std::uint64_t id = 10; id < 20; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  // Rejoin: wipe + snapshot bootstrap + stream catch-up.
  ASSERT_TRUE(cluster->Restart(1).ok());
  for (std::uint64_t id = 20; id < 30; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  // The rejoined follower must be promotable again — and must hold ALL
  // 30 acked writes, including the ones acked while it was dead.
  ASSERT_TRUE(cluster->Crash(0).ok());
  ASSERT_TRUE(cluster->Promote(0).ok());
  for (std::uint64_t id = 0; id < 30; ++id) {
    auto r = router.Point(trace_name(id));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found) << trace_name(id);
  }
  ASSERT_TRUE(cluster->Stop().ok());
  std::filesystem::remove_all(dir);
}

// A follower that is DOWN while the primary degraded-acks must never be
// promoted on its stale `ready` state, and restarting it ahead of the
// primary is refused — better unavailable than wrong.
TEST(Failover, StaleFollowerIsNeverPromotedOverAckedWrites) {
  const auto dir = temp_dir("stale");
  auto cluster = start_or_die(replicated_cluster(dir.string(), 1));
  svc::Router router = make_router(*cluster);

  for (std::uint64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  ASSERT_TRUE(cluster->Crash(1).ok());
  // Degraded acks the dead follower has never seen.
  for (std::uint64_t id = 10; id < 20; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  ASSERT_TRUE(cluster->Crash(0).ok());

  // No ready follower -> no promotion. The shard stays down rather than
  // quietly forgetting writes 10..19.
  EXPECT_FALSE(cluster->Promote(0).ok());
  // The follower cannot rejoin first either: the wipe-and-bootstrap path
  // needs the primary (the only holder of every acked write) up.
  EXPECT_FALSE(cluster->Restart(1).ok());

  // Recovery: the primary restarts from its WAL, then the follower
  // rejoins, then promotion works again.
  ASSERT_TRUE(cluster->Restart(0).ok());
  ASSERT_TRUE(cluster->Restart(1).ok());
  ASSERT_TRUE(cluster->Crash(0).ok());
  ASSERT_TRUE(cluster->Promote(0).ok());
  for (std::uint64_t id = 0; id < 20; ++id) {
    auto r = router.Point(trace_name(id));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found) << trace_name(id);
  }
  ASSERT_TRUE(cluster->Stop().ok());
  std::filesystem::remove_all(dir);
}

// Primary restart with a LIVE follower: the follower's `ready` latch
// predates the crash, so the restart wipes and re-bootstraps it before
// it can ever be promoted over post-restart degraded acks.
TEST(Failover, PrimaryRestartResyncsLiveFollower) {
  const auto dir = temp_dir("resync");
  auto cluster = start_or_die(replicated_cluster(dir.string(), 1));
  svc::Router router = make_router(*cluster);

  for (std::uint64_t id = 0; id < 15; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  ASSERT_TRUE(cluster->Crash(0).ok());
  ASSERT_TRUE(cluster->Restart(0).ok());  // follower 1 wiped + re-synced
  EXPECT_TRUE(cluster->IsUp(1));
  for (std::uint64_t id = 15; id < 30; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  ASSERT_TRUE(cluster->Crash(0).ok());
  ASSERT_TRUE(cluster->Promote(0).ok());
  for (std::uint64_t id = 0; id < 30; ++id) {
    auto r = router.Point(trace_name(id));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found) << trace_name(id);
  }
  ASSERT_TRUE(cluster->Stop().ok());
  std::filesystem::remove_all(dir);
}

// The deposed primary rejoins as a follower of the node that replaced it
// (its unacked divergence is wiped), and can win the NEXT failover.
TEST(Failover, DeposedPrimaryRejoinsAndWinsNextFailover) {
  const auto dir = temp_dir("deposed");
  auto cluster = start_or_die(replicated_cluster(dir.string(), 1));
  svc::Router router = make_router(*cluster);

  for (std::uint64_t id = 0; id < 20; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  ASSERT_TRUE(cluster->Crash(0).ok());
  ASSERT_TRUE(cluster->Promote(0).ok());  // node 1 primary, epoch 2
  for (std::uint64_t id = 20; id < 40; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  ASSERT_TRUE(cluster->Restart(0).ok());  // rejoins as node 1's follower
  for (std::uint64_t id = 40; id < 50; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  // Second failover, opposite direction.
  ASSERT_TRUE(cluster->Crash(1).ok());
  ASSERT_TRUE(cluster->Promote(0).ok());
  const svc::PartitionMap map = cluster->map();
  EXPECT_EQ(map.primary_node_of(0), 0u);
  EXPECT_EQ(map.epoch, 3u);
  for (std::uint64_t id = 0; id < 50; ++id) {
    auto r = router.Point(trace_name(id));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found) << trace_name(id);
  }
  ASSERT_TRUE(cluster->Stop().ok());
  std::filesystem::remove_all(dir);
}

// ---- automatic failover -----------------------------------------------------

TEST(Failover, AutomaticFailoverResumesWithoutOperatorAction) {
  const auto dir = temp_dir("auto");
  svc::ClusterOptions co = replicated_cluster(dir.string(), 2);
  co.auto_failover = true;
  co.heartbeat_interval_ms = 10;
  co.heartbeat_misses = 2;
  auto cluster = start_or_die(co);
  svc::Router router = make_router(*cluster, 1, 400);

  constexpr std::uint64_t kTotal = 80;
  std::atomic<int> failures{0};
  std::string first_failure;
  std::thread writer([&router, &failures, &first_failure] {
    for (std::uint64_t id = 0; id < kTotal; ++id) {
      const db::Status s = router.Put(make_file(id));
      if (!s.ok()) {
        if (failures.fetch_add(1) == 0) {
          first_failure = "id=" + std::to_string(id) + ": " + s.ToString();
        }
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Kill shard 0's primary mid-load. Nobody calls Promote: the manager
  // must detect, pick the ready follower, and re-point the map.
  const bool crashed = cluster->Crash(0).ok();
  const bool promoted = wait_for_epoch(*cluster, 2);
  writer.join();  // joined before any assert can bail out of the test
  ASSERT_TRUE(crashed);
  ASSERT_TRUE(promoted) << "automatic promotion never happened";
  ASSERT_EQ(failures.load(), 0)
      << "acked-or-retried: no put may fail; first: " << first_failure;
  EXPECT_EQ(cluster->map().primary_node_of(0), 1u);

  for (std::uint64_t id = 0; id < kTotal; ++id) {
    auto r = router.Point(trace_name(id));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found) << trace_name(id) << " lost in auto failover";
  }
  ASSERT_TRUE(cluster->Stop().ok());
  std::filesystem::remove_all(dir);
}

// ---- the chaos sweep --------------------------------------------------------

// Kill the primary at a sweep of phases of a live, fault-injected write
// load: immediately (mid-batch), mid-checkpoint (checkpoint_every is
// tiny: a checkpoint runs every 8 writes, and it folds each time the
// population has doubled since the last fold), right after a follower
// rejoin (bootstrap catch-up still in flight), and a double failure —
// kill the PROMOTED primary too, then bring the first victim back. After every
// phase: zero acked-write loss, exactly-once effects, and the merged
// range scan equals the oracle (every id written, once, in order).
//
// Deterministic in the seed. The nightly chaos CI job elevates drop/delay
// via SMARTSTORE_CHAOS_DROP_P / SMARTSTORE_CHAOS_DELAY_US and varies
// SMARTSTORE_CHAOS_SEED; on failure the seed is in the assert message.
TEST(Failover, ChaosSweepKillPrimaryAtEveryPhase) {
  const double drop_p =
      std::getenv("SMARTSTORE_CHAOS_DROP_P")
          ? std::atof(std::getenv("SMARTSTORE_CHAOS_DROP_P"))
          : 0.02;
  const std::uint32_t delay_us =
      std::getenv("SMARTSTORE_CHAOS_DELAY_US")
          ? static_cast<std::uint32_t>(
                std::atoi(std::getenv("SMARTSTORE_CHAOS_DELAY_US")))
          : 100;
  const std::uint64_t seed =
      std::getenv("SMARTSTORE_CHAOS_SEED")
          ? std::strtoull(std::getenv("SMARTSTORE_CHAOS_SEED"), nullptr, 10)
          : 42;

  struct PhaseSpec {
    const char* name;
    std::uint32_t kill_delay_ms;  ///< after the writer starts
    bool rejoin_then_kill;        ///< restart victim, then kill again
  };
  const PhaseSpec phases[] = {
      {"mid_batch", 0, false},
      {"mid_checkpoint", 25, false},
      {"during_bootstrap", 45, true},
      {"during_promotion_double_failure", 15, true},
  };

  int phase_index = 0;
  for (const PhaseSpec& phase : phases) {
    SCOPED_TRACE(std::string("phase=") + phase.name +
                 " seed=" + std::to_string(seed));
    const auto dir = temp_dir(std::string("chaos_") + phase.name);
    svc::ClusterOptions co = replicated_cluster(dir.string(), 2);
    co.auto_failover = true;
    co.heartbeat_interval_ms = 10;
    co.heartbeat_misses = 2;
    co.store_options.checkpoint_every = 8;  // folds at each doubling
    auto cluster = start_or_die(co);

    // Fault-injected client path: drops and delays on every channel.
    rpc::FaultSpec spec;
    spec.drop_request_p = drop_p;
    spec.drop_response_p = drop_p;
    spec.delay_p = 0.05;
    spec.delay_us = delay_us;
    spec.seed = seed + static_cast<std::uint64_t>(phase_index) * 1000;
    std::vector<std::shared_ptr<rpc::Channel>> channels;
    for (std::uint32_t n = 0; n < cluster->num_nodes(); ++n) {
      channels.push_back(
          std::make_shared<rpc::FaultChannel>(cluster->Connect(n), spec));
    }
    svc::RouterOptions ro;
    ro.client_id = 1;
    ro.max_attempts = 600;  // patient: must span detect+promote+refresh
    ro.backoff_init_us = 50;
    ro.backoff_max_us = 10'000;
    svc::Router router(channels, cluster->map(), ro);

    constexpr std::uint64_t kTotal = 90;
    std::atomic<int> failures{0};
    std::thread writer([&router, &failures] {
      for (std::uint64_t id = 0; id < kTotal; ++id) {
        if (!router.Put(make_file(id)).ok()) ++failures;
      }
    });

    const std::uint32_t victim = cluster->map().primary_node_of(0);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(phase.kill_delay_ms));
    const bool first_crash = cluster->Crash(victim).ok();
    const bool first_promo = wait_for_epoch(*cluster, 2);

    bool rejoined = true, resynced = true, second_crash = true,
         second_promo = true;
    if (first_crash && first_promo && phase.rejoin_then_kill) {
      // Bring the victim back as a follower (snapshot bootstrap runs
      // against the live load), wait until the promoted primary has
      // certified it ready — before that point the shard is DESIGNED to
      // be unpromotable — then kill the promoted primary too. The
      // manager must hand leadership straight back without losing a
      // single acked write.
      rejoined = cluster->Restart(victim).ok();
      resynced = rejoined && wait_follower_ready(*cluster, victim);
      const std::uint32_t second = cluster->map().primary_node_of(0);
      second_crash = resynced && cluster->Crash(second).ok();
      second_promo = second_crash && wait_for_epoch(*cluster, 3);
    }

    writer.join();  // joined before any assert can bail out of the test
    ASSERT_TRUE(first_crash);
    ASSERT_TRUE(first_promo) << "promotion never happened";
    ASSERT_TRUE(rejoined) << "victim could not rejoin as a follower";
    ASSERT_TRUE(resynced) << "rejoined follower never certified ready";
    ASSERT_TRUE(second_crash);
    ASSERT_TRUE(second_promo) << "second promotion hung";
    ASSERT_EQ(failures.load(), 0)
        << "a patient client must ride out every failover";

    // Oracle equivalence: every acked id present exactly once; the
    // merged scatter equals the sorted oracle id list.
    for (std::uint64_t id = 0; id < kTotal; ++id) {
      auto r = router.Point(trace_name(id));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(r->found) << trace_name(id) << " lost (acked write)";
      EXPECT_EQ(r->id, id);
    }
    metadata::RangeQuery rq;  // covers every attr value make_file produces
    rq.dims = metadata::AttrSubset({metadata::Attr::kFileSize});
    rq.lo = {0.0};
    rq.hi = {1000.0};
    auto range = router.Range(rq);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    ASSERT_EQ(range->ids.size(), kTotal);
    for (std::uint64_t id = 0; id < kTotal; ++id) {
      EXPECT_EQ(range->ids[id], id);
    }
    std::uint64_t hosted = 0;
    for (std::uint32_t s = 0; s < cluster->num_shards(); ++s) {
      auto stats = router.Stats(s);
      ASSERT_TRUE(stats.ok());
      hosted += stats->total_files;
    }
    EXPECT_EQ(hosted, kTotal) << "exactly-once violated across failover";

    ASSERT_TRUE(cluster->Stop().ok());
    std::filesystem::remove_all(dir);
    ++phase_index;
  }
}

}  // namespace
