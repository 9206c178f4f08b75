// The service tier's oracle suite: the partition map, the request-id
// dedup protocol (exactly-once apply under duplicating/dropping/
// reordering transports), stale-map redirect handling, scatter-gather
// query equivalence against a brute-force oracle, and the crash/recover
// theorem — no acknowledged write is ever lost across a shard power cut.
//
// Everything runs the real stack (Router -> wire format -> transport ->
// MetaService -> db::Store) inside one process, so ASan, TSan, and the
// lock-rank validator watch every test. The RouterPolicy cases instead
// drive the Router's retry loop against scripted channels, one branch of
// its policy per case.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "metadata/schema.h"
#include "rpc/fault.h"
#include "svc/cluster.h"
#include "svc/meta_service.h"
#include "svc/partition.h"
#include "svc/router.h"

namespace {

using namespace smartstore;

std::filesystem::path temp_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("smartstore_test_svc_") + name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Trace-shaped names: the app directory is the partition key, so files
/// sharing (sub, user, app) co-locate on one shard.
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

db::Options small_store_options() {
  db::Options o;
  o.num_units = 4;
  o.fanout = 4;
  o.seed = 7;
  // Online routing: point lookups are exact (offline routing tolerates
  // false negatives from stale replicas — the wrong default under an
  // oracle that asserts every acked record is findable).
  o.routing = db::Routing::kOnline;
  return o;
}

svc::ClusterOptions in_memory_cluster(std::uint32_t shards) {
  svc::ClusterOptions o;
  o.num_shards = shards;
  o.in_memory = true;
  o.store_options = small_store_options();
  o.map_version = 3;
  return o;
}

std::unique_ptr<svc::Cluster> start_or_die(const svc::ClusterOptions& o) {
  auto started = svc::Cluster::Start(o);
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return std::move(started).value();
}

svc::Router make_router(svc::Cluster& cluster, std::uint64_t client_id = 1,
                        int max_attempts = 8) {
  svc::RouterOptions o;
  o.client_id = client_id;
  o.max_attempts = max_attempts;
  o.backoff_init_us = 50;
  o.backoff_max_us = 20'000;
  return svc::Router(cluster.ConnectAll(), cluster.map(), o);
}

// ---- partition map ----------------------------------------------------------

TEST(Partition, KeyIsDirectoryPrefix) {
  EXPECT_EQ(svc::partition_key("/sub0/u001/app002/f1.dat"),
            "/sub0/u001/app002/");
  EXPECT_EQ(svc::partition_key("bare_name.dat"), "bare_name.dat");
  // Same app directory, same key -> same bucket -> same shard.
  EXPECT_EQ(svc::PartitionMap::bucket_of("/sub0/u001/app002/f1.dat"),
            svc::PartitionMap::bucket_of("/sub0/u001/app002/f999999.dat"));
}

TEST(Partition, RoundRobinIsValidAndCoversAllShards) {
  const auto map = svc::PartitionMap::RoundRobin(4, 9);
  EXPECT_TRUE(map.valid());
  EXPECT_EQ(map.version, 9u);
  std::vector<bool> seen(4, false);
  for (const std::uint32_t owner : map.bucket_owner) seen[owner] = true;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Partition, EncodeDecodeRoundTrip) {
  const auto map = svc::PartitionMap::RoundRobin(8, 42);
  std::vector<std::uint8_t> bytes;
  svc::encode_partition_map(map, &bytes);
  svc::PartitionMap out;
  ASSERT_TRUE(svc::decode_partition_map(bytes, &out).ok());
  EXPECT_EQ(out.version, 42u);
  EXPECT_EQ(out.num_shards, 8u);
  EXPECT_EQ(out.bucket_owner, map.bucket_owner);
}

TEST(Partition, DecodeRejectsOutOfRangeOwner) {
  auto map = svc::PartitionMap::RoundRobin(2, 1);
  map.bucket_owner[5] = 7;  // no shard 7 in a 2-shard map
  std::vector<std::uint8_t> bytes;
  svc::encode_partition_map(map, &bytes);
  svc::PartitionMap out;
  EXPECT_EQ(svc::decode_partition_map(bytes, &out).code(),
            db::StatusCode::kCorruption);
}

// ---- meta service (direct, no router) ---------------------------------------

struct ServiceFixture {
  std::unique_ptr<db::Store> store;
  std::unique_ptr<svc::MetaService> service;

  explicit ServiceFixture(std::uint32_t shard_id, std::uint32_t num_shards) {
    db::Options store_options = small_store_options();
    store_options.in_memory = true;
    auto opened = db::Store::Open(store_options, "");
    EXPECT_TRUE(opened.ok());
    store = std::move(opened).value();
    svc::MetaServiceOptions service_options;
    service_options.shard_id = shard_id;
    service = std::make_unique<svc::MetaService>(
        store.get(), svc::PartitionMap::RoundRobin(num_shards, 5),
        service_options);
  }
};

rpc::Frame put_request(const metadata::FileMetadata& f, std::uint64_t seq) {
  rpc::Frame req;
  req.type = rpc::MsgType::kRequest;
  req.method = rpc::Method::kPut;
  req.client_id = 1;
  req.seq = seq;
  rpc::encode_file(f, &req.payload);
  return req;
}

TEST(MetaService, DedupAppliesExactlyOnce) {
  ServiceFixture fx(0, 1);  // one shard owns everything
  const rpc::Frame req = put_request(make_file(1), 10);

  const rpc::Frame first = fx.service->Handle(req);
  EXPECT_EQ(first.status, db::StatusCode::kOk);
  const rpc::Frame dup = fx.service->Handle(req);  // retry, same id
  EXPECT_EQ(dup.status, db::StatusCode::kOk);

  std::string value;
  ASSERT_TRUE(fx.store->GetProperty("smartstore.total-files", &value));
  EXPECT_EQ(value, "1");

  rpc::Frame stats_req;
  stats_req.method = rpc::Method::kStats;
  rpc::ShardStats stats;
  ASSERT_TRUE(rpc::decode_shard_stats(
                  fx.service->Handle(stats_req).payload, &stats)
                  .ok());
  EXPECT_EQ(stats.applied_puts, 1u);
  EXPECT_EQ(stats.dup_hits, 1u);
}

TEST(MetaService, ConcurrentDuplicatesOneApply) {
  ServiceFixture fx(0, 1);
  const rpc::Frame req = put_request(make_file(2), 77);
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      if (fx.service->Handle(req).status == db::StatusCode::kOk) ++ok;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 4);  // every duplicate gets the published answer

  rpc::Frame stats_req;
  stats_req.method = rpc::Method::kStats;
  rpc::ShardStats stats;
  ASSERT_TRUE(rpc::decode_shard_stats(
                  fx.service->Handle(stats_req).payload, &stats)
                  .ok());
  EXPECT_EQ(stats.applied_puts, 1u);
  EXPECT_EQ(stats.dup_hits, 3u);
}

TEST(MetaService, WrongShardCarriesCurrentMap) {
  ServiceFixture fx(0, 2);
  // Find a name shard 0 does NOT own under the service's 2-shard map.
  metadata::FileMetadata foreign;
  for (std::uint64_t id = 0;; ++id) {
    foreign = make_file(id);
    if (fx.service->map().shard_of(foreign.name) != 0) break;
  }
  const rpc::Frame resp = fx.service->Handle(put_request(foreign, 1));
  EXPECT_EQ(resp.status, db::StatusCode::kWrongShard);
  svc::PartitionMap advertised;
  ASSERT_TRUE(svc::decode_partition_map(resp.payload, &advertised).ok());
  EXPECT_EQ(advertised.version, fx.service->map().version);

  std::string value;
  ASSERT_TRUE(fx.store->GetProperty("smartstore.total-files", &value));
  EXPECT_EQ(value, "0") << "a rejected request must not apply";
}

TEST(MetaService, DeleteIsIdempotent) {
  ServiceFixture fx(0, 1);
  ASSERT_EQ(fx.service->Handle(put_request(make_file(3), 1)).status,
            db::StatusCode::kOk);
  rpc::Frame del;
  del.type = rpc::MsgType::kRequest;
  del.method = rpc::Method::kDelete;
  del.client_id = 1;
  del.seq = 2;
  rpc::encode_name(make_file(3).name, &del.payload);
  EXPECT_EQ(fx.service->Handle(del).status, db::StatusCode::kOk);
  // Replay with a FRESH id (post-crash retry shape: dedup can't help) —
  // already-absent is still success.
  del.seq = 3;
  EXPECT_EQ(fx.service->Handle(del).status, db::StatusCode::kOk);
}

// ---- routed cluster: map equivalence under concurrent clients ---------------

TEST(Svc, FourShardMapEquivalenceUnderConcurrentClients) {
  auto cluster = start_or_die(in_memory_cluster(4));
  svc::Router router = make_router(*cluster);

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 60;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&router, &failures, t] {
      // Disjoint id spaces; interleaved puts, overwrites, deletes.
      const std::uint64_t base = 1000 * (t + 1);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        metadata::FileMetadata f = make_file(base + i);
        if (!router.Put(f).ok()) ++failures;
        if (i % 3 == 0) {
          f.id = base + i + 500'000;  // overwrite: same name, new id
          if (!router.Put(f).ok()) ++failures;
        }
        if (i % 5 == 4) {
          if (!router.Delete(f.name).ok()) ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Oracle: replay the same deterministic op stream into a std::map.
  std::map<std::string, std::uint64_t> expected;
  for (int t = 0; t < kThreads; ++t) {
    const std::uint64_t base = 1000 * (t + 1);
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      const metadata::FileMetadata f = make_file(base + i);
      expected[f.name] = f.id;
      if (i % 3 == 0) expected[f.name] = base + i + 500'000;
      if (i % 5 == 4) expected.erase(f.name);
    }
  }

  // Every expected record is found with the right id; shard counters sum
  // to exactly the expected population.
  for (const auto& [name, id] : expected) {
    auto r = router.Point(name);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found) << name;
    EXPECT_EQ(r->id, id) << name;
  }
  std::uint64_t hosted = 0;
  for (std::uint32_t s = 0; s < cluster->num_shards(); ++s) {
    auto stats = router.Stats(s);
    ASSERT_TRUE(stats.ok());
    hosted += stats->total_files;
  }
  EXPECT_EQ(hosted, expected.size());
  EXPECT_EQ(router.stats().redirects, 0u) << "map was authoritative";
}

// ---- retry semantics under an adversarial transport -------------------------

TEST(Svc, ExactlyOnceUnderFaultInjection) {
  auto cluster = start_or_die(in_memory_cluster(2));

  rpc::FaultSpec spec;
  spec.duplicate_p = 0.15;
  spec.drop_request_p = 0.15;
  spec.drop_response_p = 0.15;
  spec.delay_p = 0.10;
  spec.delay_us = 100;
  spec.seed = 1234;
  std::vector<std::shared_ptr<rpc::Channel>> channels;
  std::vector<const rpc::FaultChannel*> faults;
  for (std::uint32_t s = 0; s < cluster->num_shards(); ++s) {
    auto faulty =
        std::make_shared<rpc::FaultChannel>(cluster->Connect(s), spec);
    faults.push_back(faulty.get());
    channels.push_back(std::move(faulty));
  }
  svc::RouterOptions ro;
  ro.client_id = 9;
  ro.max_attempts = 64;  // drops are frequent; acks must still land
  ro.backoff_init_us = 10;
  ro.backoff_max_us = 2'000;
  svc::Router router(channels, cluster->map(), ro);

  constexpr std::uint64_t kPuts = 150;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&router, &failures, t] {
      for (std::uint64_t i = 0; i < kPuts / 3; ++i) {
        const std::uint64_t id = 10'000 * (t + 1) + i;
        if (!router.Put(make_file(id)).ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0) << "every put must eventually ack";

  // The exactly-once theorem: kPuts distinct names were acked once each,
  // so the shards applied exactly kPuts puts — no matter how many times
  // the transport duplicated or redelivered them.
  std::uint64_t applied = 0, dup_hits = 0, hosted = 0;
  for (std::uint32_t s = 0; s < cluster->num_shards(); ++s) {
    auto stats = router.Stats(s);
    ASSERT_TRUE(stats.ok());
    applied += stats->applied_puts;
    dup_hits += stats->dup_hits;
    hosted += stats->total_files;
  }
  EXPECT_EQ(applied, kPuts);
  EXPECT_EQ(hosted, kPuts);

  std::uint64_t injected = 0;
  for (const auto* f : faults) {
    const auto c = f->counts();
    injected += c.duplicated + c.dropped_requests + c.dropped_responses;
  }
  EXPECT_GT(injected, 0u) << "the adversary must actually have fired";
  (void)dup_hits;  // informative: >0 whenever a drop-response fault fired

  // And the data is all there, once, with the right ids.
  for (int t = 0; t < 3; ++t) {
    for (std::uint64_t i = 0; i < kPuts / 3; ++i) {
      const std::uint64_t id = 10'000 * (t + 1) + i;
      auto r = router.Point(trace_name(id));
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(r->found);
      EXPECT_EQ(r->id, id);
    }
  }
}

// ---- stale-map redirects ----------------------------------------------------

TEST(Svc, StaleMapRedirectsAndInstallsAuthoritativeMap) {
  svc::ClusterOptions co = in_memory_cluster(4);
  co.map_version = 7;
  auto cluster = start_or_die(co);

  // Seed the router with a WRONG, OLDER map: everything routes to shard 0.
  svc::RouterOptions ro;
  ro.client_id = 2;
  svc::Router router(cluster->ConnectAll(),
                     svc::PartitionMap::RoundRobin(1, 1), ro);

  for (std::uint64_t id = 0; id < 40; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  const svc::RouterStats after = router.stats();
  EXPECT_GT(after.redirects, 0u) << "the stale map must have misrouted";
  EXPECT_EQ(after.map_installs, 1u) << "one redirect teaches the map";
  EXPECT_EQ(router.map().version, 7u);

  // Once corrected, routing is clean: more traffic, zero new redirects.
  for (std::uint64_t id = 40; id < 80; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  EXPECT_EQ(router.stats().redirects, after.redirects);

  // All 80 records landed on their owning shards despite the stale start.
  for (std::uint64_t id = 0; id < 80; ++id) {
    auto r = router.Point(trace_name(id));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found);
  }
}

// A stale-map Write bounces once (every op rides one slice to node 0,
// which owns only some of them) and re-splits under the map the bounce
// carried: one bounce is one redirect, however many layers see it.
TEST(Svc, StaleMapBatchWriteCountsOneRedirectPerBounce) {
  svc::ClusterOptions co = in_memory_cluster(4);
  co.map_version = 7;
  auto cluster = start_or_die(co);
  svc::RouterOptions ro;
  ro.client_id = 3;
  svc::Router router(cluster->ConnectAll(),
                     svc::PartitionMap::RoundRobin(1, 1), ro);

  std::vector<rpc::BatchOp> ops;
  for (std::uint64_t id = 0; id < 40; ++id) {
    rpc::BatchOp op;
    op.is_put = true;
    op.file = make_file(id);
    ops.push_back(std::move(op));
  }
  ASSERT_TRUE(router.Write(ops).ok());
  const svc::RouterStats stats = router.stats();
  EXPECT_EQ(stats.redirects, 1u);
  EXPECT_EQ(stats.map_installs, 1u);
  EXPECT_EQ(router.map().version, 7u);
  for (std::uint64_t id = 0; id < 40; ++id) {
    auto r = router.Point(trace_name(id));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found) << trace_name(id);
  }
}

// ---- batch + scatter-gather -------------------------------------------------

TEST(Svc, BatchWriteSplitsAcrossShards) {
  auto cluster = start_or_die(in_memory_cluster(4));
  svc::Router router = make_router(*cluster);

  std::vector<rpc::BatchOp> ops;
  for (std::uint64_t id = 0; id < 50; ++id) {
    rpc::BatchOp op;
    op.is_put = true;
    op.file = make_file(id);
    ops.push_back(std::move(op));
  }
  // A few deletes of keys the same batch already wrote (order matters).
  for (std::uint64_t id = 0; id < 50; id += 10) {
    rpc::BatchOp op;
    op.is_put = false;
    op.name = trace_name(id);
    ops.push_back(std::move(op));
  }
  ASSERT_TRUE(router.Write(ops).ok());

  for (std::uint64_t id = 0; id < 50; ++id) {
    auto r = router.Point(trace_name(id));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->found, id % 10 != 0) << trace_name(id);
  }
}

TEST(Svc, ScatterGatherMatchesSingleStore) {
  auto cluster = start_or_die(in_memory_cluster(4));
  svc::Router router = make_router(*cluster);

  // Reference oracle: ONE store fed the identical records. Shards hold
  // disjoint subsets, so the routed scatter+merge must reproduce exactly
  // the single store's range answer — this isolates the svc layer's
  // routing/merging from the core's query semantics.
  db::Options ref_options = small_store_options();
  ref_options.in_memory = true;
  auto ref_opened = db::Store::Open(ref_options, "");
  ASSERT_TRUE(ref_opened.ok());
  std::unique_ptr<db::Store> reference = std::move(ref_opened).value();

  std::vector<metadata::FileMetadata> files;
  for (std::uint64_t id = 0; id < 120; ++id) files.push_back(make_file(id));
  for (const auto& f : files) {
    ASSERT_TRUE(router.Put(f).ok());
    ASSERT_TRUE(reference->Put(f).ok());
  }

  metadata::RangeQuery rq;
  rq.dims = metadata::AttrSubset(
      {metadata::Attr::kFileSize, metadata::Attr::kReadCount});
  rq.lo = {100.0, 0.0};
  rq.hi = {800.0, 900.0};

  auto routed = router.Range(rq);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  std::vector<metadata::FileId> got = routed->ids;
  std::sort(got.begin(), got.end());

  auto ref_result = reference->Query(db::QueryRequest::Range(rq));
  ASSERT_TRUE(ref_result.ok());
  std::vector<metadata::FileId> want = ref_result->ids;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want)
      << "scatter-gather range must equal the single-store answer";
  ASSERT_FALSE(want.empty()) << "(test must actually select something)";

  metadata::TopKQuery tq;
  tq.dims = rq.dims;
  tq.point = {500.0, 500.0};
  tq.k = 10;
  auto top = router.TopK(tq);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->hits.size(), 10u);
  EXPECT_EQ(top->ids.size(), 10u);
  // Merged hits come back nearest-first.
  for (std::size_t i = 1; i < top->hits.size(); ++i) {
    EXPECT_LE(top->hits[i - 1].first, top->hits[i].first);
  }
}

// ---- crash / recover --------------------------------------------------------

TEST(Svc, CrashRecoverLosesNoAckedWrite) {
  // A durable shard acks only committed writes.
  const auto dir = temp_dir("crash");
  svc::ClusterOptions co;
  co.num_shards = 2;
  co.in_memory = false;
  co.dir = dir.string();
  co.store_options = small_store_options();
  auto cluster = start_or_die(co);
  svc::Router router = make_router(*cluster, 1, 32);

  constexpr std::uint64_t kAcked = 40;
  for (std::uint64_t id = 0; id < kAcked; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }

  // Power-cut BOTH shards, then recover them.
  ASSERT_TRUE(cluster->Crash(0).ok());
  ASSERT_TRUE(cluster->Crash(1).ok());
  {
    auto r = router.Point(trace_name(0));
    EXPECT_FALSE(r.ok()) << "a crashed cluster must not answer";
  }
  ASSERT_TRUE(cluster->Restart(0).ok());
  ASSERT_TRUE(cluster->Restart(1).ok());

  // The no-lost-acked-write theorem: every acked put survived.
  for (std::uint64_t id = 0; id < kAcked; ++id) {
    auto r = router.Point(trace_name(id));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found) << trace_name(id) << " lost in the crash";
    EXPECT_EQ(r->id, id);
  }
  std::filesystem::remove_all(dir);
}

TEST(Svc, WritesRideOutACrashRestartWindow) {
  const auto dir = temp_dir("ride_out");
  svc::ClusterOptions co;
  co.num_shards = 2;
  co.in_memory = false;
  co.dir = dir.string();
  co.store_options = small_store_options();
  auto cluster = start_or_die(co);
  // Patient router: enough attempts/backoff to span the restart window.
  svc::Router router = make_router(*cluster, 1, 200);

  ASSERT_TRUE(cluster->Crash(0).ok());

  // A writer starts while shard 0 is down; its shard-0 puts retry with
  // the SAME request ids until the restart, then ack.
  std::atomic<int> failures{0};
  std::thread writer([&router, &failures] {
    for (std::uint64_t id = 0; id < 30; ++id) {
      if (!router.Put(make_file(id)).ok()) ++failures;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(cluster->Restart(0).ok());
  writer.join();
  ASSERT_EQ(failures.load(), 0);

  for (std::uint64_t id = 0; id < 30; ++id) {
    auto r = router.Point(trace_name(id));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found) << trace_name(id);
  }
  // Exactly-once held across the crash boundary too: hosted == distinct.
  std::uint64_t hosted = 0;
  for (std::uint32_t s = 0; s < cluster->num_shards(); ++s) {
    auto stats = router.Stats(s);
    ASSERT_TRUE(stats.ok());
    hosted += stats->total_files;
  }
  EXPECT_EQ(hosted, 30u);
  std::filesystem::remove_all(dir);
}

// ---- dedup eviction ---------------------------------------------------------

// A delayed duplicate arriving AFTER its done-entry was FIFO-evicted gets
// no dedup protection — it must land idempotently at the store level for
// every keyed method, including a multi-op batch.
TEST(MetaService, EvictedDedupEntryReappliesIdempotently) {
  db::Options store_options = small_store_options();
  store_options.in_memory = true;
  auto opened = db::Store::Open(store_options, "");
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<db::Store> store = std::move(opened).value();
  svc::MetaServiceOptions so;
  so.shard_id = 0;
  so.dedup_capacity = 2;  // tiny: a couple of fresh ids evict anything
  svc::MetaService service(store.get(), svc::PartitionMap::RoundRobin(1, 5),
                           so);

  const auto handle = [&](rpc::Method method, std::uint64_t seq,
                          const std::vector<std::uint8_t>& payload) {
    rpc::Frame req;
    req.type = rpc::MsgType::kRequest;
    req.method = method;
    req.client_id = 1;
    req.seq = seq;
    req.payload = payload;
    return service.Handle(req);
  };
  const auto evict = [&](std::uint64_t base) {
    // Three fresh done-entries push everything older out of capacity 2.
    for (std::uint64_t i = 0; i < 3; ++i) {
      std::vector<std::uint8_t> p;
      rpc::encode_file(make_file(900 + base + i), &p);
      ASSERT_EQ(handle(rpc::Method::kPut, base + i, p).status,
                db::StatusCode::kOk);
    }
  };
  const auto total_files = [&] {
    std::string v;
    EXPECT_TRUE(store->GetProperty("smartstore.total-files", &v));
    return v;
  };

  // Put: apply, evict, replay. The upsert converges; no duplicate record.
  std::vector<std::uint8_t> put_payload;
  rpc::encode_file(make_file(1), &put_payload);
  ASSERT_EQ(handle(rpc::Method::kPut, 10, put_payload).status,
            db::StatusCode::kOk);
  evict(100);
  const std::string before_put_replay = total_files();
  EXPECT_EQ(handle(rpc::Method::kPut, 10, put_payload).status,
            db::StatusCode::kOk);
  EXPECT_EQ(total_files(), before_put_replay);

  // Delete: apply, evict, replay. Already-absent is success, not kNotFound.
  std::vector<std::uint8_t> del_payload;
  rpc::encode_name(make_file(1).name, &del_payload);
  ASSERT_EQ(handle(rpc::Method::kDelete, 20, del_payload).status,
            db::StatusCode::kOk);
  evict(200);
  const std::string before_del_replay = total_files();
  EXPECT_EQ(handle(rpc::Method::kDelete, 20, del_payload).status,
            db::StatusCode::kOk);
  EXPECT_EQ(total_files(), before_del_replay);

  // Batch: put A, delete A, put B — order matters. The replay re-runs all
  // three idempotent forms and converges to the identical state.
  std::vector<rpc::BatchOp> ops(3);
  ops[0].is_put = true;
  ops[0].file = make_file(50);
  ops[1].is_put = false;
  ops[1].name = make_file(50).name;
  ops[2].is_put = true;
  ops[2].file = make_file(51);
  std::vector<std::uint8_t> batch_payload;
  rpc::encode_batch(ops, &batch_payload);
  ASSERT_EQ(handle(rpc::Method::kBatchWrite, 30, batch_payload).status,
            db::StatusCode::kOk);
  evict(300);
  const std::string before_batch_replay = total_files();
  EXPECT_EQ(handle(rpc::Method::kBatchWrite, 30, batch_payload).status,
            db::StatusCode::kOk);
  EXPECT_EQ(total_files(), before_batch_replay);
  // And the batch's net effect holds: 50 deleted, 51 present.
  metadata::PointQuery gone_q;
  gone_q.filename = make_file(50).name;
  auto gone = store->Query(db::QueryRequest::Point(std::move(gone_q)));
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->found);
  metadata::PointQuery kept_q;
  kept_q.filename = make_file(51).name;
  auto kept = store->Query(db::QueryRequest::Point(std::move(kept_q)));
  ASSERT_TRUE(kept.ok());
  EXPECT_TRUE(kept->found);
}

// ---- snapshot scatter-gather ------------------------------------------------

// Cross-shard tie-breaking oracle: many records at the IDENTICAL distance
// live on different shards; the merged top-k must re-sort globally by
// (distance, id) before truncating, so the winners are exactly the lowest
// ids — the same answer a single store gives.
TEST(Svc, TopKCrossShardTieBreakOracle) {
  auto cluster = start_or_die(in_memory_cluster(4));
  svc::Router router = make_router(*cluster);

  db::Options ref_options = small_store_options();
  ref_options.in_memory = true;
  auto ref_opened = db::Store::Open(ref_options, "");
  ASSERT_TRUE(ref_opened.ok());
  std::unique_ptr<db::Store> reference = std::move(ref_opened).value();

  // 12 records, all attrs identical (=> identical distance to any query
  // point), names spread across the 4 shards by the partition key; plus a
  // few far-away records that must lose.
  for (std::uint64_t id = 0; id < 12; ++id) {
    metadata::FileMetadata f = make_file(id);
    for (std::size_t a = 0; a < metadata::kNumAttrs; ++a) f.attrs[a] = 500.0;
    ASSERT_TRUE(router.Put(f).ok());
    ASSERT_TRUE(reference->Put(f).ok());
  }
  for (std::uint64_t id = 100; id < 104; ++id) {
    metadata::FileMetadata f = make_file(id);
    for (std::size_t a = 0; a < metadata::kNumAttrs; ++a) f.attrs[a] = 0.0;
    ASSERT_TRUE(router.Put(f).ok());
    ASSERT_TRUE(reference->Put(f).ok());
  }

  metadata::TopKQuery tq;
  tq.dims = metadata::AttrSubset(
      {metadata::Attr::kFileSize, metadata::Attr::kReadCount});
  tq.point = {500.0, 500.0};
  tq.k = 5;

  auto routed = router.TopK(tq);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ASSERT_EQ(routed->ids.size(), 5u);
  auto want = reference->Query(db::QueryRequest::TopK(tq), db::ReadOptions{});
  ASSERT_TRUE(want.ok());
  // Exact ORDERED equality: the tie-break is part of the contract.
  EXPECT_EQ(routed->ids, want->ids)
      << "cross-shard ties must resolve by (distance, id)";
  EXPECT_EQ(routed->ids, (std::vector<metadata::FileId>{0, 1, 2, 3, 4}));
  for (std::size_t i = 1; i < routed->hits.size(); ++i) {
    EXPECT_LE(routed->hits[i - 1].first, routed->hits[i].first);
  }
}

// The tentpole acceptance, routed variant: a pinned cluster cut scanned
// repeatedly while a writer streams inserts through the SAME router is
// bit-identical every time, and equal to a quiesced single store holding
// exactly the pre-pin population.
TEST(Svc, PinnedSnapshotScanStableUnderRoutedWrites) {
  auto cluster = start_or_die(in_memory_cluster(4));
  svc::Router router = make_router(*cluster);

  db::Options ref_options = small_store_options();
  ref_options.in_memory = true;
  auto ref_opened = db::Store::Open(ref_options, "");
  ASSERT_TRUE(ref_opened.ok());
  std::unique_ptr<db::Store> reference = std::move(ref_opened).value();

  for (std::uint64_t id = 0; id < 80; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
    ASSERT_TRUE(reference->Put(make_file(id)).ok());
  }

  auto snapshot = router.PinSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  metadata::RangeQuery rq;
  rq.dims = metadata::AttrSubset(
      {metadata::Attr::kFileSize, metadata::Attr::kReadCount});
  rq.lo = {-1e30, -1e30};
  rq.hi = {1e30, 1e30};  // select-all: every record is in range

  auto baseline = router.Range(rq, *snapshot);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->ids.size(), 80u);

  std::thread writer([&router] {
    for (std::uint64_t id = 1000; id < 1080; ++id) {
      ASSERT_TRUE(router.Put(make_file(id)).ok());
    }
  });
  for (int scan = 0; scan < 15; ++scan) {
    auto again = router.Range(rq, *snapshot);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->ids, baseline->ids)
        << "pinned scan " << scan << " tore under concurrent writes";
  }
  writer.join();

  // Quiesced oracle: the single store holds exactly the pre-pin records.
  auto want = reference->Query(db::QueryRequest::Range(rq), db::ReadOptions{});
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(baseline->ids, want->ids);

  ASSERT_TRUE(router.ReleaseSnapshot(*snapshot).ok());
  // An unpinned (fresh-pin) scan now sees the writer's records too.
  auto after = router.Range(rq);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->ids.size(), 160u);
  EXPECT_GE(router.stats().snapshot_pins, 2u);
}

TEST(MetaService, SnapshotLeaseCapacityAndTtl) {
  db::Options store_options = small_store_options();
  store_options.in_memory = true;
  auto opened = db::Store::Open(store_options, "");
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<db::Store> store = std::move(opened).value();
  svc::MetaServiceOptions so;
  so.shard_id = 0;
  so.snapshot_lease_capacity = 2;
  so.snapshot_lease_ttl_ms = 60;
  svc::MetaService service(store.get(), svc::PartitionMap::RoundRobin(1, 5),
                           so);

  rpc::Frame pin;
  pin.type = rpc::MsgType::kRequest;
  pin.method = rpc::Method::kSnapPin;

  rpc::Frame a = service.Handle(pin);
  ASSERT_EQ(a.status, db::StatusCode::kOk);
  rpc::Frame b = service.Handle(pin);
  ASSERT_EQ(b.status, db::StatusCode::kOk);
  rpc::SnapshotLease lease_a, lease_b;
  ASSERT_TRUE(rpc::decode_snapshot_lease(a.payload, &lease_a).ok());
  ASSERT_TRUE(rpc::decode_snapshot_lease(b.payload, &lease_b).ok());
  EXPECT_NE(lease_a.lease_id, lease_b.lease_id);

  // Table full: the third pin is refused, not silently evicting a holder.
  EXPECT_EQ(service.Handle(pin).status, db::StatusCode::kUnavailable);

  // Releasing one frees a slot immediately.
  rpc::Frame release;
  release.type = rpc::MsgType::kRequest;
  release.method = rpc::Method::kSnapRelease;
  rpc::encode_snapshot_lease(lease_a, &release.payload);
  EXPECT_EQ(service.Handle(release).status, db::StatusCode::kOk);
  EXPECT_EQ(service.Handle(pin).status, db::StatusCode::kOk);

  // And the TTL sweeps abandoned leases: wait out the 60ms, then both
  // leaked slots are reclaimable.
  std::this_thread::sleep_for(std::chrono::milliseconds(90));
  EXPECT_EQ(service.Handle(pin).status, db::StatusCode::kOk);
  EXPECT_EQ(service.Handle(pin).status, db::StatusCode::kOk);
}

// A node that crashes while its clients hold snapshot leases leaves torn
// leases on the SURVIVING shards (the pin round's release never reaches
// them). Those must not pin the GC watermark forever: the TTL sweep
// reclaims them without any operator action.
TEST(Svc, CrashedClusterPinIsSweptByTtl) {
  svc::ClusterOptions co = in_memory_cluster(2);
  co.snapshot_lease_capacity = 1;  // one slot: a leaked lease is observable
  co.snapshot_lease_ttl_ms = 150;
  auto cluster = start_or_die(co);

  // An impatient router: lease-table-full is kUnavailable, and we want to
  // observe it rather than have the retry loop wait out the TTL for us.
  svc::RouterOptions ro;
  ro.client_id = 1;
  ro.max_attempts = 2;
  ro.backoff_init_us = 10;
  ro.backoff_max_us = 50;
  svc::Router router(cluster->ConnectAll(), cluster->map(), ro);

  for (std::uint64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(router.Put(make_file(id)).ok());
  }
  auto pinned = router.PinSnapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();

  // Shard 0 dies and comes back with an empty lease table; shard 1 still
  // holds the torn lease — the cluster-wide pin can never be released.
  ASSERT_TRUE(cluster->Crash(0).ok());
  ASSERT_TRUE(cluster->Restart(0).ok());

  // The torn lease occupies shard 1's only slot, so a fresh pin fails...
  auto refused = router.PinSnapshot();
  EXPECT_FALSE(refused.ok());

  // ...until the TTL sweeps it. No operator, no restart of shard 1.
  std::this_thread::sleep_for(std::chrono::milliseconds(220));
  auto swept = router.PinSnapshot();
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  EXPECT_TRUE(router.ReleaseSnapshot(*swept).ok());
}

// The router-wide retry budget is a saturating brake: once spent, further
// retryable failures surface immediately instead of amplifying an outage
// with backoff storms. First attempts stay free, so recovery needs no
// reset.
TEST(Svc, RouterRetryBudgetBoundsRetryStorms) {
  auto cluster = start_or_die(in_memory_cluster(1));
  svc::RouterOptions ro;
  ro.client_id = 9;
  ro.max_attempts = 50;  // per-op bound far above the router-wide budget
  ro.backoff_init_us = 10;
  ro.backoff_max_us = 100;
  ro.retry_budget = 5;
  svc::Router router(cluster->ConnectAll(), cluster->map(), ro);

  ASSERT_TRUE(router.Put(make_file(0)).ok());
  ASSERT_TRUE(cluster->Crash(0).ok());

  // Two ops against a dead shard: the first burns the budget, the second
  // fails fast. Neither gets anywhere near 50 attempts.
  EXPECT_FALSE(router.Put(make_file(1)).ok());
  EXPECT_FALSE(router.Put(make_file(2)).ok());
  const svc::RouterStats stats = router.stats();
  EXPECT_EQ(stats.gave_up, 2u);
  EXPECT_LE(stats.retries, 5u);

  // Recovery: first attempts don't draw on the budget at all.
  ASSERT_TRUE(cluster->Restart(0).ok());
  EXPECT_TRUE(router.Put(make_file(3)).ok());
}

// ---- router retry policy, case by case ---------------------------------------

/// One scripted reply: an answer carrying `status`, a kWrongShard bounce
/// carrying `map`, or a transport failure.
struct Reply {
  enum Kind { kAnswer, kBounce, kDrop } kind = kAnswer;
  db::StatusCode status = db::StatusCode::kOk;
  svc::PartitionMap map;

  static Reply Answer(db::StatusCode c = db::StatusCode::kOk) {
    return {kAnswer, c, {}};
  }
  static Reply Bounce(svc::PartitionMap m) {
    return {kBounce, db::StatusCode::kWrongShard, std::move(m)};
  }
  static Reply Drop() { return {kDrop, db::StatusCode::kOk, {}}; }
};

/// A node that answers from a script: every request but kGetMap pops the
/// next reply (kOk once the script runs dry) and is recorded; kGetMap
/// answers with `served_map`. A `down` node fails every call in transport.
class ScriptedChannel : public rpc::Channel {
 public:
  std::deque<Reply> script;
  svc::PartitionMap served_map = svc::PartitionMap::RoundRobin(2, 1);
  bool down = false;
  std::vector<rpc::Frame> requests;

  db::Status Call(const rpc::Frame& req, rpc::Frame* resp) override {
    if (down) return db::Status::Unavailable("node is down");
    resp->type = rpc::MsgType::kResponse;
    resp->method = req.method;
    resp->client_id = req.client_id;
    resp->seq = req.seq;
    resp->status = db::StatusCode::kOk;
    resp->payload.clear();
    if (req.method == rpc::Method::kGetMap) {
      svc::encode_partition_map(served_map, &resp->payload);
      return db::Status();
    }
    requests.push_back(req);
    Reply r = Reply::Answer();
    if (!script.empty()) {
      r = script.front();
      script.pop_front();
    }
    if (r.kind == Reply::kDrop) return db::Status::Unavailable("dropped");
    resp->status = r.status;
    if (r.kind == Reply::kBounce) {
      svc::encode_partition_map(r.map, &resp->payload);
    }
    return db::Status();
  }
};

struct PolicyRig {
  std::shared_ptr<ScriptedChannel> node0 = std::make_shared<ScriptedChannel>();
  std::shared_ptr<ScriptedChannel> node1 = std::make_shared<ScriptedChannel>();

  svc::Router router(svc::PartitionMap initial) {
    svc::RouterOptions o;
    o.client_id = 42;
    o.backoff_init_us = 10;
    o.backoff_max_us = 100;
    return svc::Router({node0, node1}, std::move(initial), o);
  }
};

/// A file whose name `map` routes to `shard`.
metadata::FileMetadata file_on(const svc::PartitionMap& map,
                               std::uint32_t shard) {
  for (std::uint64_t id = 0;; ++id) {
    metadata::FileMetadata f = make_file(id);
    if (map.shard_of(f.name) == shard) return f;
  }
}

TEST(RouterPolicy, BounceThatMovesTheKeyReroutesWithoutRetry) {
  PolicyRig rig;
  const svc::PartitionMap fresh = svc::PartitionMap::RoundRobin(2, 2);
  const metadata::FileMetadata f = file_on(fresh, 1);
  rig.node0->script.push_back(Reply::Bounce(fresh));
  svc::Router router = rig.router(svc::PartitionMap::RoundRobin(1, 1));

  ASSERT_TRUE(router.Put(f).ok());
  const svc::RouterStats st = router.stats();
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.redirects, 1u);
  EXPECT_EQ(st.map_installs, 1u);
  ASSERT_EQ(rig.node0->requests.size(), 1u);
  ASSERT_EQ(rig.node1->requests.size(), 1u);
  EXPECT_EQ(rig.node0->requests[0].client_id, 42u);
  EXPECT_EQ(rig.node1->requests[0].client_id, 42u);
  EXPECT_EQ(rig.node0->requests[0].seq, rig.node1->requests[0].seq);
}

TEST(RouterPolicy, KeyedBounceFromAnOlderMapBacksOffAndResends) {
  PolicyRig rig;
  const svc::PartitionMap current = svc::PartitionMap::RoundRobin(2, 5);
  const metadata::FileMetadata f = file_on(current, 0);
  rig.node0->script.push_back(
      Reply::Bounce(svc::PartitionMap::RoundRobin(2, 3)));
  svc::Router router = rig.router(current);

  ASSERT_TRUE(router.Put(f).ok());
  const svc::RouterStats st = router.stats();
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.redirects, 1u);
  EXPECT_EQ(st.map_installs, 0u);
  ASSERT_EQ(rig.node0->requests.size(), 2u);
  EXPECT_TRUE(rig.node1->requests.empty());
  EXPECT_EQ(rig.node0->requests[0].seq, rig.node0->requests[1].seq);
}

TEST(RouterPolicy, ShardAddressedBounceWithUnchangedTargetIsHandedBack) {
  PolicyRig rig;
  rig.node0->script.push_back(
      Reply::Bounce(svc::PartitionMap::RoundRobin(2, 3)));
  svc::Router router = rig.router(svc::PartitionMap::RoundRobin(2, 5));

  EXPECT_TRUE(router.Ping(0).IsWrongShard());
  const svc::RouterStats st = router.stats();
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.redirects, 1u);
  EXPECT_EQ(rig.node0->requests.size(), 1u);
}

TEST(RouterPolicy, TransportFailureResendsTheSameId) {
  PolicyRig rig;
  const svc::PartitionMap current = svc::PartitionMap::RoundRobin(2, 5);
  const metadata::FileMetadata f = file_on(current, 0);
  rig.node0->script.push_back(Reply::Drop());
  svc::Router router = rig.router(current);

  ASSERT_TRUE(router.Put(f).ok());
  const svc::RouterStats st = router.stats();
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.gave_up, 0u);
  ASSERT_EQ(rig.node0->requests.size(), 2u);
  EXPECT_EQ(rig.node0->requests[0].seq, rig.node0->requests[1].seq);
}

TEST(RouterPolicy, FetchMapSkipsADeadNodeAnotherCovers) {
  PolicyRig rig;
  rig.node0->down = true;
  rig.node1->served_map = svc::PartitionMap::RoundRobin(2, 9);
  svc::Router router = rig.router(svc::PartitionMap::RoundRobin(2, 1));

  ASSERT_TRUE(router.FetchMap().ok());
  const svc::RouterStats st = router.stats();
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.gave_up, 0u);
  EXPECT_EQ(router.map().version, 9u);
}

// ---- control plane ----------------------------------------------------------

TEST(Svc, PingFlushFetchMap) {
  auto cluster = start_or_die(in_memory_cluster(2));
  svc::Router router = make_router(*cluster);
  EXPECT_TRUE(router.Ping(0).ok());
  EXPECT_TRUE(router.Ping(1).ok());
  EXPECT_TRUE(router.Flush().ok());
  EXPECT_TRUE(router.FetchMap().ok());
  EXPECT_EQ(router.map().version, cluster->map().version);
}

}  // namespace
