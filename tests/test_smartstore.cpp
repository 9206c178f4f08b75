// End-to-end tests for the SmartStore facade: build, queries vs ground
// truth, versioning/staleness behavior, reconfiguration, failure injection,
// automatic configuration, space accounting.
#include "core/smartstore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/ground_truth.h"
#include "trace/query_gen.h"
#include "trace/synth.h"

namespace smartstore::core {
namespace {

using metadata::Attr;
using metadata::AttrSubset;
using metadata::FileId;
using metadata::FileMetadata;

trace::SyntheticTrace small_trace(std::uint64_t seed = 42) {
  return trace::SyntheticTrace::generate(trace::msn_profile(), /*tif=*/1,
                                         seed, /*downscale=*/5);  // 2500 files
}

Config small_config() {
  Config cfg;
  cfg.num_units = 20;
  cfg.fanout = 5;
  cfg.seed = 7;
  cfg.max_groups_per_query = 4;  // "a single or a minimal number of groups"
  return cfg;
}

class SmartStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = small_trace();
    store_ = std::make_unique<SmartStore>(small_config());
    store_->build(trace_.files());
  }

  trace::SyntheticTrace trace_{};
  std::unique_ptr<SmartStore> store_;
};

TEST_F(SmartStoreTest, BuildDistributesAllFiles) {
  EXPECT_EQ(store_->total_files(), trace_.files().size());
  std::size_t sum = 0;
  for (const auto& u : store_->units()) sum += u.file_count();
  EXPECT_EQ(sum, trace_.files().size());
  EXPECT_TRUE(store_->check_invariants());
}

TEST_F(SmartStoreTest, PlacementIsApproximatelyBalanced) {
  const std::size_t avg = trace_.files().size() / store_->units().size();
  for (const auto& u : store_->units()) {
    EXPECT_LE(u.file_count(), avg * 2 + 10);
  }
}

TEST_F(SmartStoreTest, PointQueryFindsExistingFiles) {
  int found = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    const auto& f = trace_.files()[i * 17 % trace_.files().size()];
    const auto res =
        store_->point_query({f.name}, Routing::kOffline, 0.0);
    if (res.found) {
      ++found;
      EXPECT_EQ(res.id, f.id);
    }
  }
  EXPECT_GE(found, 95);  // tiny slack for bloom-driven misrouting
}

TEST_F(SmartStoreTest, PointQueryOnlineFindsExistingFiles) {
  int found = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    const auto& f = trace_.files()[i * 31 % trace_.files().size()];
    if (store_->point_query({f.name}, Routing::kOnline, 0.0).found) ++found;
  }
  EXPECT_GE(found, 58);  // online search is exact modulo nothing
}

TEST_F(SmartStoreTest, PointQueryRejectsAbsentFiles) {
  for (int i = 0; i < 50; ++i) {
    const auto res = store_->point_query(
        {"/definitely/not/there/" + std::to_string(i)}, Routing::kOffline,
        0.0);
    EXPECT_FALSE(res.found);
  }
}

TEST_F(SmartStoreTest, OnlineRangeQueryIsExact) {
  trace::QueryGenerator gen(trace_, trace::QueryDistribution::kZipf, 3);
  const AttrSubset dims({Attr::kFileSize, Attr::kModificationTime});
  for (int i = 0; i < 20; ++i) {
    const auto q = gen.gen_range(dims, 0.1);
    auto res = store_->range_query(q, Routing::kOnline, 0.0);
    auto truth = brute_force_range(trace_.files(), q);
    std::sort(res.ids.begin(), res.ids.end());
    std::sort(truth.begin(), truth.end());
    EXPECT_EQ(res.ids, truth) << "query " << i;
  }
}

TEST_F(SmartStoreTest, OnlineTopKIsExact) {
  trace::QueryGenerator gen(trace_, trace::QueryDistribution::kGauss, 4);
  const AttrSubset dims = AttrSubset::all();
  for (int i = 0; i < 15; ++i) {
    const auto q = gen.gen_topk(dims, 8);
    const auto res = store_->topk_query(q, Routing::kOnline, 0.0);
    const auto truth =
        brute_force_topk(trace_.files(), store_->standardizer(), q);
    ASSERT_EQ(res.hits.size(), truth.size());
    for (std::size_t r = 0; r < truth.size(); ++r)
      EXPECT_NEAR(res.hits[r].first, truth[r].first, 1e-9) << "rank " << r;
  }
}

TEST_F(SmartStoreTest, OfflineComplexQueriesHaveHighRecall) {
  trace::QueryGenerator gen(trace_, trace::QueryDistribution::kZipf, 5);
  const AttrSubset dims({Attr::kFileSize, Attr::kModificationTime,
                         Attr::kReadBytes});
  double range_recall = 0, topk_recall = 0;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    const auto rq = gen.gen_range(dims, 0.05);
    range_recall += recall(brute_force_range(trace_.files(), rq),
                           store_->range_query(rq, Routing::kOffline, 0.0).ids);
    const auto tq = gen.gen_topk(dims, 8);
    std::vector<FileId> truth_ids;
    for (const auto& [d, id] :
         brute_force_topk(trace_.files(), store_->standardizer(), tq))
      truth_ids.push_back(id);
    topk_recall += recall(
        truth_ids, store_->topk_query(tq, Routing::kOffline, 0.0).ids());
  }
  EXPECT_GT(range_recall / n, 0.75);
  EXPECT_GT(topk_recall / n, 0.8);
}

TEST_F(SmartStoreTest, OfflineCheaperThanOnline) {
  trace::QueryGenerator gen(trace_, trace::QueryDistribution::kZipf, 6);
  const AttrSubset dims = AttrSubset::all();
  std::uint64_t online_msgs = 0, offline_msgs = 0;
  for (int i = 0; i < 25; ++i) {
    const auto q = gen.gen_topk(dims, 8);
    offline_msgs += store_->topk_query(q, Routing::kOffline, 0.0).stats.messages;
    online_msgs += store_->topk_query(q, Routing::kOnline, 0.0).stats.messages;
  }
  EXPECT_LT(offline_msgs, online_msgs);
}

TEST_F(SmartStoreTest, InsertedFilesBecomeVisibleThroughVersions) {
  // Insert enough that most groups seal versions (version_ratio = 4);
  // files in sealed versions are visible to off-line point queries, files
  // still pending are the paper's staleness false negatives.
  const auto extra = trace_.make_insert_stream(200, 99);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    const auto st = store_->insert_file(extra[i], static_cast<double>(i));
    EXPECT_EQ(st.routing_hops, 0);
  }
  EXPECT_EQ(store_->total_files(), trace_.files().size() + extra.size());
  EXPECT_TRUE(store_->check_invariants());
  int found = 0;
  for (const auto& f : extra)
    if (store_->point_query({f.name}, Routing::kOffline, 0.0).found) ++found;
  EXPECT_GE(found, 120);  // the sealed majority

  // On-line queries see everything immediately (fresh index-unit filters).
  int online_found = 0;
  for (std::size_t i = 0; i < 50; ++i)
    if (store_->point_query({extra[i].name}, Routing::kOnline, 0.0).found)
      ++online_found;
  EXPECT_EQ(online_found, 50);

  // After reconfiguration (full replica sync) everything is visible.
  store_->reconfigure();
  found = 0;
  for (const auto& f : extra)
    if (store_->point_query({f.name}, Routing::kOffline, 0.0).found) ++found;
  EXPECT_EQ(found, 200);
}

TEST_F(SmartStoreTest, OfflineLookupChargesEverySealedVersion) {
  // The replica answers from derived state in O(1), but the simulated
  // cost model still charges one Bloom check per sealed version: the
  // paper's remote unit walks them (Section 4.4, Figure 14b).
  const auto extra = trace_.make_insert_stream(200, 99);
  for (std::size_t i = 0; i < extra.size(); ++i)
    store_->insert_file(extra[i], static_cast<double>(i));
  double expected = 0.0;
  std::size_t versions = 0;
  for (std::size_t g : store_->tree().groups()) {
    const std::size_t n = store_->group_replica(g).versions().size();
    expected += static_cast<double>(n) * small_config().cost.per_bloom_check_s;
    versions += n;
  }
  ASSERT_GT(versions, 0u);
  // An absent name never resolves at the home unit, so every lookup
  // routes through the replicas.
  for (int i = 0; i < 20; ++i) {
    const auto res = store_->point_query(
        {"/absent/" + std::to_string(i)}, Routing::kOffline, 0.0);
    EXPECT_FALSE(res.found);
    EXPECT_DOUBLE_EQ(res.stats.version_check_s, expected);
  }
}

TEST_F(SmartStoreTest, DeleteFileRemoves) {
  const auto& f = trace_.files()[10];
  const auto st = store_->delete_file(f.name, 0.0);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(store_->total_files(), trace_.files().size() - 1);
  EXPECT_FALSE(store_->point_query({f.name}, Routing::kOffline, 0.0).found);
  EXPECT_FALSE(store_->delete_file(f.name, 0.0).has_value());
  EXPECT_TRUE(store_->check_invariants());
}

TEST_F(SmartStoreTest, VersioningBeatsNoVersioningUnderChurn) {
  // Two stores, same data; one without versioning. Interleave inserts and
  // top-k queries aimed at the inserted files; versioning must win.
  Config no_ver = small_config();
  no_ver.versioning_enabled = false;
  SmartStore plain(no_ver);
  plain.build(trace_.files());

  const auto extra = trace_.make_insert_stream(300, 5);
  auto all_files = trace_.files();

  double recall_ver = 0, recall_plain = 0;
  int queries = 0;
  for (std::size_t i = 0; i < extra.size(); ++i) {
    store_->insert_file(extra[i], static_cast<double>(i));
    plain.insert_file(extra[i], static_cast<double>(i));
    all_files.push_back(extra[i]);
    if (i % 10 != 9) continue;
    // Query near the latest insert.
    metadata::TopKQuery q;
    q.dims = AttrSubset::all();
    q.point = extra[i].full_vector();
    q.k = 8;
    std::vector<FileId> truth;
    for (const auto& [d, id] :
         brute_force_topk(all_files, store_->standardizer(), q))
      truth.push_back(id);
    recall_ver += recall(truth,
                         store_->topk_query(q, Routing::kOffline, 0.0).ids());
    recall_plain += recall(
        truth, plain.topk_query(q, Routing::kOffline, 0.0).ids());
    ++queries;
  }
  recall_ver /= queries;
  recall_plain /= queries;
  EXPECT_GE(recall_ver, recall_plain);
  EXPECT_GT(recall_ver, 0.8);
}

TEST_F(SmartStoreTest, ReconfigureClearsVersions) {
  const auto extra = trace_.make_insert_stream(50, 6);
  for (std::size_t i = 0; i < extra.size(); ++i)
    store_->insert_file(extra[i], static_cast<double>(i));
  store_->reconfigure();
  EXPECT_DOUBLE_EQ(store_->avg_version_bytes_per_group(), 0.0);
  // Queries still work after reconfiguration.
  int found = 0;
  for (const auto& f : extra)
    if (store_->point_query({f.name}, Routing::kOffline, 0.0).found) ++found;
  EXPECT_GE(found, 48);
}

TEST_F(SmartStoreTest, SpaceAccountingNonTrivial) {
  const auto s = store_->avg_unit_space();
  EXPECT_GT(s.metadata_bytes, 0u);
  EXPECT_GT(s.index_bytes, 0u);
  EXPECT_GT(s.replica_bytes, 0u);
  EXPECT_GT(s.total(), s.metadata_bytes);
}

TEST_F(SmartStoreTest, RoutingHopsMostlyZeroForOperationMix) {
  // Figure 8 measures the routing distance over the full operation mix of
  // a metadata workload: point lookups and inserts (the vast majority of
  // metadata ops, both 1-group) plus a complex-query tail, which is how
  // "87.3%-90.6% of operations are served by one group" arises.
  trace::QueryGenerator gen(trace_, trace::QueryDistribution::kZipf, 8);
  const auto inserts = trace_.make_insert_stream(20, 812);
  int zero = 0, total = 0;
  std::size_t next_insert = 0;
  for (int i = 0; i < 200; ++i) {
    int hops;
    if (i % 10 == 9 && next_insert < inserts.size()) {
      hops = store_->insert_file(inserts[next_insert++], 0.0).routing_hops;
    } else if (i % 10 == 7) {
      const auto q = gen.gen_topk(AttrSubset::all(), 8);
      hops = store_->topk_query(q, Routing::kOffline, 0.0).stats.routing_hops;
    } else if (i % 10 == 8) {
      const auto q = gen.gen_range(
          AttrSubset({Attr::kFileSize, Attr::kModificationTime}), 0.03);
      hops = store_->range_query(q, Routing::kOffline, 0.0).stats.routing_hops;
    } else {
      const auto q = gen.gen_point(0.9);
      const auto res = store_->point_query(q, Routing::kOffline, 0.0);
      hops = res.stats.groups_visited <= 1 ? 0 : 1;
    }
    ++total;
    if (hops == 0) ++zero;
  }
  EXPECT_GT(static_cast<double>(zero) / total, 0.75);
}

TEST_F(SmartStoreTest, AddStorageUnitKeepsInvariants) {
  const UnitId nu = store_->add_storage_unit();
  EXPECT_EQ(nu, small_config().num_units);
  EXPECT_TRUE(store_->check_invariants());
  // New inserts can land anywhere; the system keeps functioning.
  const auto extra = trace_.make_insert_stream(30, 7);
  for (const auto& f : extra) store_->insert_file(f, 0.0);
  EXPECT_TRUE(store_->check_invariants());
}

TEST_F(SmartStoreTest, RemoveStorageUnitRedistributesFiles) {
  const std::size_t before = store_->total_files();
  store_->remove_storage_unit(3);
  EXPECT_EQ(store_->total_files(), before);  // files redistributed, not lost
  EXPECT_TRUE(store_->check_invariants());
  EXPECT_EQ(store_->units()[3].file_count(), 0u);
}

TEST_F(SmartStoreTest, NodeFailureMarksQueries) {
  // Crash half the units; some queries must report failure rather than
  // silently succeeding.
  for (UnitId u = 0; u < 10; ++u) store_->cluster().set_node_alive(u, false);
  int failed = 0;
  trace::QueryGenerator gen(trace_, trace::QueryDistribution::kUniform, 9);
  for (int i = 0; i < 40; ++i) {
    const auto q = gen.gen_range(AttrSubset::all(), 0.2);
    if (store_->range_query(q, Routing::kOffline, 0.0).stats.failed) ++failed;
  }
  EXPECT_GT(failed, 0);
  for (UnitId u = 0; u < 10; ++u) store_->cluster().set_node_alive(u, true);
}

TEST_F(SmartStoreTest, AutoconfigureKeepsDistinctVariants) {
  std::vector<AttrSubset> candidates{
      AttrSubset({Attr::kFileSize}),
      AttrSubset({Attr::kFileSize, Attr::kCreationTime}),
      AttrSubset({Attr::kReadBytes, Attr::kWriteBytes,
                  Attr::kAccessFrequency}),
  };
  const std::size_t kept = store_->autoconfigure(candidates);
  EXPECT_EQ(kept, store_->variants().size());
  for (const auto& v : store_->variants()) {
    EXPECT_TRUE(v.tree.built());
    // Kept variants must differ in index-unit count by > threshold.
    const double diff =
        std::abs(static_cast<double>(v.tree.num_nodes()) -
                 static_cast<double>(store_->tree().num_nodes()));
    EXPECT_GT(diff, store_->config().autoconfig_threshold *
                        static_cast<double>(store_->tree().num_nodes()));
  }
  EXPECT_TRUE(store_->check_invariants());
}

TEST_F(SmartStoreTest, LatencyAndMessagesArePositive) {
  trace::QueryGenerator gen(trace_, trace::QueryDistribution::kGauss, 10);
  const auto q = gen.gen_topk(AttrSubset::all(), 8);
  const auto res = store_->topk_query(q, Routing::kOffline, 0.0);
  EXPECT_GT(res.stats.latency_s, 0.0);
  EXPECT_GT(res.stats.messages, 0u);
  EXPECT_GE(res.stats.groups_visited, 1u);
}

// ---- filter growth -------------------------------------------------------------

/// Grows a store from empty, one insert at a time, as every routed shard
/// and replication follower is grown.
std::unique_ptr<SmartStore> grow_from_empty(
    const Config& cfg, const std::vector<FileMetadata>& files) {
  auto store = std::make_unique<SmartStore>(cfg);
  store->build({});
  for (const auto& f : files) store->insert_file(f, 0.0);
  return store;
}

TEST(SmartStoreGrowth, GrownStoreMatchesBulkloadFilters) {
  // A store built empty has no unit LSI model to route inserts by: every
  // group scores the same and the first one takes every file (a placement
  // gap of its own, see ROADMAP). With as many units as the fanout, each
  // unit is its own group, so the group that takes the files holds exactly
  // the population the sizing rule sizes a group's filter for.
  Config cfg = small_config();
  cfg.num_units = 8;
  cfg.fanout = 8;
  const auto tr = small_trace();
  SmartStore bulk(cfg);
  bulk.build(tr.files());
  const auto grown = grow_from_empty(cfg, tr.files());

  EXPECT_EQ(grown->bloom_bits(), bulk.bloom_bits());
  EXPECT_GE(grown->bloom_resizes(), 2u);
  EXPECT_EQ(bulk.bloom_resizes(), 0u);
  EXPECT_TRUE(grown->check_invariants());
  for (const auto& u : grown->units())
    EXPECT_EQ(u.name_filter().bit_count(), bulk.bloom_bits());
  for (std::size_t g : grown->tree().groups()) {
    EXPECT_EQ(grown->tree().node(g).name_filter.bit_count(), bulk.bloom_bits());
    EXPECT_EQ(grown->group_replica(g).base().name_filter.bit_count(),
              bulk.bloom_bits());
  }
  for (const auto& f : tr.files()) {
    const auto res = grown->point_query({f.name}, Routing::kOnline, 0.0);
    ASSERT_TRUE(res.found) << f.name;
    EXPECT_EQ(res.id, f.id);
  }

  // Off-line lookups of absent names stop at the filters. The sizing rule
  // keeps a group filter's false-positive rate well under 1%, so at most
  // one lookup in a hundred sends a message; filters that never grew
  // would answer "maybe" for nearly every name and send one almost every
  // time.
  constexpr int kLookups = 2000;
  int sent = 0;
  for (int i = 0; i < kLookups; ++i) {
    const auto res = grown->point_query({"/absent/" + std::to_string(i)},
                                        Routing::kOffline, 0.0);
    EXPECT_FALSE(res.found);
    if (res.stats.messages > 0) ++sent;
  }
  EXPECT_LE(sent, kLookups / 100);
}

TEST(SmartStoreGrowth, FixedGeometryNeverGrows) {
  Config cfg = small_config();
  cfg.bloom_auto_size = false;
  const auto tr = small_trace();
  const auto grown = grow_from_empty(cfg, tr.files());
  EXPECT_EQ(grown->bloom_bits(), cfg.bloom_bits);
  EXPECT_EQ(grown->bloom_resizes(), 0u);
}

TEST(SmartStoreGrowth, GrowthIsAFunctionOfThePopulation) {
  // The geometry is what build() picks for the population, at every size
  // along the way, and growth stops once deletes shrink it (it never
  // shrinks back).
  Config cfg = small_config();
  const auto tr = small_trace();
  SmartStore store(cfg);
  store.build({});
  for (std::size_t i = 0; i < tr.files().size(); ++i) {
    store.insert_file(tr.files()[i], 0.0);
    if (i % 250 != 249) continue;
    SmartStore bulk(cfg);
    bulk.build({tr.files().begin(), tr.files().begin() +
                                        static_cast<std::ptrdiff_t>(i + 1)});
    ASSERT_EQ(store.bloom_bits(), bulk.bloom_bits()) << i + 1 << " files";
  }
  const std::size_t bits = store.bloom_bits();
  for (std::size_t i = 0; i < tr.files().size() / 2; ++i)
    ASSERT_TRUE(store.erase_file(tr.files()[i].name));
  EXPECT_EQ(store.bloom_bits(), bits);
}

/// Erases every file by name, checking after each erase that exactly that
/// record left the store.
void erase_each_name(SmartStore& store, const std::vector<FileMetadata>& files) {
  std::size_t live = store.total_files();
  for (const auto& f : files) {
    ASSERT_TRUE(store.erase_file(f.name)) << f.name;
    ASSERT_EQ(store.total_files(), --live);
    for (const auto& u : store.units())
      ASSERT_EQ(u.find_by_name(f.name), nullptr) << f.name;
    ASSERT_FALSE(store.erase_file(f.name)) << f.name;
  }
  for (const auto& u : store.units()) EXPECT_EQ(u.file_count(), 0u);
  EXPECT_TRUE(store.check_invariants());
}

TEST(SmartStoreGrowth, EraseSkipsOnlyUnitsThatCannotHoldTheName) {
  // erase_file consults each unit's counting filter before its name
  // index. Saturated counters stick, so even a filter that answers
  // "maybe" for everything never hides a live name...
  const auto tr = small_trace();
  std::vector<FileMetadata> files(tr.files().begin(), tr.files().begin() + 600);
  Config saturated = small_config();
  saturated.bloom_auto_size = false;
  saturated.bloom_bits = 64;
  SmartStore tiny(saturated);
  tiny.build(files);
  erase_each_name(tiny, files);
  // ...and neither does a filter rebuilt by growth.
  const auto grown = grow_from_empty(small_config(), files);
  ASSERT_GE(grown->bloom_resizes(), 1u);
  erase_each_name(*grown, files);
}

TEST(SmartStoreEdge, EmptyStoreQueries) {
  Config cfg;
  cfg.num_units = 4;
  SmartStore store(cfg);
  store.build({});
  EXPECT_EQ(store.total_files(), 0u);
  const auto res = store.point_query({"/nothing"}, Routing::kOffline, 0.0);
  EXPECT_FALSE(res.found);
  metadata::RangeQuery rq;
  rq.dims = AttrSubset({Attr::kFileSize});
  rq.lo = {0};
  rq.hi = {100};
  EXPECT_TRUE(store.range_query(rq, Routing::kOffline, 0.0).ids.empty());
}

TEST(SmartStoreEdge, MoreUnitsThanFiles) {
  Config cfg;
  cfg.num_units = 16;
  cfg.fanout = 4;
  auto t = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 3,
                                           /*downscale=*/2000);  // ~6 files
  SmartStore store(cfg);
  store.build(t.files());
  EXPECT_TRUE(store.check_invariants());
  for (const auto& f : t.files())
    EXPECT_TRUE(store.point_query({f.name}, Routing::kOnline, 0.0).found);
}

}  // namespace
}  // namespace smartstore::core
