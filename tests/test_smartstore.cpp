// End-to-end tests for the SmartStore facade: build, queries vs ground
// truth, versioning/staleness behavior, reconfiguration, failure injection,
// automatic configuration, space accounting.
#include "core/smartstore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

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
  ASSERT_TRUE(store_->erase_file(f.name));
  EXPECT_EQ(store_->total_files(), trace_.files().size() - 1);
  EXPECT_FALSE(store_->point_query({f.name}, Routing::kOffline, 0.0).found);
  EXPECT_FALSE(store_->erase_file(f.name));
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
  const auto s = store_->introspect(store_->last_commit_seq()).avg_space;
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

// ---- serving vs simulating -----------------------------------------------------

/// One operation's answer and counts: everything it reports but time.
struct OpRecord {
  bool found = false;  ///< point: found; erase: erased
  FileId id = 0;
  UnitId unit = kInvalidIndex;
  bool first_try = false;
  std::vector<FileId> ids;
  std::vector<std::pair<double, FileId>> hits;
  std::uint64_t messages = 0;
  std::uint64_t hops = 0;
  int routing_hops = 0;
  std::size_t groups_visited = 0;
  std::size_t records_scanned = 0;
  bool failed = false;
  bool operator==(const OpRecord&) const = default;
};

/// Runs one fixed single-threaded stream on `store` — inserts, erases, a
/// unit admission and a unit removal, and point, range and top-k queries
/// in both routings — and records every operation. The virtual time the
/// operations report is summed into `virtual_s`.
std::vector<OpRecord> run_op_stream(SmartStore& store,
                                    const trace::SyntheticTrace& trace,
                                    double& virtual_s) {
  std::vector<OpRecord> out;
  auto note = [&](OpRecord r, const QueryStats& s) {
    r.messages = s.messages;
    r.hops = s.hops;
    r.routing_hops = s.routing_hops;
    r.groups_visited = s.groups_visited;
    r.records_scanned = s.records_scanned;
    r.failed = s.failed;
    virtual_s += s.latency_s + s.version_check_s;
    out.push_back(std::move(r));
  };
  trace::QueryGenerator gen(trace, trace::QueryDistribution::kGauss, 11);
  const auto dims = AttrSubset({Attr::kFileSize, Attr::kModificationTime});
  const auto extra = trace.make_insert_stream(240, 5);
  double now = 0.0;
  for (std::size_t i = 0; i < extra.size(); ++i) {
    now += 1e-3;
    note({}, store.insert_file(extra[i], now));
    if (i % 20 == 19) {
      OpRecord erased;
      erased.found = store.erase_file(extra[i - 10].name);
      out.push_back(erased);
      erased.found = store.erase_file(trace.files()[i * 7].name);
      out.push_back(erased);
    }
    if (i == 120) {
      store.add_storage_unit();
      store.remove_storage_unit(3);
    }
    if (i % 6 != 0) continue;
    for (const Routing routing : {Routing::kOnline, Routing::kOffline}) {
      now += 1e-3;
      const auto p = store.point_query(gen.gen_point(), routing, now);
      OpRecord pr;
      pr.found = p.found;
      pr.id = p.id;
      pr.unit = p.unit;
      pr.first_try = p.first_try;
      note(std::move(pr), p.stats);
      const auto r = store.range_query(gen.gen_range(dims, 0.1), routing, now);
      OpRecord rr;
      rr.ids = r.ids;
      note(std::move(rr), r.stats);
      const auto t = store.topk_query(gen.gen_topk(dims, 8), routing, now);
      OpRecord tr;
      tr.hits = t.hits;
      note(std::move(tr), t.stats);
    }
  }
  return out;
}

TEST(SmartStoreServe, ServingCountsExactlyWhatSimulationCounts) {
  const auto trace = small_trace();
  SmartStore simulating(small_config());
  simulating.build(trace.files());
  SmartStore serving(small_config());
  serving.serve();  // before build(): the choice outlives it
  serving.build(trace.files());

  // One stream after the other on this thread: each store then draws its
  // home units from the same per-thread stream.
  double simulated_s = 0.0, served_s = 0.0;
  const std::vector<OpRecord> expected =
      run_op_stream(simulating, trace, simulated_s);
  const std::vector<OpRecord> got = run_op_stream(serving, trace, served_s);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "operation " << i;
  EXPECT_GT(simulated_s, 0.0);
  EXPECT_EQ(served_s, 0.0);  // a serving core reports no virtual time

  // The stream exercised what it is meant to pin.
  std::size_t messages = 0, found = 0, hops = 0;
  for (const OpRecord& r : got) {
    messages += r.messages;
    found += r.found ? 1 : 0;
    hops += static_cast<std::size_t>(r.routing_hops);
  }
  EXPECT_GT(messages, 0u);
  EXPECT_GT(found, 0u);
  EXPECT_GT(hops, 0u);
  EXPECT_TRUE(serving.check_invariants());
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

TEST(SmartStoreEdge, ConstantAttributesStillPlaceEveryFile) {
  // A single file, or files whose attributes are all equal, standardize to
  // zero: no LSI model fits, and placement must still put every file on a
  // unit (it used to read the model's missing coordinates and crash).
  for (std::size_t n : {1u, 3u}) {
    std::vector<FileMetadata> files(n);
    for (std::size_t i = 0; i < n; ++i) {
      files[i].id = i + 1;
      files[i].name = "/same/f" + std::to_string(i);
    }
    Config cfg;
    cfg.num_units = 4;
    cfg.fanout = 2;
    SmartStore store(cfg);
    store.build(files);
    std::size_t placed = 0;
    for (const auto& u : store.units()) placed += u.file_count();
    EXPECT_EQ(placed, n);
    EXPECT_TRUE(store.check_invariants());
    for (const auto& f : files)
      EXPECT_TRUE(store.point_query({f.name}, Routing::kOnline, 0.0).found);
  }
}

// ---- the group bank and the unit columns -----------------------------------

/// The group bank (every replica's union, bit-sliced) is patched or rebuilt
/// on every path that changes a replica, the group list or the filter
/// geometry; check_invariants compares each member with the walk over the
/// replica's base filter and sealed digests.
TEST(SmartStoreBank, FollowsEveryReplicaChange) {
  const auto tr = small_trace();
  const auto& files = tr.files();
  SmartStore store(small_config());
  store.build({files.begin(), files.begin() + 300});
  ASSERT_TRUE(store.check_invariants());
  std::unordered_map<std::size_t, std::size_t> base_counts;
  for (std::size_t g : store.tree().groups())
    base_counts[g] = store.group_replica(g).base().file_count;

  // Inserts seal versions, trip lazy full syncs and grow the filters.
  bool sealed = false;
  for (std::size_t i = 300; i < 1200; ++i) {
    store.insert_file(files[i]);
    for (std::size_t g : store.tree().groups())
      sealed |= !store.group_replica(g).versions().empty();
    if (i % 50 == 0) {
      ASSERT_TRUE(store.check_invariants()) << "insert " << i;
    }
  }
  EXPECT_TRUE(sealed);
  EXPECT_GE(store.bloom_resizes(), 1u);
  bool synced = false;
  for (std::size_t g : store.tree().groups())
    synced |= base_counts.count(g) &&
              store.group_replica(g).base().file_count != base_counts[g];
  EXPECT_TRUE(synced);
  ASSERT_TRUE(store.check_invariants());

  for (std::size_t i = 0; i < 100; ++i)
    ASSERT_TRUE(store.erase_file(files[i * 3].name));
  ASSERT_TRUE(store.check_invariants());
  store.add_storage_unit();
  ASSERT_TRUE(store.check_invariants());
  store.remove_storage_unit(3);
  ASSERT_TRUE(store.check_invariants());
  store.reconfigure();
  ASSERT_TRUE(store.check_invariants());
  // Off-line lookups still find what is there, through the bank.
  std::size_t found = 0;
  for (std::size_t i = 1000; i < 1200; ++i)
    found += store.point_query({files[i].name}, Routing::kOffline, 0.0).found;
  EXPECT_GT(found, 180u);
}

/// After deletes from the first, a middle and the last position of a
/// unit, every scan path still finds each record, the ones a swap-remove
/// moved included: routed (on-line, exact) range, pinned range, pinned
/// top-k and the dump.
TEST(SmartStoreColumns, ScansFindTheRecordsASwapRemoveMoved) {
  std::vector<FileMetadata> files;
  for (int i = 1; i <= 24; ++i) {
    FileMetadata f;
    f.id = static_cast<FileId>(i);
    f.name = "/c/f" + std::to_string(i);
    f.set_attr(Attr::kFileSize, 10.0 * i);
    f.set_attr(Attr::kCreationTime, 1000.0 - 7.0 * i);
    f.set_attr(Attr::kModificationTime, (i * 37) % 11);
    files.push_back(f);
  }
  Config cfg;
  cfg.num_units = 2;
  cfg.fanout = 2;
  SmartStore store(cfg);
  store.build(files);
  std::vector<FileMetadata> live = files;
  auto all_found = [&] {
    const AttrSubset dims({Attr::kFileSize, Attr::kCreationTime});
    const std::uint64_t seq = store.last_commit_seq();
    const auto dump = store.snapshot_dump(seq);
    if (dump.size() != live.size()) return false;
    for (const FileMetadata& f : live) {
      metadata::RangeQuery rq;
      rq.dims = dims;
      rq.lo = {f.attr(Attr::kFileSize), f.attr(Attr::kCreationTime)};
      rq.hi = rq.lo;
      const auto routed = store.range_query(rq, Routing::kOnline, 0.0).ids;
      const auto pinned = store.snapshot_range_query(rq, seq).ids;
      if (routed != std::vector<FileId>{f.id} || pinned != routed) return false;
      metadata::TopKQuery tq;
      tq.dims = dims;
      tq.point = rq.lo;
      tq.k = 1;
      const auto top = store.snapshot_topk_query(tq, seq).hits;
      if (top.size() != 1 || top[0].first != 0.0 || top[0].second != f.id)
        return false;
    }
    return true;
  };
  ASSERT_TRUE(all_found());
  const StorageUnit& unit = store.units()[0];
  ASSERT_GE(unit.file_count(), 4u);
  for (const char* where : {"first", "middle", "last"}) {
    const std::size_t n = unit.file_count();
    const std::size_t pos = where[0] == 'f' ? 0 : where[0] == 'm' ? n / 2 : n - 1;
    const FileMetadata victim = unit.files()[pos];
    ASSERT_TRUE(store.erase_file(victim.name)) << where;
    live.erase(std::find_if(live.begin(), live.end(), [&](const FileMetadata& f) {
      return f.id == victim.id;
    }));
    EXPECT_TRUE(all_found()) << "after deleting the " << where << " record";
    EXPECT_TRUE(store.check_invariants());
  }
}

// ---- exact reads at a pinned seq --------------------------------------------

/// One version of a record in the test's own MVCC reference: the seq it
/// was added at (0 for the bulk build) and the seq it was deleted at (0
/// while live).
struct Version {
  FileMetadata file;
  std::uint64_t added = 0;
  std::uint64_t deleted = 0;
};

/// The reference visibility rule, in (id, name) order like snapshot_dump.
std::vector<FileMetadata> visible_at(const std::vector<Version>& history,
                                     std::uint64_t seq) {
  std::vector<FileMetadata> out;
  for (const Version& v : history)
    if (v.added <= seq && (v.deleted == 0 || seq < v.deleted))
      out.push_back(v.file);
  std::sort(out.begin(), out.end(),
            [](const FileMetadata& a, const FileMetadata& b) {
              return a.id != b.id ? a.id < b.id : a.name < b.name;
            });
  return out;
}

bool same_records(const std::vector<FileMetadata>& a,
                  const std::vector<FileMetadata>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const FileMetadata& x, const FileMetadata& y) {
                      return x.id == y.id && x.name == y.name &&
                             x.attrs == y.attrs;
                    });
}

TEST(SmartStoreExact, ScansAtPinnedSeqsMatchTheVisibilityReference) {
  const auto tr = small_trace();
  SmartStore store(small_config());
  store.build(tr.files());
  std::vector<Version> history;
  std::unordered_map<std::string, std::size_t> live;  // name -> version
  for (const auto& f : tr.files()) {
    live[f.name] = history.size();
    history.push_back({f, 0, 0});
  }
  // The first pin is taken before any mutation, so it keeps every
  // tombstone the history makes: each later pin sees its own past.
  std::vector<std::shared_ptr<void>> pins;
  std::vector<std::uint64_t> seqs(1);
  pins.push_back(store.pin_snapshot(&seqs[0]));

  auto insert = [&](const FileMetadata& f) {
    store.insert_file(f, 0.0);
    live[f.name] = history.size();
    history.push_back({f, store.last_commit_seq(), 0});
  };
  std::vector<FileMetadata> erased;
  auto erase = [&](const std::string& name) {
    const auto it = live.find(name);
    ASSERT_NE(it, live.end()) << name;
    ASSERT_TRUE(store.erase_file(name)) << name;
    history[it->second].deleted = store.last_commit_seq();
    erased.push_back(history[it->second].file);
    live.erase(it);
  };
  const auto extra = tr.make_insert_stream(240, 17);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    insert(extra[i]);
    if (i % 3 == 1) erase(tr.files()[i * 7 % tr.files().size()].name);
    if (i % 5 == 4) erase(extra[i - 2].name);
    if (i % 40 == 20) {
      // A deleted name comes back under a new id: at one seq its old
      // version is visible, at a later one the new version.
      FileMetadata again = erased.back();
      again.id += 1000000;
      insert(again);
    }
    if (i % 40 == 39) {
      seqs.emplace_back();
      pins.push_back(store.pin_snapshot(&seqs.back()));
    }
  }
  ASSERT_EQ(seqs.size(), 7u);
  ASSERT_GT(store.tombstone_count(), 0u);

  trace::QueryGenerator gen(tr, trace::QueryDistribution::kZipf, 21);
  const AttrSubset range_dims({Attr::kFileSize, Attr::kModificationTime});
  for (const std::uint64_t seq : seqs) {
    SCOPED_TRACE("seq " + std::to_string(seq));
    const std::vector<FileMetadata> visible = visible_at(history, seq);
    EXPECT_TRUE(same_records(store.snapshot_dump(seq), visible));
    EXPECT_EQ(store.introspect(seq).files, visible.size());

    // Names live now, names deleted at some point, never-created names.
    std::vector<std::string> names = {"/never/created/1", "/never/created/2"};
    for (std::size_t i = 0; i < erased.size(); i += 9)
      names.push_back(erased[i].name);
    for (std::size_t i = 0; i < extra.size(); i += 23)
      names.push_back(extra[i].name);
    for (const std::string& name : names) {
      const auto want = std::find_if(
          visible.begin(), visible.end(),
          [&](const FileMetadata& f) { return f.name == name; });
      const PointResult got = store.snapshot_point_query({name}, seq);
      ASSERT_EQ(got.found, want != visible.end()) << name;
      if (got.found) {
        EXPECT_EQ(got.id, want->id) << name;
      }
    }

    for (int i = 0; i < 6; ++i) {
      const auto rq = gen.gen_range(range_dims, 0.2);
      std::vector<FileId> want = brute_force_range(visible, rq);
      std::sort(want.begin(), want.end());
      EXPECT_EQ(store.snapshot_range_query(rq, seq).ids, want)
          << "range " << i;

      const auto tq = gen.gen_topk(AttrSubset::all(), 8);
      const auto want_k = brute_force_topk(visible, store.standardizer(), tq);
      const auto got_k = store.snapshot_topk_query(tq, seq).hits;
      ASSERT_EQ(got_k.size(), want_k.size()) << "top-k " << i;
      for (std::size_t r = 0; r < want_k.size(); ++r) {
        EXPECT_NEAR(got_k[r].first, want_k[r].first, 1e-9) << "rank " << r;
        EXPECT_EQ(got_k[r].second, want_k[r].second) << "rank " << r;
      }
    }
  }
  // At the latest seq an on-line routed range query, which tests records
  // with the same predicate, returns exactly the exact scan's ids.
  for (int i = 0; i < 6; ++i) {
    const auto rq = gen.gen_range(range_dims, 0.2);
    std::vector<FileId> routed =
        store.range_query(rq, Routing::kOnline, 0.0).ids;
    std::sort(routed.begin(), routed.end());
    EXPECT_EQ(routed,
              store.snapshot_range_query(rq, store.last_commit_seq()).ids)
        << "range " << i;
  }
}

TEST(SmartStoreExact, PinnedScansStayBitIdenticalUnderAWriter) {
  const auto tr = small_trace();
  SmartStore store(small_config());
  store.build(tr.files());
  std::uint64_t seq = 0;
  const auto pin = store.pin_snapshot(&seq);

  trace::QueryGenerator gen(tr, trace::QueryDistribution::kZipf, 22);
  const auto rq =
      gen.gen_range(AttrSubset({Attr::kFileSize, Attr::kReadBytes}), 0.2);
  const auto tq = gen.gen_topk(AttrSubset::all(), 16);
  // Names the writer deletes: their versions at `seq` must stay visible.
  const std::string doomed = tr.files()[1].name;
  const auto dump = store.snapshot_dump(seq);
  const auto range = store.snapshot_range_query(rq, seq).ids;
  const auto topk = store.snapshot_topk_query(tq, seq).hits;
  const auto point = store.snapshot_point_query({doomed}, seq);
  ASSERT_TRUE(point.found);

  const auto extra = tr.make_insert_stream(150, 23);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::size_t i = 0; i < extra.size(); ++i) {
      store.insert_file(extra[i], 0.0);
      store.erase_file(tr.files()[2 * i + 1].name);
    }
    done.store(true);
  });
  int rounds = 0;
  bool stable = true;
  for (; stable && (!done.load() || rounds < 3); ++rounds) {
    const PointResult p = store.snapshot_point_query({doomed}, seq);
    stable = same_records(store.snapshot_dump(seq), dump) &&
             store.snapshot_range_query(rq, seq).ids == range &&
             store.snapshot_topk_query(tq, seq).hits == topk && p.found &&
             p.id == point.id && store.introspect(seq).files == dump.size();
  }
  writer.join();
  EXPECT_TRUE(stable) << "scan " << rounds << " at seq " << seq << " moved";
  EXPECT_GE(store.tombstone_count(), extra.size());
  EXPECT_EQ(store.total_files(), tr.files().size());
}

}  // namespace
}  // namespace smartstore::core
