// End-to-end integration scenarios across the whole stack: lifecycle
// (build -> autoconfig -> churn -> reconfigure -> membership changes),
// exactness of on-line queries under churn, determinism, and
// failure-recovery properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/ground_truth.h"
#include "core/smartstore.h"
#include "trace/query_gen.h"
#include "trace/synth.h"

namespace smartstore::core {
namespace {

using metadata::Attr;
using metadata::AttrSubset;
using metadata::FileId;

Config lifecycle_config() {
  Config cfg;
  cfg.num_units = 16;
  cfg.fanout = 4;
  cfg.seed = 99;
  cfg.max_groups_per_query = 4;
  return cfg;
}

TEST(Integration, FullLifecycleKeepsInvariants) {
  auto tr = trace::SyntheticTrace::generate(trace::eecs_profile(), 1, 3, 8);
  SmartStore store(lifecycle_config());
  store.build(tr.files());
  ASSERT_TRUE(store.check_invariants());

  // Auto-configure subset variants.
  store.autoconfigure({AttrSubset({Attr::kFileSize, Attr::kCreationTime}),
                       AttrSubset({Attr::kReadBytes, Attr::kWriteBytes})});
  ASSERT_TRUE(store.check_invariants());

  // Churn: inserts and deletes interleaved.
  const auto extra = tr.make_insert_stream(120, 5);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    store.insert_file(extra[i], static_cast<double>(i));
    if (i % 3 == 2) {
      const auto& victim = tr.files()[i * 7 % tr.files().size()];
      store.erase_file(victim.name);
    }
    if (i % 40 == 39) {
      ASSERT_TRUE(store.check_invariants()) << i;
    }
  }

  // Reconfigure, then change membership.
  store.reconfigure();
  ASSERT_TRUE(store.check_invariants());
  const UnitId nu = store.add_storage_unit();
  EXPECT_EQ(nu, lifecycle_config().num_units);
  ASSERT_TRUE(store.check_invariants());
  store.remove_storage_unit(2);
  ASSERT_TRUE(store.check_invariants());

  // System still serves queries correctly after all of that.
  trace::QueryGenerator gen(tr, trace::QueryDistribution::kZipf, 17);
  const auto q = gen.gen_range(
      AttrSubset({Attr::kFileSize, Attr::kModificationTime}), 0.1);
  const auto res = store.range_query(q, Routing::kOnline, 0.0);
  EXPECT_FALSE(res.stats.failed);
}

TEST(Integration, OnlineQueriesExactUnderChurn) {
  auto tr = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 7, 8);
  SmartStore store(lifecycle_config());
  store.build(tr.files());

  auto all_files = tr.files();
  const auto extra = tr.make_insert_stream(150, 9);
  trace::QueryGenerator gen(tr, trace::QueryDistribution::kGauss, 19);
  const AttrSubset dims({Attr::kFileSize, Attr::kModificationTime});

  for (std::size_t i = 0; i < extra.size(); ++i) {
    store.insert_file(extra[i], static_cast<double>(i));
    all_files.push_back(extra[i]);
    if (i % 10 != 9) continue;
    // On-line range results must track ground truth exactly: MBRs and
    // Bloom filters are updated locally on every insert.
    auto q = gen.gen_range(dims, 0.08);
    auto got = store.range_query(q, Routing::kOnline, 0.0).ids;
    auto want = brute_force_range(all_files, q);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "after insert " << i;
    // Newly inserted file is point-findable on-line.
    EXPECT_TRUE(
        store.point_query({extra[i].name}, Routing::kOnline, 0.0).found);
  }
}

TEST(Integration, DeterministicEndToEnd) {
  auto run = [] {
    auto tr = trace::SyntheticTrace::generate(trace::hp_profile(), 1, 11, 10);
    SmartStore store(lifecycle_config());
    store.build(tr.files());
    trace::QueryGenerator gen(tr, trace::QueryDistribution::kZipf, 23);
    std::vector<FileId> sig;
    for (int i = 0; i < 30; ++i) {
      const auto q = gen.gen_topk(AttrSubset::all(), 5);
      for (FileId id : store.topk_query(q, Routing::kOffline, 0.0).ids())
        sig.push_back(id);
    }
    return sig;
  };
  EXPECT_EQ(run(), run());
}

TEST(Integration, RootReplicasSurviveSingleFailure) {
  auto tr = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 13, 8);
  SmartStore store(lifecycle_config());
  store.build(tr.files());
  const auto& reps = store.tree().root_replicas();
  ASSERT_FALSE(reps.empty());
  // Killing the unit hosting the root still leaves replicas on other units
  // (multi-mapping, Section 4.3): at least one replica is elsewhere when
  // the root has several children.
  const UnitId root_host = store.tree().node(store.tree().root_id()).mapped_unit;
  std::set<UnitId> distinct(reps.begin(), reps.end());
  if (distinct.size() > 1) {
    bool replica_elsewhere = false;
    for (UnitId r : reps)
      if (r != root_host) replica_elsewhere = true;
    EXPECT_TRUE(replica_elsewhere);
  }
}

TEST(Integration, VersionSpaceMonotoneInRatio) {
  auto tr = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 17, 10);
  double prev_space = std::numeric_limits<double>::infinity();
  for (const std::size_t ratio : {1u, 4u, 16u}) {
    Config cfg = lifecycle_config();
    cfg.version_ratio = ratio;
    // Let versions accumulate: no lazy full sync, and no filter growth
    // (its full sync would clear them as the population crosses 1376).
    cfg.lazy_update_threshold = 10.0;
    cfg.bloom_auto_size = false;
    SmartStore store(cfg);
    store.build(tr.files());
    const auto extra = tr.make_insert_stream(128, 21);
    for (std::size_t i = 0; i < extra.size(); ++i)
      store.insert_file(extra[i], static_cast<double>(i));
    const double space = store.avg_version_bytes_per_group();
    EXPECT_LT(space, prev_space) << "ratio " << ratio;
    prev_space = space;
  }
}

TEST(Integration, OfflineQueriesCheaperThanOnlineAfterBuild) {
  auto tr = trace::SyntheticTrace::generate(trace::eecs_profile(), 1, 19, 8);
  SmartStore store(lifecycle_config());
  store.build(tr.files());
  trace::QueryGenerator gen(tr, trace::QueryDistribution::kZipf, 29);
  const AttrSubset dims({Attr::kModificationTime, Attr::kReadBytes});
  std::uint64_t on_msgs = 0, off_msgs = 0;
  for (int i = 0; i < 30; ++i) {
    const auto q = gen.gen_range(dims, 0.05);
    off_msgs += store.range_query(q, Routing::kOffline, i * 1.0).stats.messages;
    on_msgs += store.range_query(q, Routing::kOnline, i * 1.0).stats.messages;
  }
  EXPECT_LT(off_msgs, on_msgs);
}

}  // namespace
}  // namespace smartstore::core
