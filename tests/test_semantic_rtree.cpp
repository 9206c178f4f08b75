// Tests for the semantic R-tree: bottom-up construction, incremental
// updates, unit admission/removal with split/merge, index-unit mapping.
#include "core/semantic_rtree.h"

#include <gtest/gtest.h>

#include <set>

#include "metadata/schema.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace smartstore::core {
namespace {

using metadata::Attr;
using metadata::FileMetadata;
using metadata::kNumAttrs;

/// Builds `n_units` units, each filled with files from one of `n_clusters`
/// attribute clusters (so grouping has real structure to find).
std::vector<StorageUnit> make_units(std::size_t n_units,
                                    std::size_t n_clusters,
                                    std::size_t files_per_unit,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<la::Vector> centers;
  for (std::size_t c = 0; c < n_clusters; ++c) {
    la::Vector v(kNumAttrs);
    for (auto& x : v) x = rng.uniform(-50, 50) * 10.0;
    centers.push_back(v);
  }
  std::vector<StorageUnit> units;
  metadata::FileId next_id = 1;
  for (std::size_t u = 0; u < n_units; ++u) {
    units.emplace_back(u, 1024, 7);
    const auto& c = centers[u % n_clusters];
    for (std::size_t i = 0; i < files_per_unit; ++i) {
      FileMetadata f;
      f.id = next_id++;
      f.name = "/u" + std::to_string(u) + "/f" + std::to_string(i);
      for (std::size_t d = 0; d < kNumAttrs; ++d)
        f.attrs[d] = c[d] + rng.gauss(0, 1.0);
      units[u].add_file(f, f.full_vector(), bloom::hash_item(f.name));
    }
  }
  return units;
}

SemanticRTree::BuildParams params(std::size_t fanout = 4) {
  SemanticRTree::BuildParams p;
  p.fanout = fanout;
  p.min_fill = 2;
  return p;
}

TEST(SemanticRTree, BuildOnAPoolEqualsTheSerialBuild) {
  const auto units = make_units(30, 5, 40, 11);
  SemanticRTree serial;
  serial.build(units, params());
  for (std::size_t workers : {1u, 3u}) {
    util::ThreadPool pool(workers);
    SemanticRTree pooled;
    pooled.build(units, params(), &pool);
    ASSERT_EQ(pooled.num_nodes(), serial.num_nodes());
    EXPECT_EQ(pooled.root_id(), serial.root_id());
    EXPECT_EQ(pooled.level_epsilons(), serial.level_epsilons());
    for (std::size_t id = 0; id < serial.num_nodes(); ++id) {
      const IndexUnit& a = pooled.node(id);
      const IndexUnit& b = serial.node(id);
      EXPECT_EQ(a.level, b.level) << id;
      EXPECT_EQ(a.parent, b.parent) << id;
      EXPECT_EQ(a.children, b.children) << id;
      EXPECT_TRUE(a.box == b.box) << id;
      EXPECT_TRUE(a.name_filter == b.name_filter) << id;
      EXPECT_EQ(a.attr_sum, b.attr_sum) << id;
      EXPECT_EQ(a.file_count, b.file_count) << id;
    }
  }
}

TEST(SemanticRTree, BuildProducesValidTree) {
  const auto units = make_units(12, 3, 20, 1);
  SemanticRTree t;
  t.build(units, params());
  ASSERT_TRUE(t.built());
  EXPECT_TRUE(t.check_invariants(units));
  EXPECT_GE(t.height(), 2);
  EXPECT_FALSE(t.groups().empty());
  EXPECT_FALSE(t.level_epsilons().empty());
}

TEST(SemanticRTree, GroupsRespectFanoutCap) {
  const auto units = make_units(20, 4, 10, 2);
  SemanticRTree t;
  t.build(units, params(4));
  for (std::size_t g : t.groups())
    EXPECT_LE(t.node(g).children.size(), 4u);
}

TEST(SemanticRTree, CorrelatedUnitsGroupTogether) {
  // 12 units from 3 clusters with fanout 4: each cluster's 4 units should
  // land in one group.
  const auto units = make_units(12, 3, 30, 3);
  SemanticRTree t;
  t.build(units, params(4));
  std::map<std::size_t, std::set<std::size_t>> cluster_groups;
  for (std::size_t u = 0; u < units.size(); ++u)
    cluster_groups[u % 3].insert(t.group_of_unit(u));
  for (const auto& [cluster, groups] : cluster_groups) {
    (void)cluster;
    EXPECT_EQ(groups.size(), 1u);
  }
}

TEST(SemanticRTree, RootCoversEverything) {
  const auto units = make_units(10, 2, 15, 4);
  SemanticRTree t;
  t.build(units, params());
  const IndexUnit& root = t.node(t.root_id());
  std::size_t files = 0;
  for (const auto& u : units) {
    files += u.file_count();
    EXPECT_TRUE(root.box.contains(u.box()));
  }
  EXPECT_EQ(root.file_count, files);
}

TEST(SemanticRTree, SingleUnitTree) {
  const auto units = make_units(1, 1, 5, 5);
  SemanticRTree t;
  t.build(units, params());
  ASSERT_TRUE(t.built());
  EXPECT_EQ(t.groups().size(), 1u);
  EXPECT_EQ(t.group_of_unit(0), t.root_id());
  EXPECT_TRUE(t.check_invariants(units));
}

TEST(SemanticRTree, OnFileInsertedPropagatesUp) {
  auto units = make_units(8, 2, 10, 6);
  SemanticRTree t;
  t.build(units, params());

  FileMetadata f;
  f.id = 9999;
  f.name = "/new/file";
  for (std::size_t d = 0; d < kNumAttrs; ++d) f.attrs[d] = 1e5;  // far away
  const UnitId target = 0;
  units[target].add_file(f, f.full_vector(), bloom::hash_item(f.name));
  t.on_file_inserted(target, f.full_vector(), f.full_vector(),
                     bloom::hash_item(f.name));

  // Every ancestor (group .. root) must now cover the point and report the
  // name as present.
  std::size_t node = t.group_of_unit(target);
  int levels = 0;
  while (node != kInvalidIndex) {
    EXPECT_TRUE(t.node(node).box.contains(f.full_vector()));
    EXPECT_TRUE(t.node(node).name_filter.may_contain(f.name));
    node = t.node(node).parent;
    ++levels;
  }
  EXPECT_GE(levels, 2);
  EXPECT_TRUE(t.check_invariants(units));
}

TEST(SemanticRTree, OnFileRemovedUpdatesCounts) {
  auto units = make_units(6, 2, 10, 7);
  SemanticRTree t;
  t.build(units, params());
  const std::size_t before = t.node(t.root_id()).file_count;
  const UnitId u = 2;
  const FileMetadata victim = units[u].files().front();
  const auto removed =
      units[u].remove_file(victim.id, victim.name,
                           bloom::hash_item(victim.name));
  ASSERT_TRUE(removed.has_value());
  t.on_file_removed(u, removed->full_vector());
  EXPECT_EQ(t.node(t.root_id()).file_count, before - 1);
  EXPECT_TRUE(t.check_invariants(units));
}

TEST(SemanticRTree, AdmitUnitJoinsCorrelatedGroup) {
  auto units = make_units(12, 3, 20, 8);
  SemanticRTree t;
  t.build(units, params(6));

  // New unit cloned from cluster 1's distribution.
  util::Rng rng(100);
  const UnitId nu = units.size();
  units.emplace_back(nu, 1024, 7);
  const auto& twin = units[1];  // cluster 1 member
  for (std::size_t i = 0; i < 10; ++i) {
    FileMetadata f;
    f.id = 100000 + i;
    f.name = "/nu/f" + std::to_string(i);
    const auto& src = twin.files()[i % twin.file_count()];
    for (std::size_t d = 0; d < kNumAttrs; ++d)
      f.attrs[d] = src.attrs[d] + rng.gauss(0, 0.5);
    units[nu].add_file(f, f.full_vector(), bloom::hash_item(f.name));
  }
  const std::size_t g = t.admit_unit(units, nu);
  EXPECT_EQ(g, t.group_of_unit(nu));
  // The admitted group's existing members must all come from the new
  // unit's cluster (cluster 1): several groups of that cluster may tie at
  // similarity ~1, so exact group identity is not required.
  for (std::size_t member : t.group_members(g)) {
    if (member == nu) continue;
    EXPECT_EQ(member % 3, 1u) << "joined a group of a foreign cluster";
  }
  EXPECT_TRUE(t.check_invariants(units));
}

TEST(SemanticRTree, AdmitManyUnitsForcesSplits) {
  auto units = make_units(4, 1, 8, 9);
  SemanticRTree t;
  t.build(units, params(4));
  // Admitting 12 more similar units must split groups without breaking
  // invariants.
  util::Rng rng(200);
  for (int round = 0; round < 12; ++round) {
    const UnitId nu = units.size();
    units.emplace_back(nu, 1024, 7);
    for (int i = 0; i < 8; ++i) {
      FileMetadata f;
      f.id = 200000 + round * 100 + i;
      f.name = "/r" + std::to_string(round) + "/f" + std::to_string(i);
      for (std::size_t d = 0; d < kNumAttrs; ++d)
        f.attrs[d] = rng.uniform(-100, 100);
      units[nu].add_file(f, f.full_vector(), bloom::hash_item(f.name));
    }
    t.admit_unit(units, nu);
    ASSERT_TRUE(t.check_invariants(units)) << "round " << round;
  }
  for (std::size_t g : t.groups())
    EXPECT_LE(t.node(g).children.size(), 4u);
}

TEST(SemanticRTree, RemoveUnitMergesUnderfullGroups) {
  auto units = make_units(12, 3, 10, 10);
  SemanticRTree t;
  t.build(units, params(4));
  // Remove units until groups must merge.
  for (UnitId u = 0; u < 8; ++u) {
    t.remove_unit(units, u);
    ASSERT_TRUE(t.check_invariants(units)) << "after removing " << u;
  }
  // The remaining 4 units are still reachable.
  std::set<std::size_t> remaining_groups;
  for (UnitId u = 8; u < 12; ++u) {
    EXPECT_NE(t.group_of_unit(u), kInvalidIndex);
    remaining_groups.insert(t.group_of_unit(u));
  }
  EXPECT_GE(remaining_groups.size(), 1u);
}

TEST(SemanticRTree, RecomputeAllRestoresSums) {
  auto units = make_units(8, 2, 10, 11);
  SemanticRTree t;
  t.build(units, params());
  // Mutate a unit directly (bypassing on_file_inserted), then recompute.
  FileMetadata f;
  f.id = 5555;
  f.name = "/direct/f";
  for (std::size_t d = 0; d < kNumAttrs; ++d) f.attrs[d] = 3.0;
  units[3].add_file(f, f.full_vector(), bloom::hash_item(f.name));
  EXPECT_FALSE(t.check_invariants(units));  // counts stale
  t.recompute_all(units);
  EXPECT_TRUE(t.check_invariants(units));
}

TEST(SemanticRTree, MappingAssignsEveryIndexUnit) {
  auto units = make_units(16, 4, 10, 12);
  SemanticRTree t;
  t.build(units, params(4));
  util::Rng rng(7);
  t.map_index_units(rng);

  std::set<UnitId> used;
  std::size_t mapped = 0;
  std::vector<std::size_t> stack{t.root_id()};
  while (!stack.empty()) {
    const auto id = stack.back();
    stack.pop_back();
    const IndexUnit& n = t.node(id);
    EXPECT_NE(n.mapped_unit, kInvalidIndex);
    EXPECT_LT(n.mapped_unit, units.size());
    used.insert(n.mapped_unit);
    ++mapped;
    if (n.level > 1)
      for (auto c : n.children) stack.push_back(c);
  }
  // "In practice, the number of storage units is generally much larger
  // than that of index units, and thus each index unit can be mapped to a
  // different storage unit."
  if (mapped <= units.size()) {
    EXPECT_EQ(used.size(), mapped);
  }
}

TEST(SemanticRTree, RootMultiMappingCoversSubtrees) {
  auto units = make_units(16, 4, 10, 13);
  SemanticRTree t;
  t.build(units, params(4));
  util::Rng rng(8);
  t.map_index_units(rng);
  const auto& reps = t.root_replicas();
  ASSERT_FALSE(reps.empty());
  if (t.node(t.root_id()).level > 1) {
    EXPECT_EQ(reps.size(), t.node(t.root_id()).children.size());
  }
  for (UnitId r : reps) EXPECT_LT(r, units.size());
}

TEST(SemanticRTree, HostedBytesSumToTotal) {
  auto units = make_units(12, 3, 10, 14);
  SemanticRTree t;
  t.build(units, params());
  util::Rng rng(9);
  t.map_index_units(rng);
  std::size_t hosted = 0;
  for (UnitId u = 0; u < units.size(); ++u) hosted += t.hosted_bytes(u);
  EXPECT_GE(hosted, t.total_index_bytes());  // >= because of root replicas
  EXPECT_GT(t.total_index_bytes(), 0u);
}

TEST(SemanticRTree, SubsetDimsBuildDiffers) {
  auto units = make_units(16, 4, 15, 15);
  SemanticRTree full, sub;
  full.build(units, params(4));
  auto p = params(4);
  p.lsi_dims = {0, 1};  // size + ctime only
  sub.build(units, p);
  EXPECT_TRUE(full.check_invariants(units));
  EXPECT_TRUE(sub.check_invariants(units));
  // restrict_dims honors the predicate.
  la::Vector v(kNumAttrs, 1.0);
  v[0] = 42;
  EXPECT_EQ(sub.restrict_dims(v).size(), 2u);
  EXPECT_DOUBLE_EQ(sub.restrict_dims(v)[0], 42.0);
  EXPECT_EQ(full.restrict_dims(v).size(), kNumAttrs);
}

}  // namespace
}  // namespace smartstore::core
