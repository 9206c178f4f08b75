// Tests for the B+-tree: ordering, range scans, deletion rebalancing, and
// randomized property tests against a reference std::set.
#include "btree/bplus_tree.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace smartstore::btree {
namespace {

using Tree = BPlusTree<double, std::uint64_t, 8>;  // small order: deep trees

TEST(BPlusTree, EmptyTree) {
  Tree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 0u);
  EXPECT_FALSE(t.contains(1.0, 1));
  EXPECT_FALSE(t.erase(1.0, 1));
  EXPECT_TRUE(t.check_invariants());
}

TEST(BPlusTree, InsertAndContains) {
  Tree t;
  EXPECT_TRUE(t.insert(5.0, 50));
  EXPECT_TRUE(t.insert(3.0, 30));
  EXPECT_TRUE(t.insert(8.0, 80));
  EXPECT_TRUE(t.contains(5.0, 50));
  EXPECT_TRUE(t.contains(3.0, 30));
  EXPECT_FALSE(t.contains(5.0, 51));
  EXPECT_FALSE(t.contains(4.0, 50));
  EXPECT_EQ(t.size(), 3u);
}

TEST(BPlusTree, DuplicateCompositeRejected) {
  Tree t;
  EXPECT_TRUE(t.insert(1.0, 10));
  EXPECT_FALSE(t.insert(1.0, 10));
  EXPECT_EQ(t.size(), 1u);
}

TEST(BPlusTree, DuplicateKeysDifferentValuesAccepted) {
  Tree t;
  for (std::uint64_t v = 0; v < 100; ++v) EXPECT_TRUE(t.insert(7.0, v));
  EXPECT_EQ(t.size(), 100u);
  std::size_t count = 0;
  t.range_scan(7.0, 7.0, [&](double, std::uint64_t) { ++count; });
  EXPECT_EQ(count, 100u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(BPlusTree, RangeScanInclusiveBounds) {
  Tree t;
  for (int i = 0; i < 50; ++i) t.insert(static_cast<double>(i), i);
  std::vector<double> keys;
  t.range_scan(10.0, 20.0, [&](double k, std::uint64_t) { keys.push_back(k); });
  ASSERT_EQ(keys.size(), 11u);
  EXPECT_DOUBLE_EQ(keys.front(), 10.0);
  EXPECT_DOUBLE_EQ(keys.back(), 20.0);
  for (std::size_t i = 1; i < keys.size(); ++i)
    EXPECT_LE(keys[i - 1], keys[i]);
}

TEST(BPlusTree, RangeScanEmptyAndInverted) {
  Tree t;
  for (int i = 0; i < 10; ++i) t.insert(static_cast<double>(i), i);
  std::size_t n = 0;
  t.range_scan(100.0, 200.0, [&](double, std::uint64_t) { ++n; });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(t.range_scan(5.0, 1.0, [](double, std::uint64_t) {}), 0u);
}

TEST(BPlusTree, ForEachIsSorted) {
  Tree t;
  util::Rng rng(1);
  for (int i = 0; i < 500; ++i)
    t.insert(rng.uniform(-100, 100), static_cast<std::uint64_t>(i));
  double prev = -1e18;
  t.for_each([&](double k, std::uint64_t) {
    EXPECT_GE(k, prev);
    prev = k;
  });
}

TEST(BPlusTree, EraseLeafSimple) {
  Tree t;
  for (int i = 0; i < 5; ++i) t.insert(static_cast<double>(i), i);
  EXPECT_TRUE(t.erase(2.0, 2));
  EXPECT_FALSE(t.contains(2.0, 2));
  EXPECT_EQ(t.size(), 4u);
  EXPECT_FALSE(t.erase(2.0, 2));
  EXPECT_TRUE(t.check_invariants());
}

TEST(BPlusTree, EraseToEmpty) {
  Tree t;
  for (int i = 0; i < 100; ++i) t.insert(static_cast<double>(i), i);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(t.erase(static_cast<double>(i), i));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.height(), 0u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(BPlusTree, HeightGrowsLogarithmically) {
  Tree t;
  for (int i = 0; i < 4096; ++i) t.insert(static_cast<double>(i), i);
  // Order 8: height should be around log_4..8(4096) = 4..6, certainly < 10.
  EXPECT_GE(t.height(), 4u);
  EXPECT_LT(t.height(), 10u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(BPlusTree, StringKeys) {
  BPlusTree<std::string, std::uint64_t, 16> t;
  t.insert("/home/alice/a.txt", 1);
  t.insert("/home/bob/b.txt", 2);
  t.insert("/var/log/syslog", 3);
  EXPECT_TRUE(t.contains("/home/bob/b.txt", 2));
  std::size_t n = 0;
  t.range_scan("/home", "/home~", [&](const std::string&, std::uint64_t) {
    ++n;
  });
  EXPECT_EQ(n, 2u);
}

TEST(BPlusTree, ByteSizeGrowsWithContent) {
  Tree t;
  const std::size_t empty = t.byte_size();
  for (int i = 0; i < 1000; ++i) t.insert(static_cast<double>(i), i);
  EXPECT_GT(t.byte_size(), empty);
  EXPECT_GT(t.leaf_count(), 0u);
  EXPECT_GT(t.internal_count(), 0u);
}

// Randomized differential test against std::set<pair>.
class BtreeRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BtreeRandomTest, MatchesReferenceUnderRandomOps) {
  util::Rng rng(GetParam());
  Tree t;
  std::set<std::pair<double, std::uint64_t>> ref;

  for (int op = 0; op < 4000; ++op) {
    const double key = static_cast<double>(rng.uniform_int(0, 200));
    const std::uint64_t val = rng.uniform_u64(50);
    if (rng.bernoulli(0.6)) {
      const bool inserted = t.insert(key, val);
      const bool ref_inserted = ref.insert({key, val}).second;
      ASSERT_EQ(inserted, ref_inserted) << "op " << op;
    } else {
      const bool erased = t.erase(key, val);
      const bool ref_erased = ref.erase({key, val}) > 0;
      ASSERT_EQ(erased, ref_erased) << "op " << op;
    }
    if (op % 500 == 0) {
      ASSERT_TRUE(t.check_invariants()) << "op " << op;
    }
  }
  ASSERT_EQ(t.size(), ref.size());
  ASSERT_TRUE(t.check_invariants());

  // Full scan agrees.
  std::vector<std::pair<double, std::uint64_t>> scanned;
  t.for_each([&](double k, std::uint64_t v) { scanned.emplace_back(k, v); });
  std::vector<std::pair<double, std::uint64_t>> expect(ref.begin(), ref.end());
  ASSERT_EQ(scanned, expect);

  // Random range scans agree.
  for (int q = 0; q < 50; ++q) {
    double lo = static_cast<double>(rng.uniform_int(0, 200));
    double hi = static_cast<double>(rng.uniform_int(0, 200));
    if (hi < lo) std::swap(lo, hi);
    std::vector<std::pair<double, std::uint64_t>> got;
    t.range_scan(lo, hi,
                 [&](double k, std::uint64_t v) { got.emplace_back(k, v); });
    std::vector<std::pair<double, std::uint64_t>> want;
    for (const auto& e : ref)
      if (e.first >= lo && e.first <= hi) want.push_back(e);
    ASSERT_EQ(got, want) << "range [" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BtreeRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

}  // namespace
}  // namespace smartstore::btree
