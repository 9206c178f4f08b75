// Tests for the Bloom filter substrate: no false negatives, bounded false
// positives at the paper's 1024-bit / k=7 configuration, hierarchy unions,
// counting-filter deletions.
#include "bloom/bloom_filter.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.h"

namespace smartstore::bloom {
namespace {

std::vector<std::string> make_names(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back("/u" + std::to_string(rng.uniform_u64(100)) + "/f" +
                  std::to_string(i) + "_" + std::to_string(rng.next_u64()));
  }
  return out;
}

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bf(1024, 7);
  const auto names = make_names(80, 1);
  for (const auto& n : names) bf.insert(n);
  for (const auto& n : names) EXPECT_TRUE(bf.may_contain(n));
}

TEST(BloomFilter, FalsePositiveRateAtPaperConfig) {
  // ~100 items in 1024 bits with k=7: theoretical FPP ~ 1.5%; allow slack.
  BloomFilter bf(1024, 7);
  const auto inserted = make_names(100, 2);
  for (const auto& n : inserted) bf.insert(n);
  const auto probes = make_names(5000, 3);
  std::size_t fp = 0;
  for (const auto& p : probes)
    if (bf.may_contain(p + "#absent")) ++fp;
  EXPECT_LT(static_cast<double>(fp) / 5000.0, 0.05);
}

TEST(BloomFilter, EmptyFilterRejectsEverything) {
  BloomFilter bf(1024, 7);
  for (const auto& n : make_names(100, 4)) EXPECT_FALSE(bf.may_contain(n));
  EXPECT_EQ(bf.popcount(), 0u);
}

TEST(BloomFilter, MergeIsUnion) {
  BloomFilter a(1024, 7), b(1024, 7);
  const auto na = make_names(40, 5);
  const auto nb = make_names(40, 6);
  for (const auto& n : na) a.insert(n);
  for (const auto& n : nb) b.insert(n);
  a.merge(b);
  for (const auto& n : na) EXPECT_TRUE(a.may_contain(n));
  for (const auto& n : nb) EXPECT_TRUE(a.may_contain(n));
}

TEST(BloomFilter, HierarchicalUnionPropagatesPositives) {
  // Three "leaf" filters unioned into a parent, as in Figure 4.
  BloomFilter leaf1(1024, 7), leaf2(1024, 7), leaf3(1024, 7);
  leaf1.insert("/a/1");
  leaf2.insert("/b/2");
  leaf3.insert("/c/3");
  BloomFilter parent(1024, 7);
  parent.merge(leaf1);
  parent.merge(leaf2);
  parent.merge(leaf3);
  EXPECT_TRUE(parent.may_contain("/a/1"));
  EXPECT_TRUE(parent.may_contain("/b/2"));
  EXPECT_TRUE(parent.may_contain("/c/3"));
  // A child-level negative can still be parent-positive (union), but a
  // parent negative must imply child negatives.
  if (!parent.may_contain("/never/inserted")) {
    EXPECT_FALSE(leaf1.may_contain("/never/inserted"));
  }
}

TEST(BloomFilter, BitsRoundedToWordMultiple) {
  BloomFilter bf(100, 3);
  EXPECT_EQ(bf.bit_count() % 64, 0u);
  EXPECT_GE(bf.bit_count(), 100u);
}

TEST(BloomFilter, FillRatioAndEstimatedFpp) {
  BloomFilter bf(1024, 7);
  EXPECT_DOUBLE_EQ(bf.fill_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(bf.estimated_fpp(), 0.0);
  for (const auto& n : make_names(64, 7)) bf.insert(n);
  EXPECT_GT(bf.fill_ratio(), 0.0);
  EXPECT_LT(bf.fill_ratio(), 1.0);
  EXPECT_GT(bf.estimated_fpp(), 0.0);
}

TEST(BloomFilter, ClearResets) {
  BloomFilter bf(1024, 7);
  bf.insert("/x");
  EXPECT_TRUE(bf.may_contain("/x"));
  bf.clear();
  EXPECT_FALSE(bf.may_contain("/x"));
  EXPECT_EQ(bf.popcount(), 0u);
}

TEST(CountingBloomFilter, InsertRemoveRoundTrip) {
  CountingBloomFilter cbf(1024, 7);
  cbf.insert("/data/file1");
  EXPECT_TRUE(cbf.may_contain("/data/file1"));
  cbf.remove("/data/file1");
  EXPECT_FALSE(cbf.may_contain("/data/file1"));
}

TEST(CountingBloomFilter, RemoveKeepsOtherItems) {
  CountingBloomFilter cbf(2048, 7);
  const auto names = make_names(50, 8);
  for (const auto& n : names) cbf.insert(n);
  cbf.remove(names[0]);
  // No false negatives for the remaining items.
  for (std::size_t i = 1; i < names.size(); ++i)
    EXPECT_TRUE(cbf.may_contain(names[i]));
}

TEST(CountingBloomFilter, ToBloomFilterMatchesMembership) {
  CountingBloomFilter cbf(1024, 7);
  const auto names = make_names(60, 9);
  for (const auto& n : names) cbf.insert(n);
  cbf.remove(names[5]);
  const BloomFilter bf = cbf.to_bloom_filter();
  BloomFilter plain(1024, 7);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i == 5) continue;
    EXPECT_TRUE(bf.may_contain(names[i]));
    plain.insert(names[i]);
  }
  EXPECT_EQ(bf.bit_count(), cbf.bit_count());
  // Bit for bit: a counter above zero is exactly a set bit.
  EXPECT_EQ(bf, plain);
}

TEST(CountingBloomFilter, DuplicateInsertsNeedMatchingRemoves) {
  CountingBloomFilter cbf(1024, 7);
  cbf.insert("/f");
  cbf.insert("/f");
  cbf.remove("/f");
  EXPECT_TRUE(cbf.may_contain("/f"));  // one copy still accounted
  cbf.remove("/f");
  EXPECT_FALSE(cbf.may_contain("/f"));
}

class BloomGeometryTest
    : public ::testing::TestWithParam<std::pair<std::size_t, unsigned>> {};

TEST_P(BloomGeometryTest, NoFalseNegativesAcrossGeometries) {
  const auto [bits, k] = GetParam();
  BloomFilter bf(bits, k);
  const auto names = make_names(bits / 16, 10);
  for (const auto& n : names) bf.insert(n);
  for (const auto& n : names) EXPECT_TRUE(bf.may_contain(n));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BloomGeometryTest,
    ::testing::Values(std::make_pair<std::size_t, unsigned>(256, 3),
                      std::make_pair<std::size_t, unsigned>(512, 5),
                      std::make_pair<std::size_t, unsigned>(1024, 7),
                      std::make_pair<std::size_t, unsigned>(4096, 7),
                      std::make_pair<std::size_t, unsigned>(8192, 11)));

}  // namespace
}  // namespace smartstore::bloom
