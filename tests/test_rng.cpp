// Unit tests for the deterministic RNG and distributions.
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace smartstore::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestoresStream) {
  Rng a(777);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next_u64());
  a.reseed(777);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(6);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-3.5, 7.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 7.25);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(7);
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += r.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformU64CoversAllResidues) {
  Rng r(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_u64(7));
  EXPECT_EQ(seen.size(), 7u);
  for (auto v : seen) EXPECT_LT(v, 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussMomentsMatch) {
  Rng r(10);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double g = r.gauss();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, GaussShiftScale) {
  Rng r(11);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += r.gauss(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng r(12);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(r.lognormal(2.0, 1.5), 0.0);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(13);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(14);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(15);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  r.shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to match
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Zipf, RankZeroIsMostPopular) {
  Rng r(16);
  ZipfGenerator z(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(r)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
}

TEST(Zipf, RanksWithinBounds) {
  Rng r(17);
  ZipfGenerator z(50, 0.8);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.sample(r), 50u);
}

TEST(Zipf, ThetaZeroIsUniform) {
  Rng r(18);
  ZipfGenerator z(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  for (int c : counts) EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
}

TEST(Zipf, HeavySkewConcentratesMass) {
  Rng r(19);
  ZipfGenerator z(10000, 1.2);
  int top100 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (z.sample(r) < 100) ++top100;
  // With theta=1.2 the first 100 of 10k ranks should carry most mass.
  EXPECT_GT(static_cast<double>(top100) / n, 0.5);
}

class ZipfParamTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfParamTest, CdfMonotoneAndSamplable) {
  const double theta = GetParam();
  Rng r(20);
  ZipfGenerator z(256, theta);
  std::vector<int> counts(256, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.sample(r)];
  // Frequency must be (statistically) non-increasing in rank for the first
  // few ranks whenever theta > 0.
  if (theta > 0.2) {
    EXPECT_GE(counts[0], counts[128]);
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfParamTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 0.99, 1.05,
                                           1.2, 2.0));

}  // namespace
}  // namespace smartstore::util
