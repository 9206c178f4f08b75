// Tests for semantic grouping: greedy threshold aggregation, K-means,
// scatter criteria and optimal-threshold selection.
#include "core/grouping.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace smartstore::core {
namespace {

std::vector<la::Vector> two_clusters(std::size_t per, std::uint64_t seed) {
  // Both dimensions carry the cluster signal: with a single informative
  // dimension, z-scoring would amplify the noise dimension to signal scale
  // (realistic metadata clusters are coherent across several attributes).
  util::Rng rng(seed);
  std::vector<la::Vector> v;
  for (std::size_t i = 0; i < per; ++i) {
    v.push_back({10 + rng.gauss(0, 0.5), 10 + rng.gauss(0, 0.5)});
    v.push_back({-10 + rng.gauss(0, 0.5), -10 + rng.gauss(0, 0.5)});
  }
  return v;
}

bool grouping_consistent(const Grouping& g, std::size_t n) {
  if (g.group_of.size() != n) return false;
  std::size_t total = 0;
  for (std::size_t gi = 0; gi < g.groups.size(); ++gi) {
    for (std::size_t m : g.groups[gi]) {
      if (g.group_of[m] != gi) return false;
      ++total;
    }
  }
  return total == n;
}

TEST(GroupBySimilarity, SeparatesClusters) {
  const auto docs = two_clusters(6, 1);  // even = A, odd = B
  const lsi::LsiModel m = lsi::LsiModel::fit(docs, 2);
  const Grouping g = group_by_similarity(m, 0.5, 32);
  ASSERT_TRUE(grouping_consistent(g, docs.size()));
  EXPECT_EQ(g.num_groups(), 2u);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    for (std::size_t j = 0; j < docs.size(); ++j) {
      if ((i % 2) == (j % 2)) {
        EXPECT_EQ(g.group_of[i], g.group_of[j]);
      }
    }
  }
}

TEST(GroupBySimilarity, CapKeepsGroupSizesBounded) {
  const auto docs = two_clusters(20, 2);
  const lsi::LsiModel m = lsi::LsiModel::fit(docs, 2);
  const Grouping g = group_by_similarity(m, 0.3, 8);
  ASSERT_TRUE(grouping_consistent(g, docs.size()));
  for (const auto& members : g.groups) EXPECT_LE(members.size(), 8u);
}

TEST(GroupBySimilarity, HighThresholdYieldsSingletons) {
  const auto docs = two_clusters(5, 3);
  const lsi::LsiModel m = lsi::LsiModel::fit(docs, 2);
  // cosine similarity cannot exceed 1.
  const Grouping g = group_by_similarity(m, 1.0, 8);
  EXPECT_EQ(g.num_groups(), docs.size());
}

TEST(GroupVectors, EmptyAndSingleton) {
  const Grouping g0 = group_vectors_by_similarity({}, 0.5, 4);
  EXPECT_EQ(g0.num_groups(), 0u);
  const Grouping g1 = group_vectors_by_similarity({{1.0, 2.0}}, 0.5, 4);
  EXPECT_EQ(g1.num_groups(), 1u);
  EXPECT_EQ(g1.groups[0].size(), 1u);
}

TEST(Kmeans, FindsTwoClusters) {
  const auto docs = two_clusters(25, 4);
  const Grouping g = kmeans_cluster(docs, 2, 8, 99);
  ASSERT_TRUE(grouping_consistent(g, docs.size()));
  ASSERT_EQ(g.num_groups(), 2u);
  // Members of each cluster must agree with parity.
  for (const auto& members : g.groups) {
    const std::size_t parity = members[0] % 2;
    for (std::size_t m : members) EXPECT_EQ(m % 2, parity);
  }
}

TEST(Kmeans, CapacityBalancesLoad) {
  const auto docs = two_clusters(30, 5);  // 60 points
  const Grouping g = kmeans_cluster(docs, 6, 6, 7, /*capacity=*/12);
  ASSERT_TRUE(grouping_consistent(g, docs.size()));
  for (const auto& members : g.groups) EXPECT_LE(members.size(), 12u);
}

TEST(Kmeans, KGreaterThanNClamps) {
  const std::vector<la::Vector> docs{{1, 1}, {2, 2}, {3, 3}};
  const Grouping g = kmeans_cluster(docs, 10, 3, 1);
  EXPECT_LE(g.num_groups(), 3u);
  ASSERT_TRUE(grouping_consistent(g, 3));
}

TEST(Kmeans, Deterministic) {
  const auto docs = two_clusters(10, 6);
  const Grouping a = kmeans_cluster(docs, 4, 5, 42);
  const Grouping b = kmeans_cluster(docs, 4, 5, 42);
  EXPECT_EQ(a.group_of, b.group_of);
}

/// kmeans_cluster as it was with k-means++ seeding that recomputed every
/// point's distance to every chosen center each round (O(n·k²)); the
/// placement must not change now that seeding folds in one center a round.
/// Seeding does not depend on the capacity, so the reference is split in
/// two: reference_seeding runs once per (population, k, seed), and
/// reference_assign continues from its centers and rng state for each
/// capacity.
struct ReferenceSeeds {
  std::vector<la::Vector> centers;
  util::Rng rng;  ///< the state the assignment rounds draw from
};

ReferenceSeeds reference_seeding(const std::vector<la::Vector>& coords,
                                 std::size_t k, std::uint64_t seed) {
  const std::size_t n = coords.size();
  k = std::min(k, n);
  ReferenceSeeds out{{}, util::Rng(seed)};
  util::Rng& rng = out.rng;
  std::vector<la::Vector>& centers = out.centers;
  centers.push_back(coords[rng.uniform_u64(n)]);
  std::vector<double> d2(n, 0.0);
  while (centers.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : centers)
        best = std::min(best, la::squared_distance(coords[i], c));
      d2[i] = best;
      total += best;
    }
    if (total <= 0.0) {
      centers.push_back(coords[rng.uniform_u64(n)]);
      continue;
    }
    double pick = rng.uniform() * total;
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      pick -= d2[i];
      if (pick <= 0.0) {
        chosen = i;
        break;
      }
    }
    centers.push_back(coords[chosen]);
  }
  return out;
}

std::vector<std::size_t> reference_assign(const std::vector<la::Vector>& coords,
                                          ReferenceSeeds seeds,
                                          std::size_t iterations,
                                          std::size_t capacity) {
  const std::size_t n = coords.size();
  const std::size_t dims = coords[0].size();
  std::vector<la::Vector>& centers = seeds.centers;
  util::Rng& rng = seeds.rng;
  const std::size_t k = centers.size();
  std::vector<std::size_t> assign(n, 0);
  const std::size_t cap = capacity == 0 ? n : capacity;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t iter = 0; iter < std::max<std::size_t>(1, iterations);
       ++iter) {
    rng.shuffle(order);
    std::vector<std::size_t> load(k, 0);
    for (std::size_t oi = 0; oi < n; ++oi) {
      const std::size_t i = order[oi];
      std::size_t best = k;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        if (load[c] >= cap) continue;
        const double d = la::squared_distance(coords[i], centers[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (best == k) best = oi % k;
      assign[i] = best;
      ++load[best];
    }
    std::vector<la::Vector> sums(k, la::Vector(dims, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < dims; ++d) sums[assign[i]][d] += coords[i][d];
      ++counts[assign[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d)
        centers[c][d] = sums[c][d] / static_cast<double>(counts[c]);
    }
  }

  // Drop empty groups and number the rest in center order, as
  // kmeans_cluster does.
  std::vector<std::vector<std::size_t>> groups(k);
  for (std::size_t i = 0; i < n; ++i) groups[assign[i]].push_back(i);
  std::vector<std::size_t> group_of(n, 0);
  std::size_t next = 0;
  for (const auto& members : groups) {
    if (members.empty()) continue;
    for (std::size_t m : members) group_of[m] = next;
    ++next;
  }
  return group_of;
}

TEST(Kmeans, SeedingMatchesReference) {
  std::size_t cases = 0;
  for (std::size_t n : {1u, 2u, 7u, 40u, 150u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      util::Rng rng(seed * 1000 + n);
      std::vector<la::Vector> clustered;
      for (std::size_t i = 0; i < n; ++i) {
        const double c = static_cast<double>(i % 4) * 5.0;
        clustered.push_back(
            {c + rng.gauss(0, 1), -c + rng.gauss(0, 1), rng.gauss(0, 3)});
      }
      // Heavy duplicates: seeding rounds whose total distance is zero.
      std::vector<la::Vector> duplicated;
      for (std::size_t i = 0; i < n; ++i)
        duplicated.push_back({static_cast<double>(i % 2), 1.0, -1.0});
      for (const auto* docs : {&clustered, &duplicated}) {
        for (std::size_t k : {1u, 3u, 8u, 200u}) {  // k >= n included
          const ReferenceSeeds seeds = reference_seeding(*docs, k, seed);
          // Unbounded, loose, and saturated (cap * k < n) capacities.
          for (std::size_t cap : {std::size_t{0}, n / k + 2,
                                  std::max<std::size_t>(1, n / (2 * k))}) {
            const Grouping g = kmeans_cluster(*docs, k, 4, seed, cap);
            ASSERT_TRUE(grouping_consistent(g, n));
            EXPECT_EQ(g.group_of, reference_assign(*docs, seeds, 4, cap))
                << "n=" << n << " k=" << k << " cap=" << cap
                << " seed=" << seed;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 5u * 3u * 2u * 4u * 3u);

  // Populations as large as the ones a store's build runs on a pool: the
  // placement must not depend on the pool or its size. Nine dimensions
  // take the path for ranks without a specialized kernel.
  util::ThreadPool pool1(1), pool2(2), pool3(3), pool8(8);
  const std::vector<util::ThreadPool*> pools{nullptr, &pool1, &pool2, &pool3,
                                             &pool8};
  std::size_t large_cases = 0;
  for (const auto& [n, dims] : {std::pair<std::size_t, std::size_t>{5000, 4},
                                {20000, 4},
                                {5000, 9}}) {
    util::Rng rng(n + dims);
    std::vector<la::Vector> docs;
    for (std::size_t i = 0; i < n; ++i) {
      const double c = static_cast<double>(i % 7) * 3.0;
      la::Vector v(dims);
      for (std::size_t d = 0; d < dims; ++d)
        v[d] = (d % 2 == 0 ? c : -c) +
               rng.gauss(0, 1.0 + static_cast<double>(d));
      docs.push_back(std::move(v));
    }
    for (std::size_t k : {16u, 60u}) {
      const ReferenceSeeds seeds = reference_seeding(docs, k, 9);
      for (std::size_t cap :
           {std::size_t{0}, n / k + 2, std::max<std::size_t>(1, n / (2 * k))}) {
        const std::vector<std::size_t> expected =
            reference_assign(docs, seeds, 4, cap);
        for (util::ThreadPool* pool : pools) {
          EXPECT_EQ(kmeans_cluster(docs, k, 4, 9, cap, pool).group_of, expected)
              << "n=" << n << " dims=" << dims << " k=" << k << " cap=" << cap
              << " workers=" << (pool == nullptr ? 0 : pool->size());
          ++large_cases;
        }
      }
    }
  }
  EXPECT_EQ(large_cases, 3u * 2u * 3u * 5u);
}

TEST(RandomGrouping, EqualSizes) {
  const Grouping g = random_grouping(100, 10, 3);
  ASSERT_TRUE(grouping_consistent(g, 100));
  EXPECT_EQ(g.num_groups(), 10u);
  for (const auto& members : g.groups) EXPECT_EQ(members.size(), 10u);
}

TEST(Scatter, WithinPlusBetweenIsTotal) {
  // W + B equals total scatter around the global mean (law of total
  // variance for groupings).
  const auto docs = two_clusters(8, 7);
  const Grouping g = kmeans_cluster(docs, 2, 5, 11);
  const double w = within_group_scatter(docs, g);
  const double b = between_group_scatter(docs, g);
  la::Vector mean(2, 0.0);
  for (const auto& d : docs) {
    mean[0] += d[0];
    mean[1] += d[1];
  }
  mean[0] /= docs.size();
  mean[1] /= docs.size();
  double total = 0;
  for (const auto& d : docs) total += la::squared_distance(d, mean);
  EXPECT_NEAR(w + b, total, 1e-8 * (1 + total));
}

TEST(Scatter, PerfectGroupingMaximizesCriterion) {
  const auto docs = two_clusters(10, 8);
  Grouping good;  // by parity (true clusters)
  good.groups.assign(2, {});
  good.group_of.assign(docs.size(), 0);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    good.groups[i % 2].push_back(i);
    good.group_of[i] = i % 2;
  }
  const Grouping bad = random_grouping(docs.size(), 2, 9);
  EXPECT_GT(variance_ratio_criterion(docs, good),
            variance_ratio_criterion(docs, bad));
}

TEST(Scatter, CriterionUndefinedCases) {
  const auto docs = two_clusters(4, 10);
  Grouping one;
  one.groups = {{0, 1, 2, 3, 4, 5, 6, 7}};
  one.group_of.assign(8, 0);
  EXPECT_DOUBLE_EQ(variance_ratio_criterion(docs, one), 0.0);  // t < 2
}

TEST(OptimalThreshold, RecoversSeparatingEpsilon) {
  const auto docs = two_clusters(10, 11);
  const lsi::LsiModel m = lsi::LsiModel::fit(docs, 2);
  const double eps = optimal_threshold(m, 16);
  // The chosen threshold must separate the two clusters.
  const Grouping g = group_by_similarity(m, eps, 16);
  EXPECT_EQ(g.num_groups(), 2u);
}

TEST(OptimalThreshold, SmallInputsFallBack) {
  const std::vector<la::Vector> docs{{1, 0}, {0, 1}};
  const lsi::LsiModel m = lsi::LsiModel::fit(docs, 2);
  EXPECT_DOUBLE_EQ(optimal_threshold(m, 4), 0.5);
}

}  // namespace
}  // namespace smartstore::core
