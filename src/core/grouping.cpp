#include "core/grouping.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/rng.h"

namespace smartstore::core {

namespace {

/// Union-find with size tracking, used by the greedy aggregation.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  std::size_t size(std::size_t x) { return size_[find(x)]; }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

Grouping finalize_groups(std::size_t n, DisjointSets& ds) {
  Grouping g;
  g.group_of.assign(n, 0);
  std::vector<std::size_t> root_to_group(n, static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = ds.find(i);
    if (root_to_group[r] == static_cast<std::size_t>(-1)) {
      root_to_group[r] = g.groups.size();
      g.groups.emplace_back();
    }
    const std::size_t gi = root_to_group[r];
    g.groups[gi].push_back(i);
    g.group_of[i] = gi;
  }
  return g;
}

struct SimPair {
  double sim;
  std::size_t a, b;
};

Grouping greedy_aggregate(const std::vector<la::Vector>& coords,
                          double epsilon, std::size_t max_group_size) {
  const std::size_t n = coords.size();
  DisjointSets ds(n);
  if (n > 1) {
    std::vector<SimPair> pairs;
    pairs.reserve(n * (n - 1) / 2);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double s = la::cosine_similarity(coords[i], coords[j]);
        if (s > epsilon) pairs.push_back({s, i, j});
      }
    }
    // Highest correlation first ("the one with the largest correlation
    // value will be chosen"); ties broken by index for determinism.
    std::sort(pairs.begin(), pairs.end(), [](const SimPair& x, const SimPair& y) {
      if (x.sim != y.sim) return x.sim > y.sim;
      if (x.a != y.a) return x.a < y.a;
      return x.b < y.b;
    });
    const std::size_t cap =
        max_group_size == 0 ? n : std::max<std::size_t>(1, max_group_size);
    for (const auto& p : pairs) {
      if (ds.find(p.a) == ds.find(p.b)) continue;
      if (ds.size(p.a) + ds.size(p.b) > cap) continue;
      ds.unite(p.a, p.b);
    }
  }
  return finalize_groups(n, ds);
}

}  // namespace

Grouping group_by_similarity(const lsi::LsiModel& model, double epsilon,
                             std::size_t max_group_size) {
  std::vector<la::Vector> coords;
  coords.reserve(model.num_docs());
  for (std::size_t i = 0; i < model.num_docs(); ++i)
    coords.push_back(model.doc_coords(i));
  return greedy_aggregate(coords, epsilon, max_group_size);
}

Grouping group_vectors_by_similarity(const std::vector<la::Vector>& coords,
                                     double epsilon,
                                     std::size_t max_group_size) {
  return greedy_aggregate(coords, epsilon, max_group_size);
}

Grouping kmeans_cluster(const std::vector<la::Vector>& coords, std::size_t k,
                        std::size_t iterations, std::uint64_t seed,
                        std::size_t capacity) {
  const std::size_t n = coords.size();
  Grouping g;
  if (n == 0 || k == 0) return g;
  k = std::min(k, n);
  const std::size_t dims = coords[0].size();
  util::Rng rng(seed);

  // k-means++ seeding. d2[i] is point i's squared distance to its nearest
  // center so far; each round folds in only the newest center, so seeding
  // costs n distances per center rather than n per center already chosen.
  std::vector<la::Vector> centers;
  centers.reserve(k);
  centers.push_back(coords[rng.uniform_u64(n)]);
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  while (centers.size() < k) {
    const la::Vector& newest = centers.back();
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], la::squared_distance(coords[i], newest));
      total += d2[i];
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

  std::vector<std::size_t> assign(n, 0);
  const std::size_t cap = capacity == 0 ? n : capacity;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t iter = 0; iter < std::max<std::size_t>(1, iterations);
       ++iter) {
    // Assignment pass; random order so capacity saturation is unbiased.
    rng.shuffle(order);
    std::vector<std::size_t> load(k, 0);
    for (std::size_t oi = 0; oi < n; ++oi) {
      const std::size_t i = order[oi];
      // Rank centers by distance, take the nearest with spare capacity.
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
      if (best == k) best = oi % k;  // every center full (cap*k < n guard)
      assign[i] = best;
      ++load[best];
    }
    // Update pass.
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

  g.groups.assign(k, {});
  g.group_of.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    g.groups[assign[i]].push_back(i);
    g.group_of[i] = assign[i];
  }
  // Drop empty groups (possible when k is close to n).
  Grouping out;
  out.group_of.assign(n, 0);
  for (auto& members : g.groups) {
    if (members.empty()) continue;
    for (std::size_t m : members) out.group_of[m] = out.groups.size();
    out.groups.push_back(std::move(members));
  }
  return out;
}

Grouping random_grouping(std::size_t n, std::size_t k, std::uint64_t seed) {
  Grouping g;
  if (n == 0 || k == 0) return g;
  k = std::min(k, n);
  util::Rng rng(seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  g.groups.assign(k, {});
  g.group_of.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t gi = i % k;
    g.groups[gi].push_back(order[i]);
    g.group_of[order[i]] = gi;
  }
  return g;
}

double within_group_scatter(const std::vector<la::Vector>& coords,
                            const Grouping& grouping) {
  double w = 0.0;
  for (const auto& members : grouping.groups) {
    if (members.empty()) continue;
    const std::size_t dims = coords[members[0]].size();
    la::Vector c(dims, 0.0);
    for (std::size_t m : members)
      for (std::size_t d = 0; d < dims; ++d) c[d] += coords[m][d];
    for (auto& x : c) x /= static_cast<double>(members.size());
    for (std::size_t m : members) w += la::squared_distance(coords[m], c);
  }
  return w;
}

double between_group_scatter(const std::vector<la::Vector>& coords,
                             const Grouping& grouping) {
  if (coords.empty()) return 0.0;
  const std::size_t dims = coords[0].size();
  la::Vector global(dims, 0.0);
  for (const auto& x : coords)
    for (std::size_t d = 0; d < dims; ++d) global[d] += x[d];
  for (auto& v : global) v /= static_cast<double>(coords.size());

  double b = 0.0;
  for (const auto& members : grouping.groups) {
    if (members.empty()) continue;
    la::Vector c(dims, 0.0);
    for (std::size_t m : members)
      for (std::size_t d = 0; d < dims; ++d) c[d] += coords[m][d];
    for (auto& x : c) x /= static_cast<double>(members.size());
    b += static_cast<double>(members.size()) * la::squared_distance(c, global);
  }
  return b;
}

double variance_ratio_criterion(const std::vector<la::Vector>& coords,
                                const Grouping& grouping) {
  const std::size_t n = coords.size();
  const std::size_t t = grouping.num_groups();
  if (t < 2 || t >= n) return 0.0;
  const double w = within_group_scatter(coords, grouping);
  const double b = between_group_scatter(coords, grouping);
  // w == 0 happens for singleton-dominated groupings (every group trivially
  // tight); treating it as "infinitely good" would always select the
  // degenerate all-singletons threshold, so score it as undefined instead.
  if (w <= 0.0) return 0.0;
  return (b / static_cast<double>(t - 1)) /
         (w / static_cast<double>(n - t));
}

double optimal_threshold(const lsi::LsiModel& model,
                         std::size_t max_group_size,
                         std::size_t num_candidates) {
  const std::size_t n = model.num_docs();
  if (n < 3) return 0.5;
  std::vector<la::Vector> coords;
  coords.reserve(n);
  for (std::size_t i = 0; i < n; ++i) coords.push_back(model.doc_coords(i));

  // Candidate thresholds: evenly spaced quantiles of the pairwise
  // similarity distribution (plus the extremes are implicitly covered).
  std::vector<double> sims;
  sims.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      sims.push_back(la::cosine_similarity(coords[i], coords[j]));
  std::sort(sims.begin(), sims.end());

  // Two passes: prefer thresholds that actually aggregate (mean group size
  // >= 2 — Statement 1 asks for balanced, non-trivial groups); fall back to
  // the unconstrained optimum if every candidate leaves units isolated.
  double best_eps = 0.5, best_score = -1.0;
  double any_eps = 0.5, any_score = -1.0;
  for (std::size_t c = 0; c < num_candidates; ++c) {
    const double q = (static_cast<double>(c) + 0.5) /
                     static_cast<double>(num_candidates);
    const double eps =
        sims[static_cast<std::size_t>(q * static_cast<double>(sims.size() - 1))];
    const Grouping g = greedy_aggregate(coords, eps, max_group_size);
    const double score = variance_ratio_criterion(coords, g);
    if (score > any_score) {
      any_score = score;
      any_eps = eps;
    }
    if (g.num_groups() <= std::max<std::size_t>(1, n / 2) &&
        score > best_score) {
      best_score = score;
      best_eps = eps;
    }
  }
  return best_score >= 0.0 ? best_eps : any_eps;
}

}  // namespace smartstore::core
