#include "core/grouping.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>

#include "util/rng.h"
#include "util/thread_pool.h"

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

/// Every pair i < j with its cosine similarity, highest correlation first
/// ("the one with the largest correlation value will be chosen"); ties
/// broken by index for determinism. The pairs above any threshold are a
/// prefix of this ranking.
std::vector<SimPair> ranked_pairs(const std::vector<la::Vector>& coords) {
  const std::size_t n = coords.size();
  std::vector<SimPair> pairs;
  if (n < 2) return pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double s = la::cosine_similarity(coords[i], coords[j]);
      // A NaN similarity is above no threshold.
      if (!std::isnan(s)) pairs.push_back({s, i, j});
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const SimPair& x, const SimPair& y) {
    if (x.sim != y.sim) return x.sim > y.sim;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  return pairs;
}

/// Greedy threshold aggregation of n documents over their ranked pairs:
/// merges in rank order while the similarity exceeds epsilon and the
/// merged size stays within the cap.
Grouping greedy_aggregate(std::size_t n, const std::vector<SimPair>& ranked,
                          double epsilon, std::size_t max_group_size) {
  DisjointSets ds(n);
  const std::size_t cap =
      max_group_size == 0 ? n : std::max<std::size_t>(1, max_group_size);
  for (const auto& p : ranked) {
    if (!(p.sim > epsilon)) break;
    if (ds.find(p.a) == ds.find(p.b)) continue;
    if (ds.size(p.a) + ds.size(p.b) > cap) continue;
    ds.unite(p.a, p.b);
  }
  return finalize_groups(n, ds);
}

Grouping greedy_aggregate(const std::vector<la::Vector>& coords,
                          double epsilon, std::size_t max_group_size) {
  return greedy_aggregate(coords.size(), ranked_pairs(coords), epsilon,
                          max_group_size);
}

}  // namespace

Grouping group_by_similarity(const lsi::LsiModel& model, double epsilon,
                             std::size_t max_group_size) {
  return greedy_aggregate(model.all_doc_coords(), epsilon, max_group_size);
}

Grouping group_vectors_by_similarity(const std::vector<la::Vector>& coords,
                                     double epsilon,
                                     std::size_t max_group_size) {
  return greedy_aggregate(coords, epsilon, max_group_size);
}

namespace {

/// Points per assignment block: the block's distance rows (kAssignBlock x k
/// doubles) stay cache-sized however large the population is.
constexpr std::size_t kAssignBlock = 8192;

/// How far ahead the assignment pass prefetches in the shuffled order.
constexpr std::size_t kPrefetchAhead = 8;

/// Hints that `p` is about to be accessed: the assignment pass visits
/// points in shuffled order, which no hardware prefetcher predicts.
inline void prefetch(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

/// Chunk size that gives each of the pool's workers two chunks of `n`.
std::size_t grain_for(const util::ThreadPool* pool, std::size_t n) {
  const std::size_t parts = pool == nullptr ? 1 : 2 * pool->size();
  return std::max<std::size_t>(1, (n + parts - 1) / parts);
}

/// Balanced k-means over `Dims`-dimensional points (Dims == 0: any, read
/// from the input), returning each point's center. A constant Dims lets
/// every distance keep its sum in a register and the loops over points
/// or centers vectorize.
///
/// Every squared distance is la::squared_distance's arithmetic — acc
/// starts at 0.0 and adds (a[d] - b[d])^2 for d = 0..dims-1 in order — and
/// every sum runs in index order, so the result is bit-identical to the
/// plain serial algorithm for any pool, or none. Points are stored
/// point-major (pts[i * dims + d]), centers dimension-major
/// (cs[d * k + c]).
template <std::size_t Dims>
std::vector<std::size_t> kmeans_assign(const std::vector<la::Vector>& coords,
                                       std::size_t k, std::size_t iterations,
                                       util::Rng& rng, std::size_t cap,
                                       util::ThreadPool* pool) {
  const std::size_t n = coords.size();
  const std::size_t dims = Dims == 0 ? coords[0].size() : Dims;
  std::vector<double> pts(n * dims);
  for (std::size_t i = 0; i < n; ++i) {
    assert(coords[i].size() == dims);
    std::copy_n(coords[i].begin(), dims, pts.begin() + i * dims);
  }

  // k-means++ seeding. d2[i] is point i's squared distance to its nearest
  // center so far; each round folds in only the newest center, so seeding
  // costs n distances per center rather than n per center already chosen.
  // A round is one serial pass in index order (its total must be); the
  // distances are independent of the running total, so they overlap it.
  std::vector<double> cs(dims * k);
  std::vector<double> newest(dims);
  std::size_t chosen_centers = 0;
  auto add_center = [&](std::size_t i) {
    for (std::size_t d = 0; d < dims; ++d) {
      newest[d] = pts[i * dims + d];
      cs[d * k + chosen_centers] = newest[d];
    }
    ++chosen_centers;
  };
  add_center(rng.uniform_u64(n));
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  while (chosen_centers < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* p = pts.data() + i * dims;
      double acc = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {
        const double t = p[d] - newest[d];
        acc += t * t;
      }
      d2[i] = std::min(d2[i], acc);
      total += d2[i];
    }
    if (total <= 0.0) {
      add_center(rng.uniform_u64(n));
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
    add_center(chosen);
  }

  std::vector<std::size_t> assign(n, 0);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const std::size_t block = std::min(n, kAssignBlock);
  std::vector<double> rows(block * k);       // distances to every center
  std::vector<std::size_t> nearest(block);   // k when no center is finite

  for (std::size_t iter = 0; iter < std::max<std::size_t>(1, iterations);
       ++iter) {
    // Assignment pass; random order so capacity saturation is unbiased.
    // Centers move only in the update pass, so each block's distances are
    // computed up front (on the pool); the capacity-constrained choice
    // then walks the block serially in the shuffled order.
    rng.shuffle(order);
    std::vector<std::size_t> load(k, 0);
    for (std::size_t start = 0; start < n; start += block) {
      const std::size_t len = std::min(block, n - start);
      util::for_each_chunk(
          pool, len, grain_for(pool, len), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t j = lo; j < hi; ++j) {
              if (j + kPrefetchAhead < hi)
                prefetch(pts.data() + order[start + j + kPrefetchAhead] * dims);
              const double* p = pts.data() + order[start + j] * dims;
              double* row = rows.data() + j * k;
              for (std::size_t c = 0; c < k; ++c) {
                double acc = 0.0;
                for (std::size_t d = 0; d < dims; ++d) {
                  const double t = p[d] - cs[d * k + c];
                  acc += t * t;
                }
                row[c] = acc;
              }
              std::size_t best = k;
              double best_d = std::numeric_limits<double>::infinity();
              for (std::size_t c = 0; c < k; ++c) {
                if (row[c] < best_d) {
                  best_d = row[c];
                  best = c;
                }
              }
              nearest[j] = best;
            }
          });
      for (std::size_t j = 0; j < len; ++j) {
        const std::size_t oi = start + j;
        if (j + kPrefetchAhead < len)
          prefetch(&assign[order[oi + kPrefetchAhead]]);
        // The nearest center with spare capacity, lowest index on ties:
        // the unconstrained nearest when it has room, else a rescan of the
        // row skipping full centers.
        std::size_t best = nearest[j];
        if (best == k || load[best] >= cap) {
          const double* row = rows.data() + j * k;
          best = k;
          double best_d = std::numeric_limits<double>::infinity();
          for (std::size_t c = 0; c < k; ++c) {
            if (load[c] >= cap) continue;
            if (row[c] < best_d) {
              best_d = row[c];
              best = c;
            }
          }
        }
        if (best == k) best = oi % k;  // every center full (cap*k < n guard)
        assign[order[oi]] = best;
        ++load[best];
      }
    }
    // Update pass: each center's sums in index order.
    std::vector<double> sums(dims * k, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < dims; ++d)
        sums[d * k + assign[i]] += pts[i * dims + d];
      ++counts[assign[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d)
        cs[d * k + c] = sums[d * k + c] / static_cast<double>(counts[c]);
    }
  }
  return assign;
}

}  // namespace

Grouping kmeans_cluster(const std::vector<la::Vector>& coords, std::size_t k,
                        std::size_t iterations, std::uint64_t seed,
                        std::size_t capacity, util::ThreadPool* pool) {
  const std::size_t n = coords.size();
  Grouping g;
  if (n == 0 || k == 0) return g;
  k = std::min(k, n);
  util::Rng rng(seed);
  const std::size_t cap = capacity == 0 ? n : capacity;
  // LSI ranks are small: ranks up to 6 get a body of their own.
  using Body = std::vector<std::size_t> (*)(const std::vector<la::Vector>&,
                                            std::size_t, std::size_t,
                                            util::Rng&, std::size_t,
                                            util::ThreadPool*);
  static constexpr Body kBodies[] = {
      kmeans_assign<0>, kmeans_assign<1>, kmeans_assign<2>, kmeans_assign<3>,
      kmeans_assign<4>, kmeans_assign<5>, kmeans_assign<6>};
  const std::size_t dims = coords[0].size();
  const Body body =
      dims < std::size(kBodies) ? kBodies[dims] : kmeans_assign<0>;
  const std::vector<std::size_t> assign =
      body(coords, k, iterations, rng, cap, pool);

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
  const std::vector<la::Vector>& coords = model.all_doc_coords();

  // Candidate thresholds: evenly spaced quantiles of the pairwise
  // similarity distribution (plus the extremes are implicitly covered).
  // Every candidate aggregates over a prefix of one ranking.
  const std::vector<SimPair> ranked = ranked_pairs(coords);
  if (ranked.empty()) return 0.5;
  std::vector<double> sims;
  sims.reserve(ranked.size());
  for (auto it = ranked.rbegin(); it != ranked.rend(); ++it)
    sims.push_back(it->sim);

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
    const Grouping g = greedy_aggregate(n, ranked, eps, max_group_size);
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
