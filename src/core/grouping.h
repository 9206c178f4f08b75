// Semantic grouping (Section 3.1): aggregating correlated units into the
// groups that become semantic R-tree nodes.
//
// The basic grouping of Section 3.1.2 is a greedy pairwise aggregation:
// compute LSI similarities between all pairs, then repeatedly merge the
// most-similar pair whose correlation exceeds the admission threshold ε,
// subject to a group-size cap that keeps group sizes approximately equal
// (Statement 1's second requirement). Applied recursively level by level,
// it builds the tree bottom-up.
//
// K-means is provided as the alternative grouping tool the paper compares
// against conceptually (Section 3.1.1 argues LSI is preferable); the
// grouping ablation bench measures both. A balanced variant also serves as
// the initial file -> storage-unit placement ("files are grouped and stored
// according to their metadata semantics", Section 2).
#pragma once

#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "lsi/lsi.h"

namespace smartstore::util {
class ThreadPool;
}

namespace smartstore::core {

struct Grouping {
  /// groups[g] lists member indices (into the input document list).
  std::vector<std::vector<std::size_t>> groups;

  /// group_of[i] = index of the group containing document i.
  std::vector<std::size_t> group_of;

  std::size_t num_groups() const { return groups.size(); }
};

/// Greedy threshold aggregation over LSI document coordinates: pairs are
/// merged in decreasing-similarity order while similarity > epsilon and the
/// merged size stays within `max_group_size`. Deterministic.
Grouping group_by_similarity(const lsi::LsiModel& model, double epsilon,
                             std::size_t max_group_size);

/// Same algorithm over raw vectors with cosine similarity (used by tests
/// and by levels where an LSI model over few documents adds nothing).
Grouping group_vectors_by_similarity(const std::vector<la::Vector>& coords,
                                     double epsilon,
                                     std::size_t max_group_size);

/// Lloyd's K-means with k-means++ seeding over arbitrary coordinates.
/// `capacity` == 0 means unbounded; otherwise assignments respect the cap
/// (balanced variant used for file placement). Deterministic in `seed`.
/// With a `pool`, the distance passes run on its workers; the result is
/// bit-identical for any pool size, and to a null pool (the caller's
/// thread only): every floating-point reduction keeps its serial order.
Grouping kmeans_cluster(const std::vector<la::Vector>& coords, std::size_t k,
                        std::size_t iterations, std::uint64_t seed,
                        std::size_t capacity = 0,
                        util::ThreadPool* pool = nullptr);

/// Random assignment into k equal groups (the no-semantics control in the
/// grouping ablation).
Grouping random_grouping(std::size_t n, std::size_t k, std::uint64_t seed);

/// The semantic-correlation objective of Section 1.1 evaluated over a
/// grouping: sum over groups of squared distances to group centroids
/// (within-group scatter W).
double within_group_scatter(const std::vector<la::Vector>& coords,
                            const Grouping& grouping);

/// Between-group scatter B (group sizes times squared centroid-to-global
/// distances).
double between_group_scatter(const std::vector<la::Vector>& coords,
                             const Grouping& grouping);

/// Calinski–Harabasz variance-ratio criterion: (B/(t-1)) / (W/(n-t)).
/// Higher is better; used to select the optimal admission threshold
/// (Figure 11). Returns 0 when undefined (t < 2 or t >= n).
double variance_ratio_criterion(const std::vector<la::Vector>& coords,
                                const Grouping& grouping);

/// Sweeps candidate thresholds (percentiles of the pairwise-similarity
/// distribution) and returns the epsilon maximizing the variance-ratio
/// criterion of the induced grouping.
double optimal_threshold(const lsi::LsiModel& model,
                         std::size_t max_group_size,
                         std::size_t num_candidates = 40);

}  // namespace smartstore::core
