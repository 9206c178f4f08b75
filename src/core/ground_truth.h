// Brute-force reference answers for the recall experiments (Section 5.4:
// recall = |T(q) ∩ A(q)| / |T(q)| where T(q) is the ideal result set).
//
// The reference scans the full metadata population with exactly the same
// geometry the store uses: per-dimension z-scored coordinates, Euclidean
// distance restricted to the query's attribute subset.
#pragma once

#include <vector>

#include "la/stats.h"
#include "metadata/file_metadata.h"
#include "metadata/query.h"

namespace smartstore::core {

/// The population's raw attribute-document matrix: D x N, file j's
/// attributes in column j.
la::Matrix attribute_matrix(const std::vector<metadata::FileMetadata>& files);

/// Fits the standardizer all stores and ground truth share: z-score per
/// attribute over the population.
la::RowStandardizer fit_standardizer(
    const std::vector<metadata::FileMetadata>& files);

/// All file ids matching the range query (raw-space semantics; identical
/// to standardized-space semantics for non-degenerate attributes).
std::vector<metadata::FileId> brute_force_range(
    const std::vector<metadata::FileMetadata>& files,
    const metadata::RangeQuery& q);

/// The k nearest files to the query point under standardized Euclidean
/// distance on the query's dimensions; (squared distance, id), ascending.
std::vector<std::pair<double, metadata::FileId>> brute_force_topk(
    const std::vector<metadata::FileMetadata>& files,
    const la::RowStandardizer& standardizer, const metadata::TopKQuery& q);

/// recall = |truth ∩ answer| / |truth|; returns 1 when truth is empty.
double recall(const std::vector<metadata::FileId>& truth,
              const std::vector<metadata::FileId>& answer);

}  // namespace smartstore::core
