#include "core/ground_truth.h"

#include <algorithm>
#include <unordered_set>

namespace smartstore::core {

using metadata::FileId;
using metadata::FileMetadata;
using metadata::kNumAttrs;

la::Matrix attribute_matrix(const std::vector<FileMetadata>& files) {
  la::Matrix a(kNumAttrs, files.size());
  for (std::size_t j = 0; j < files.size(); ++j)
    for (std::size_t d = 0; d < kNumAttrs; ++d) a(d, j) = files[j].attrs[d];
  return a;
}

la::RowStandardizer fit_standardizer(const std::vector<FileMetadata>& files) {
  return la::RowStandardizer::fit(attribute_matrix(files));
}

std::vector<FileId> brute_force_range(const std::vector<FileMetadata>& files,
                                      const metadata::RangeQuery& q) {
  std::vector<FileId> out;
  for (const auto& f : files) {
    if (q.matches(f)) out.push_back(f.id);
  }
  return out;
}

std::vector<std::pair<double, FileId>> brute_force_topk(
    const std::vector<FileMetadata>& files,
    const la::RowStandardizer& standardizer, const metadata::TopKQuery& q) {
  // Standardize the query point on its subset dimensions.
  const std::size_t d = q.dims.size();
  la::Vector point(d);
  for (std::size_t i = 0; i < d; ++i) {
    const std::size_t a = static_cast<std::size_t>(q.dims[i]);
    point[i] = (q.point[i] - standardizer.means[a]) * standardizer.inv_stdevs[a];
  }
  std::vector<std::pair<double, FileId>> all;
  all.reserve(files.size());
  for (const auto& f : files) {
    double dist = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      const std::size_t a = static_cast<std::size_t>(q.dims[i]);
      const double v = (f.attrs[a] - standardizer.means[a]) *
                       standardizer.inv_stdevs[a];
      const double delta = v - point[i];
      dist += delta * delta;
    }
    all.emplace_back(dist, f.id);
  }
  const std::size_t k = std::min(q.k, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end());
  all.resize(k);
  return all;
}

double recall(const std::vector<FileId>& truth,
              const std::vector<FileId>& answer) {
  if (truth.empty()) return 1.0;
  std::unordered_set<FileId> got(answer.begin(), answer.end());
  std::size_t hit = 0;
  for (FileId id : truth)
    if (got.count(id)) ++hit;
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

}  // namespace smartstore::core
