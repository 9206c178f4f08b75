#include "lsi/lsi.h"

#include <algorithm>
#include <cassert>

namespace smartstore::lsi {

LsiModel LsiModel::fit(const std::vector<la::Vector>& docs, std::size_t rank_p,
                       double energy) {
  if (docs.empty()) return LsiModel();
  const std::size_t d = docs[0].size();
  la::Matrix a(d, docs.size());
  for (std::size_t j = 0; j < docs.size(); ++j) {
    assert(docs[j].size() == d);
    for (std::size_t i = 0; i < d; ++i) a(i, j) = docs[j][i];
  }
  return fit_columns(std::move(a), rank_p, energy);
}

LsiModel LsiModel::fit_columns(la::Matrix a, std::size_t rank_p,
                               double energy) {
  LsiModel m;
  const std::size_t n = a.cols();
  if (n == 0) return m;
  m.standardizer_ = la::RowStandardizer::fit(a);
  m.standardizer_.apply(a);

  // The rank rule reads the whole spectrum; only the kept columns of V
  // (one row per document) are then formed.
  la::SvdResult svd =
      la::svd_thin(a, 1e-10, [&](const la::Vector& sigma) -> std::size_t {
        if (rank_p != 0) return rank_p;
        // Smallest rank capturing `energy` of sigma_i^2 mass.
        double total = 0.0;
        for (double s : sigma) total += s * s;
        double acc = 0.0;
        for (std::size_t i = 0; i < sigma.size(); ++i) {
          acc += sigma[i] * sigma[i];
          if (acc >= energy * total) return i + 1;
        }
        return sigma.size();
      });
  if (svd.sigma.empty()) return m;
  const std::size_t p = svd.sigma.size();

  m.rank_ = p;
  m.u_p_ = std::move(svd.u);
  m.sigma_ = std::move(svd.sigma);
  m.doc_coords_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    la::Vector& c = m.doc_coords_[j];
    c.resize(p);
    for (std::size_t k = 0; k < p; ++k) c[k] = svd.v(j, k) * m.sigma_[k];
  }
  return m;
}

la::Vector LsiModel::project(const la::Vector& raw) const {
  assert(fitted());
  const la::Vector q = standardizer_.transform(raw);
  la::Vector out(rank_, 0.0);
  for (std::size_t k = 0; k < rank_; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < q.size(); ++i) acc += u_p_(i, k) * q[i];
    out[k] = acc;
  }
  return out;
}

la::Matrix LsiModel::pairwise_doc_similarity() const {
  const std::size_t n = doc_coords_.size();
  la::Matrix sim(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    sim(i, i) = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double s = similarity(doc_coords_[i], doc_coords_[j]);
      sim(i, j) = s;
      sim(j, i) = s;
    }
  }
  return sim;
}

std::size_t LsiModel::byte_size() const {
  std::size_t b = sizeof(*this) + u_p_.byte_size() +
                  sigma_.capacity() * sizeof(double);
  for (const auto& c : doc_coords_) b += c.capacity() * sizeof(double);
  b += (standardizer_.means.capacity() + standardizer_.inv_stdevs.capacity()) *
       sizeof(double);
  return b;
}

}  // namespace smartstore::lsi
