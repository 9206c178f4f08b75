// Latent Semantic Indexing (Deerwester et al.; paper Section 3.1.1).
//
// LSI measures semantic correlation by projecting attribute vectors into a
// low-rank subspace of the attribute-document matrix A (rows = attributes,
// columns = documents, where a "document" is a file's or storage unit's
// semantic vector). SVD gives A = U Σ Vᵀ; keeping the p largest singular
// values yields A_p = U_p Σ_p V_pᵀ. The paper allows both query
// projections, q̂ = U_pᵀ q and q̂ = Σ_p⁻¹ U_pᵀ q (Section 3.1.1); we use
// the former, under which a document column a_j projects exactly onto the
// Σ-weighted coordinates Σ_p V_pᵀ e_j (row j of V_p Σ_p). Σ-weighting
// matters for similarity quality: it keeps high-variance semantic
// directions dominant instead of letting near-noise directions contribute
// equally. Query/document similarity is the cosine in this one consistent
// p-dimensional space.
//
// Attribute rows are standardized (z-score) before decomposition: metadata
// attributes mix units (bytes, seconds, counts) and LSI would otherwise be
// dominated by the largest-magnitude attribute.
#pragma once

#include <cstddef>
#include <vector>

#include "la/matrix.h"
#include "la/stats.h"
#include "la/svd.h"

namespace smartstore::lsi {

class LsiModel {
 public:
  LsiModel() = default;

  /// Fits a rank-p model over N documents, each a raw attribute vector of
  /// equal dimension D. p is clamped to the numerical rank; p == 0 selects
  /// the smallest rank capturing >= `energy` of the spectral mass.
  static LsiModel fit(const std::vector<la::Vector>& docs, std::size_t rank_p,
                      double energy = 0.9);

  /// The same fit over the attribute-document matrix itself: D x N, one
  /// raw document per column (standardized in place).
  static LsiModel fit_columns(la::Matrix a, std::size_t rank_p,
                              double energy = 0.9);

  /// Reassembles a fitted model from its persisted parts (the persistence
  /// layer's deserialization hook; no refitting, no SVD).
  static LsiModel from_parts(la::RowStandardizer standardizer, la::Matrix u_p,
                             la::Vector sigma,
                             std::vector<la::Vector> doc_coords,
                             std::size_t rank) {
    LsiModel m;
    m.standardizer_ = std::move(standardizer);
    m.u_p_ = std::move(u_p);
    m.sigma_ = std::move(sigma);
    m.doc_coords_ = std::move(doc_coords);
    m.rank_ = rank;
    return m;
  }

  bool fitted() const { return rank_ > 0; }
  std::size_t rank() const { return rank_; }
  std::size_t dims() const { return standardizer_.means.size(); }
  std::size_t num_docs() const { return doc_coords_.size(); }

  /// Projects a raw attribute vector into the p-dimensional semantic
  /// subspace: standardize, then U_pᵀ q.
  la::Vector project(const la::Vector& raw) const;

  /// The i-th document's semantic coordinates (row i of V_p Σ_p, which
  /// equals project() applied to the document's own attribute vector).
  const la::Vector& doc_coords(std::size_t i) const { return doc_coords_[i]; }
  /// Every document's coordinates, in document order.
  const std::vector<la::Vector>& all_doc_coords() const { return doc_coords_; }

  /// Cosine similarity of two projected vectors, in [-1, 1].
  static double similarity(const la::Vector& a, const la::Vector& b) {
    return la::cosine_similarity(a, b);
  }

  /// Similarity between a raw vector and document i.
  double similarity_to_doc(const la::Vector& raw, std::size_t i) const {
    return similarity(project(raw), doc_coords_[i]);
  }

  /// Pairwise document similarity matrix (N x N), used by the grouping
  /// component when aggregating units.
  la::Matrix pairwise_doc_similarity() const;

  const la::Vector& singular_values() const { return sigma_; }
  const la::RowStandardizer& standardizer() const { return standardizer_; }
  /// The left singular block U_p (D x p), exposed for serialization.
  const la::Matrix& u_p() const { return u_p_; }

  std::size_t byte_size() const;

 private:
  la::RowStandardizer standardizer_;
  la::Matrix u_p_;                      // D x p
  la::Vector sigma_;                    // p
  std::vector<la::Vector> doc_coords_;  // N rows of V_p
  std::size_t rank_ = 0;
};

}  // namespace smartstore::lsi
