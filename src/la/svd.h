// Singular value decomposition for the LSI substrate.
//
// Two independent routes are provided:
//   * svd_thin():  eigendecomposition of the smaller Gram matrix (the
//     attribute dimension in SmartStore is <= 32, so this is exact and
//     cheap: O(min(m,n)^3 + m*n*min(m,n))).
//   * svd_jacobi_one_sided(): classical one-sided Jacobi on the full
//     matrix; slower but makes no shape assumptions. Used in tests to
//     cross-validate svd_thin().
//
// Both return singular values sorted in decreasing order with U, V columns
// aligned to them.
#pragma once

#include <cstddef>
#include <functional>

#include "la/matrix.h"

namespace smartstore::la {

struct SvdResult {
  Matrix u;        ///< m x r, orthonormal columns (left singular vectors)
  Vector sigma;    ///< r singular values, decreasing
  Matrix v;        ///< n x r, orthonormal columns (right singular vectors)

  /// Reconstructs U * diag(sigma) * V^T (rank = sigma.size()).
  Matrix reconstruct() const;

  /// Drops all but the p largest singular triplets (LSI rank truncation,
  /// A_p = U_p Sigma_p V_p^T). No-op if p >= rank.
  void truncate(std::size_t p);
};

/// Symmetric eigendecomposition via cyclic Jacobi rotations.
/// `a` must be symmetric. Returns eigenvalues (decreasing) and the matrix of
/// eigenvectors as columns: a = Q diag(lambda) Q^T.
struct SymmetricEigenResult {
  Vector eigenvalues;  ///< decreasing
  Matrix eigenvectors; ///< n x n, column i pairs with eigenvalues[i]
};
SymmetricEigenResult eigen_symmetric(const Matrix& a, double tol = 1e-12,
                                     int max_sweeps = 64);

/// Thin SVD via the Gram matrix on the smaller side. Singular values below
/// `rank_tol * sigma_max` are dropped (rank revealing). A `keep` rule
/// truncates to the keep(sigma) largest triplets, `sigma` holding every
/// singular value: it sees the spectrum before any singular vector is
/// formed, so discarded columns are never computed, and the kept ones are
/// bit-identical to the untruncated result followed by truncate().
SvdResult svd_thin(
    const Matrix& a, double rank_tol = 1e-10,
    const std::function<std::size_t(const Vector&)>& keep = {});

/// One-sided Jacobi SVD (Hestenes). Reference implementation for testing.
SvdResult svd_jacobi_one_sided(const Matrix& a, double tol = 1e-12,
                               int max_sweeps = 64);

}  // namespace smartstore::la
