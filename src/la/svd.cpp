#include "la/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace smartstore::la {

Matrix SvdResult::reconstruct() const {
  const std::size_t m = u.rows(), n = v.rows(), r = sigma.size();
  Matrix out(m, n, 0.0);
  for (std::size_t k = 0; k < r; ++k) {
    for (std::size_t i = 0; i < m; ++i) {
      const double us = u(i, k) * sigma[k];
      if (us == 0.0) continue;
      double* orow = out.row_ptr(i);
      for (std::size_t j = 0; j < n; ++j) orow[j] += us * v(j, k);
    }
  }
  return out;
}

void SvdResult::truncate(std::size_t p) {
  const std::size_t r = sigma.size();
  if (p >= r) return;
  Matrix u2(u.rows(), p), v2(v.rows(), p);
  for (std::size_t k = 0; k < p; ++k) {
    for (std::size_t i = 0; i < u.rows(); ++i) u2(i, k) = u(i, k);
    for (std::size_t j = 0; j < v.rows(); ++j) v2(j, k) = v(j, k);
  }
  u = std::move(u2);
  v = std::move(v2);
  sigma.resize(p);
}

SymmetricEigenResult eigen_symmetric(const Matrix& a, double tol,
                                     int max_sweeps) {
  const std::size_t n = a.rows();
  Matrix d = a;                 // working copy, driven to diagonal
  Matrix q = Matrix::identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) off += d(i, j) * d(i, j);
    if (std::sqrt(off) <= tol * std::max(1.0, d.frobenius_norm())) break;

    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t r = p + 1; r < n; ++r) {
        const double apq = d(p, r);
        if (std::fabs(apq) <= 1e-300) continue;
        const double app = d(p, p), aqq = d(r, r);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply rotation J(p, r, theta) on both sides of d and accumulate
        // into q.
        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p), dkq = d(k, r);
          d(k, p) = c * dkp - s * dkq;
          d(k, r) = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k), dqk = d(r, k);
          d(p, k) = c * dpk - s * dqk;
          d(r, k) = s * dpk + c * dqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double qkp = q(k, p), qkq = q(k, r);
          q(k, p) = c * qkp - s * qkq;
          q(k, r) = s * qkp + c * qkq;
        }
      }
    }
  }

  // Sort eigenpairs by decreasing eigenvalue.
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t x, std::size_t y) { return d(x, x) > d(y, y); });

  SymmetricEigenResult res;
  res.eigenvalues.resize(n);
  res.eigenvectors = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    res.eigenvalues[k] = d(idx[k], idx[k]);
    for (std::size_t i = 0; i < n; ++i)
      res.eigenvectors(i, k) = q(i, idx[k]);
  }
  return res;
}

namespace {

/// Gram route when rows <= cols: eig(A A^T) gives U and sigma^2; then
/// v_k = A^T u_k / sigma_k for the `keep(sigma)` kept triplets only.
SvdResult svd_via_rows(
    const Matrix& a, double rank_tol,
    const std::function<std::size_t(const Vector&)>& keep) {
  const std::size_t m = a.rows(), n = a.cols();
  SymmetricEigenResult eig = eigen_symmetric(a.outer_gram());

  // Determine numerical rank.
  const double lmax = std::max(0.0, eig.eigenvalues.empty() ? 0.0
                                                            : eig.eigenvalues[0]);
  const double smax = std::sqrt(lmax);
  const double cutoff = rank_tol * std::max(smax, 1e-300);
  std::size_t r = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const double lk = eig.eigenvalues[k];
    if (lk > 0.0 && std::sqrt(lk) > cutoff) ++r;
  }

  SvdResult out;
  out.sigma.resize(r);
  for (std::size_t k = 0; k < r; ++k)
    out.sigma[k] = std::sqrt(eig.eigenvalues[k]);
  if (keep) out.sigma.resize(std::min(r, keep(out.sigma)));
  r = out.sigma.size();
  out.u = Matrix(m, r);
  out.v = Matrix(n, r);
  for (std::size_t k = 0; k < r; ++k) {
    const double s = out.sigma[k];
    for (std::size_t i = 0; i < m; ++i) out.u(i, k) = eig.eigenvectors(i, k);
    // v_k = A^T u_k / s
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i) acc += a(i, j) * out.u(i, k);
      out.v(j, k) = acc / s;
    }
  }
  return out;
}

}  // namespace

SvdResult svd_thin(const Matrix& a, double rank_tol,
                   const std::function<std::size_t(const Vector&)>& keep) {
  if (a.rows() <= a.cols()) return svd_via_rows(a, rank_tol, keep);
  // Tall matrix: decompose the transpose and swap factors.
  SvdResult t = svd_via_rows(a.transposed(), rank_tol, keep);
  SvdResult out;
  out.u = std::move(t.v);
  out.v = std::move(t.u);
  out.sigma = std::move(t.sigma);
  return out;
}

SvdResult svd_jacobi_one_sided(const Matrix& a, double tol, int max_sweeps) {
  // Hestenes method: orthogonalize the columns of a working copy W = A V by
  // plane rotations applied on the right; on convergence the column norms
  // are the singular values, normalized columns are U, and the accumulated
  // rotations form V.
  const std::size_t m = a.rows(), n = a.cols();
  Matrix w = a;
  Matrix v = Matrix::identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          alpha += w(i, p) * w(i, p);
          beta += w(i, q) * w(i, q);
          gamma += w(i, p) * w(i, q);
        }
        if (std::fabs(gamma) <= tol * std::sqrt(alpha * beta) ||
            gamma == 0.0) {
          continue;
        }
        rotated = true;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wip = w(i, p), wiq = w(i, q);
          w(i, p) = c * wip - s * wiq;
          w(i, q) = s * wip + c * wiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = v(i, p), viq = v(i, q);
          v(i, p) = c * vip - s * viq;
          v(i, q) = s * vip + c * viq;
        }
      }
    }
    if (!rotated) break;
  }

  // Column norms -> singular values; sort decreasing, drop numerically zero.
  std::vector<double> norms(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += w(i, j) * w(i, j);
    norms[j] = std::sqrt(acc);
  }
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t x, std::size_t y) { return norms[x] > norms[y]; });

  const double smax = norms.empty() ? 0.0 : norms[idx[0]];
  const double cutoff = 1e-12 * std::max(smax, 1e-300);
  std::size_t r = 0;
  for (std::size_t j = 0; j < n; ++j)
    if (norms[idx[j]] > cutoff) ++r;

  SvdResult out;
  out.sigma.resize(r);
  out.u = Matrix(m, r);
  out.v = Matrix(n, r);
  for (std::size_t k = 0; k < r; ++k) {
    const std::size_t j = idx[k];
    out.sigma[k] = norms[j];
    for (std::size_t i = 0; i < m; ++i) out.u(i, k) = w(i, j) / norms[j];
    for (std::size_t i = 0; i < n; ++i) out.v(i, k) = v(i, j);
  }
  return out;
}

}  // namespace smartstore::la
