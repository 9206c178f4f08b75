// Tests for the eigensolver and SVD: reconstruction, orthogonality,
// agreement between the Gram route and one-sided Jacobi, truncation.
#include "la/svd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "util/rng.h"

namespace smartstore::la {
namespace {

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gauss();
  return a;
}

double orthogonality_defect(const Matrix& u) {
  // max |U^T U - I|
  const Matrix g = u.gram();
  double worst = 0.0;
  for (std::size_t i = 0; i < g.rows(); ++i)
    for (std::size_t j = 0; j < g.cols(); ++j)
      worst = std::max(worst, std::fabs(g(i, j) - (i == j ? 1.0 : 0.0)));
  return worst;
}

TEST(EigenSymmetric, DiagonalMatrix) {
  Matrix a(3, 3, 0.0);
  a(0, 0) = 5;
  a(1, 1) = 2;
  a(2, 2) = 9;
  const auto r = eigen_symmetric(a);
  EXPECT_NEAR(r.eigenvalues[0], 9, 1e-10);
  EXPECT_NEAR(r.eigenvalues[1], 5, 1e-10);
  EXPECT_NEAR(r.eigenvalues[2], 2, 1e-10);
}

TEST(EigenSymmetric, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a(2, 2);
  a.set_row(0, {2, 1});
  a.set_row(1, {1, 2});
  const auto r = eigen_symmetric(a);
  EXPECT_NEAR(r.eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(r.eigenvalues[1], 1.0, 1e-10);
}

TEST(EigenSymmetric, ReconstructsMatrix) {
  const Matrix base = random_matrix(6, 6, 1);
  // Symmetrize.
  Matrix a(6, 6);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      a(i, j) = 0.5 * (base(i, j) + base(j, i));
  const auto r = eigen_symmetric(a);
  // Q diag(l) Q^T == a
  Matrix recon(6, 6, 0.0);
  for (std::size_t k = 0; k < 6; ++k)
    for (std::size_t i = 0; i < 6; ++i)
      for (std::size_t j = 0; j < 6; ++j)
        recon(i, j) += r.eigenvalues[k] * r.eigenvectors(i, k) *
                       r.eigenvectors(j, k);
  EXPECT_LT(Matrix::max_abs_diff(recon, a), 1e-9);
  EXPECT_LT(orthogonality_defect(r.eigenvectors), 1e-10);
}

struct SvdShape {
  std::size_t m, n;
  std::uint64_t seed;
};

class SvdParamTest : public ::testing::TestWithParam<SvdShape> {};

TEST_P(SvdParamTest, ThinSvdReconstructs) {
  const auto [m, n, seed] = GetParam();
  const Matrix a = random_matrix(m, n, seed);
  const SvdResult svd = svd_thin(a);
  EXPECT_LE(svd.sigma.size(), std::min(m, n));
  EXPECT_LT(Matrix::max_abs_diff(svd.reconstruct(), a), 1e-8);
  EXPECT_LT(orthogonality_defect(svd.u), 1e-8);
  EXPECT_LT(orthogonality_defect(svd.v), 1e-8);
  for (std::size_t i = 1; i < svd.sigma.size(); ++i)
    EXPECT_GE(svd.sigma[i - 1], svd.sigma[i]);
}

TEST_P(SvdParamTest, JacobiAgreesWithThin) {
  const auto [m, n, seed] = GetParam();
  const Matrix a = random_matrix(m, n, seed + 1000);
  const SvdResult s1 = svd_thin(a);
  const SvdResult s2 = svd_jacobi_one_sided(a);
  ASSERT_EQ(s1.sigma.size(), s2.sigma.size());
  for (std::size_t i = 0; i < s1.sigma.size(); ++i)
    EXPECT_NEAR(s1.sigma[i], s2.sigma[i], 1e-8 * (1.0 + s1.sigma[0]));
  EXPECT_LT(Matrix::max_abs_diff(s2.reconstruct(), a), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdParamTest,
    ::testing::Values(SvdShape{3, 3, 1}, SvdShape{2, 7, 2}, SvdShape{7, 2, 3},
                      SvdShape{10, 10, 4}, SvdShape{4, 32, 5},
                      SvdShape{32, 4, 6}, SvdShape{1, 5, 7},
                      SvdShape{5, 1, 8}, SvdShape{12, 40, 9}));

TEST(Svd, RankDeficientMatrixDropsZeroSingularValues) {
  // Rank-1: outer product.
  Matrix a(4, 5);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      a(i, j) = static_cast<double>(i + 1) * static_cast<double>(j + 2);
  const SvdResult svd = svd_thin(a);
  EXPECT_EQ(svd.sigma.size(), 1u);
  EXPECT_LT(Matrix::max_abs_diff(svd.reconstruct(), a), 1e-9);
}

TEST(Svd, TruncationKeepsLargestTriplets) {
  const Matrix a = random_matrix(6, 20, 42);
  SvdResult svd = svd_thin(a);
  const Vector full_sigma = svd.sigma;
  svd.truncate(3);
  ASSERT_EQ(svd.sigma.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(svd.sigma[i], full_sigma[i]);
  EXPECT_EQ(svd.u.cols(), 3u);
  EXPECT_EQ(svd.v.cols(), 3u);
  // Rank-3 reconstruction error is bounded by sigma_4 (Eckart–Young).
  const Matrix r3 = svd.reconstruct();
  Matrix diff(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      diff(i, j) = a(i, j) - r3(i, j);
  const SvdResult err = svd_thin(diff);
  EXPECT_NEAR(err.sigma[0], full_sigma[3], 1e-7 * (1 + full_sigma[0]));
}

TEST(Svd, TruncateBeyondRankIsNoop) {
  const Matrix a = random_matrix(3, 5, 77);
  SvdResult svd = svd_thin(a);
  const std::size_t r = svd.sigma.size();
  svd.truncate(100);
  EXPECT_EQ(svd.sigma.size(), r);
}

TEST(Svd, SingularValuesOfOrthogonalColumnsAreNorms) {
  Matrix a(4, 2, 0.0);
  a(0, 0) = 3;  // column 0 = (3,0,0,0), norm 3
  a(1, 1) = 7;  // column 1 = (0,7,0,0), norm 7
  const SvdResult svd = svd_thin(a);
  ASSERT_EQ(svd.sigma.size(), 2u);
  EXPECT_NEAR(svd.sigma[0], 7, 1e-10);
  EXPECT_NEAR(svd.sigma[1], 3, 1e-10);
}

/// svd_thin as it was before the rank rule could read the spectrum first:
/// the Gram matrix one dot product at a time, every one of the r triplets
/// formed, then truncate(p). The kept-columns route must equal it bit for
/// bit (LSI keeps p of r and used to form all r columns of V).
SvdResult reference_svd_truncated(const Matrix& a, std::size_t p) {
  const bool wide = a.rows() <= a.cols();
  const Matrix m = wide ? a : a.transposed();
  const std::size_t rows = m.rows(), cols = m.cols();
  Matrix gram(rows, rows, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = i; j < rows; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < cols; ++c) acc += m(i, c) * m(j, c);
      gram(i, j) = acc;
      gram(j, i) = acc;
    }
  }
  const SymmetricEigenResult eig = eigen_symmetric(gram);
  const double smax = std::sqrt(std::max(0.0, eig.eigenvalues[0]));
  const double cutoff = 1e-10 * std::max(smax, 1e-300);
  std::size_t r = 0;
  for (std::size_t k = 0; k < rows; ++k) {
    const double lk = eig.eigenvalues[k];
    if (lk > 0.0 && std::sqrt(lk) > cutoff) ++r;
  }
  SvdResult out;
  out.sigma.resize(r);
  out.u = Matrix(rows, r);
  out.v = Matrix(cols, r);
  for (std::size_t k = 0; k < r; ++k) {
    const double s = std::sqrt(eig.eigenvalues[k]);
    out.sigma[k] = s;
    for (std::size_t i = 0; i < rows; ++i) out.u(i, k) = eig.eigenvectors(i, k);
    for (std::size_t j = 0; j < cols; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < rows; ++i) acc += m(i, j) * out.u(i, k);
      out.v(j, k) = acc / s;
    }
  }
  out.truncate(p);
  if (!wide) std::swap(out.u, out.v);
  return out;
}

bool same_bits(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.rows(); ++i)
    if (std::memcmp(x.row_ptr(i), y.row_ptr(i), x.cols() * sizeof(double)) != 0)
      return false;
  return true;
}

TEST(Svd, KeptColumnsEqualTheTruncatedFullDecomposition) {
  std::size_t cases = 0;
  // Wide (the LSI placement shape: attributes x documents), tall, square.
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{10, 2000},
                             {10, 37},
                             {40, 12},
                             {6, 6}}) {
    const Matrix a = random_matrix(m, n, 1000 * m + n);
    const Vector full_sigma = svd_thin(a).sigma;
    for (std::size_t keep : {std::size_t{1}, std::size_t{4}, std::size_t{99}}) {
      Vector seen;
      const SvdResult got =
          svd_thin(a, 1e-10, [&](const Vector& sigma) -> std::size_t {
            seen = sigma;
            return keep;
          });
      EXPECT_EQ(seen, full_sigma);  // the rule reads the whole spectrum
      const SvdResult want = reference_svd_truncated(a, keep);
      const std::string where =
          std::to_string(m) + "x" + std::to_string(n) + " keep " +
          std::to_string(keep);
      EXPECT_EQ(got.sigma, want.sigma) << where;
      EXPECT_TRUE(same_bits(got.u, want.u)) << where;
      EXPECT_TRUE(same_bits(got.v, want.v)) << where;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 12u);
}

TEST(Svd, EmptyAndTinyInputs) {
  Matrix a(1, 1);
  a(0, 0) = 4;
  const SvdResult svd = svd_thin(a);
  ASSERT_EQ(svd.sigma.size(), 1u);
  EXPECT_NEAR(svd.sigma[0], 4.0, 1e-12);
}

}  // namespace
}  // namespace smartstore::la
