// Tests for statistics helpers and the row standardizer.
#include "la/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace smartstore::la {
namespace {

TEST(Stats, MeanAndStdev) {
  const Vector v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(stdev(v), 2.0);  // classic population-stdev example
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stdev({}), 0.0);
  EXPECT_DOUBLE_EQ(stdev({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(mean({5.0}), 5.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Stats, Percentiles) {
  Vector v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100.0);
  EXPECT_NEAR(percentile(v, 50), 50.5, 1e-9);
}

TEST(RowStandardizer, ZScoresRows) {
  Matrix a(2, 4);
  a.set_row(0, {1, 2, 3, 4});
  a.set_row(1, {10, 10, 10, 10});  // constant row
  const RowStandardizer s = RowStandardizer::fit(a);
  Matrix b = a;
  s.apply(b);
  // Row 0: mean 2.5, zero-mean after standardization.
  EXPECT_NEAR(mean(b.row(0)), 0.0, 1e-12);
  EXPECT_NEAR(stdev(b.row(0)), 1.0, 1e-12);
  // Constant row maps to zeros.
  for (double x : b.row(1)) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(RowStandardizer, TransformSingleVector) {
  Matrix a(2, 3);
  a.set_row(0, {0, 10, 20});
  a.set_row(1, {5, 5, 5});
  const RowStandardizer s = RowStandardizer::fit(a);
  const Vector t = s.transform({10, 7});
  EXPECT_NEAR(t[0], 0.0, 1e-12);  // 10 is the row-0 mean
  EXPECT_DOUBLE_EQ(t[1], 0.0);    // constant row collapses
}

TEST(RowStandardizer, TransformMatchesApply) {
  Matrix a(3, 5);
  a.set_row(0, {1, 2, 3, 4, 5});
  a.set_row(1, {-1, 0, 2, 0, -1});
  a.set_row(2, {100, 200, 150, 120, 180});
  const RowStandardizer s = RowStandardizer::fit(a);
  Matrix b = a;
  s.apply(b);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const Vector col = s.transform(a.col(j));
    for (std::size_t i = 0; i < a.rows(); ++i)
      EXPECT_NEAR(col[i], b(i, j), 1e-12);
  }
}

TEST(RowStandardizer, FitEqualsPerRowMeanAndStdevBitForBit) {
  // fit() walks all rows at once; each row's parameters must still be
  // exactly mean() and stdev() of that row (the column sums run in order).
  for (std::size_t cols : {0u, 1u, 2u, 7u, 5000u}) {
    Matrix a(10, cols);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        const double x = static_cast<double>(j * (i + 3) % 101);
        a(i, j) = i == 3 ? 4.0  // a constant row
                         : static_cast<double>(i) * 1e3 +
                               std::sin(x) * (1.0 + static_cast<double>(i) * 7);
      }
    }
    const RowStandardizer s = RowStandardizer::fit(a);
    ASSERT_EQ(s.means.size(), a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const Vector row = a.row(i);
      const double sd = stdev(row);
      EXPECT_EQ(s.means[i], mean(row)) << "cols=" << cols << " row " << i;
      EXPECT_EQ(s.inv_stdevs[i], sd > 0.0 ? 1.0 / sd : 0.0)
          << "cols=" << cols << " row " << i;
    }
  }
}

}  // namespace
}  // namespace smartstore::la
