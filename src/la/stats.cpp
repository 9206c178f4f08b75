#include "la/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace smartstore::la {

double mean(const Vector& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

double stdev(const Vector& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(v.size()));
}

double median(Vector v) { return percentile(std::move(v), 50.0); }

double percentile(Vector v, double p) {
  if (v.empty()) return 0.0;
  assert(p >= 0.0 && p <= 100.0);
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

RowStandardizer RowStandardizer::fit(const Matrix& a) {
  // mean() and stdev() of every row, with their arithmetic: each row's sums
  // run in column order. The rows walk the columns together, so their
  // dependency chains overlap instead of queueing.
  const std::size_t rows = a.rows(), n = a.cols();
  RowStandardizer s;
  s.means.assign(rows, 0.0);
  s.inv_stdevs.assign(rows, 0.0);
  if (n == 0) return s;
  Vector acc(rows, 0.0);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < rows; ++r) acc[r] += a(r, c);
  for (std::size_t r = 0; r < rows; ++r)
    s.means[r] = acc[r] / static_cast<double>(n);
  if (n < 2) return s;  // stdev 0
  std::fill(acc.begin(), acc.end(), 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      const double d = a(r, c) - s.means[r];
      acc[r] += d * d;
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const double sd = std::sqrt(acc[r] / static_cast<double>(n));
    s.inv_stdevs[r] = sd > 0.0 ? 1.0 / sd : 0.0;
  }
  return s;
}

void RowStandardizer::apply(Matrix& a) const {
  assert(a.rows() == means.size());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* row = a.row_ptr(r);
    for (std::size_t c = 0; c < a.cols(); ++c)
      row[c] = (row[c] - means[r]) * inv_stdevs[r];
  }
}

Vector RowStandardizer::transform(std::span<const double> raw) const {
  Vector out(raw.size());
  transform(raw, out);
  return out;
}

void RowStandardizer::transform(std::span<const double> raw,
                                std::span<double> out) const {
  assert(raw.size() == means.size() && out.size() == raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i)
    out[i] = (raw[i] - means[i]) * inv_stdevs[i];
}

}  // namespace smartstore::la
