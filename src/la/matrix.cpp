#include "la/matrix.h"

#include <algorithm>
#include <cmath>

namespace smartstore::la {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::row(std::size_t r) const {
  assert(r < rows_);
  return Vector(row_ptr(r), row_ptr(r) + cols_);
}

Vector Matrix::col(std::size_t c) const {
  assert(c < cols_);
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  assert(v.size() == cols_);
  std::copy(v.begin(), v.end(), row_ptr(r));
}

void Matrix::set_col(std::size_t c, const Vector& v) {
  assert(v.size() == rows_);
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.row_ptr(k);
      double* orow = out.row_ptr(i);
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Vector Matrix::multiply(const Vector& v) const {
  assert(v.size() == cols_);
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* r = row_ptr(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += r[j] * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix Matrix::gram() const {
  Matrix g(cols_, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* rp = row_ptr(r);
    for (std::size_t i = 0; i < cols_; ++i) {
      const double ri = rp[i];
      if (ri == 0.0) continue;
      double* grow = g.row_ptr(i);
      for (std::size_t j = i; j < cols_; ++j) grow[j] += ri * rp[j];
    }
  }
  for (std::size_t i = 0; i < cols_; ++i)
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  return g;
}

Matrix Matrix::outer_gram() const {
  Matrix g(rows_, rows_, 0.0);
  // Each entry is one dot product summed in column order. Four entries of
  // a row walk the columns together, so their dependency chains overlap
  // instead of queueing; past the last row the spare lanes repeat it and
  // are dropped.
  constexpr std::size_t kLanes = 4;
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* ri = row_ptr(i);
    for (std::size_t j0 = i; j0 < rows_; j0 += kLanes) {
      const double* rj[kLanes];
      for (std::size_t t = 0; t < kLanes; ++t)
        rj[t] = row_ptr(std::min(j0 + t, rows_ - 1));
      double acc[kLanes] = {};
      for (std::size_t c = 0; c < cols_; ++c) {
        for (std::size_t t = 0; t < kLanes; ++t) acc[t] += ri[c] * rj[t][c];
      }
      for (std::size_t t = 0; t < kLanes && j0 + t < rows_; ++t) {
        g(i, j0 + t) = acc[t];
        g(j0 + t, i) = acc[t];
      }
    }
  }
  return g;
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i)
    m = std::max(m, std::fabs(a.data_[i] - b.data_[i]));
  return m;
}

double dot(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(const Vector& a) { return std::sqrt(dot(a, a)); }

double euclidean_distance(const Vector& a, const Vector& b) {
  return std::sqrt(squared_distance(a, b));
}

double squared_distance(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double cosine_similarity(const Vector& a, const Vector& b) {
  const double na = norm2(a), nb = norm2(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

Vector add(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector sub(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector scale(const Vector& a, double s) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

}  // namespace smartstore::la
