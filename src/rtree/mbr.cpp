#include "rtree/mbr.h"

#include <algorithm>
#include <cassert>

namespace smartstore::rtree {

Mbr::Mbr(la::Vector lo, la::Vector hi) : lo_(std::move(lo)), hi_(std::move(hi)) {
  assert(lo_.size() == hi_.size());
#ifndef NDEBUG
  for (std::size_t d = 0; d < lo_.size(); ++d) assert(lo_[d] <= hi_[d]);
#endif
}

void Mbr::expand(std::span<const double> point) {
  if (!valid()) {
    lo_.assign(point.begin(), point.end());
    hi_ = lo_;
    return;
  }
  assert(point.size() == dims());
  for (std::size_t d = 0; d < dims(); ++d) {
    lo_[d] = std::min(lo_[d], point[d]);
    hi_[d] = std::max(hi_[d], point[d]);
  }
}

void Mbr::expand(const Mbr& other) {
  if (!other.valid()) return;
  if (!valid()) {
    *this = other;
    return;
  }
  assert(other.dims() == dims());
  for (std::size_t d = 0; d < dims(); ++d) {
    lo_[d] = std::min(lo_[d], other.lo_[d]);
    hi_[d] = std::max(hi_[d], other.hi_[d]);
  }
}

bool Mbr::contains(const la::Vector& point) const {
  if (!valid()) return false;
  assert(point.size() == dims());
  for (std::size_t d = 0; d < dims(); ++d)
    if (point[d] < lo_[d] || point[d] > hi_[d]) return false;
  return true;
}

bool Mbr::contains(const Mbr& other) const {
  if (!valid() || !other.valid()) return false;
  for (std::size_t d = 0; d < dims(); ++d)
    if (other.lo_[d] < lo_[d] || other.hi_[d] > hi_[d]) return false;
  return true;
}

bool Mbr::intersects(const Mbr& other) const {
  if (!valid() || !other.valid()) return false;
  assert(other.dims() == dims());
  for (std::size_t d = 0; d < dims(); ++d)
    if (other.hi_[d] < lo_[d] || other.lo_[d] > hi_[d]) return false;
  return true;
}

double Mbr::area() const {
  if (!valid()) return 0.0;
  double a = 1.0;
  for (std::size_t d = 0; d < dims(); ++d) a *= (hi_[d] - lo_[d]);
  return a;
}

double Mbr::margin() const {
  if (!valid()) return 0.0;
  double m = 0.0;
  for (std::size_t d = 0; d < dims(); ++d) m += (hi_[d] - lo_[d]);
  return m;
}

double Mbr::enlargement(const Mbr& other) const {
  Mbr u = *this;
  u.expand(other);
  return u.area() - area();
}

double Mbr::min_squared_distance(const la::Vector& point) const {
  assert(valid() && point.size() == dims());
  double acc = 0.0;
  for (std::size_t d = 0; d < dims(); ++d) {
    double delta = 0.0;
    if (point[d] < lo_[d]) {
      delta = lo_[d] - point[d];
    } else if (point[d] > hi_[d]) {
      delta = point[d] - hi_[d];
    }
    acc += delta * delta;
  }
  return acc;
}

double Mbr::max_squared_distance(const la::Vector& point) const {
  assert(valid() && point.size() == dims());
  double acc = 0.0;
  for (std::size_t d = 0; d < dims(); ++d) {
    const double dlo = std::abs(point[d] - lo_[d]);
    const double dhi = std::abs(point[d] - hi_[d]);
    const double m = std::max(dlo, dhi);
    acc += m * m;
  }
  return acc;
}

la::Vector Mbr::center() const {
  la::Vector c(dims());
  for (std::size_t d = 0; d < dims(); ++d) c[d] = 0.5 * (lo_[d] + hi_[d]);
  return c;
}

Mbr merge(const Mbr& a, const Mbr& b) {
  Mbr out = a;
  out.expand(b);
  return out;
}

}  // namespace smartstore::rtree
