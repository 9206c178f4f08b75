// Minimum Bounding Rectangles (Guttman, SIGMOD'84).
//
// An MBR is the minimal multi-dimensional interval approximation of the
// enclosed data: per dimension, the lower and upper bound (Section 2.2 of
// the paper). Every semantic R-tree node carries one; range queries test
// box intersection and top-k queries use the point-to-MBR minimum distance
// as the branch-and-bound lower bound.
#pragma once

#include <cstddef>
#include <span>

#include "la/matrix.h"

namespace smartstore::rtree {

class Mbr {
 public:
  Mbr() = default;  ///< empty (invalid until expanded)

  /// Degenerate MBR covering a single point.
  explicit Mbr(const la::Vector& point) : lo_(point), hi_(point) {}
  Mbr(la::Vector lo, la::Vector hi);

  bool valid() const { return !lo_.empty(); }
  std::size_t dims() const { return lo_.size(); }

  const la::Vector& lo() const { return lo_; }
  const la::Vector& hi() const { return hi_; }

  /// Grows to cover the point.
  void expand(std::span<const double> point);
  /// Grows to cover another MBR.
  void expand(const Mbr& other);

  bool contains(const la::Vector& point) const;
  bool contains(const Mbr& other) const;
  bool intersects(const Mbr& other) const;

  /// Product of side lengths (Guttman's area heuristic).
  double area() const;
  /// Sum of side lengths (margin).
  double margin() const;
  /// Area increase needed to include `other` (insertion heuristic).
  double enlargement(const Mbr& other) const;

  /// Smallest squared Euclidean distance from `point` to any point of the
  /// box; 0 when inside. Lower bound for NN search.
  double min_squared_distance(const la::Vector& point) const;
  /// Largest squared Euclidean distance from `point` to a corner of the
  /// box; upper bound used to seed MaxD.
  double max_squared_distance(const la::Vector& point) const;

  la::Vector center() const;

  std::size_t byte_size() const {
    return sizeof(*this) + (lo_.capacity() + hi_.capacity()) * sizeof(double);
  }

  bool operator==(const Mbr&) const = default;

 private:
  la::Vector lo_, hi_;
};

/// The union MBR of two boxes.
Mbr merge(const Mbr& a, const Mbr& b);

}  // namespace smartstore::rtree
