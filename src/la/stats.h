// Small statistics helpers: per-dimension standardization for building the
// attribute-file matrix (metadata attributes have wildly different scales:
// bytes vs seconds vs counts), plus summary statistics for experiment output.
#pragma once

#include <cstddef>
#include <span>

#include "la/matrix.h"

namespace smartstore::la {

double mean(const Vector& v);
double stdev(const Vector& v);
double median(Vector v);  // by value: sorts a copy
double percentile(Vector v, double p);  // p in [0, 100]

/// Per-row standardization parameters for an attribute-file matrix whose
/// rows are attributes: value -> (value - mean) / stdev. Rows with zero
/// spread map to 0 (constant attributes carry no correlation signal).
struct RowStandardizer {
  Vector means;
  Vector inv_stdevs;  ///< 0 where stdev == 0

  /// Learns parameters from the rows of `a`.
  static RowStandardizer fit(const Matrix& a);

  /// Applies in place.
  void apply(Matrix& a) const;

  /// Standardizes a single attribute vector (one value per row of the
  /// original matrix).
  Vector transform(std::span<const double> raw) const;
  Vector transform(const Vector& raw) const {
    return transform(std::span<const double>(raw));
  }
  /// The same values written to `out` (raw.size() of them), allocating
  /// nothing.
  void transform(std::span<const double> raw, std::span<double> out) const;
};

}  // namespace smartstore::la
