// The unified query surface: one request type covering point / range /
// top-k, one result type carrying the matching ids plus per-operation
// accounting.
//
// QueryRequest is a tagged union (std::variant) over the metadata layer's
// query structs — the same types the trace generators emit — plus an
// optional per-request routing override. QueryResult mirrors the shape:
// `kind` tags which members are meaningful, and every result carries the
// QueryStats the store counted for the operation: messages, hops and
// groups, not time (the paper's virtual-time cost model belongs to its
// experiments, not to a serving store).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "metadata/file_metadata.h"
#include "metadata/query.h"
#include "smartstore/options.h"

namespace smartstore::db {

enum class QueryKind : std::uint8_t { kPoint, kRange, kTopK };

/// Per-operation accounting (a stable public mirror of the core layer's
/// QueryStats — the facade converts, so embedders never include core
/// headers and the internal struct can evolve freely).
struct QueryStats {
  std::uint64_t messages = 0;  ///< network messages this operation sent
  std::uint64_t hops = 0;      ///< inter-unit hops
  int routing_hops = 0;        ///< group-distance metric (0 = one group)
  std::size_t groups_visited = 0;
  std::size_t records_scanned = 0;
  bool failed = false;         ///< touched an inactive storage unit

  bool operator==(const QueryStats&) const = default;
};

struct QueryRequest {
  std::variant<metadata::PointQuery, metadata::RangeQuery, metadata::TopKQuery>
      op;
  /// Overrides Options::routing for this request when set.
  std::optional<Routing> routing;

  QueryKind kind() const { return static_cast<QueryKind>(op.index()); }

  // ---- convenience constructors -----------------------------------------

  static QueryRequest Point(std::string filename) {
    QueryRequest r;
    r.op = metadata::PointQuery{std::move(filename)};
    return r;
  }
  static QueryRequest Point(metadata::PointQuery q) {
    QueryRequest r;
    r.op = std::move(q);
    return r;
  }
  static QueryRequest Range(metadata::RangeQuery q) {
    QueryRequest r;
    r.op = std::move(q);
    return r;
  }
  static QueryRequest TopK(metadata::TopKQuery q) {
    QueryRequest r;
    r.op = std::move(q);
    return r;
  }
};

struct QueryResult {
  QueryKind kind = QueryKind::kPoint;

  // ---- point -------------------------------------------------------------
  bool found = false;
  metadata::FileId id = 0;
  std::uint64_t unit = 0;   ///< storage unit hosting the file (when found)
  bool first_try = false;   ///< resolved at the first routed group

  // ---- range + top-k -----------------------------------------------------
  std::vector<metadata::FileId> ids;  ///< matches (top-k: nearest first)

  // ---- top-k -------------------------------------------------------------
  std::vector<std::pair<double, metadata::FileId>> hits;  ///< (dist², id)

  QueryStats stats;

  /// Result cardinality regardless of kind (point: 0 or 1).
  std::size_t count() const {
    if (kind == QueryKind::kPoint) return found ? 1 : 0;
    return ids.size();
  }
};

}  // namespace smartstore::db
