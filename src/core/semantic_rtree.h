// The semantic R-tree (Sections 2.1, 3.1.2, 3.2, 4.1-4.3).
//
// Leaves are storage units (metadata servers); non-leaf nodes are index
// units carrying, per Section 2.2: an MBR over the standardized attribute
// space of all covered metadata, a Bloom filter that is the union of the
// children's filters (Figure 4), and the node's semantic vector (here the
// raw-attribute centroid, kept in sum form for O(1) incremental updates).
//
// Construction is bottom-up (Figure 3): LSI over the units' semantic
// vectors yields pairwise correlations; units with correlation above the
// level's admission threshold ε_i aggregate into groups (capped at the
// R-tree fanout M so group sizes stay approximately equal), recursively
// until a single root remains. Thresholds may be fixed or auto-selected by
// the variance-ratio criterion (Figure 11's "optimal thresholds").
//
// Reconfiguration follows Section 3.2 and 4.1: storage units are admitted
// into the most-correlated group (split at fanout overflow via quadratic
// split on the child boxes) and removed with sibling-merge on underflow,
// with height adjustment propagating upward.
//
// Index units are mapped onto storage units bottom-up with random
// selection and labeling (Section 4.2, Figure 6); the root is additionally
// multi-mapped to one unit per root-child subtree (Section 4.3).
#pragma once

#include <cstddef>
#include <vector>

#include "bloom/bloom_filter.h"
#include "core/grouping.h"
#include "core/striped_locks.h"
#include "core/units.h"
#include "la/matrix.h"
#include "lsi/lsi.h"
#include "rtree/mbr.h"
#include "util/rng.h"

namespace smartstore::persist {
struct SnapshotAccess;  // persistence-layer serialization hook
}
namespace smartstore::util {
class ThreadPool;
}

namespace smartstore::core {

/// Non-leaf semantic R-tree node.
struct IndexUnit {
  std::size_t node_id = kInvalidIndex;
  int level = 1;  ///< 1 = first-level index unit (a "group"); root = max
  std::size_t parent = kInvalidIndex;
  /// level == 1: storage-unit ids; level > 1: node ids of the level below.
  std::vector<std::size_t> children;

  rtree::Mbr box;                 ///< standardized coords of covered files
  bloom::BloomFilter name_filter; ///< union of children's filters
  la::Vector attr_sum;            ///< raw-attribute sum over covered files
  std::size_t file_count = 0;

  UnitId mapped_unit = kInvalidIndex;  ///< storage unit hosting this node

  la::Vector centroid_raw() const;
  std::size_t byte_size() const;
};

class SemanticRTree {
 public:
  struct BuildParams {
    std::size_t fanout = 8;       ///< M: max children per index unit
    std::size_t min_fill = 2;     ///< m <= M/2: merge threshold
    double epsilon = 0.0;         ///< admission threshold; 0 = auto/level
    std::size_t lsi_rank = 0;     ///< 0 = auto (90% spectral energy)
    std::size_t bloom_bits = 1024;
    unsigned bloom_hashes = 7;
    /// Attribute indices the grouping predicate uses (Section 3.1.1's
    /// d-of-D subset); empty = all D dimensions. This is what the
    /// automatic-configuration component varies across tree variants.
    std::vector<std::size_t> lsi_dims;
  };

  /// Builds the tree bottom-up over the current unit contents. With a
  /// `pool`, the summaries of each level's nodes are computed on its
  /// workers; the tree is the same for any pool size, or none.
  void build(const std::vector<StorageUnit>& units, const BuildParams& params,
             util::ThreadPool* pool = nullptr);

  bool built() const { return root_ != kInvalidIndex; }
  std::size_t root_id() const { return root_; }
  const IndexUnit& node(std::size_t id) const { return nodes_[id]; }
  std::size_t num_nodes() const { return live_nodes_; }
  int height() const { return built() ? nodes_[root_].level : 0; }

  /// Node ids of the first-level index units (the semantic groups), in a
  /// deterministic order.
  const std::vector<std::size_t>& groups() const { return groups_; }
  std::size_t group_of_unit(UnitId u) const { return unit_group_[u]; }
  /// Storage-unit members of a group node.
  const std::vector<std::size_t>& group_members(std::size_t group_node) const {
    return nodes_[group_node].children;
  }

  /// Admission thresholds chosen per level during build (index 0 = ε_1).
  const std::vector<double>& level_epsilons() const { return level_epsilons_; }
  /// The LSI model fitted over unit semantic vectors at build time (used
  /// for similarity-based routing and unit admission).
  const lsi::LsiModel& unit_lsi() const { return unit_lsi_; }

  /// Restricts a full-D raw vector to the grouping-predicate dimensions
  /// this tree was built with (identity when lsi_dims is empty).
  la::Vector restrict_dims(const la::Vector& full) const;

  // ---- incremental file updates (Section 3.4 "local update") ------------

  /// Propagates a file insertion at `unit` up the tree: expands MBRs,
  /// inserts into Bloom filters, updates centroid sums. With `locks`, each
  /// ancestor is updated under its stripe — one node at a time, child
  /// before parent — so concurrent writers routed to different units only
  /// contend where their ancestor paths overlap. The updates are
  /// commutative (expand/insert/add), so per-node atomicity is all the
  /// walk needs. `name_hash` is the file name's digest, computed once per
  /// insert outside every stripe and shared across trees and filters.
  void on_file_inserted(UnitId unit, const la::Vector& raw,
                        const la::Vector& std_coords,
                        const bloom::ItemHash& name_hash,
                        const StripedMutexPool* locks = nullptr);

  /// Propagates a deletion (sums/counts only; MBRs and Bloom filters stay
  /// conservative until reconfiguration). Same per-stripe walk as inserts.
  void on_file_removed(UnitId unit, const la::Vector& raw,
                       const StripedMutexPool* locks = nullptr);

  // ---- system reconfiguration (Sections 3.2, 4.1) -----------------------

  /// Admits a new storage unit (already appended to `units`) into the most
  /// semantically correlated group; splits the group when it overflows the
  /// fanout M. Returns the group node id the unit joined.
  std::size_t admit_unit(const std::vector<StorageUnit>& units, UnitId u);

  /// Removes a storage unit from the tree; groups falling below the
  /// min-fill m are merged into their most correlated sibling, and a
  /// single-child root collapses (height adjustment, Section 3.2.2).
  void remove_unit(const std::vector<StorageUnit>& units, UnitId u);

  /// Recomputes every node's summary from its children (used after bulk
  /// mutations and by tests).
  void recompute_all(const std::vector<StorageUnit>& units);

  /// Re-creates every index-unit filter at `bits` (later splits follow)
  /// and refills the tree bottom-up from `units`, whose name filters must
  /// already have that geometry.
  void resize_filters(const std::vector<StorageUnit>& units, std::size_t bits);

  // ---- mapping (Sections 4.2, 4.3) ---------------------------------------

  /// Bottom-up random mapping of index units onto storage units; each unit
  /// hosts at most one index unit while unlabeled candidates remain.
  void map_index_units(util::Rng& rng);

  /// Units hosting a replica of the root (multi-mapping): one per subtree
  /// of each root child.
  const std::vector<UnitId>& root_replicas() const { return root_replicas_; }

  /// Bytes of index units hosted on storage unit `u` (incl. root replicas).
  std::size_t hosted_bytes(UnitId u) const;
  /// Total bytes of all index units.
  std::size_t total_index_bytes() const;

  /// Structural invariants: tree shape, MBR containment, count consistency.
  bool check_invariants(const std::vector<StorageUnit>& units) const;

 private:
  /// The snapshot codec in src/persist/ reads and restores the full private
  /// state (nodes, free list, group maps, fitted LSI model) so a persisted
  /// tree resumes without a rebuild.
  friend struct ::smartstore::persist::SnapshotAccess;

  std::size_t new_node(int level);
  void free_node(std::size_t id);
  /// Maps index units created by incremental reconfiguration (splits, root
  /// growth) onto storage units: each unmapped node is hosted by the first
  /// storage unit in its subtree. Section 4.2's mapping minus the
  /// randomization — the incremental path must stay deterministic so WAL
  /// replay reconstructs the same routing topology.
  void map_new_nodes();
  /// Recomputes one node's summary from its children.
  void recompute_node(const std::vector<StorageUnit>& units, std::size_t id);
  /// recompute_node over `ids`, nodes of one level (on `pool` if given):
  /// each reads only its own children, so they are independent.
  void recompute_level(const std::vector<StorageUnit>& units,
                       const std::vector<std::size_t>& ids,
                       util::ThreadPool* pool);
  void recompute_upward(const std::vector<StorageUnit>& units, std::size_t id);
  /// Splits an overflowing group/index node; recurses upward on overflow.
  void split_node(const std::vector<StorageUnit>& units, std::size_t id);
  /// Collects ids of all live nodes at a level.
  std::vector<std::size_t> nodes_at_level(int level) const;
  void rebuild_group_list();
  double child_box_distance(const std::vector<StorageUnit>& units,
                            const IndexUnit& node, std::size_t a,
                            std::size_t b) const;
  rtree::Mbr child_box(const std::vector<StorageUnit>& units,
                       const IndexUnit& node, std::size_t child) const;

  BuildParams params_;
  std::vector<IndexUnit> nodes_;
  std::vector<std::size_t> free_list_;
  std::size_t live_nodes_ = 0;
  std::size_t root_ = kInvalidIndex;
  std::vector<std::size_t> groups_;      // level-1 node ids
  std::vector<std::size_t> unit_group_;  // unit id -> group node id
  std::vector<double> level_epsilons_;
  lsi::LsiModel unit_lsi_;
  std::vector<UnitId> root_replicas_;
};

}  // namespace smartstore::core
