// Storage units, replicated group summaries and version deltas.
//
// A storage unit is a metadata server — a leaf of the semantic R-tree
// (Section 2.3). It holds file metadata records, a local filename index, a
// counting Bloom filter for point queries, the unit's MBR in standardized
// attribute space and its raw-attribute centroid (its semantic vector).
//
// GroupReplica is the unit of the off-line pre-processing scheme (Section
// 3.4): every storage unit keeps replicas of the *first-level index
// units'* summaries and routes queries by checking them locally. Replicas
// go stale as files are inserted/deleted; consistency is restored either
// by lazy full refreshes (when accumulated changes exceed a threshold) or
// incrementally by the versioning scheme of Section 4.4 — sealed
// VersionDelta objects multicast to all units and consulted
// rolling-backward at query time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_filter.h"
#include "la/matrix.h"
#include "metadata/file_metadata.h"
#include "rtree/mbr.h"

namespace smartstore::core {

using UnitId = std::size_t;
inline constexpr std::size_t kInvalidIndex = static_cast<std::size_t>(-1);

/// Sentinel GC watermark when no snapshot is pinned: every tombstone is
/// immediately reclaimable.
inline constexpr std::uint64_t kNoWatermark =
    static_cast<std::uint64_t>(-1);

/// Sentinel "no forced seq" for insert paths: stamp a fresh commit seq
/// instead of re-homing under a preserved one.
inline constexpr std::uint64_t kAssignSeq = static_cast<std::uint64_t>(-1);

/// A record version that has been deleted but is still visible to some
/// pinned snapshot: visible at snapshot S iff added_seq <= S < deleted_seq.
/// Tombstones keep the standardized coordinates so snapshot scans can run
/// without re-standardizing.
struct TombstoneRecord {
  metadata::FileMetadata file;
  la::Vector std_coords;
  std::uint64_t added_seq = 0;
  std::uint64_t deleted_seq = 0;
};

/// One metadata server (semantic R-tree leaf).
class StorageUnit {
 public:
  StorageUnit(UnitId id, std::size_t bloom_bits, unsigned bloom_hashes);

  UnitId id() const { return id_; }
  std::size_t file_count() const { return files_.size(); }
  bool empty() const { return files_.empty(); }

  /// Adds a record; `std_coords` is the file's standardized full-D vector
  /// (the geometry every MBR in the store is expressed in) and `name_hash`
  /// the digest of its name, which the caller computes once per operation
  /// and shares with every filter the operation touches. `added_seq` is
  /// the commit sequence stamped on the mutation (0 = pre-history: bulk
  /// builds and legacy snapshots, visible to every snapshot).
  void add_file(const metadata::FileMetadata& f, const la::Vector& std_coords,
                const bloom::ItemHash& name_hash, std::uint64_t added_seq = 0);

  /// Removes by id; returns the removed record. `name_hash` is the digest
  /// of the record's name. MBRs are not shrunk on delete (standard R-tree
  /// practice; bounds stay conservative until the next reconfiguration).
  /// With `deleted_seq` > 0 the removed version is kept on the unit's
  /// tombstone chain so pinned snapshots older than the delete can still
  /// see it; `deleted_seq` == 0 drops it outright (bulk moves that re-home
  /// a record under its original added_seq).
  std::optional<metadata::FileMetadata> remove_file(
      metadata::FileId id, const bloom::ItemHash& name_hash,
      std::uint64_t deleted_seq = 0);

  /// Local filename lookup (exact).
  const metadata::FileMetadata* find_by_name(const std::string& name) const;
  const metadata::FileMetadata* find_by_id(metadata::FileId id) const;

  const std::vector<metadata::FileMetadata>& files() const { return files_; }
  const std::vector<la::Vector>& std_coords() const { return std_coords_; }

  /// Commit sequence of each live record, parallel to files(). 0 means
  /// pre-history (always visible).
  const std::vector<std::uint64_t>& added_seqs() const { return added_seqs_; }

  /// Deleted-but-pinned record versions, oldest deletes first.
  const std::vector<TombstoneRecord>& tombstones() const {
    return tombstones_;
  }

  /// Re-attaches a tombstone loaded from a snapshot image.
  void restore_tombstone(TombstoneRecord t) {
    tombstones_.push_back(std::move(t));
  }

  /// Drops every tombstone no pinned snapshot can still see (deleted at or
  /// before `watermark`, the oldest pinned snapshot seq — kNoWatermark
  /// reclaims everything). Returns how many were reclaimed. This is what
  /// keeps the per-unit version chain bounded: chain length is at most the
  /// number of deletes since the oldest live pin.
  std::size_t prune_tombstones(std::uint64_t watermark);

  /// Membership filter over local filenames (counting, so deletions work);
  /// the plain view is what gets unioned into index units. Saturated
  /// counters stick, so a live name is never reported absent.
  const bloom::CountingBloomFilter& name_filter() const { return name_filter_; }
  bloom::BloomFilter name_filter_view() const {
    return name_filter_.to_bloom_filter();
  }

  /// Rebuilds the name filter at `bits` bits from the digests of the live
  /// records (the store's filter-growth step; no name is rehashed).
  void resize_name_filter(std::size_t bits);

  /// MBR over standardized coordinates of local files.
  const rtree::Mbr& box() const { return box_; }

  /// Raw-attribute centroid (the unit's semantic vector source).
  la::Vector centroid_raw() const;

  /// Approximate memory footprint of everything this unit stores locally
  /// for itself (records + indexes), excluding hosted index units.
  std::size_t byte_size() const;

 private:
  UnitId id_;
  std::vector<metadata::FileMetadata> files_;
  std::vector<la::Vector> std_coords_;        // parallel to files_
  std::vector<std::uint64_t> added_seqs_;     // parallel to files_
  /// Name digests, parallel to files_: what resize_name_filter() refills
  /// the filter from. Derived from the names, so not in byte_size().
  std::vector<bloom::ItemHash> name_hashes_;
  std::vector<TombstoneRecord> tombstones_;   // MVCC version chain
  std::unordered_map<std::string, std::size_t> by_name_;  // name -> position
  std::unordered_map<metadata::FileId, std::size_t> by_id_;
  bloom::CountingBloomFilter name_filter_;
  rtree::Mbr box_;
  la::Vector attr_sums_;  // running sums for the centroid
};

/// Aggregated changes between two replica synchronization points
/// (Section 4.4). Small by construction: only summaries of the changed
/// files, kept in memory. A version seals after `version_ratio` changes,
/// so it names its inserted files by their digests — a handful of 16-byte
/// entries instead of a filter of the group's geometry, which grows with
/// the store.
struct VersionDelta {
  rtree::Mbr added_box;             ///< MBR of inserted files (standardized)
  std::vector<bloom::ItemHash> added_names;  ///< digests of inserted names
  la::Vector added_attr_sum;        ///< raw-attribute sum of inserted files
  std::size_t added_count = 0;
  std::vector<metadata::FileId> deleted;
  double sealed_at = 0;             ///< simulated seal time t_i

  bool empty() const { return added_count == 0 && deleted.empty(); }
  std::size_t byte_size() const;
};

/// Replica of a first-level index unit's summary, as held by every storage
/// unit for off-line query routing: the base summary as of the last full
/// synchronization plus the sealed deltas received since, newest last.
/// Queries scan them rolling backward (newest first, Section 4.4).
///
/// The backlog changes only through reset() and seal(), which keep three
/// derived views in step with it, so a lookup costs one probe however
/// many versions are attached: the base filter with every sealed digest's
/// bits set, and the running effective attribute sum/count and box. Each
/// view is built with the same operations, in the same order, as the walk
/// over versions() it stands for, so every answer is bit-identical to the
/// walk's. The simulated cost model still charges one Bloom check per
/// sealed version (the paper's remote unit walks them).
class GroupReplica {
 public:
  /// A group's summary at a full synchronization point.
  struct Base {
    la::Vector centroid_raw;
    la::Vector attr_sum;  ///< sum form, for incremental centroids
    std::size_t file_count = 0;
    rtree::Mbr box;
    bloom::BloomFilter name_filter;
  };

  /// Full synchronization: installs `base` and drops every sealed version
  /// (Section 4.4 "removing versions").
  void reset(Base base);

  /// Attaches a sealed version as the newest one.
  void seal(VersionDelta v);

  const Base& base() const { return base_; }
  const std::vector<VersionDelta>& versions() const { return versions_; }

  /// Effective MBR: the base box unioned with version deltas (when
  /// `with_versions`), i.e. what a remote unit can know about the group.
  const rtree::Mbr& effective_box(bool with_versions) const;

  /// Effective centroid including version deltas.
  const la::Vector& effective_centroid(bool with_versions) const;

  /// Filename may-contain check against the base filter and (when
  /// `with_versions`) every sealed version's digests, newest first. `name`
  /// is the digest of the queried filename.
  bool name_may_contain(const bloom::ItemHash& name, bool with_versions) const;

  /// The replicated summary and its versions (the paper's space
  /// accounting, Figures 7 and 14a); the derived views are local caches
  /// and are not counted.
  std::size_t byte_size() const;
  std::size_t versions_byte_size() const;

 private:
  Base base_;
  std::vector<VersionDelta> versions_;

  // Derived from base_ and versions_ by reset() and seal() alone.
  /// base_.name_filter with the bits of every sealed digest set: a name
  /// missing here is in no version and not in the base.
  bloom::BloomFilter names_;
  la::Vector sum_;             ///< attr_sum + every inserting version's sum
  std::size_t count_ = 0;      ///< file_count + every version's added_count
  la::Vector centroid_;        ///< sum_ / count_ (base centroid at count_ 0);
                               ///< read only while a version is sealed
  rtree::Mbr box_;             ///< base box expanded by every added_box
};

}  // namespace smartstore::core
