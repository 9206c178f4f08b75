// Storage units, replicated group summaries and version deltas.
//
// A storage unit is a metadata server — a leaf of the semantic R-tree
// (Section 2.3). It holds file metadata records, a local filename index, a
// counting Bloom filter for point queries, the unit's MBR in standardized
// attribute space and its raw-attribute centroid (its semantic vector).
// The records' standardized coordinates are kept as one column per
// attribute, parallel to the records, so a scan reads only the columns of
// the dimensions it queries.
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

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
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

/// Sentinel seq of the core's internal mutation paths: stamp the next
/// commit-clock value. The public insert_file/erase_file spell it 0; the
/// internal paths keep 0 for re-homing a pre-history record.
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
  /// (kNumAttrs values: the geometry every MBR in the store is expressed
  /// in) and `name_hash` the digest of its name, which the caller computes
  /// once per operation and shares with every filter the operation
  /// touches. `added_seq` is the commit sequence stamped on the mutation
  /// (0 = pre-history: bulk builds and legacy snapshots, visible to every
  /// snapshot). The same name may be added more than once (a retried Put
  /// stores a second record): the name index then names the newest.
  void add_file(const metadata::FileMetadata& f,
                std::span<const double> std_coords,
                const bloom::ItemHash& name_hash, std::uint64_t added_seq = 0);

  /// Sizes the record arrays, the columns and the name index for `n`
  /// records, so a bulk fill of that many adds neither reallocates nor
  /// rehashes.
  void reserve(std::size_t n);

  /// Removes the record with this id and name; returns it. `name_hash` is
  /// the digest of `name`. When another live record shares the name, the
  /// name index names it from then on. MBRs are not
  /// shrunk on delete (standard R-tree practice; bounds stay conservative
  /// until the next reconfiguration). With `deleted_seq` > 0 the removed
  /// version is kept on the unit's tombstone chain so pinned snapshots
  /// older than the delete can still see it; `deleted_seq` == 0 drops it
  /// outright (bulk moves that re-home a record under its original
  /// added_seq).
  std::optional<metadata::FileMetadata> remove_file(
      metadata::FileId id, const std::string& name,
      const bloom::ItemHash& name_hash, std::uint64_t deleted_seq = 0);

  /// Local filename lookup (exact).
  const metadata::FileMetadata* find_by_name(const std::string& name) const;
  /// A live record with this id, if any: a scan of the id column (no
  /// index keeps ids; nothing on a serving path looks a record up by id
  /// alone).
  const metadata::FileMetadata* find_by_id(metadata::FileId id) const;
  /// The live record with this id and name, if any.
  const metadata::FileMetadata* find(metadata::FileId id,
                                     const std::string& name) const;

  const std::vector<metadata::FileMetadata>& files() const { return files_; }
  /// Each live record's id, parallel to files(): what a scan reports.
  const std::vector<metadata::FileId>& ids() const { return ids_; }

  /// The standardized coordinates of the live records as columns: one
  /// pointer per attribute, each to file_count() values parallel to
  /// files(). Valid until the unit next changes.
  struct Columns {
    std::array<const double*, metadata::kNumAttrs> col;
    /// Record i's coordinates, indexable by attribute.
    struct Row {
      const Columns* c;
      std::size_t i;
      double operator[](std::size_t d) const { return c->col[d][i]; }
    };
    Row row(std::size_t i) const { return {this, i}; }
  };
  Columns columns() const;
  /// Record i's standardized full-D vector, gathered from the columns.
  la::Vector std_coords(std::size_t i) const;

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
  /// for itself (records, coordinate columns, indexes), excluding hosted
  /// index units.
  std::size_t byte_size() const;

 private:
  /// A name index entry: the position of the record the name names, and
  /// how many live records carry the name.
  struct Slot {
    std::size_t pos = 0;
    std::size_t count = 0;
  };
  /// Position of the live record with this id and name, or kInvalidIndex.
  std::size_t position(metadata::FileId id, const std::string& name) const;
  /// Drops record `pos` from the name index. When other live records carry
  /// its name and the entry named `pos`, the entry names the newest of them
  /// (greatest added_seq, then smallest id: the record an exact read
  /// picks).
  void unindex_name(std::size_t pos);

  UnitId id_;
  std::vector<metadata::FileMetadata> files_;
  std::vector<metadata::FileId> ids_;         // parallel to files_
  /// Standardized coordinate d of every record, parallel to files_.
  std::array<std::vector<double>, metadata::kNumAttrs> cols_;
  std::vector<std::uint64_t> added_seqs_;     // parallel to files_
  /// Name digests, parallel to files_: what resize_name_filter() refills
  /// the filter from. Derived from the names, so not in byte_size().
  std::vector<bloom::ItemHash> name_hashes_;
  std::vector<TombstoneRecord> tombstones_;   // MVCC version chain
  std::unordered_map<std::string, Slot> by_name_;
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
  double sealed_at = 0;  ///< an image slot nothing reads: 0 unless loaded
                         ///< from an image that stamped seal times

  bool empty() const { return added_count == 0 && deleted.empty(); }
  std::size_t byte_size() const;
};

/// Replica of a first-level index unit's summary, as held by every storage
/// unit for off-line query routing: the base summary as of the last full
/// synchronization plus the sealed deltas received since, newest last.
/// Queries scan them rolling backward (newest first, Section 4.4).
///
/// The backlog changes only through reset() and seal(), which keep two
/// derived views in step with it: the running effective attribute
/// sum/count and box. Each is built with the same operations, in the same
/// order, as the walk over versions() it stands for, so every answer is
/// bit-identical to the walk's. The union of the base filter and every
/// sealed digest (union_filter()) is kept by the store instead, as one
/// column of its bit-sliced group bank, so a lookup probes every group's
/// union at once however many versions are attached. The simulated cost
/// model still charges one Bloom check per sealed version (the paper's
/// remote unit walks them).
///
/// Concurrency: the store serializes reset() and seal() and every read
/// under the group's sync stripe, except version_count(), which needs
/// none.
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
  bool name_may_contain(const bloom::ItemHash& name, bool with_versions) const {
    return confirm_name(name, with_versions);
  }

  /// name_may_contain(), as the store asks it for a name the group's
  /// union admitted: the base probe, then (when `with_versions`) the
  /// digest walk, newest first.
  bool confirm_name(const bloom::ItemHash& name, bool with_versions) const;

  /// The base filter with the bits of every sealed digest set: a name
  /// missing here is in no version and not in the base.
  bloom::BloomFilter union_filter() const;

  /// versions().size(), readable without a lock (see the class comment).
  std::size_t version_count() const {
    return version_count_.n.load(std::memory_order_relaxed);
  }

  /// The replicated summary and its versions (the paper's space
  /// accounting, Figures 7 and 14a); the derived views are local caches
  /// and are not counted.
  std::size_t byte_size() const;
  std::size_t versions_byte_size() const;

 private:
  Base base_;
  std::vector<VersionDelta> versions_;

  /// versions_.size() as a relaxed atomic; copies read it once.
  struct AtomicCount {
    std::atomic<std::size_t> n{0};
    AtomicCount() = default;
    AtomicCount(const AtomicCount& o)
        : n(o.n.load(std::memory_order_relaxed)) {}
    AtomicCount& operator=(const AtomicCount& o) {
      n.store(o.n.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };

  // Derived from base_ and versions_ by reset() and seal() alone.
  AtomicCount version_count_;
  la::Vector sum_;             ///< attr_sum + every inserting version's sum
  std::size_t count_ = 0;      ///< file_count + every version's added_count
  la::Vector centroid_;        ///< sum_ / count_ (base centroid at count_ 0);
                               ///< read only while a version is sealed
  rtree::Mbr box_;             ///< base box expanded by every added_box
};

}  // namespace smartstore::core
