// SmartStore: the decentralized semantic-aware metadata organization
// (the paper's primary contribution).
//
// A SmartStore instance owns a set of storage units (simulated metadata
// servers), a main semantic R-tree over them, the off-line pre-processing
// state (replicated first-level index-unit summaries with versioning), and
// optional auto-configured tree variants for attribute-subset queries.
// A core as constructed simulates: its operations run against a
// virtual-time cluster (sim::Cluster), which yields the latencies the
// paper's evaluation reports. A core that serve()s (every db::Store core)
// reports the same answers and counts, but no time, and shares no
// simulator state.
//
// Query semantics follow Section 3.3:
//   * point queries walk the Bloom-filter hierarchy;
//   * range queries check MBRs;
//   * top-k queries use branch-and-bound with the MaxD threshold;
// in one of two routing modes (Section 3.3 vs 3.4):
//   * kOnline — multicast from a random home unit through father/sibling
//     links of the semantic R-tree (exact but message-heavy);
//   * kOffline — the home unit consults its local replicas of the
//     first-level index units, projects the request with LSI/MBR checks,
//     and forwards directly to the most correlated group(s). The search
//     scope is bounded to a few groups ("SmartStore limits search scope of
//     complex query to a single or a minimal number of semantically
//     related groups"), which is where recall < 100% comes from.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ground_truth.h"
#include "core/journal.h"
#include "core/semantic_rtree.h"
#include "core/striped_locks.h"
#include "core/units.h"
#include "la/stats.h"
#include "metadata/file_metadata.h"
#include "metadata/query.h"
#include "sim/cluster.h"
#include "util/annotated_mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace smartstore::persist {
struct SnapshotAccess;  // persistence-layer serialization hook
}

namespace smartstore::core {

enum class Routing { kOnline, kOffline };

/// How files are assigned to storage units at build time. kSemantic is the
/// paper's design (correlated files co-located); kRandom is the ablation
/// control showing what semantic placement buys.
enum class PlacementPolicy { kSemantic, kRandom };

struct Config {
  std::size_t num_units = 60;     ///< storage units (paper's testbed: 60)
  std::size_t fanout = 8;         ///< semantic R-tree M
  std::size_t min_fill = 2;       ///< semantic R-tree m (<= M/2)
  double epsilon = 0.0;           ///< admission threshold; 0 = auto
  std::size_t lsi_rank = 0;       ///< LSI rank p; 0 = auto (90% energy)
  std::size_t bloom_bits = 1024;  ///< per paper Section 5.1
  unsigned bloom_hashes = 7;      ///< k = 7
  /// When true (default), filters are sized for the expected group
  /// population (~12 bits per name, `bloom_bits` doubled as often as
  /// needed): at build time, and again whenever inserts outgrow the
  /// current geometry, so a store grown from empty ends with the filters
  /// a bulk build of the same files would have. Geometry only grows. The
  /// paper's fixed 1024-bit filters saturate beyond a few hundred names
  /// per group; auto-sizing keeps the false-positive rate in the regime
  /// Figure 9 reports. Set false to reproduce the paper's exact
  /// configuration (the Bloom ablation bench does).
  bool bloom_auto_size = true;
  std::size_t placement_iters = 4;       ///< balanced k-means iterations
  PlacementPolicy placement = PlacementPolicy::kSemantic;
  double lazy_update_threshold = 0.05;   ///< Section 3.4 (5%)
  double autoconfig_threshold = 0.10;    ///< Section 2.4 (10%)
  std::size_t version_ratio = 4;  ///< changes aggregated into one version
  bool versioning_enabled = true;
  std::size_t max_groups_per_query = 3;  ///< complex-query scope bound
  std::uint64_t seed = 42;
  sim::CostModel cost;
};

/// Per-operation accounting reported by every query/update. The two
/// virtual-time fields stay 0 on a serving core (SmartStore::serve).
struct QueryStats {
  double latency_s = 0;          ///< completion - arrival (virtual time)
  std::uint64_t messages = 0;    ///< network messages this operation sent
  std::uint64_t hops = 0;        ///< inter-unit hops
  int routing_hops = 0;          ///< Figure 8 group-distance (0 = 1 group)
  std::size_t groups_visited = 0;
  std::size_t records_scanned = 0;
  double version_check_s = 0;    ///< extra latency from version checks
  bool failed = false;           ///< touched a crashed (inactive) unit
};

struct PointResult {
  bool found = false;
  UnitId unit = kInvalidIndex;
  metadata::FileId id = 0;
  bool first_try = false;  ///< resolved at the first routed group (Fig. 9)
  QueryStats stats;
};

struct RangeResult {
  std::vector<metadata::FileId> ids;
  QueryStats stats;
};

struct TopKResult {
  std::vector<std::pair<double, metadata::FileId>> hits;  ///< (dist², id)
  QueryStats stats;

  std::vector<metadata::FileId> ids() const {
    std::vector<metadata::FileId> out;
    out.reserve(hits.size());
    for (const auto& h : hits) out.push_back(h.second);
    return out;
  }
};

/// An auto-configured semantic R-tree over a subset of attributes
/// (Section 2.4).
struct TreeVariant {
  metadata::AttrSubset dims;
  SemanticRTree tree;
};

class SmartStore {
 public:
  explicit SmartStore(Config cfg);

  /// Bulk-loads a population: semantic placement of files onto storage
  /// units (balanced k-means in LSI space), bottom-up tree construction,
  /// index-unit mapping, replica initialization.
  void build(const std::vector<metadata::FileMetadata>& files);

  /// Makes this core serve instead of simulate; its owner calls it once,
  /// before serving concurrent callers. Operations then run on counting
  /// sessions (sim::Session::counting), with the answers and counts a
  /// simulating core reports (`failed` read off the active units) but no
  /// virtual clock, queue or simulator lock: latency_s and version_check_s
  /// stay 0. Holds across build(); never persisted, so a loaded core
  /// simulates until its owner calls this.
  void serve();

  /// Attaches the journal every later insert_file/erase_file logs through
  /// (core/journal.h); nullptr detaches. Each mutation reads the pointer
  /// once, so it logs and commits through the same journal. The caller
  /// keeps the journal alive until it is detached and no mutation that
  /// read it is still running. Recovery replays with none attached.
  void attach_journal(Journal* journal) {
    journal_.store(journal, std::memory_order_release);
  }

  // ---- dynamic operations (virtual arrival in seconds, if simulating) ----
  //
  // insert_file / erase_file and the three query methods may be called
  // from any number of threads concurrently (multi-writer serving): each
  // takes the structure lock shared, routes under striped summary locks,
  // and mutates only the target unit under that unit's dedicated lock. The reconfiguration block below and
  // build() are exclusive and may run concurrently with anything. An
  // insert that takes the population past the current filter geometry
  // grows the filters on its way out, under the exclusive lock.
  //
  // `seq` is the mutation's commit seq: 0 stamps the next value of the
  // commit clock; any other value is used as given (recovery replays a
  // persisted seq, a replication follower the primary's) and the clock
  // is raised to it. Under the target unit's lock the core stamps, logs
  // the record through the attached journal and applies it; after the
  // lock is released it calls the journal's commit for that unit.

  /// Routes the file to its most correlated group and inserts it into the
  /// least-loaded member unit; updates the tree locally and the
  /// versioning/lazy-update machinery (Sections 3.2.1, 3.4, 4.4).
  QueryStats insert_file(const metadata::FileMetadata& f,
                         double arrival = 0.0, std::uint64_t seq = 0);

  /// Authoritative removal: locates `name` by scanning the units' exact
  /// local indexes (no simulated routing, no replica staleness) and removes
  /// it with full tree/sync bookkeeping. This is the WAL-replay path — a
  /// delete that was acknowledged live must always re-apply on recovery,
  /// even when the off-line replicas that located it then have since gone
  /// stale. Returns false when the file does not exist; that logs nothing,
  /// but a nonzero `seq` still raises the clock to it, so replay advances
  /// past every record it reads.
  bool erase_file(const std::string& name, std::uint64_t seq = 0);

  PointResult point_query(const metadata::PointQuery& q, Routing routing,
                          double arrival = 0.0);
  RangeResult range_query(const metadata::RangeQuery& q, Routing routing,
                          double arrival = 0.0);
  TopKResult topk_query(const metadata::TopKQuery& q, Routing routing,
                        double arrival = 0.0);

  // ---- MVCC snapshot reads ----------------------------------------------
  //
  // Every mutation carries a store-wide commit sequence number from the
  // one commit clock below (the attached journal records the seq it is
  // handed). A reader pins the current commit seq and scans against it: a
  // record is visible at snapshot S iff added_seq <= S and (still live,
  // or tombstoned with deleted_seq > S). Because the seq is stamped and the in-memory apply
  // happen inside the SAME unit-lock critical section, acquiring each
  // unit lock in turn observes every mutation with seq <= S — any pinned
  // S is a consistent cut with no quiescing and no stripe-wide exclusion.
  //
  // Tombstones are reclaimed against the GC watermark (the oldest pinned
  // snapshot; everything is reclaimable when nothing is pinned), so the
  // per-unit version chain stays bounded by the delete traffic since the
  // oldest live pin.

  /// Commit sequence of the latest applied mutation (0 = nothing since
  /// build/load).
  std::uint64_t last_commit_seq() const {
    return commit_seq_.load(std::memory_order_acquire);
  }

  /// Advances the commit clock to at least `seq` (recovery resumes it at
  /// the manifest's fold seq; a follower's bootstrap jumps it to the
  /// primary's frontier).
  void note_commit_seq(std::uint64_t seq);

  /// Pins the current commit seq against tombstone GC. `*seq_out` receives
  /// the pinned seq; the returned handle unpins on destruction (safe to
  /// outlive the store — the pin registry is shared-owned).
  std::shared_ptr<void> pin_snapshot(std::uint64_t* seq_out) const;

  /// Oldest pinned snapshot seq, or core::kNoWatermark when none is
  /// pinned (every tombstone reclaimable).
  std::uint64_t gc_watermark() const {
    return pins_->watermark.load(std::memory_order_acquire);
  }

  /// Number of currently pinned snapshots.
  std::size_t pinned_snapshots() const;

  /// Exact exhaustive reads at a pinned seq. Unlike the routed queries
  /// above they do not simulate network placement: each visits every unit
  /// (including deactivated ones, whose tombstone chains may still be
  /// visible) under that unit's lock, one at a time, and returns canonical
  /// (sorted) results — two scans at the same seq are bit-identical no
  /// matter what writers do in between. A range or top-k scan tests each
  /// record with the same predicate its routed counterpart uses.
  PointResult snapshot_point_query(const metadata::PointQuery& q,
                                   std::uint64_t seq) const;
  RangeResult snapshot_range_query(const metadata::RangeQuery& q,
                                   std::uint64_t seq) const;
  TopKResult snapshot_topk_query(const metadata::TopKQuery& q,
                                 std::uint64_t seq) const;

  /// Every record visible at `seq` — live or tombstoned-later — in
  /// canonical (id, name) order; same per-unit locking as the snapshot
  /// queries. Replication bootstrap ships this dump to an empty follower,
  /// and the failover oracle compares two stores through it.
  std::vector<metadata::FileMetadata> snapshot_dump(std::uint64_t seq) const;

  /// Live tombstone-chain length summed over all units (non-quiescing).
  std::size_t tombstone_count() const;

  // ---- reconfiguration (exclusive: blocks all serving threads) -----------
  //
  // These change the store in memory only and log nothing, like build():
  // on a durable core the next fold's base image captures the new shape
  // (persist/delta_checkpoint.h); a crash before that fold recovers the
  // shape of the last base, with every logged mutation replayed into it.

  /// Full replica synchronization: applies and removes all versions
  /// (Section 4.4 "removing versions"), refreshing every group replica.
  void reconfigure();

  /// Admits a new (empty) storage unit into the system (Section 3.2.1).
  UnitId add_storage_unit();

  /// Removes a storage unit, redistributing its files (Section 3.2.2).
  void remove_storage_unit(UnitId u);

  /// Enumerates candidate attribute subsets and keeps tree variants whose
  /// index-unit count differs from the full tree's by more than the
  /// configured threshold (Section 2.4). Returns number of variants kept.
  std::size_t autoconfigure(
      const std::vector<metadata::AttrSubset>& candidates);

  // ---- accessors ---------------------------------------------------------

  // The introspection accessors below are quiesced-only: callers provide
  // stillness (single-threaded phases, or the db facade's exclusive
  // GetProperty path), which the type system cannot see — hence the
  // analysis opt-outs on the ones that touch GUARDED_BY state.
  const Config& config() const { return cfg_; }
  const SemanticRTree& tree() const { return tree_; }
  const std::vector<StorageUnit>& units() const { return units_; }
  bool unit_active(UnitId u) const SS_NO_THREAD_SAFETY_ANALYSIS {
    return unit_active_[u];
  }
  const la::RowStandardizer& standardizer() const
      SS_NO_THREAD_SAFETY_ANALYSIS {
    return standardizer_;
  }
  /// A simulating core's cluster (quiesced-only; a serving core has none).
  sim::Cluster& cluster() SS_NO_THREAD_SAFETY_ANALYSIS { return *cluster_; }
  const std::vector<TreeVariant>& variants() const { return variants_; }
  std::size_t total_files() const { return total_files_; }
  /// Current name-filter geometry in bits (safe under concurrent serving).
  std::size_t bloom_bits() const;
  /// Filter-growth steps taken since this instance was created.
  std::uint64_t bloom_resizes() const {
    return bloom_resizes_.load(std::memory_order_relaxed);
  }
  /// First-level index unit `g`'s replica, as every storage unit routes
  /// on it (quiesced-only, as above).
  const GroupReplica& group_replica(std::size_t g) const {
    return sync_.at(g).replica;
  }
  /// The bank of every group replica's union filter, one member per group
  /// in tree().groups() order (quiesced-only, as above).
  const bloom::BitSlicedBank& group_bank() const { return group_bank_; }

  /// Standardized full-D coordinates of a record (quiesced-only, as above).
  la::Vector std_coords(const metadata::FileMetadata& f) const
      SS_NO_THREAD_SAFETY_ANALYSIS;

  // ---- space accounting (Figures 7 and 14a) ------------------------------

  struct SpaceBreakdown {
    std::size_t metadata_bytes = 0;   ///< records + local indexes
    std::size_t index_bytes = 0;      ///< hosted index units
    std::size_t replica_bytes = 0;    ///< replicated group summaries
    std::size_t version_bytes = 0;    ///< attached versions
    std::size_t total() const {
      return metadata_bytes + index_bytes + replica_bytes + version_bytes;
    }
  };
  /// Average attached-version bytes per first-level index unit (Fig. 14a).
  double avg_version_bytes_per_group() const;

  /// One introspection pass under the shared structure lock, concurrent
  /// with serving threads — the store's one space accounting (Figure 7):
  /// topology counters (they change only under the exclusive lock), the
  /// count of records visible at `seq` (the exact-read walk) and each
  /// active unit's bytes under that unit's lock, replica and version
  /// bytes under each group's sync stripe. The space numbers describe
  /// the CURRENT unit contents (space is accounting, not versioned data)
  /// — only the file count is an as-of read.
  struct Introspection {
    std::size_t files = 0;       ///< records visible at the pinned seq
    std::size_t num_units = 0;
    std::size_t tree_height = 0;
    std::size_t tree_groups = 0;
    std::size_t index_units = 0;
    SpaceBreakdown avg_space;    ///< averaged over active units
  };
  Introspection introspect(std::uint64_t seq) const;

  /// Structural invariants across units, tree and sync state.
  bool check_invariants() const;

  // ---- concurrent checkpointing (epoch-based freeze + copy-on-write) ------
  //
  // Threading contract: any number of serving threads may mutate and query
  // concurrently; begin_checkpoint() takes the structure lock exclusively
  // (a bounded stop-the-world pause), copies the CONFIG scalars plus the
  // index structures (tree, variants, replica sync — cheap relative to the
  // file records), and returns. Storage units — the bulk of the state —
  // stay live: post-freeze mutators copy a still-unserialized unit on
  // first write under that unit's lock, and the background serializer
  // resolves each unit piece under the freeze mutex, so neither ever
  // observes a half-mutated piece. The per-thread query RNG streams never
  // touch the store rng, so the freeze capture of the persisted rng state
  // is deterministic without locking queries out.

  /// Freezes the logical state at the current epoch; returns that epoch.
  /// At most one checkpoint may be active at a time. `while_frozen`, if
  /// given, runs inside the exclusive section — a checkpoint fold uses it
  /// to commit the WAL shards and capture their frontier vector at
  /// exactly the frozen mutation boundary.
  std::uint64_t begin_checkpoint(
      const std::function<void()>& while_frozen = {});

  /// Releases frozen copies; mutations stop paying the copy-on-write tax.
  void end_checkpoint();

  bool checkpoint_active() const;

  /// Bumped by every mutation (insert/delete/reconfiguration).
  std::uint64_t mutation_epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Pieces copied on first write during the current/last checkpoint.
  std::uint64_t checkpoint_cow_copies() const;

 private:
  /// The snapshot codec in src/persist/ serializes the full private state
  /// (units, tree, variants, replica/version sync, rng) and reassembles a
  /// deployment without re-running SVD/k-means/tree construction.
  friend struct ::smartstore::persist::SnapshotAccess;

  // Per-group synchronization state for the off-line pre-processing scheme.
  struct GroupSync {
    GroupReplica replica;   ///< what every remote unit sees
    VersionDelta pending;   ///< unsealed changes, invisible remotely
    std::size_t changes_since_full_sync = 0;
    std::size_t column = 0;  ///< the group's member of group_bank_
  };

  // ---- checkpoint freeze state -------------------------------------------

  /// Lifecycle of one storage unit during an active checkpoint.
  enum class PieceState : std::uint8_t {
    kPending,  ///< untouched since freeze: the live unit IS the frozen view
    kFrozen,   ///< mutated since freeze: a copy preserves the frozen view
    kDone,     ///< serialized: mutations may write through without copying
  };

  /// Everything in the image except the storage units, copied at freeze
  /// time (the freeze holds the exclusive structure lock, so the capture
  /// is a consistent cut; the per-thread query RNG streams are derived
  /// state and never persisted — only the store rng is).
  struct FrozenCore {
    std::size_t bloom_bits = 0;
    std::size_t total_files = 0;
    std::array<std::uint64_t, 4> rng_state{};
    std::vector<bool> unit_active;
    la::RowStandardizer standardizer;
    std::size_t unit_count = 0;  ///< units_ size at freeze
    SemanticRTree tree;
    std::vector<TreeVariant> variants;
    std::unordered_map<std::size_t, GroupSync> sync;
    /// MVCC cut at freeze: the snapshot image's commit seq and the GC
    /// watermark the UNITS serializer filters tombstones against
    /// ("checkpoint respects the watermark").
    std::uint64_t commit_seq = 0;
    std::uint64_t gc_watermark = kNoWatermark;
  };

  struct FreezeState {
    /// Interlocks COW hooks with the serializer; every other field below
    /// is GUARDED_BY it (the serializer runs in the persist layer via the
    /// SnapshotAccess friend, so the annotations police that TU too).
    mutable util::Mutex mu{util::LockRank::kFreeze};
    bool active SS_GUARDED_BY(mu) = false;
    std::uint64_t frozen_epoch SS_GUARDED_BY(mu) = 0;
    std::uint64_t cow_copies SS_GUARDED_BY(mu) = 0;
    FrozenCore core SS_GUARDED_BY(mu);
    std::vector<PieceState> unit_state SS_GUARDED_BY(mu);
    std::vector<std::unique_ptr<StorageUnit>> frozen_units SS_GUARDED_BY(mu);
  };

  /// Lock-held body shared by cow_unit and cow_all_units.
  void cow_unit_locked(UnitId u) SS_REQUIRES(freeze_.mu);

  /// Copies storage unit `u` into the frozen view if a checkpoint is active
  /// and the unit has not yet been serialized or copied. Caller must hold
  /// unit `u`'s lock (the tree/variants/sync structures are captured
  /// eagerly at freeze time, so units are the only lazily copied pieces) —
  /// enforced at runtime via assert_held, since the per-unit locks are
  /// picked by index and TSA cannot name them.
  void cow_unit(UnitId u);
  /// Freezes every unit still pending: required before structural changes
  /// (unit admission/removal reallocates units_, invalidating the
  /// serializer's view of the live vector). Caller holds the exclusive
  /// structure lock, which is why no unit locks are needed here.
  void cow_all_units() SS_REQUIRES(structure_mu_);
  /// Shared removal bookkeeping once a file has been located (unit, id);
  /// `name_hash` is the digest of `name`. Re-checks existence under the
  /// unit lock (a concurrent delete may have won); returns whether the
  /// removal happened. `seq` and `journal` as in insert_file_impl.
  bool remove_located(UnitId u, metadata::FileId id, const std::string& name,
                      const bloom::ItemHash& name_hash, std::uint64_t seq,
                      Journal* journal) SS_REQUIRES_SHARED(structure_mu_);

  // ---- internals ---------------------------------------------------------

  /// insert_file's body; the caller holds the structure lock (shared, or
  /// exclusive in remove_storage_unit, where the shared-acquiring public
  /// method would self-deadlock). `seq` kAssignSeq stamps a fresh commit
  /// seq; any other value is used as given (see commit_stamp).
  /// remove_storage_unit re-homes displaced files under their ORIGINAL
  /// added_seq with no journal: the move is invisible to every snapshot —
  /// the record stays visible at exactly the seqs it was visible at
  /// before, just in a different unit — and logs nothing. 0 keeps a
  /// pre-history record pre-history.
  QueryStats insert_file_impl(const metadata::FileMetadata& f, double arrival,
                              std::uint64_t seq, Journal* journal)
      SS_REQUIRES_SHARED(structure_mu_);

  /// The one exact read, and the one place the MVCC visibility rule is
  /// applied: visits every unit (deactivated ones too — their tombstone
  /// chains may still be visible) under that unit's lock, one at a time,
  /// and calls fn(unit, record, standardized coords, added_seq) for each
  /// record visible at `seq`, live records before the unit's tombstones.
  /// The coords are indexable by attribute: a row of the unit's columns
  /// for a live record, the tombstone's vector for a dead one. The caller
  /// holds the structure lock shared for the whole walk.
  template <typename Fn>
  void for_each_visible(std::uint64_t seq, Fn&& fn) const
      SS_REQUIRES_SHARED(structure_mu_);

  /// Resolves the commit seq for one mutation inside its unit-lock
  /// critical section: kAssignSeq takes the next clock value; any other
  /// seq is kept and the clock raised to it.
  std::uint64_t commit_stamp(std::uint64_t seq);

  /// The calling thread's private RNG stream, lazily seeded from the store
  /// seed and a monotonic stream id — queries draw home units without
  /// contending on any store-wide state (the store rng serves only the
  /// single-threaded build/reconfiguration paths and the snapshot).
  util::Rng& thread_rng() const;

  sim::NodeId random_home() SS_REQUIRES_SHARED(structure_mu_);
  /// One operation's session at a random home unit: on the cluster when
  /// this core simulates, counting over unit_active_ when it serves.
  sim::Session start_session(double arrival)
      SS_REQUIRES_SHARED(structure_mu_);
  void init_sync_state() SS_REQUIRES(structure_mu_);
  /// Rebuilds group_bank_ from every replica's union, one member per group
  /// in tree_.groups() order, at the current geometry; numbers each
  /// group's column. Run wherever the group list or the geometry changes.
  void rebuild_group_bank() SS_REQUIRES(structure_mu_);

  /// The filter sizing rule: ~12 bits per expected group member for a
  /// population of `files`, i.e. `cfg_.bloom_bits` doubled until it
  /// covers them (unchanged when auto-sizing is off).
  std::size_t sized_bloom_bits(std::size_t files) const;
  /// Installs `bits` as the geometry new filters get and arms the growth
  /// check at the first population sized_bloom_bits() maps above it.
  void set_bloom_bits(std::size_t bits) SS_REQUIRES(structure_mu_);
  /// Run by the public insert paths after they release the shared lock:
  /// one relaxed load against the armed population, and only on a
  /// crossing the exclusive growth step — every unit's counting filter
  /// rebuilt from its digests, every index-unit filter of the main tree
  /// and the variants re-created and refilled, every group full-synced.
  void maybe_grow_filters() SS_EXCLUDES(structure_mu_);
  /// Snapshots group `g`'s current truth into its replica (full sync);
  /// clears versions, and flips the bits of the group's bank column that
  /// differ between its old union and the new base. Copies the
  /// authoritative node summary under the node's stripe, then installs it
  /// under the group's sync stripe — never holding two stripes at once.
  void full_sync_group(std::size_t g) SS_REQUIRES_SHARED(structure_mu_);
  /// Seals the pending delta into a version and sets its digests' bits in
  /// the group's bank column. Caller holds group `g`'s sync stripe
  /// (asserted at runtime — the stripe is hash-picked, so TSA cannot name
  /// it).
  void seal_version(std::size_t g)
      SS_REQUIRES_SHARED(structure_mu_);
  /// Applies the versioning policy after a change to group g (caller holds
  /// the group's sync stripe, asserted at runtime); returns true when the
  /// lazy-update threshold tripped and the caller must run full_sync_group
  /// once the stripe is released.
  bool after_group_change(std::size_t g)
      SS_REQUIRES_SHARED(structure_mu_);

  // ---- query geometry ------------------------------------------------------
  //
  // One predicate per query kind, shared by the routed scans and the exact
  // ones: a range query is a box, a top-k query a point, both in
  // standardized coordinates on the query's dimensions.

  struct StdBox {
    std::vector<std::size_t> dims;  ///< attribute index of each query dim
    la::Vector lo, hi;              ///< standardized bounds, lo <= hi
    /// The record predicate: full-D standardized `coords` (indexable by
    /// attribute) inside the box. Reads the query dims alone.
    template <typename Coords>
    bool contains(const Coords& coords) const {
      for (std::size_t j = 0; j < dims.size(); ++j) {
        const double v = coords[dims[j]];
        if (v < lo[j] || v > hi[j]) return false;
      }
      return true;
    }
    /// Could a unit or group summarized by `mbr` hold a matching record?
    bool intersects(const rtree::Mbr& mbr) const;
  };
  struct StdPoint {
    std::vector<std::size_t> dims;  ///< attribute index of each query dim
    la::Vector at;                  ///< the standardized query point
    /// The record distance: squared Euclidean on the dims of `coords`
    /// (indexable by attribute).
    template <typename Coords>
    double dist2(const Coords& coords) const {
      double acc = 0.0;
      for (std::size_t j = 0; j < dims.size(); ++j) {
        const double delta = coords[dims[j]] - at[j];
        acc += delta * delta;
      }
      return acc;
    }
    /// Lower bound of dist2 over `mbr` (infinite for an empty box).
    double min_dist2(const rtree::Mbr& mbr) const;
  };
  StdBox standardize(const metadata::RangeQuery& q) const
      SS_REQUIRES_SHARED(structure_mu_);
  StdPoint standardize(const metadata::TopKQuery& q) const
      SS_REQUIRES_SHARED(structure_mu_);

  /// Scans one unit's live records for range matches (fresh, exact).
  static void unit_range_scan(const StorageUnit& u, const StdBox& box,
                              std::vector<metadata::FileId>& out);
  /// Local exact top-k within a unit's live records.
  static void unit_topk_scan(
      const StorageUnit& u, const StdPoint& point, std::size_t k,
      std::vector<std::pair<double, metadata::FileId>>& heap);

  // ---- off-line routing ----------------------------------------------------

  struct RankedGroup {
    std::size_t node_id;
    double score;  ///< lower is better (distance-like)
  };
  /// What off-line routing knows of group `g` of `t`: on the main tree the
  /// (possibly stale) replica box with its versions, charging one Bloom
  /// check per sealed version to `version_cost`; on an auto-configured
  /// variant the fresh node summary.
  rtree::Mbr group_box(const SemanticRTree& t, std::size_t g,
                       double& version_cost) const
      SS_REQUIRES_SHARED(structure_mu_);
  /// Ranks the groups of `t` whose box meets `box`, biggest overlap first.
  std::vector<RankedGroup> rank_groups_range(const SemanticRTree& t,
                                             const StdBox& box,
                                             double& version_cost) const
      SS_REQUIRES_SHARED(structure_mu_);
  /// Ranks the groups of `t` for a top-k query by MBR min-distance.
  std::vector<RankedGroup> rank_groups_topk(const SemanticRTree& t,
                                            const StdPoint& point,
                                            double& version_cost) const
      SS_REQUIRES_SHARED(structure_mu_);
  /// Ranks groups for an insertion by LSI similarity of centroids.
  std::size_t best_group_for_vector(const la::Vector& raw) const
      SS_REQUIRES_SHARED(structure_mu_);

  /// Figure 8 metric: tree distance between the primary result group and
  /// the farthest other result group (0 when a single group sufficed).
  int routing_distance(const SemanticRTree& t,
                       const std::vector<std::size_t>& result_groups) const;
  int lca_distance(const SemanticRTree& t, std::size_t g1,
                   std::size_t g2) const;

  /// Picks the tree variant matching the query dims best (or main tree).
  const SemanticRTree& tree_for_dims(const metadata::AttrSubset& dims) const
      SS_REQUIRES_SHARED(structure_mu_);

  /// Reconciles sync_ with the current group list after structural changes
  /// (unit admission/removal can split or merge groups).
  void refresh_sync_groups() SS_REQUIRES(structure_mu_);

  Config cfg_;
  /// Effective (possibly auto-sized) Bloom bits. Written only under the
  /// exclusive structure lock, read under at least the shared one — one of
  /// the few members whose discipline GUARDED_BY can express directly.
  std::size_t bloom_bits_ SS_GUARDED_BY(structure_mu_) = 1024;
  // units_/tree_/variants_/sync_ follow the two-level scheme GUARDED_BY
  // cannot express (shape shared + a per-unit lock or stripe for interior
  // mutation): the REQUIRES_SHARED annotations on the private helpers plus
  // the stripe pools' runtime assertions police them instead.
  std::vector<StorageUnit> units_;
  std::vector<bool> unit_active_ SS_GUARDED_BY(structure_mu_);
  SemanticRTree tree_;
  std::vector<TreeVariant> variants_;
  /// The virtual-time cluster; null once serve() made this core serve.
  std::unique_ptr<sim::Cluster> cluster_ SS_GUARDED_BY(structure_mu_);
  la::RowStandardizer standardizer_ SS_GUARDED_BY(structure_mu_);
  std::unordered_map<std::size_t, GroupSync> sync_;  // group node -> state
  /// Every replica's union (base filter plus sealed digests), bit-sliced:
  /// one probe finds every group that may hold a name. Off-line point
  /// routing reads it with no lock; a group's column changes under that
  /// group's sync stripe (seal_version, full_sync_group), the whole bank
  /// only under the exclusive structure lock (rebuild_group_bank).
  bloom::BitSlicedBank group_bank_;
  /// Store rng: build-time placement and index-unit mapping only. Mutated
  /// exclusively under the exclusive structure lock; persisted and
  /// captured at freeze without further locking. Query-side draws come
  /// from per-thread streams (thread_rng) instead.
  util::Rng rng_;
  /// Monotonic id generator for per-thread RNG streams.
  mutable std::atomic<std::uint64_t> rng_streams_{0};
  /// Process-unique instance id (per-thread RNG stream ownership key).
  std::uint64_t store_id_ = 0;
  std::atomic<std::size_t> total_files_{0};
  std::atomic<std::uint64_t> epoch_{0};  ///< mutation counter
  /// Population at which the filters next grow (see set_bloom_bits);
  /// written under the exclusive structure lock, read lock-free.
  std::atomic<std::size_t> grow_at_{static_cast<std::size_t>(-1)};
  std::atomic<std::uint64_t> bloom_resizes_{0};

  /// The commit clock (MVCC timestamp): advanced inside the mutating
  /// unit-lock critical section, before the apply — so any value a reader
  /// loads names a cut where every mutation with seq <= it is (or is about
  /// to be, behind that unit's lock) applied.
  std::atomic<std::uint64_t> commit_seq_{0};
  /// The attached journal (attach_journal); null logs nothing.
  std::atomic<Journal*> journal_{nullptr};

  /// Pinned-snapshot registry. Shared-owned so a pin handle released after
  /// the store is gone unpins against a still-live registry. The mutex is
  /// kLeaf (terminal): pin/unpin only update the multiset and the cached
  /// watermark, never call out, and may run from any lock context (the
  /// service tier drops leases under its own lease lock).
  struct SnapshotPins {
    mutable util::Mutex mu{util::LockRank::kLeaf};
    std::multiset<std::uint64_t> pins SS_GUARDED_BY(mu);
    /// Min pinned seq; kNoWatermark when nothing is pinned. Cached so the
    /// mutation path reads one atomic instead of taking the mutex.
    std::atomic<std::uint64_t> watermark{kNoWatermark};
  };
  std::shared_ptr<SnapshotPins> pins_ = std::make_shared<SnapshotPins>();

  // ---- multi-writer serving locks ----------------------------------------
  //
  // Hierarchy (outer to inner, = increasing LockRank): structure_mu_
  // (kShape) -> one unit lock (kUnit) OR one summary stripe
  // (kSummaryStripe) OR one sync stripe (kSyncStripe) -> { freeze_.mu
  // (kFreeze) | WAL shard mutexes (kWalShardMap/kWalShard) | cluster mutex
  // (kCluster, simulating cores only) }. At most one unit-lock-or-stripe is ever held at a time
  // (see striped_locks.h) — the validator's strictly-increasing-rank rule
  // enforces exactly that, since unit locks and each pool's stripes share
  // a rank. Structural operations take structure_mu_ exclusively and then
  // need no finer locks at all.
  //
  // Units get DEDICATED locks (not pool stripes) because the journal logs
  // under them, and a log can wait out its shard's commit fsync: a
  // shared stripe would make an unrelated hot index
  // node or replica — every insert touches the root and its group's sync
  // state — collide with an in-flight fsync and serialize the whole
  // ingest path on one disk flush. The stripe pools only ever protect
  // microsecond-scale critical sections.
  mutable util::SharedMutex structure_mu_{util::LockRank::kShape};
  /// Ancestor index-unit summaries (MBR/Bloom/centroid sums), striped by
  /// node address.
  mutable StripedMutexPool summary_stripes_{util::LockRank::kSummaryStripe};
  /// Group replica/version sync state, striped by GroupSync address. A
  /// separate pool (and rank) from the summaries: the insert path releases
  /// its last summary stripe before taking the group's sync stripe, and
  /// distinct pools keep an unlucky hash collision from ever aliasing the
  /// two domains onto one mutex.
  mutable StripedMutexPool sync_stripes_{util::LockRank::kSyncStripe};
  /// One mutex per storage unit, parallel to units_ (stable addresses;
  /// reshaped only under the exclusive structure lock).
  mutable std::vector<std::unique_ptr<util::Mutex>> unit_mu_;

  util::Mutex& unit_mutex(UnitId u) const { return *unit_mu_[u]; }
  /// Re-sizes unit_mu_ to match units_ (build, snapshot assembly, unit
  /// admission). Caller holds the exclusive structure lock or is still
  /// single-threaded construction.
  void rebuild_unit_locks();

  FreezeState freeze_;
};

}  // namespace smartstore::core
