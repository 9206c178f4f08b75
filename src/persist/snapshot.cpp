#include "persist/snapshot.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <utility>

#include "persist/codec.h"
#include "persist/fault.h"
#include "util/annotated_mutex.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/thread_annotations.h"

namespace smartstore::persist {

namespace {

using util::BinaryReader;
using util::BinaryWriter;

// Section ids. New sections get new ids; readers skip unknown ids so old
// binaries can open newer snapshots that only added sections. Id 7 is
// retired: earlier builds wrote an informational WALFENCE section there,
// which this reader checksums and skips like any unknown id. Never reuse
// it.
constexpr std::uint32_t kSecConfig = 1;
constexpr std::uint32_t kSecStandardizer = 2;
constexpr std::uint32_t kSecUnits = 3;
constexpr std::uint32_t kSecTree = 4;
constexpr std::uint32_t kSecVariants = 5;
constexpr std::uint32_t kSecSync = 6;
constexpr std::uint32_t kMaxSection = 6;

/// An index that is either < limit or the kInvalidIndex sentinel.
std::size_t read_index(BinaryReader& r, std::size_t limit, const char* what) {
  const std::uint64_t v = r.read_u64();
  const auto idx = static_cast<std::size_t>(v);
  if (idx != core::kInvalidIndex && idx >= limit) {
    throw PersistError(std::string(what) + " index " + std::to_string(v) +
                       " out of range (limit " + std::to_string(limit) + ")");
  }
  return idx;
}

std::vector<std::size_t> read_index_vec(BinaryReader& r, std::size_t limit,
                                        const char* what) {
  std::vector<std::size_t> v = r.read_vec_size();
  for (std::size_t x : v) {
    if (x >= limit) {
      throw PersistError(std::string(what) + " index " + std::to_string(x) +
                         " out of range (limit " + std::to_string(limit) +
                         ")");
    }
  }
  return v;
}

// ---- primitive codecs -------------------------------------------------------

void write_mbr(BinaryWriter& w, const rtree::Mbr& box) {
  w.write_bool(box.valid());
  if (!box.valid()) return;
  w.write_vec_f64(box.lo());
  w.write_vec_f64(box.hi());
}

rtree::Mbr read_mbr(BinaryReader& r) {
  if (!r.read_bool()) return rtree::Mbr{};
  la::Vector lo = r.read_vec_f64();
  la::Vector hi = r.read_vec_f64();
  if (lo.size() != hi.size())
    throw PersistError("MBR lo/hi dimension mismatch");
  return rtree::Mbr(std::move(lo), std::move(hi));
}

void write_bloom(BinaryWriter& w, const bloom::BloomFilter& f) {
  w.write_u64(f.bit_count());
  w.write_u32(f.num_hashes());
  w.write_vec_u64(f.words());
}

bloom::BloomFilter read_bloom(BinaryReader& r) {
  const std::uint64_t bits = r.read_u64();
  const std::uint32_t k = r.read_u32();
  std::vector<std::uint64_t> words = r.read_vec_u64();
  if (bits == 0 || bits % 64 != 0 || words.size() != bits / 64)
    throw PersistError("Bloom filter geometry/word-count mismatch");
  return bloom::BloomFilter::from_words(static_cast<std::size_t>(bits), k,
                                        std::move(words));
}

void write_matrix(BinaryWriter& w, const la::Matrix& m) {
  w.write_u64(m.rows());
  w.write_u64(m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) w.write_f64(m(i, j));
}

la::Matrix read_matrix(BinaryReader& r) {
  const std::uint64_t rows = r.read_u64();
  const std::uint64_t cols = r.read_u64();
  // Guard cols first so 8 * cols cannot wrap around and defeat the bound.
  if (cols != 0 &&
      (cols > r.remaining() / 8 || rows > r.remaining() / (8 * cols)))
    throw PersistError("implausible matrix dimensions");
  la::Matrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) m(i, j) = r.read_f64();
  return m;
}

void write_lsi(BinaryWriter& w, const lsi::LsiModel& m) {
  w.write_vec_f64(m.standardizer().means);
  w.write_vec_f64(m.standardizer().inv_stdevs);
  write_matrix(w, m.u_p());
  w.write_vec_f64(m.singular_values());
  w.write_u64(m.num_docs());
  for (std::size_t i = 0; i < m.num_docs(); ++i)
    w.write_vec_f64(m.doc_coords(i));
  w.write_u64(m.rank());
}

lsi::LsiModel read_lsi(BinaryReader& r) {
  la::RowStandardizer std;
  std.means = r.read_vec_f64();
  std.inv_stdevs = r.read_vec_f64();
  la::Matrix u_p = read_matrix(r);
  la::Vector sigma = r.read_vec_f64();
  const std::size_t ndocs = static_cast<std::size_t>(
      r.read_u64_max(r.remaining(), "LSI document count"));
  std::vector<la::Vector> docs(ndocs);
  for (auto& d : docs) d = r.read_vec_f64();
  const auto rank = static_cast<std::size_t>(r.read_u64());
  return lsi::LsiModel::from_parts(std::move(std), std::move(u_p),
                                   std::move(sigma), std::move(docs), rank);
}

void write_version_delta(BinaryWriter& w, const core::VersionDelta& v) {
  write_mbr(w, v.added_box);
  w.write_u64(v.added_names.size());
  for (const bloom::ItemHash& h : v.added_names)
    for (std::uint32_t word : h.w) w.write_u32(word);
  w.write_vec_f64(v.added_attr_sum);
  w.write_u64(v.added_count);
  w.write_vec_u64(v.deleted);
  w.write_f64(v.sealed_at);
}

/// Reads one version delta. Images before format version 3 stored the
/// inserted names as a filter, which no digest list can be recovered
/// from: it is read and dropped, and the caller full-syncs the group.
core::VersionDelta read_version_delta(BinaryReader& r, std::uint32_t version) {
  constexpr std::size_t kDigestBytes = sizeof(bloom::ItemHash::w);
  core::VersionDelta v;
  v.added_box = read_mbr(r);
  if (version >= 3) {
    // Bounded by the payload before anything is allocated.
    const std::uint64_t n = r.read_u64();
    if (n > r.remaining() / kDigestBytes)
      throw PersistError("version digest count " + std::to_string(n) +
                         " exceeds the section payload");
    v.added_names.resize(static_cast<std::size_t>(n));
    for (bloom::ItemHash& h : v.added_names)
      for (std::uint32_t& word : h.w) word = r.read_u32();
  } else {
    (void)read_bloom(r);
  }
  v.added_attr_sum = r.read_vec_f64();
  v.added_count = static_cast<std::size_t>(r.read_u64());
  v.deleted = r.read_vec_u64();
  v.sealed_at = r.read_f64();
  return v;
}

void write_replica(BinaryWriter& w, const core::GroupReplica& g) {
  const core::GroupReplica::Base& b = g.base();
  w.write_vec_f64(b.centroid_raw);
  w.write_vec_f64(b.attr_sum);
  w.write_u64(b.file_count);
  write_mbr(w, b.box);
  write_bloom(w, b.name_filter);
  w.write_u64(g.versions().size());
  for (const auto& v : g.versions()) write_version_delta(w, v);
}

/// Rebuilds the replica's derived routing state through the same reset()
/// and seal() calls that built it live, so a loaded replica answers every
/// lookup exactly as the saved one did.
core::GroupReplica read_replica(BinaryReader& r, std::uint32_t version) {
  core::GroupReplica::Base b;
  b.centroid_raw = r.read_vec_f64();
  b.attr_sum = r.read_vec_f64();
  b.file_count = static_cast<std::size_t>(r.read_u64());
  b.box = read_mbr(r);
  b.name_filter = read_bloom(r);
  const std::size_t dims = b.attr_sum.size();
  core::GroupReplica g;
  g.reset(std::move(b));
  const std::size_t n = static_cast<std::size_t>(
      r.read_u64_max(r.remaining(), "version count"));
  for (std::size_t i = 0; i < n; ++i) {
    core::VersionDelta v = read_version_delta(r, version);
    // seal() folds the sum and box into running totals: a short vector
    // must fail the load rather than be indexed past its end.
    const rtree::Mbr& box = g.effective_box(true);
    if ((v.added_count != 0 && v.added_attr_sum.size() < dims) ||
        (box.valid() && v.added_box.valid() &&
         v.added_box.dims() != box.dims()))
      throw PersistError("sealed version dimension mismatch");
    g.seal(std::move(v));
  }
  return g;
}

}  // namespace

// ---- SnapshotAccess: the befriended codec over private state ----------------

struct SnapshotAccess {
  using Store = core::SmartStore;
  using Tree = core::SemanticRTree;

  // ---- encode (the frozen view of an active checkpoint) ---------------------
  //
  // Every section but UNITS serializes a value begin_checkpoint() captured
  // under the exclusive structure lock, so no writer reaches it. Units are
  // resolved one at a time under the freeze lock: the copy made by the
  // first post-freeze write where one exists, the untouched live unit
  // otherwise. Marking a unit done releases its copy immediately (bounding
  // COW memory to the not-yet-serialized units) and tells later mutations
  // to write through without copying. A serving thread only ever blocks
  // for the duration of one section or one unit.

  static void require_frozen(Store& s) {
    const util::MutexLock lock(s.freeze_.mu);
    if (!s.freeze_.active)
      throw PersistError(
          "save_snapshot_frozen requires an active begin_checkpoint()");
  }

  /// Writes section `id`'s payload.
  static void save_section(Store& s, std::uint32_t id, BinaryWriter& w) {
    if (id == kSecUnits) {
      save_units(s, w);
      return;
    }
    const util::MutexLock lock(s.freeze_.mu);
    const Store::FrozenCore& f = s.freeze_.core;
    switch (id) {
      // cfg_ never changes after construction.
      case kSecConfig: save_config(s.cfg_, f, w); break;
      case kSecStandardizer:
        w.write_vec_f64(f.standardizer.means);
        w.write_vec_f64(f.standardizer.inv_stdevs);
        break;
      case kSecTree: save_tree(f.tree, w); break;
      case kSecVariants:
        w.write_u64(f.variants.size());
        for (const core::TreeVariant& v : f.variants) {
          write_attr_subset(w, v.dims);
          save_tree(v.tree, w);
        }
        break;
      // The sync map pairs with the frozen tree, so its group list fixes
      // the order. Entries are keyed by group id on the wire, so ordering
      // is determinism, not correctness.
      case kSecSync: save_sync(f.sync, f.tree.groups(), w); break;
    }
  }

  static void save_config(const core::Config& c, const Store::FrozenCore& f,
                          BinaryWriter& w) {
    w.write_u32(static_cast<std::uint32_t>(metadata::kNumAttrs));
    w.write_u64(c.num_units);
    w.write_u64(c.fanout);
    w.write_u64(c.min_fill);
    w.write_f64(c.epsilon);
    w.write_u64(c.lsi_rank);
    w.write_u64(c.bloom_bits);
    w.write_u32(c.bloom_hashes);
    w.write_bool(c.bloom_auto_size);
    w.write_u64(c.placement_iters);
    w.write_u8(static_cast<std::uint8_t>(c.placement));
    w.write_f64(c.lazy_update_threshold);
    w.write_f64(c.autoconfig_threshold);
    w.write_u64(c.version_ratio);
    w.write_bool(c.versioning_enabled);
    w.write_u64(c.max_groups_per_query);
    w.write_u64(c.seed);
    w.write_f64(c.cost.hop_latency_s);
    w.write_f64(c.cost.bandwidth_bytes_per_s);
    w.write_f64(c.cost.per_message_cpu_s);
    w.write_f64(c.cost.per_record_scan_s);
    w.write_f64(c.cost.per_node_visit_s);
    w.write_f64(c.cost.per_bloom_check_s);
    // Store-level scalars that ride in the CONFIG section.
    w.write_u64(f.bloom_bits);
    w.write_u64(f.total_files);
    for (std::uint64_t word : f.rng_state) w.write_u64(word);
    w.write_u64(f.unit_active.size());
    for (bool b : f.unit_active) w.write_bool(b);
    // v2: the commit timestamp the image captures — recovery resumes the
    // MVCC clock here, then the WAL replay advances it record by record.
    w.write_u64(f.commit_seq);
  }

  /// v2 unit entry: the v1 record block, then the parallel added_seq array
  /// and the tombstone versions still pinned above `watermark` — the
  /// "checkpoint respects the GC watermark" rule. Tombstone coordinates are
  /// rebuilt from the standardizer on load, like live records'.
  static void save_unit(const core::StorageUnit& u, std::uint64_t watermark,
                        BinaryWriter& w) {
    w.write_u64(u.id());
    w.write_u64(u.file_count());
    for (const auto& f : u.files()) write_file_meta(w, f);
    for (std::uint64_t seq : u.added_seqs()) w.write_u64(seq);
    std::uint64_t kept = 0;
    for (const auto& t : u.tombstones())
      if (t.deleted_seq > watermark) ++kept;
    w.write_u64(kept);
    for (const auto& t : u.tombstones()) {
      if (t.deleted_seq <= watermark) continue;
      write_file_meta(w, t.file);
      w.write_u64(t.added_seq);
      w.write_u64(t.deleted_seq);
    }
  }

  static void save_units(Store& s, BinaryWriter& w) {
    const auto [count, watermark] = [&] {
      const util::MutexLock lock(s.freeze_.mu);
      return std::make_pair(s.freeze_.core.unit_count,
                            s.freeze_.core.gc_watermark);
    }();
    w.write_u64(count);
    for (std::size_t u = 0; u < count; ++u) {
      const util::MutexLock lock(s.freeze_.mu);
      if (s.freeze_.unit_state[u] == Store::PieceState::kFrozen) {
        save_unit(*s.freeze_.frozen_units[u], watermark, w);
        s.freeze_.frozen_units[u].reset();
      } else {
        save_unit(s.units_[u], watermark, w);
      }
      s.freeze_.unit_state[u] = Store::PieceState::kDone;
    }
  }

  static void save_tree(const Tree& t, BinaryWriter& w) {
    w.write_u64(t.params_.fanout);
    w.write_u64(t.params_.min_fill);
    w.write_f64(t.params_.epsilon);
    w.write_u64(t.params_.lsi_rank);
    w.write_u64(t.params_.bloom_bits);
    w.write_u32(t.params_.bloom_hashes);
    w.write_vec_size(t.params_.lsi_dims);

    w.write_u64(t.nodes_.size());
    for (const core::IndexUnit& n : t.nodes_) {
      w.write_u64(n.node_id);
      if (n.node_id == core::kInvalidIndex) continue;  // freed slot
      w.write_i32(n.level);
      w.write_u64(n.parent);
      w.write_vec_size(n.children);
      write_mbr(w, n.box);
      write_bloom(w, n.name_filter);
      w.write_vec_f64(n.attr_sum);
      w.write_u64(n.file_count);
      w.write_u64(n.mapped_unit);
    }
    w.write_vec_size(t.free_list_);
    w.write_u64(t.live_nodes_);
    w.write_u64(t.root_);
    w.write_vec_size(t.groups_);
    w.write_vec_size(t.unit_group_);
    w.write_vec_f64(t.level_epsilons_);
    write_lsi(w, t.unit_lsi_);
    w.write_vec_size(t.root_replicas_);
  }

  static void save_sync(
      const std::unordered_map<std::size_t, Store::GroupSync>& sync,
      const std::vector<std::size_t>& group_order, BinaryWriter& w) {
    w.write_u64(sync.size());
    // Deterministic order: follow the given group list, then any stragglers
    // (there should be none, but the format does not depend on map order).
    std::vector<std::size_t> order;
    for (std::size_t g : group_order)
      if (sync.count(g)) order.push_back(g);
    const std::size_t ordered = order.size();
    for (const auto& [g, gs] : sync) {
      (void)gs;
      if (std::find(order.begin(), order.end(), g) == order.end())
        order.push_back(g);
    }
    // Stragglers come out of unordered_map iteration; sort them so the
    // image is byte-deterministic.
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(ordered),
              order.end());
    for (std::size_t g : order) {
      const Store::GroupSync& gs = sync.at(g);
      w.write_u64(g);
      write_replica(w, gs.replica);
      write_version_delta(w, gs.pending);
      w.write_u64(gs.changes_since_full_sync);
    }
  }

  // ---- decode ---------------------------------------------------------------

  static core::Config load_config(BinaryReader& r) {
    const std::uint32_t nattrs = r.read_u32();
    if (nattrs != metadata::kNumAttrs) {
      throw PersistError("snapshot schema has " + std::to_string(nattrs) +
                         " attributes, binary expects " +
                         std::to_string(metadata::kNumAttrs));
    }
    core::Config c;
    c.num_units = static_cast<std::size_t>(r.read_u64());
    c.fanout = static_cast<std::size_t>(r.read_u64());
    c.min_fill = static_cast<std::size_t>(r.read_u64());
    c.epsilon = r.read_f64();
    c.lsi_rank = static_cast<std::size_t>(r.read_u64());
    c.bloom_bits = static_cast<std::size_t>(r.read_u64());
    c.bloom_hashes = r.read_u32();
    c.bloom_auto_size = r.read_bool();
    c.placement_iters = static_cast<std::size_t>(r.read_u64());
    const std::uint8_t placement = r.read_u8();
    if (placement > 1) throw PersistError("unknown placement policy");
    c.placement = static_cast<core::PlacementPolicy>(placement);
    c.lazy_update_threshold = r.read_f64();
    c.autoconfig_threshold = r.read_f64();
    c.version_ratio = static_cast<std::size_t>(r.read_u64());
    c.versioning_enabled = r.read_bool();
    c.max_groups_per_query = static_cast<std::size_t>(r.read_u64());
    c.seed = r.read_u64();
    c.cost.hop_latency_s = r.read_f64();
    c.cost.bandwidth_bytes_per_s = r.read_f64();
    c.cost.per_message_cpu_s = r.read_f64();
    c.cost.per_record_scan_s = r.read_f64();
    c.cost.per_node_visit_s = r.read_f64();
    c.cost.per_bloom_check_s = r.read_f64();
    return c;
  }

  static Tree load_tree(BinaryReader& r) {
    Tree t;
    t.params_.fanout = static_cast<std::size_t>(r.read_u64());
    t.params_.min_fill = static_cast<std::size_t>(r.read_u64());
    t.params_.epsilon = r.read_f64();
    t.params_.lsi_rank = static_cast<std::size_t>(r.read_u64());
    t.params_.bloom_bits = static_cast<std::size_t>(r.read_u64());
    t.params_.bloom_hashes = r.read_u32();
    t.params_.lsi_dims = r.read_vec_size();

    const std::size_t num_nodes = static_cast<std::size_t>(
        r.read_u64_max(r.remaining(), "node count"));
    t.nodes_.resize(num_nodes);
    for (std::size_t i = 0; i < num_nodes; ++i) {
      core::IndexUnit& n = t.nodes_[i];
      n.node_id = read_index(r, num_nodes, "node id");
      if (n.node_id == core::kInvalidIndex) continue;  // freed slot
      if (n.node_id != i) throw PersistError("node id does not match slot");
      n.level = r.read_i32();
      n.parent = read_index(r, num_nodes, "parent");
      // Level-1 children are storage units (validated against the unit
      // count during assembly); higher levels reference node slots.
      n.children = n.level == 1
                       ? r.read_vec_size()
                       : read_index_vec(r, num_nodes, "child node");
      n.box = read_mbr(r);
      n.name_filter = read_bloom(r);
      n.attr_sum = r.read_vec_f64();
      n.file_count = static_cast<std::size_t>(r.read_u64());
      n.mapped_unit = static_cast<std::size_t>(r.read_u64());
    }
    t.free_list_ = read_index_vec(r, num_nodes, "free-list entry");
    t.live_nodes_ = static_cast<std::size_t>(
        r.read_u64_max(num_nodes, "live node count"));
    t.root_ = read_index(r, num_nodes, "root");
    t.groups_ = read_index_vec(r, num_nodes, "group node");
    t.unit_group_ = r.read_vec_size();
    for (std::size_t g : t.unit_group_) {
      if (g != core::kInvalidIndex && g >= num_nodes)
        throw PersistError("unit-group mapping out of range");
    }
    t.level_epsilons_ = r.read_vec_f64();
    t.unit_lsi_ = read_lsi(r);
    t.root_replicas_ = r.read_vec_size();
    return t;
  }

  // Builds the store before any other thread can see it, so the guarded
  // members are written lock-free by construction; exempted from analysis
  // rather than given locks the unpublished object does not need.
  static std::unique_ptr<Store> assemble(std::uint32_t version,
                                         BinaryReader& config_r,
                                         BinaryReader& std_r,
                                         BinaryReader& units_r,
                                         BinaryReader& tree_r,
                                         BinaryReader& variants_r,
                                         BinaryReader& sync_r)
      SS_NO_THREAD_SAFETY_ANALYSIS {
    core::Config cfg = load_config(config_r);
    auto store = std::make_unique<Store>(cfg);
    Store& s = *store;

    // The geometry the image was written with; WAL replay grows it again
    // as the population it re-derives crosses the sizing rule.
    const auto bloom_bits = static_cast<std::size_t>(config_r.read_u64());
    if (bloom_bits == 0) throw PersistError("bloom bits must be > 0");
    s.set_bloom_bits(bloom_bits);
    s.total_files_ = static_cast<std::size_t>(config_r.read_u64());
    std::array<std::uint64_t, 4> rng_state;
    for (auto& word : rng_state) word = config_r.read_u64();
    s.rng_.set_state(rng_state);
    const std::size_t num_units = static_cast<std::size_t>(
        config_r.read_u64_max(config_r.remaining(), "unit count"));
    s.unit_active_.resize(num_units);
    for (std::size_t u = 0; u < num_units; ++u)
      s.unit_active_[u] = config_r.read_bool();
    if (version >= 2) {
      // MVCC clock resumes where the image cut it; v1 images predate the
      // commit counter and restart it at 0 (all records pre-history).
      s.commit_seq_.store(config_r.read_u64(), std::memory_order_relaxed);
    }

    s.standardizer_.means = std_r.read_vec_f64();
    s.standardizer_.inv_stdevs = std_r.read_vec_f64();
    if (s.standardizer_.means.size() != metadata::kNumAttrs ||
        s.standardizer_.inv_stdevs.size() != metadata::kNumAttrs)
      throw PersistError("standardizer dimension mismatch");

    // Units: records are authoritative; the per-unit name/id indexes,
    // counting Bloom filter, MBR and centroid sums are rebuilt via
    // add_file. The rebuilt MBR can only be tighter than the persisted tree
    // boxes (deletes never shrink boxes), so containment invariants hold.
    const std::size_t unit_count =
        static_cast<std::size_t>(units_r.read_u64_max(
            units_r.remaining(), "unit count"));
    if (unit_count != num_units)
      throw PersistError("UNITS/CONFIG unit count mismatch");
    s.units_.clear();
    s.units_.reserve(unit_count);
    for (std::size_t u = 0; u < unit_count; ++u) {
      const std::uint64_t id = units_r.read_u64();
      if (id != u) throw PersistError("unit ids must be dense and in order");
      s.units_.emplace_back(u, s.bloom_bits_, cfg.bloom_hashes);
      const std::size_t nfiles = static_cast<std::size_t>(
          units_r.read_u64_max(units_r.remaining(), "file count"));
      std::vector<metadata::FileMetadata> files;
      files.reserve(nfiles);
      for (std::size_t i = 0; i < nfiles; ++i)
        files.push_back(read_file_meta(units_r));
      std::vector<std::uint64_t> seqs(nfiles, 0);
      if (version >= 2) {
        for (auto& seq : seqs) seq = units_r.read_u64();
      }
      for (std::size_t i = 0; i < nfiles; ++i) {
        s.units_.back().add_file(
            files[i], s.standardizer_.transform(files[i].full_vector()),
            bloom::hash_item(files[i].name), seqs[i]);
      }
      if (version >= 2) {
        const std::size_t ntombs = static_cast<std::size_t>(
            units_r.read_u64_max(units_r.remaining(), "tombstone count"));
        for (std::size_t i = 0; i < ntombs; ++i) {
          core::TombstoneRecord t;
          t.file = read_file_meta(units_r);
          t.added_seq = units_r.read_u64();
          t.deleted_seq = units_r.read_u64();
          if (t.deleted_seq == 0 || t.deleted_seq <= t.added_seq)
            throw PersistError("tombstone with inverted seq window");
          t.std_coords = s.standardizer_.transform(t.file.full_vector());
          s.units_.back().restore_tombstone(std::move(t));
        }
      }
    }

    s.tree_ = load_tree(tree_r);
    if (s.tree_.unit_group_.size() != unit_count)
      throw PersistError("tree unit-group size does not match unit count");

    const std::size_t nvariants = static_cast<std::size_t>(
        variants_r.read_u64_max(variants_r.remaining(), "variant count"));
    s.variants_.clear();
    s.variants_.reserve(nvariants);
    for (std::size_t i = 0; i < nvariants; ++i) {
      core::TreeVariant v;
      v.dims = read_attr_subset(variants_r);
      v.tree = load_tree(variants_r);
      if (v.tree.unit_group_.size() != unit_count)
        throw PersistError("variant unit-group size does not match unit count");
      s.variants_.push_back(std::move(v));
    }

    const std::size_t nsync = static_cast<std::size_t>(
        sync_r.read_u64_max(sync_r.remaining(), "sync group count"));
    s.sync_.clear();
    for (std::size_t i = 0; i < nsync; ++i) {
      const std::size_t g =
          read_index(sync_r, s.tree_.nodes_.size(), "sync group");
      Store::GroupSync gs;
      gs.replica = read_replica(sync_r, version);
      gs.pending = read_version_delta(sync_r, version);
      gs.changes_since_full_sync = static_cast<std::size_t>(sync_r.read_u64());
      s.sync_.emplace(g, std::move(gs));
    }
    // Versions of a pre-3 image lost their names above: every group
    // full-syncs, the state a live lazy-update refresh produces.
    if (version < 3) s.init_sync_state();

    s.rebuild_unit_locks();

    // A fresh virtual-time cluster: queue occupancy is runtime state, a
    // restarted deployment begins with idle queues at time zero.
    s.cluster_ = std::make_unique<sim::Cluster>(unit_count, cfg.cost);
    for (std::size_t u = 0; u < unit_count; ++u)
      if (!s.unit_active_[u]) s.cluster_->set_node_alive(u, false);

    if (!s.check_invariants())
      throw PersistError("reassembled deployment fails invariant checks");
    return store;
  }
};

// ---- public entry points ----------------------------------------------------

namespace {

void append_section(BinaryWriter& out, std::uint32_t id,
                    const BinaryWriter& payload) {
  out.write_u32(id);
  out.write_u64(payload.size());
  out.write_bytes(payload.buffer().data(), payload.size());
  out.write_u32(util::crc32(payload.buffer().data(), payload.size()));
}

struct SectionView {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  bool present() const { return data != nullptr || size > 0; }
};

}  // namespace

void save_snapshot_frozen(core::SmartStore& store, const std::string& path) {
  // Section order and crash boundaries: one table, one writer.
  static constexpr struct {
    std::uint32_t id;
    const char* fault;
  } kSections[] = {
      {kSecConfig, "snapshot:section:config"},
      {kSecStandardizer, "snapshot:section:standardizer"},
      {kSecUnits, "snapshot:section:units"},
      {kSecTree, "snapshot:section:tree"},
      {kSecVariants, "snapshot:section:variants"},
      {kSecSync, "snapshot:section:sync"},
  };

  SnapshotAccess::require_frozen(store);
  BinaryWriter out;
  out.write_bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  out.write_u32(kSnapshotFormatVersion);
  out.write_u32(static_cast<std::uint32_t>(std::size(kSections)));

  BinaryWriter sec;
  for (const auto& s : kSections) {
    fault_point(s.fault);
    sec.clear();
    SnapshotAccess::save_section(store, s.id, sec);
    append_section(out, s.id, sec);
  }

  write_file_atomic_faulted(path, out.buffer(), "snapshot:write");
}

void save_snapshot(core::SmartStore& store, const std::string& path) {
  store.begin_checkpoint();
  try {
    save_snapshot_frozen(store, path);
  } catch (...) {
    store.end_checkpoint();
    throw;
  }
  store.end_checkpoint();
}

std::unique_ptr<core::SmartStore> load_snapshot(const std::string& path) {
  // Distinguish "no snapshot" from "unreadable snapshot" up front: the
  // former is a typed kNotFound (a fresh directory, or a deployment that
  // never checkpointed), the corruption paths below stay kCorruption.
  std::error_code exists_ec;
  if (!std::filesystem::exists(path, exists_ec)) {
    throw PersistError("snapshot not found: " + path,
                       PersistError::Code::kNotFound);
  }
  const std::vector<std::uint8_t> bytes = util::read_file_bytes(path);
  BinaryReader r(bytes);

  if (r.remaining() < sizeof(kSnapshotMagic))
    throw PersistError("snapshot too short for magic: " + path);
  char magic[sizeof(kSnapshotMagic)];
  for (char& c : magic) c = static_cast<char>(r.read_u8());
  if (std::memcmp(magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0)
    throw PersistError("bad snapshot magic: " + path);
  const std::uint32_t version = r.read_u32();
  if (version == 0 || version > kSnapshotFormatVersion) {
    throw PersistError("unsupported snapshot format version " +
                       std::to_string(version));
  }
  const std::uint32_t nsections = r.read_u32();

  SectionView sections[kMaxSection + 1];
  for (std::uint32_t i = 0; i < nsections; ++i) {
    const std::uint32_t id = r.read_u32();
    const std::uint64_t len = r.read_u64();
    if (r.remaining() < 4 || len > r.remaining() - 4)
      throw PersistError("truncated snapshot section " + std::to_string(id));
    const std::uint8_t* payload = bytes.data() + r.position();
    r.skip(static_cast<std::size_t>(len));
    const std::uint32_t stored_crc = r.read_u32();
    if (util::crc32(payload, static_cast<std::size_t>(len)) != stored_crc) {
      throw PersistError("checksum mismatch in snapshot section " +
                         std::to_string(id));
    }
    if (id >= 1 && id <= kMaxSection) {
      sections[id] = {payload, static_cast<std::size_t>(len)};
    }
    // Unknown ids: checksummed and skipped (forward compatibility).
  }
  for (std::uint32_t id = 1; id <= kMaxSection; ++id) {
    if (!sections[id].present())
      throw PersistError("snapshot missing section " + std::to_string(id));
  }

  BinaryReader config_r(sections[kSecConfig].data, sections[kSecConfig].size);
  BinaryReader std_r(sections[kSecStandardizer].data,
                     sections[kSecStandardizer].size);
  BinaryReader units_r(sections[kSecUnits].data, sections[kSecUnits].size);
  BinaryReader tree_r(sections[kSecTree].data, sections[kSecTree].size);
  BinaryReader variants_r(sections[kSecVariants].data,
                          sections[kSecVariants].size);
  BinaryReader sync_r(sections[kSecSync].data, sections[kSecSync].size);
  return SnapshotAccess::assemble(version, config_r, std_r, units_r, tree_r,
                                  variants_r, sync_r);
}

}  // namespace smartstore::persist
