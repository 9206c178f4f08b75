#include "core/smartstore.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>

namespace smartstore::core {

using metadata::AttrSubset;
using metadata::FileId;
using metadata::FileMetadata;
using metadata::kNumAttrs;

namespace {

/// Small fixed message sizes for the simulated protocol.
constexpr std::size_t kQueryMsgBytes = 256;
constexpr std::size_t kVersionMsgBytes = 2048;   // a sealed delta is small
constexpr std::size_t kReplicaMsgBytes = 16384;  // a full summary refresh

/// What a full synchronization copies out of first-level index unit `n`.
GroupReplica::Base replica_base(const IndexUnit& n) {
  return {n.centroid_raw(), n.attr_sum, n.file_count, n.box, n.name_filter};
}

VersionDelta empty_delta() {
  VersionDelta v;
  v.added_attr_sum.assign(kNumAttrs, 0.0);
  return v;
}

}  // namespace

namespace {
/// Process-wide store instance ids, so per-thread RNG streams can tell
/// apart two stores that happen to occupy the same address over time.
std::atomic<std::uint64_t> g_next_store_id{1};
}  // namespace

SmartStore::SmartStore(Config cfg)
    : cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      store_id_(g_next_store_id.fetch_add(1, std::memory_order_relaxed)) {}

// ---- concurrent checkpointing (epoch freeze + copy-on-write) ----------------

std::uint64_t SmartStore::begin_checkpoint(
    const std::function<void()>& while_frozen) {
  // Exclusive: every serving thread is outside its operation, so the epoch
  // cut is a mutation boundary for all of them simultaneously — which is
  // also what makes `while_frozen` the right place to fence the WAL shards.
  util::WriterLock ex(structure_mu_);
  std::uint64_t frozen_epoch = 0;
  {
    util::MutexLock lock(freeze_.mu);
    assert(!freeze_.active && "one checkpoint at a time");
    freeze_.active = true;
    freeze_.frozen_epoch = epoch_.load(std::memory_order_relaxed);
    freeze_.cow_copies = 0;

    freeze_.core.bloom_bits = bloom_bits_;
    freeze_.core.total_files = total_files_.load(std::memory_order_relaxed);
    freeze_.core.rng_state = rng_.state();
    freeze_.core.unit_active = unit_active_;
    freeze_.core.standardizer = standardizer_;
    freeze_.core.unit_count = units_.size();
    // The MVCC cut: no mutator runs (exclusive structure lock), so the
    // commit counter is the exact seq of the image being captured. The
    // watermark is what the UNITS serializer filters tombstones against —
    // a pin taken after the freeze needs no tombstone this image lacks,
    // because its seq is >= the frozen commit seq.
    freeze_.core.commit_seq = commit_seq_.load(std::memory_order_acquire);
    freeze_.core.gc_watermark = gc_watermark();

    // Units (the bulk of the state) freeze lazily via copy-on-write; the
    // index structures are captured eagerly here, so post-freeze writers
    // never copy a whole tree mid-operation and the serializer never has
    // to reconcile a structure being updated under striped locks.
    freeze_.unit_state.assign(units_.size(), PieceState::kPending);
    freeze_.frozen_units.clear();
    freeze_.frozen_units.resize(units_.size());
    freeze_.core.tree = tree_;
    freeze_.core.variants = variants_;
    freeze_.core.sync = sync_;
    // Copied out under the lock: the post-freeze read at the bottom of
    // this function used to reach for freeze_.frozen_epoch directly, a
    // data race with a serializer that finishes (and a writer that begins
    // the next cycle) between here and the return.
    frozen_epoch = freeze_.frozen_epoch;
  }
  if (while_frozen) {
    try {
      while_frozen();
    } catch (...) {
      // The checkpoint never happened: release the freeze here, or every
      // later mutation would pay copy-on-write into a stale frozen view
      // forever (and the next begin_checkpoint would assert).
      end_checkpoint();
      throw;
    }
  }
  return frozen_epoch;
}

void SmartStore::end_checkpoint() {
  util::MutexLock lock(freeze_.mu);
  freeze_.active = false;
  freeze_.core = FrozenCore{};
  freeze_.unit_state.clear();
  freeze_.frozen_units.clear();
}

void SmartStore::mutation_barrier(const std::function<void()>& fn) {
  // Exclusive, like begin_checkpoint's cut — every serving thread is
  // outside its operation — but with no freeze state attached: the delta
  // checkpoint needs only the instantaneous consistency of the cut, not a
  // preserved image (its image IS the WAL prefix the fence names).
  util::WriterLock ex(structure_mu_);
  if (fn) fn();
}

bool SmartStore::checkpoint_active() const {
  util::MutexLock lock(freeze_.mu);
  return freeze_.active;
}

std::uint64_t SmartStore::checkpoint_cow_copies() const {
  util::MutexLock lock(freeze_.mu);
  return freeze_.cow_copies;
}

void SmartStore::cow_unit_locked(UnitId u) {
  if (u >= freeze_.unit_state.size()) return;
  if (freeze_.unit_state[u] != PieceState::kPending) return;
  freeze_.frozen_units[u] = std::make_unique<StorageUnit>(units_[u]);
  freeze_.unit_state[u] = PieceState::kFrozen;
  ++freeze_.cow_copies;
}

void SmartStore::cow_unit(UnitId u) {
  unit_mutex(u).assert_held();
  util::MutexLock lock(freeze_.mu);
  if (!freeze_.active) return;
  cow_unit_locked(u);
}

void SmartStore::cow_all_units() {
  util::MutexLock lock(freeze_.mu);
  if (!freeze_.active) return;
  for (UnitId u = 0; u < freeze_.unit_state.size(); ++u) cow_unit_locked(u);
}

void SmartStore::rebuild_unit_locks() {
  // Callers own the exclusive structure lock (or are still inside
  // single-threaded assembly), so no unit lock can be held while the
  // vector reshapes; existing mutex objects stay put behind their
  // unique_ptrs.
  unit_mu_.resize(units_.size());
  for (auto& mu : unit_mu_)
    if (!mu) mu = std::make_unique<util::Mutex>(util::LockRank::kUnit);
}

la::Vector SmartStore::std_coords(const FileMetadata& f) const {
  return standardizer_.transform(f.full_vector());
}

void SmartStore::build(const std::vector<FileMetadata>& files) {
  // Bulk construction replaces every piece; serving threads and the
  // checkpoint serializer are excluded for the duration, and any units
  // still pending in an active freeze are copied first (the structures
  // were captured eagerly at freeze time).
  util::WriterLock ex(structure_mu_);
  epoch_.fetch_add(1, std::memory_order_relaxed);
  cow_all_units();
  standardizer_ = fit_standardizer(files);
  set_bloom_bits(sized_bloom_bits(files.size()));

  // Semantic placement (Section 2: "files are grouped and stored according
  // to their metadata semantics"): balanced k-means over LSI coordinates
  // assigns correlated files to the same storage unit.
  units_.clear();
  units_.reserve(cfg_.num_units);
  for (std::size_t u = 0; u < cfg_.num_units; ++u)
    units_.emplace_back(u, bloom_bits_, cfg_.bloom_hashes);
  unit_active_.assign(cfg_.num_units, true);
  rebuild_unit_locks();

  if (!files.empty()) {
    Grouping place;
    if (cfg_.placement == PlacementPolicy::kSemantic) {
      std::vector<la::Vector> docs;
      docs.reserve(files.size());
      for (const auto& f : files) docs.push_back(f.full_vector());
      lsi::LsiModel placement = lsi::LsiModel::fit(docs, cfg_.lsi_rank);
      std::vector<la::Vector> coords;
      coords.reserve(files.size());
      for (std::size_t i = 0; i < files.size(); ++i)
        coords.push_back(placement.doc_coords(i));

      const std::size_t cap =
          (files.size() + cfg_.num_units - 1) / cfg_.num_units + 1 +
          files.size() / (cfg_.num_units * 8);
      place = kmeans_cluster(coords, cfg_.num_units, cfg_.placement_iters,
                             cfg_.seed, cap);
    } else {
      place = random_grouping(files.size(), cfg_.num_units, cfg_.seed);
    }
    for (std::size_t g = 0; g < place.groups.size(); ++g) {
      const UnitId u = g % cfg_.num_units;
      for (std::size_t idx : place.groups[g]) {
        units_[u].add_file(files[idx], std_coords(files[idx]),
                           bloom::hash_item(files[idx].name));
      }
    }
  }
  total_files_ = files.size();

  SemanticRTree::BuildParams params;
  params.fanout = cfg_.fanout;
  params.min_fill = cfg_.min_fill;
  params.epsilon = cfg_.epsilon;
  params.lsi_rank = cfg_.lsi_rank;
  params.bloom_bits = bloom_bits_;
  params.bloom_hashes = cfg_.bloom_hashes;
  tree_.build(units_, params);
  tree_.map_index_units(rng_);

  cluster_ = std::make_unique<sim::Cluster>(cfg_.num_units, cfg_.cost);
  variants_.clear();
  init_sync_state();
}

void SmartStore::init_sync_state() {
  sync_.clear();
  refresh_sync_groups();
}

// ---- filter geometry ---------------------------------------------------------

std::size_t SmartStore::sized_bloom_bits(std::size_t files) const {
  // ~12 bits per name of the expected group population keeps the filter
  // hierarchy in a useful false-positive regime.
  std::size_t bits = cfg_.bloom_bits;
  if (!cfg_.bloom_auto_size) return bits;
  const std::size_t per_group = files /
                                std::max<std::size_t>(1, cfg_.num_units) *
                                std::max<std::size_t>(2, cfg_.fanout);
  while (bits < per_group * 12) bits *= 2;
  return bits;
}

void SmartStore::set_bloom_bits(std::size_t bits) {
  bloom_bits_ = bits;
  // sized_bloom_bits(n) exceeds `bits` exactly when
  // n / num_units * fanout * 12 > bits, i.e. from the population below on.
  std::size_t at = std::numeric_limits<std::size_t>::max();
  if (cfg_.bloom_auto_size) {
    const std::size_t per_unit =
        bits / (12 * std::max<std::size_t>(2, cfg_.fanout));
    at = (per_unit + 1) * std::max<std::size_t>(1, cfg_.num_units);
  }
  grow_at_.store(at, std::memory_order_relaxed);
}

std::size_t SmartStore::bloom_bits() const {
  util::ReaderLock shared(structure_mu_);
  return bloom_bits_;
}

void SmartStore::maybe_grow_filters() {
  if (total_files_.load(std::memory_order_relaxed) <
      grow_at_.load(std::memory_order_relaxed))
    return;
  // A structural operation like add_storage_unit: every serving thread is
  // outside its operation, and units still pending in an active freeze
  // are copied first (the index structures were captured at freeze time).
  util::WriterLock ex(structure_mu_);
  const std::size_t bits =
      sized_bloom_bits(total_files_.load(std::memory_order_relaxed));
  if (bits <= bloom_bits_) return;  // a concurrent writer grew them first
  epoch_.fetch_add(1, std::memory_order_relaxed);
  cow_all_units();
  set_bloom_bits(bits);
  for (StorageUnit& u : units_) u.resize_name_filter(bits);
  tree_.resize_filters(units_, bits);
  for (auto& v : variants_) v.tree.resize_filters(units_, bits);
  // A replica base is a filter of the names its group held at the last
  // sync, which are not kept apart: only a full sync (as reconfigure()
  // runs) gives it the new geometry.
  for (std::size_t g : tree_.groups()) full_sync_group(g, nullptr);
  bloom_resizes_.fetch_add(1, std::memory_order_relaxed);
}

void SmartStore::refresh_sync_groups() {
  // Drop state for groups that no longer exist; snapshot new ones.
  for (auto it = sync_.begin(); it != sync_.end();) {
    const auto& gl = tree_.groups();
    if (std::find(gl.begin(), gl.end(), it->first) == gl.end()) {
      it = sync_.erase(it);
    } else {
      ++it;
    }
  }
  for (std::size_t g : tree_.groups()) {
    if (sync_.count(g)) continue;
    GroupSync gs;
    gs.replica.reset(replica_base(tree_.node(g)));
    gs.pending = empty_delta();
    sync_.emplace(g, std::move(gs));
  }
}

util::Rng& SmartStore::thread_rng() const {
  // One stream per (thread, store): reseeded when this thread first draws
  // for this store, from the store seed and a monotonic stream id — so
  // single-threaded runs stay reproducible (stream 1, always) and
  // concurrent threads draw from uncorrelated streams without sharing any
  // mutable state. Keyed by the store's instance id, not its address — an
  // address can be reused by a later store, which must get fresh streams.
  // Streams are runtime-only: the persisted rng is the store rng, and the
  // freeze captures the stream counter for diagnostics.
  thread_local std::uint64_t owner = 0;
  thread_local util::Rng rng;
  if (owner != store_id_) {
    owner = store_id_;
    const std::uint64_t stream =
        rng_streams_.fetch_add(1, std::memory_order_relaxed) + 1;
    rng.reseed(cfg_.seed ^ (0x9E3779B97F4A7C15ULL * stream));
  }
  return rng;
}

sim::NodeId SmartStore::random_home() {
  // Queries arrive at a uniformly random active storage unit (Section 2.2).
  util::Rng& rng = thread_rng();
  for (int tries = 0; tries < 64; ++tries) {
    const UnitId u = static_cast<UnitId>(rng.uniform_u64(units_.size()));
    if (unit_active_[u]) return u;
  }
  for (UnitId u = 0; u < units_.size(); ++u)
    if (unit_active_[u]) return u;
  return 0;
}

// ---- geometry helpers -------------------------------------------------------

std::vector<std::size_t> SmartStore::dim_indices(const AttrSubset& dims) const {
  std::vector<std::size_t> idx(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i)
    idx[i] = static_cast<std::size_t>(dims[i]);
  return idx;
}

void SmartStore::standardize_range(const metadata::RangeQuery& q,
                                   std::vector<std::size_t>& dim_idx,
                                   la::Vector& lo, la::Vector& hi) const {
  dim_idx = dim_indices(q.dims);
  lo.resize(dim_idx.size());
  hi.resize(dim_idx.size());
  for (std::size_t i = 0; i < dim_idx.size(); ++i) {
    const std::size_t d = dim_idx[i];
    const double a = (q.lo[i] - standardizer_.means[d]) *
                     standardizer_.inv_stdevs[d];
    const double b = (q.hi[i] - standardizer_.means[d]) *
                     standardizer_.inv_stdevs[d];
    lo[i] = std::min(a, b);
    hi[i] = std::max(a, b);
  }
}

la::Vector SmartStore::standardize_point(const metadata::TopKQuery& q,
                                         std::vector<std::size_t>& dim_idx)
    const {
  dim_idx = dim_indices(q.dims);
  la::Vector p(dim_idx.size());
  for (std::size_t i = 0; i < dim_idx.size(); ++i) {
    const std::size_t d = dim_idx[i];
    p[i] = (q.point[i] - standardizer_.means[d]) * standardizer_.inv_stdevs[d];
  }
  return p;
}

bool SmartStore::box_intersects(const rtree::Mbr& box,
                                const std::vector<std::size_t>& dim_idx,
                                const la::Vector& lo, const la::Vector& hi) {
  if (!box.valid()) return false;
  for (std::size_t i = 0; i < dim_idx.size(); ++i) {
    const std::size_t d = dim_idx[i];
    if (box.hi()[d] < lo[i] || box.lo()[d] > hi[i]) return false;
  }
  return true;
}

double SmartStore::box_min_dist2(const rtree::Mbr& box,
                                 const std::vector<std::size_t>& dim_idx,
                                 const la::Vector& point) {
  if (!box.valid()) return std::numeric_limits<double>::infinity();
  double acc = 0.0;
  for (std::size_t i = 0; i < dim_idx.size(); ++i) {
    const std::size_t d = dim_idx[i];
    double delta = 0.0;
    if (point[i] < box.lo()[d]) {
      delta = box.lo()[d] - point[i];
    } else if (point[i] > box.hi()[d]) {
      delta = point[i] - box.hi()[d];
    }
    acc += delta * delta;
  }
  return acc;
}

void SmartStore::unit_range_scan(const StorageUnit& u,
                                 const std::vector<std::size_t>& dim_idx,
                                 const la::Vector& lo, const la::Vector& hi,
                                 std::vector<FileId>& out) const {
  const auto& coords = u.std_coords();
  for (std::size_t i = 0; i < coords.size(); ++i) {
    bool ok = true;
    for (std::size_t j = 0; j < dim_idx.size(); ++j) {
      const double v = coords[i][dim_idx[j]];
      if (v < lo[j] || v > hi[j]) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(u.files()[i].id);
  }
}

void SmartStore::unit_topk_scan(
    const StorageUnit& u, const std::vector<std::size_t>& dim_idx,
    const la::Vector& point, std::size_t k,
    std::vector<std::pair<double, FileId>>& heap) const {
  // `heap` is a max-heap of the best k candidates found so far.
  const auto& coords = u.std_coords();
  for (std::size_t i = 0; i < coords.size(); ++i) {
    double dist = 0.0;
    for (std::size_t j = 0; j < dim_idx.size(); ++j) {
      const double delta = coords[i][dim_idx[j]] - point[j];
      dist += delta * delta;
    }
    if (heap.size() < k) {
      heap.emplace_back(dist, u.files()[i].id);
      std::push_heap(heap.begin(), heap.end());
    } else if (dist < heap.front().first) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = {dist, u.files()[i].id};
      std::push_heap(heap.begin(), heap.end());
    }
  }
}

// ---- routing ---------------------------------------------------------------

std::vector<SmartStore::RankedGroup> SmartStore::rank_groups_range(
    const SemanticRTree& t, const metadata::RangeQuery& q,
    double& version_cost) const {
  std::vector<std::size_t> dim_idx;
  la::Vector lo, hi;
  standardize_range(q, dim_idx, lo, hi);

  const bool main_tree = &t == &tree_;
  std::vector<RankedGroup> out;
  for (std::size_t g : t.groups()) {
    rtree::Mbr box;
    if (main_tree) {
      const auto guard = maybe_lock(&sync_stripes_, &sync_.at(g));
      const GroupSync& gs = sync_.at(g);
      version_cost += static_cast<double>(gs.replica.versions().size()) *
                      cfg_.cost.per_bloom_check_s;
      box = gs.replica.effective_box(cfg_.versioning_enabled);
    } else {
      const auto guard = maybe_lock(&summary_stripes_, &t.node(g));
      box = t.node(g).box;  // variants route on fresh summaries
    }
    if (!box_intersects(box, dim_idx, lo, hi)) continue;
    // Score: negative overlap fraction, so bigger overlaps rank first.
    double overlap = 1.0;
    for (std::size_t i = 0; i < dim_idx.size(); ++i) {
      const std::size_t d = dim_idx[i];
      const double len = std::max(1e-12, box.hi()[d] - box.lo()[d]);
      const double o = std::min(hi[i], box.hi()[d]) -
                       std::max(lo[i], box.lo()[d]);
      overlap *= std::max(0.0, o) / len;
    }
    out.push_back({g, -overlap});
  }
  std::sort(out.begin(), out.end(), [](const RankedGroup& a,
                                       const RankedGroup& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.node_id < b.node_id;
  });
  return out;
}

std::vector<SmartStore::RankedGroup> SmartStore::rank_groups_topk(
    const SemanticRTree& t, const la::Vector& std_point,
    const std::vector<std::size_t>& dim_idx, double& version_cost) const {
  const bool main_tree = &t == &tree_;
  std::vector<RankedGroup> out;
  for (std::size_t g : t.groups()) {
    rtree::Mbr box;
    if (main_tree) {
      const auto guard = maybe_lock(&sync_stripes_, &sync_.at(g));
      const GroupSync& gs = sync_.at(g);
      version_cost += static_cast<double>(gs.replica.versions().size()) *
                      cfg_.cost.per_bloom_check_s;
      box = gs.replica.effective_box(cfg_.versioning_enabled);
    } else {
      const auto guard = maybe_lock(&summary_stripes_, &t.node(g));
      box = t.node(g).box;
    }
    out.push_back({g, box_min_dist2(box, dim_idx, std_point)});
  }
  std::sort(out.begin(), out.end(), [](const RankedGroup& a,
                                       const RankedGroup& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.node_id < b.node_id;
  });
  return out;
}

std::size_t SmartStore::best_group_for_vector(const la::Vector& raw) const {
  // Section 3.2.1 / 3.4: LSI similarity between the request vector and the
  // (effective) semantic vectors of the first-level index units.
  const lsi::LsiModel& model = tree_.unit_lsi();
  std::size_t best = kInvalidIndex;
  double best_sim = -std::numeric_limits<double>::infinity();
  const la::Vector q =
      model.fitted() ? model.project(tree_.restrict_dims(raw)) : la::Vector{};
  for (std::size_t g : tree_.groups()) {
    double sim = 0.0;
    if (model.fitted()) {
      // Copy the effective centroid under the group's stripe; the LSI
      // projection (the expensive part) runs outside it.
      la::Vector c;
      {
        const auto guard = maybe_lock(&sync_stripes_, &sync_.at(g));
        c = sync_.at(g).replica.effective_centroid(cfg_.versioning_enabled);
      }
      sim = lsi::LsiModel::similarity(q, model.project(tree_.restrict_dims(c)));
    }
    if (sim > best_sim) {
      best_sim = sim;
      best = g;
    }
  }
  return best;
}

// ---- versioning / sync ------------------------------------------------------

void SmartStore::seal_version(std::size_t g, double now, sim::Session* session) {
  sync_stripes_.assert_held(&sync_.at(g));
  GroupSync& gs = sync_.at(g);
  if (gs.pending.empty()) return;
  gs.pending.sealed_at = now;
  gs.replica.seal(std::move(gs.pending));
  gs.pending = empty_delta();

  // Multicast the sealed version to every other storage unit.
  if (session) {
    std::vector<sim::Session> branches;
    const sim::NodeId origin = session->location();
    for (UnitId u = 0; u < units_.size(); ++u) {
      if (u == origin || !unit_active_[u]) continue;
      sim::Session b = session->fork();
      b.send_to(u, kVersionMsgBytes);
      branches.push_back(b);
    }
    // Version multicast is asynchronous: it consumes bandwidth (counted)
    // but does not extend the requester-visible latency, so no join here.
  }
}

void SmartStore::full_sync_group(std::size_t g, sim::Session* session) {
  // Copy the authoritative node summary under the node's stripe, install
  // it under the group's sync stripe: two stripes, never held together
  // (the one-stripe-at-a-time discipline that keeps the pool
  // deadlock-free). An insert landing between the copy and the install is
  // reflected in neither the copied base nor the cleared pending delta —
  // ordinary replica staleness, repaired by the next sync, and exactly the
  // error mode off-line routing already tolerates.
  const IndexUnit& n = tree_.node(g);
  GroupReplica::Base base;
  {
    const auto node_guard = maybe_lock(&summary_stripes_, &n);
    base = replica_base(n);
  }
  VersionDelta pending = empty_delta();
  {
    const auto sync_guard = maybe_lock(&sync_stripes_, &sync_.at(g));
    GroupSync& gs = sync_.at(g);
    gs.replica.reset(std::move(base));
    gs.pending = std::move(pending);
    gs.changes_since_full_sync = 0;
  }

  if (session) {
    const sim::NodeId origin = session->location();
    for (UnitId u = 0; u < units_.size(); ++u) {
      if (u == origin || !unit_active_[u]) continue;
      sim::Session b = session->fork();
      b.send_to(u, kReplicaMsgBytes);
    }
  }
}

bool SmartStore::after_group_change(std::size_t g, double now,
                                    sim::Session* session) {
  sync_stripes_.assert_held(&sync_.at(g));
  GroupSync& gs = sync_.at(g);
  ++gs.changes_since_full_sync;

  if (cfg_.versioning_enabled) {
    const std::size_t pending_changes =
        gs.pending.added_count + gs.pending.deleted.size();
    if (pending_changes >= cfg_.version_ratio) seal_version(g, now, session);
  }
  // Lazy updating (Section 3.4): a full replica refresh once accumulated
  // changes exceed the threshold fraction of the group's population. The
  // refresh itself runs after the caller drops this group's sync stripe
  // (full_sync_group re-acquires it after reading the node summary).
  const std::size_t base =
      std::max<std::size_t>(gs.replica.base().file_count, 200);
  return static_cast<double>(gs.changes_since_full_sync) >
         cfg_.lazy_update_threshold * static_cast<double>(base);
}

void SmartStore::reconfigure() {
  util::WriterLock ex(structure_mu_);
  epoch_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t g : tree_.groups()) full_sync_group(g, nullptr);
}

// ---- dynamic operations ------------------------------------------------------

QueryStats SmartStore::insert_file(const FileMetadata& f, double arrival,
                                   const WalHook& logged,
                                   const WalFlush& flushed) {
  QueryStats stats;
  {
    util::ReaderLock shared(structure_mu_);
    stats = insert_file_impl(f, arrival, logged, flushed);
  }
  maybe_grow_filters();
  return stats;
}

std::vector<QueryStats> SmartStore::insert_batch(
    const std::vector<FileMetadata>& files, double arrival,
    const WalHook& logged, const WalFlush& flushed) {
  std::vector<QueryStats> out;
  out.reserve(files.size());
  {
    util::ReaderLock shared(structure_mu_);
    for (const FileMetadata& f : files)
      out.push_back(insert_file_impl(f, arrival, logged, flushed));
  }
  maybe_grow_filters();
  return out;
}

QueryStats SmartStore::insert_file_impl(const FileMetadata& f, double arrival,
                                        const WalHook& logged,
                                        const WalFlush& flushed,
                                        std::uint64_t forced_seq) {
  QueryStats stats;
  sim::Session session = cluster_->start_session(random_home(), arrival);

  // Home unit ranks groups from its local replicas (off-line routing).
  session.visit(cfg_.cost.per_node_visit_s +
                static_cast<double>(tree_.groups().size()) *
                    cfg_.cost.per_bloom_check_s);
  const std::size_t g = best_group_for_vector(f.full_vector());
  assert(g != kInvalidIndex);
  const IndexUnit& group = tree_.node(g);
  session.send_to(group.mapped_unit, kQueryMsgBytes);
  session.visit(cfg_.cost.per_node_visit_s);

  // Least-loaded member unit balances load within the group (Section
  // 3.2.1). Counts are read one stripe at a time; the pick can go stale by
  // a few records under concurrency, which only softens the balancing.
  // The scan starts at a per-thread random offset: balanced groups are
  // full of ties, and deterministic tie-breaking would send every
  // concurrent writer to the SAME unit (they all read the counts before
  // any increment lands) — a convoy that serializes the per-shard WAL
  // fsyncs the sharding exists to overlap. Rotating the tie-break spreads
  // simultaneous writers across the group while still picking a strict
  // minimum.
  const std::size_t nchild = group.children.size();
  const std::size_t start =
      nchild > 1 ? static_cast<std::size_t>(thread_rng().uniform_u64(nchild))
                 : 0;
  UnitId target = group.children[start];
  std::size_t target_count = std::numeric_limits<std::size_t>::max();
  for (std::size_t k = 0; k < nchild; ++k) {
    const UnitId u = group.children[(start + k) % nchild];
    std::size_t count;
    {
      const util::MutexLock guard(unit_mutex(u));
      count = units_[u].file_count();
    }
    if (count < target_count) {
      target_count = count;
      target = u;
    }
  }
  session.send_to(target, kQueryMsgBytes);
  session.visit(cfg_.cost.per_node_visit_s, 1);

  // The mutation proper: log, copy-on-write, apply — all under the target
  // unit's lock, so the shard's log order equals this unit's apply order.
  epoch_.fetch_add(1, std::memory_order_relaxed);
  const la::Vector raw = f.full_vector();
  const la::Vector std = std_coords(f);
  // Hashed once, outside every lock: the filters under the unit lock, the
  // ancestor stripes and the group sync stripe all reuse it.
  const bloom::ItemHash name_hash = bloom::hash_item(f.name);
  {
    const util::MutexLock guard(unit_mutex(target));
    // Stamp and apply in ONE critical section: a snapshot reader that pins
    // seq S and then scans this unit either blocks here (and sees the
    // record) or runs after the apply — no mutation with seq <= S can land
    // in a unit the reader already scanned, because stamps issued after the
    // pin are strictly greater than S.
    const std::uint64_t seq = forced_seq != kAssignSeq
                                  ? forced_seq
                                  : commit_stamp(logged ? logged(target) : 0);
    cow_unit(target);
    units_[target].add_file(f, std, name_hash, seq);
    units_[target].prune_tombstones(gc_watermark());
  }
  // The group-commit fsync (if the flush hook decides one is due) runs
  // here, off every store lock: it stalls only this shard's writers.
  if (flushed) flushed(target);
  // Ancestor summaries widen one stripe at a time (child before parent);
  // readers meanwhile see a box/filter that is at worst transiently
  // narrower up the path, the same staleness replicas already exhibit.
  tree_.on_file_inserted(target, raw, std, name_hash, &summary_stripes_);
  for (auto& v : variants_)
    v.tree.on_file_inserted(target, raw, std, name_hash, &summary_stripes_);
  total_files_.fetch_add(1, std::memory_order_relaxed);

  bool want_full_sync;
  {
    const auto guard = maybe_lock(&sync_stripes_, &sync_.at(g));
    GroupSync& gs = sync_.at(g);
    gs.pending.added_box.expand(std);
    gs.pending.added_names.push_back(name_hash);
    for (std::size_t d = 0; d < kNumAttrs; ++d)
      gs.pending.added_attr_sum[d] += raw[d];
    ++gs.pending.added_count;
    want_full_sync = after_group_change(g, session.clock(), &session);
  }
  if (want_full_sync) full_sync_group(g, &session);

  stats.latency_s = session.clock() - arrival;
  stats.messages = session.messages();
  stats.hops = session.hops();
  stats.routing_hops = 0;
  stats.groups_visited = 1;
  stats.failed = session.failed();
  return stats;
}

std::optional<QueryStats> SmartStore::delete_file(const std::string& name,
                                                  double arrival) {
  const bloom::ItemHash name_hash = bloom::hash_item(name);
  util::ReaderLock shared(structure_mu_);
  PointResult located =
      point_query_impl({name}, name_hash, Routing::kOffline, arrival);
  if (!located.found) return std::nullopt;

  // The locate and the removal are not atomic: a concurrent delete of the
  // same name can win in between, in which case this one reports "absent".
  if (!remove_located(located.unit, located.id, name_hash,
                      located.stats.latency_s + arrival, nullptr, {}, {}))
    return std::nullopt;
  return located.stats;
}

bool SmartStore::remove_located(UnitId u, FileId id,
                                const bloom::ItemHash& name_hash, double now,
                                sim::Session* session, const WalHook& logged,
                                const WalFlush& flushed) {
  epoch_.fetch_add(1, std::memory_order_relaxed);
  la::Vector raw;
  {
    const util::MutexLock guard(unit_mutex(u));
    if (!units_[u].find_by_id(id)) return false;  // lost a delete race
    const std::uint64_t seq = commit_stamp(logged ? logged(u) : 0);
    cow_unit(u);
    auto removed = units_[u].remove_file(id, name_hash, seq);
    assert(removed.has_value());
    raw = removed->full_vector();
    units_[u].prune_tombstones(gc_watermark());
  }
  if (flushed) flushed(u);
  tree_.on_file_removed(u, raw, &summary_stripes_);
  for (auto& v : variants_) v.tree.on_file_removed(u, raw, &summary_stripes_);
  total_files_.fetch_sub(1, std::memory_order_relaxed);

  const std::size_t g = tree_.group_of_unit(u);
  bool want_full_sync;
  {
    const auto guard = maybe_lock(&sync_stripes_, &sync_.at(g));
    GroupSync& gs = sync_.at(g);
    gs.pending.deleted.push_back(id);
    want_full_sync = after_group_change(g, now, session);
  }
  if (want_full_sync) full_sync_group(g, session);
  return true;
}

bool SmartStore::erase_file(const std::string& name, const WalHook& logged,
                            const WalFlush& flushed) {
  util::ReaderLock shared(structure_mu_);
  return erase_file_impl(name, logged, flushed);
}

bool SmartStore::erase_file_impl(const std::string& name,
                                 const WalHook& logged,
                                 const WalFlush& flushed) {
  const bloom::ItemHash name_hash = bloom::hash_item(name);
  for (UnitId u = 0; u < units_.size(); ++u) {
    if (!unit_active_[u]) continue;
    FileId id = 0;
    bool found = false;
    {
      const util::MutexLock guard(unit_mutex(u));
      // Saturated counters stick, so the filter never misses a live name:
      // a unit it rules out needs no index probe.
      if (!units_[u].name_filter().may_contain(name_hash)) continue;
      if (const metadata::FileMetadata* f = units_[u].find_by_name(name)) {
        id = f->id;
        found = true;
      }
    }
    if (!found) continue;
    // The unit lock was dropped between locate and removal; remove_located
    // re-checks by id and reports a lost race, in which case the scan
    // continues (the name might also exist on a later unit).
    if (remove_located(u, id, name_hash, 0.0, nullptr, logged, flushed))
      return true;
  }
  return false;
}

// ---- point query --------------------------------------------------------------

PointResult SmartStore::point_query(const metadata::PointQuery& q,
                                    Routing routing, double arrival) {
  // One digest for every filter this query will consult.
  const bloom::ItemHash qhash = bloom::hash_item(q.filename);
  util::ReaderLock shared(structure_mu_);
  return point_query_impl(q, qhash, routing, arrival);
}

PointResult SmartStore::point_query_impl(const metadata::PointQuery& q,
                                         const bloom::ItemHash& qhash,
                                         Routing routing, double arrival) {
  PointResult res;
  sim::Session session = cluster_->start_session(random_home(), arrival);
  const UnitId home = session.location();

  // The home unit always checks its own filter first: queries about files
  // the requester itself stores resolve with zero messages.
  session.visit(cfg_.cost.per_bloom_check_s);
  {
    const util::MutexLock guard(unit_mutex(home));
    if (units_[home].name_filter().may_contain(qhash)) {
      session.visit(cfg_.cost.per_node_visit_s);
      if (const auto* f = units_[home].find_by_name(q.filename)) {
        res.found = true;
        res.unit = home;
        res.id = f->id;
        res.first_try = true;
        res.stats.groups_visited = 1;
        res.stats.latency_s = session.clock() - arrival;
        res.stats.failed = session.failed();
        return res;
      }
    }
  }

  std::size_t groups_visited = 0;

  // Probes the member units of one group whose filter reported positive.
  auto probe_group = [&](std::size_t g) {
    ++groups_visited;
    const IndexUnit& group = tree_.node(g);
    std::vector<sim::Session> branches;
    for (UnitId u : group.children) {
      const util::MutexLock guard(unit_mutex(u));
      if (!units_[u].name_filter().may_contain(qhash)) continue;
      sim::Session b = session.fork();
      b.send_to(u, kQueryMsgBytes);
      b.visit(cfg_.cost.per_node_visit_s);
      if (const auto* f = units_[u].find_by_name(q.filename)) {
        res.found = true;
        res.unit = u;
        res.id = f->id;
      }
      branches.push_back(b);
    }
    session.join(branches);
  };

  // On-line walk (Section 3.3.3): ascend from the home group; every
  // ancestor whose unioned filter is positive has its not-yet-searched
  // subtrees descended along positive children. Bloom false positives are
  // discovered when the target metadata is accessed and the walk simply
  // continues, so existing files are always found.
  // Reads one index unit's filter under its stripe.
  auto node_filter_hit = [&](std::size_t nid) {
    const IndexUnit& n = tree_.node(nid);
    const auto guard = maybe_lock(&summary_stripes_, &n);
    return n.name_filter.may_contain(qhash);
  };

  auto online_walk = [&]() {
    std::function<void(sim::Session&, std::size_t)> descend =
        [&](sim::Session& s, std::size_t nid) {
          if (res.found) return;
          const IndexUnit& n = tree_.node(nid);
          s.send_to(n.mapped_unit, kQueryMsgBytes);
          s.visit(cfg_.cost.per_bloom_check_s *
                  static_cast<double>(n.children.size()));
          if (n.level == 1) {
            if (node_filter_hit(nid)) probe_group(nid);
            return;
          }
          std::vector<sim::Session> branches;
          for (std::size_t c : n.children) {
            if (!node_filter_hit(c)) continue;
            sim::Session b = s.fork();
            descend(b, c);
            branches.push_back(b);
          }
          s.join(branches);
        };

    std::size_t prev = kInvalidIndex;
    std::size_t node_id = tree_.group_of_unit(home);
    while (node_id != kInvalidIndex && !res.found) {
      const IndexUnit& n = tree_.node(node_id);
      session.send_to(n.mapped_unit, kQueryMsgBytes);
      session.visit(cfg_.cost.per_bloom_check_s);
      if (node_filter_hit(node_id)) {
        if (n.level == 1) {
          probe_group(node_id);
        } else {
          std::vector<sim::Session> branches;
          for (std::size_t c : n.children) {
            if (c == prev) continue;  // already searched on the way up
            if (!node_filter_hit(c)) continue;
            sim::Session b = session.fork();
            descend(b, c);
            branches.push_back(b);
          }
          session.join(branches);
        }
      }
      prev = node_id;
      node_id = n.parent;
    }
  };

  if (routing == Routing::kOffline) {
    // Candidate groups from the replicated Bloom filters (+versions).
    double version_cost = 0.0;
    std::vector<std::size_t> candidates;
    for (std::size_t g : tree_.groups()) {
      const auto guard = maybe_lock(&sync_stripes_, &sync_.at(g));
      const GroupSync& gs = sync_.at(g);
      version_cost += static_cast<double>(gs.replica.versions().size()) *
                      cfg_.cost.per_bloom_check_s;
      if (gs.replica.name_may_contain(qhash, cfg_.versioning_enabled))
        candidates.push_back(g);
    }
    session.visit(static_cast<double>(tree_.groups().size()) *
                      cfg_.cost.per_bloom_check_s +
                  version_cost);
    res.stats.version_check_s = version_cost;

    for (std::size_t g : candidates) {
      if (groups_visited >= cfg_.max_groups_per_query) break;
      const IndexUnit& group = tree_.node(g);
      session.send_to(group.mapped_unit, kQueryMsgBytes);
      session.visit(cfg_.cost.per_bloom_check_s *
                    static_cast<double>(group.children.size()));
      if (!node_filter_hit(g)) {
        ++groups_visited;  // wasted visit on a stale/false-positive replica
        continue;
      }
      probe_group(g);
      if (res.found) break;
    }
    // Stale replicas can hide recently inserted files: all-negative
    // candidates then yield a false negative, exactly the error mode
    // Section 5.4.1 attributes to "hash collisions and information
    // staleness". Figure 9's hit rate measures it.
    res.first_try = groups_visited <= 1;
  } else {
    online_walk();
    res.first_try = groups_visited <= 1;
  }

  res.stats.groups_visited = groups_visited;
  res.stats.latency_s = session.clock() - arrival;
  res.stats.messages = session.messages();
  res.stats.hops = session.hops();
  res.stats.failed = session.failed();
  return res;
}

// ---- range query ---------------------------------------------------------------

RangeResult SmartStore::range_query(const metadata::RangeQuery& q,
                                    Routing routing, double arrival) {
  util::ReaderLock shared(structure_mu_);
  return range_query_impl(q, routing, arrival);
}

RangeResult SmartStore::range_query_impl(const metadata::RangeQuery& q,
                                         Routing routing, double arrival) {
  RangeResult res;
  std::vector<std::size_t> dim_idx;
  la::Vector lo, hi;
  standardize_range(q, dim_idx, lo, hi);

  sim::Session session = cluster_->start_session(random_home(), arrival);
  const UnitId home = session.location();
  std::vector<std::size_t> result_groups;

  // Auto-configuration (Section 2.4): pick the tree variant whose grouping
  // predicate best matches the queried attribute subset.
  const SemanticRTree& rt = routing == Routing::kOffline
                                ? tree_for_dims(q.dims)
                                : tree_;

  auto scan_group = [&](std::size_t g) {
    const IndexUnit& group = rt.node(g);
    session.send_to(group.mapped_unit, kQueryMsgBytes);
    session.visit(cfg_.cost.per_node_visit_s);
    const std::size_t before = res.ids.size();
    std::vector<sim::Session> branches;
    for (UnitId u : group.children) {
      // Box check and scan under one stripe hold: the records and their
      // coordinates stay consistent for the duration of the local scan.
      const util::MutexLock guard(unit_mutex(u));
      if (!box_intersects(units_[u].box(), dim_idx, lo, hi)) continue;
      sim::Session b = session.fork();
      b.send_to(u, kQueryMsgBytes);
      b.visit(cfg_.cost.per_node_visit_s, units_[u].file_count());
      unit_range_scan(units_[u], dim_idx, lo, hi, res.ids);
      branches.push_back(b);
    }
    session.join(branches);
    if (res.ids.size() > before) result_groups.push_back(g);
  };

  if (routing == Routing::kOffline) {
    double version_cost = 0.0;
    const auto ranked = rank_groups_range(rt, q, version_cost);
    session.visit(static_cast<double>(rt.groups().size()) *
                      cfg_.cost.per_node_visit_s * 0.1 +
                  version_cost);
    res.stats.version_check_s = version_cost;
    for (const auto& rg : ranked) {
      if (res.stats.groups_visited >= cfg_.max_groups_per_query) break;
      ++res.stats.groups_visited;
      scan_group(rg.node_id);
    }
  } else {
    // On-line: multicast up from the home group to the root (father links),
    // then descend into every subtree whose MBR intersects the box. MBRs
    // are always fresh (local updates propagate on insert), so the on-line
    // answer is exact.
    std::size_t node_id = tree_.group_of_unit(home);
    while (node_id != tree_.root_id() && node_id != kInvalidIndex) {
      const IndexUnit& n = tree_.node(node_id);
      if (n.parent == kInvalidIndex) break;
      session.send_to(tree_.node(n.parent).mapped_unit, kQueryMsgBytes);
      session.visit(cfg_.cost.per_node_visit_s);
      node_id = n.parent;
    }
    std::function<void(sim::Session&, std::size_t)> descend =
        [&](sim::Session& s, std::size_t nid) {
          const IndexUnit& n = tree_.node(nid);
          {
            const auto guard = maybe_lock(&summary_stripes_, &n);
            if (!box_intersects(n.box, dim_idx, lo, hi)) return;
          }
          s.send_to(n.mapped_unit, kQueryMsgBytes);
          s.visit(cfg_.cost.per_node_visit_s);
          if (n.level == 1) {
            ++res.stats.groups_visited;
            const std::size_t before = res.ids.size();
            std::vector<sim::Session> branches;
            for (UnitId u : n.children) {
              const util::MutexLock guard(unit_mutex(u));
              if (!box_intersects(units_[u].box(), dim_idx, lo, hi)) continue;
              sim::Session b = s.fork();
              b.send_to(u, kQueryMsgBytes);
              b.visit(cfg_.cost.per_node_visit_s, units_[u].file_count());
              unit_range_scan(units_[u], dim_idx, lo, hi, res.ids);
              branches.push_back(b);
            }
            s.join(branches);
            if (res.ids.size() > before) result_groups.push_back(nid);
          } else {
            std::vector<sim::Session> branches;
            for (std::size_t c : n.children) {
              sim::Session b = s.fork();
              descend(b, c);
              branches.push_back(b);
            }
            s.join(branches);
          }
        };
    descend(session, node_id);
  }

  res.stats.routing_hops = routing_distance(rt, result_groups);
  res.stats.latency_s = session.clock() - arrival;
  res.stats.messages = session.messages();
  res.stats.hops = session.hops();
  res.stats.records_scanned = res.ids.size();
  res.stats.failed = session.failed();
  return res;
}

// ---- top-k query ---------------------------------------------------------------

TopKResult SmartStore::topk_query(const metadata::TopKQuery& q,
                                  Routing routing, double arrival) {
  util::ReaderLock shared(structure_mu_);
  return topk_query_impl(q, routing, arrival);
}

TopKResult SmartStore::topk_query_impl(const metadata::TopKQuery& q,
                                       Routing routing, double arrival) {
  TopKResult res;
  std::vector<std::size_t> dim_idx;
  const la::Vector point = standardize_point(q, dim_idx);

  sim::Session session = cluster_->start_session(random_home(), arrival);
  const UnitId home = session.location();

  // Max-heap of the best-k candidates with their originating groups.
  std::vector<std::pair<double, FileId>> heap;
  std::vector<std::size_t> result_groups;
  const SemanticRTree& rt = routing == Routing::kOffline
                                ? tree_for_dims(q.dims)
                                : tree_;
  auto max_d = [&]() {
    return heap.size() < q.k ? std::numeric_limits<double>::infinity()
                             : heap.front().first;
  };

  auto scan_group = [&](std::size_t g) {
    const IndexUnit& group = rt.node(g);
    session.send_to(group.mapped_unit, kQueryMsgBytes);
    session.visit(cfg_.cost.per_node_visit_s);
    bool contributed = false;
    std::vector<sim::Session> branches;
    for (UnitId u : group.children) {
      const util::MutexLock guard(unit_mutex(u));
      if (box_min_dist2(units_[u].box(), dim_idx, point) >= max_d() &&
          heap.size() >= q.k)
        continue;
      sim::Session b = session.fork();
      b.send_to(u, kQueryMsgBytes);
      b.visit(cfg_.cost.per_node_visit_s, units_[u].file_count());
      const std::size_t before = heap.size();
      const double before_worst = max_d();
      unit_topk_scan(units_[u], dim_idx, point, q.k, heap);
      if (heap.size() > before || max_d() < before_worst) contributed = true;
      branches.push_back(b);
    }
    session.join(branches);
    if (contributed) result_groups.push_back(g);
  };

  if (routing == Routing::kOffline) {
    double version_cost = 0.0;
    const auto ranked = rank_groups_topk(rt, point, dim_idx, version_cost);
    session.visit(static_cast<double>(rt.groups().size()) *
                      cfg_.cost.per_node_visit_s * 0.1 +
                  version_cost);
    res.stats.version_check_s = version_cost;
    for (const auto& rg : ranked) {
      if (res.stats.groups_visited >= cfg_.max_groups_per_query) break;
      // MaxD pruning (Section 3.3.2): stop when no remaining group can
      // improve the current k-th best distance.
      if (heap.size() >= q.k && rg.score >= max_d()) break;
      ++res.stats.groups_visited;
      scan_group(rg.node_id);
    }
  } else {
    // On-line: serve the home group first to seed MaxD, then climb toward
    // the root, descending into any subtree whose MBR could improve MaxD.
    std::size_t start = tree_.group_of_unit(home);
    ++res.stats.groups_visited;
    scan_group(start);

    std::function<void(sim::Session&, std::size_t)> descend =
        [&](sim::Session& s, std::size_t nid) {
          const IndexUnit& n = tree_.node(nid);
          {
            const auto guard = maybe_lock(&summary_stripes_, &n);
            if (box_min_dist2(n.box, dim_idx, point) >= max_d() &&
                heap.size() >= q.k)
              return;
          }
          if (n.level == 1) {
            if (nid == start) return;  // already served
            s.send_to(n.mapped_unit, kQueryMsgBytes);
            s.visit(cfg_.cost.per_node_visit_s);
            ++res.stats.groups_visited;
            bool contributed = false;
            std::vector<sim::Session> branches;
            for (UnitId u : n.children) {
              const util::MutexLock guard(unit_mutex(u));
              if (box_min_dist2(units_[u].box(), dim_idx, point) >= max_d() &&
                  heap.size() >= q.k)
                continue;
              sim::Session b = s.fork();
              b.send_to(u, kQueryMsgBytes);
              b.visit(cfg_.cost.per_node_visit_s, units_[u].file_count());
              const std::size_t before = heap.size();
              const double bw = max_d();
              unit_topk_scan(units_[u], dim_idx, point, q.k, heap);
              if (heap.size() > before || max_d() < bw) contributed = true;
              branches.push_back(b);
            }
            s.join(branches);
            if (contributed) result_groups.push_back(nid);
          } else {
            s.send_to(n.mapped_unit, kQueryMsgBytes);
            s.visit(cfg_.cost.per_node_visit_s);
            for (std::size_t c : n.children) descend(s, c);
          }
        };
    // Climb: at each ancestor check the other subtrees.
    std::size_t cur = start;
    while (cur != tree_.root_id()) {
      const std::size_t parent = tree_.node(cur).parent;
      if (parent == kInvalidIndex) break;
      session.send_to(tree_.node(parent).mapped_unit, kQueryMsgBytes);
      session.visit(cfg_.cost.per_node_visit_s);
      for (std::size_t sib : tree_.node(parent).children) {
        if (sib == cur) continue;
        descend(session, sib);
      }
      cur = parent;
    }
  }

  std::sort(heap.begin(), heap.end());
  if (heap.size() > q.k) heap.resize(q.k);
  res.hits = std::move(heap);
  res.stats.routing_hops = routing_distance(rt, result_groups);
  res.stats.latency_s = session.clock() - arrival;
  res.stats.messages = session.messages();
  res.stats.hops = session.hops();
  res.stats.failed = session.failed();
  return res;
}

// ---- routing distance (Figure 8) ----------------------------------------------

int SmartStore::lca_distance(const SemanticRTree& t, std::size_t g1,
                             std::size_t g2) const {
  if (g1 == g2) return 0;
  // Collect ancestors of g1 with their levels.
  std::unordered_map<std::size_t, int> anc;
  std::size_t cur = g1;
  while (cur != kInvalidIndex) {
    anc[cur] = t.node(cur).level;
    cur = t.node(cur).parent;
  }
  cur = g2;
  while (cur != kInvalidIndex) {
    auto it = anc.find(cur);
    if (it != anc.end()) return std::max(1, it->second - 1);
    cur = t.node(cur).parent;
  }
  return static_cast<int>(t.height());
}

int SmartStore::routing_distance(
    const SemanticRTree& t,
    const std::vector<std::size_t>& result_groups) const {
  if (result_groups.size() <= 1) return 0;
  const std::size_t primary = result_groups.front();
  int worst = 0;
  for (std::size_t i = 1; i < result_groups.size(); ++i)
    worst = std::max(worst, lca_distance(t, primary, result_groups[i]));
  return worst;
}

// ---- reconfiguration ops -------------------------------------------------------

UnitId SmartStore::add_storage_unit(const StructuralHook& logged) {
  // Exclusive: appending to units_ can reallocate the vector concurrent
  // serving threads and the snapshot serializer index into; any units still
  // pending in an active freeze are copied first.
  util::WriterLock ex(structure_mu_);
  epoch_.fetch_add(1, std::memory_order_relaxed);
  if (logged) note_commit_seq(logged());
  cow_all_units();
  const UnitId id = units_.size();
  units_.emplace_back(id, bloom_bits_, cfg_.bloom_hashes);
  unit_active_.push_back(true);
  rebuild_unit_locks();
  cluster_->add_node();
  tree_.admit_unit(units_, id);
  for (auto& v : variants_) v.tree.admit_unit(units_, id);
  refresh_sync_groups();
  return id;
}

void SmartStore::remove_storage_unit(UnitId u, const StructuralHook& logged) {
  util::WriterLock ex(structure_mu_);
  assert(u < units_.size() && unit_active_[u]);
  epoch_.fetch_add(1, std::memory_order_relaxed);
  if (logged) note_commit_seq(logged());
  cow_all_units();
  // Capture the records WITH their commit seqs: re-homing must be invisible
  // to snapshots, so each displaced file re-inserts under its original
  // added_seq (forced_seq below) and the removal leaves no tombstone
  // (deleted_seq 0). Pre-existing tombstones stay on the deactivated unit,
  // where snapshot scans (which visit inactive units too) still find them.
  std::vector<FileMetadata> displaced = units_[u].files();
  std::vector<std::uint64_t> displaced_seqs = units_[u].added_seqs();
  for (const auto& f : displaced) {
    auto removed = units_[u].remove_file(f.id, bloom::hash_item(f.name));
    tree_.on_file_removed(u, f.full_vector());
    for (auto& v : variants_) v.tree.on_file_removed(u, f.full_vector());
    total_files_.fetch_sub(1, std::memory_order_relaxed);
  }
  tree_.remove_unit(units_, u);
  for (auto& v : variants_) v.tree.remove_unit(units_, u);
  unit_active_[u] = false;
  cluster_->set_node_alive(u, false);
  refresh_sync_groups();
  // Displaced files re-insert through the impl: the public insert_file
  // takes the structure lock shared and would self-deadlock here. The
  // redistribution is part of the logged structural record, so replay
  // reproduces it without per-file WAL records. forced_seq keeps each
  // record's visibility window unchanged across the move (seq 0 =
  // pre-history records stay pre-history).
  for (std::size_t i = 0; i < displaced.size(); ++i)
    insert_file_impl(displaced[i], 0.0, {}, {}, displaced_seqs[i]);
}

// ---- automatic configuration (Section 2.4) -------------------------------------

std::size_t SmartStore::autoconfigure(
    const std::vector<AttrSubset>& candidates, const StructuralHook& logged) {
  util::WriterLock ex(structure_mu_);
  epoch_.fetch_add(1, std::memory_order_relaxed);
  if (logged) note_commit_seq(logged());
  variants_.clear();
  const double full_count = static_cast<double>(tree_.num_nodes());
  for (const auto& dims : candidates) {
    if (dims.size() == metadata::kNumAttrs) continue;  // the main tree
    SemanticRTree::BuildParams params;
    params.fanout = cfg_.fanout;
    params.min_fill = cfg_.min_fill;
    params.epsilon = cfg_.epsilon;
    params.lsi_rank = cfg_.lsi_rank;
    params.bloom_bits = bloom_bits_;
    params.bloom_hashes = cfg_.bloom_hashes;
    for (std::size_t i = 0; i < dims.size(); ++i)
      params.lsi_dims.push_back(static_cast<std::size_t>(dims[i]));

    TreeVariant v;
    v.dims = dims;
    v.tree.build(units_, params);
    v.tree.map_index_units(rng_);

    // Keep only variants sufficiently different from the main tree: the
    // paper compares the numbers of generated index units.
    const double d = std::abs(static_cast<double>(v.tree.num_nodes()) -
                              full_count);
    if (d > cfg_.autoconfig_threshold * full_count) {
      variants_.push_back(std::move(v));
    }
  }
  return variants_.size();
}

const SemanticRTree& SmartStore::tree_for_dims(const AttrSubset& dims) const {
  const SemanticRTree* best = &tree_;
  double best_score = -1.0;
  for (const auto& v : variants_) {
    // Jaccard similarity between the query dims and the variant dims.
    std::size_t inter = 0;
    for (std::size_t i = 0; i < dims.size(); ++i)
      if (v.dims.contains(dims[i])) ++inter;
    const std::size_t uni = dims.size() + v.dims.size() - inter;
    const double score =
        uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
    if (score > best_score) {
      best_score = score;
      best = &v.tree;
    }
  }
  // The main tree covers every attribute: its Jaccard score.
  std::size_t inter = dims.size();
  const double main_score = static_cast<double>(inter) /
                            static_cast<double>(metadata::kNumAttrs);
  return best_score > main_score ? *best : tree_;
}

// ---- space accounting ----------------------------------------------------------

SmartStore::SpaceBreakdown SmartStore::unit_space(UnitId u) const {
  SpaceBreakdown s;
  s.metadata_bytes = units_[u].byte_size();
  s.index_bytes = tree_.hosted_bytes(u);
  for (const auto& v : variants_) s.index_bytes += v.tree.hosted_bytes(u);
  for (const auto& [g, gs] : sync_) {
    (void)g;
    s.replica_bytes += gs.replica.byte_size() - gs.replica.versions_byte_size();
    s.version_bytes += gs.replica.versions_byte_size();
    if (!gs.pending.empty()) s.version_bytes += gs.pending.byte_size();
  }
  return s;
}

SmartStore::SpaceBreakdown SmartStore::avg_unit_space() const {
  SpaceBreakdown total;
  std::size_t active = 0;
  for (UnitId u = 0; u < units_.size(); ++u) {
    if (!unit_active_[u]) continue;
    ++active;
    const SpaceBreakdown s = unit_space(u);
    total.metadata_bytes += s.metadata_bytes;
    total.index_bytes += s.index_bytes;
    total.replica_bytes += s.replica_bytes;
    total.version_bytes += s.version_bytes;
  }
  if (active == 0) return total;
  total.metadata_bytes /= active;
  total.index_bytes /= active;
  total.replica_bytes /= active;
  total.version_bytes /= active;
  return total;
}

double SmartStore::avg_version_bytes_per_group() const {
  if (sync_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& [g, gs] : sync_) {
    (void)g;
    total += static_cast<double>(gs.replica.versions_byte_size());
    if (!gs.pending.empty())
      total += static_cast<double>(gs.pending.byte_size());
  }
  return total / static_cast<double>(sync_.size());
}

bool SmartStore::check_invariants() const {
  if (!tree_.check_invariants(units_)) return false;
  for (const auto& v : variants_) {
    if (!v.tree.check_invariants(units_)) return false;
  }
  std::size_t files = 0;
  for (UnitId u = 0; u < units_.size(); ++u) files += units_[u].file_count();
  if (files != total_files_.load(std::memory_order_relaxed)) return false;
  for (std::size_t g : tree_.groups()) {
    if (!sync_.count(g)) return false;
  }
  return true;
}

// ---- MVCC snapshots ------------------------------------------------------------

std::uint64_t SmartStore::commit_stamp(std::uint64_t wal_seq) {
  if (wal_seq == 0) {
    // No WAL stamp (in-memory store): self-assign the next counter value.
    return commit_seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  // Adopt the WAL stamp via CAS-max: shards hand out stamps concurrently,
  // so a smaller stamp can arrive here after a larger one was adopted.
  std::uint64_t cur = commit_seq_.load(std::memory_order_relaxed);
  while (cur < wal_seq &&
         !commit_seq_.compare_exchange_weak(cur, wal_seq,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
  }
  return wal_seq;
}

void SmartStore::note_commit_seq(std::uint64_t seq) {
  std::uint64_t cur = commit_seq_.load(std::memory_order_relaxed);
  while (cur < seq &&
         !commit_seq_.compare_exchange_weak(cur, seq,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
  }
}

std::shared_ptr<void> SmartStore::pin_snapshot(std::uint64_t* seq_out) const {
  const std::uint64_t seq = commit_seq_.load(std::memory_order_acquire);
  std::shared_ptr<SnapshotPins> pins = pins_;
  {
    const util::MutexLock guard(pins->mu);
    pins->pins.insert(seq);
    pins->watermark.store(*pins->pins.begin(), std::memory_order_release);
  }
  if (seq_out) *seq_out = seq;
  // Deleter-only handle: the lambda owns the registry, so unpinning after
  // the store is destroyed is safe.
  return std::shared_ptr<void>(nullptr, [pins, seq](void*) {
    const util::MutexLock guard(pins->mu);
    auto it = pins->pins.find(seq);
    if (it != pins->pins.end()) pins->pins.erase(it);
    pins->watermark.store(
        pins->pins.empty() ? kNoWatermark : *pins->pins.begin(),
        std::memory_order_release);
  });
}

std::size_t SmartStore::pinned_snapshots() const {
  const util::MutexLock guard(pins_->mu);
  return pins_->pins.size();
}

std::size_t SmartStore::tombstone_count() const {
  util::ReaderLock shared(structure_mu_);
  std::size_t n = 0;
  for (UnitId u = 0; u < units_.size(); ++u) {
    const util::MutexLock guard(unit_mutex(u));
    n += units_[u].tombstones().size();
  }
  return n;
}

namespace {

/// Live record visible at snapshot `seq`? (0 = pre-history, always.)
inline bool live_visible(std::uint64_t added_seq, std::uint64_t seq) {
  return added_seq <= seq;
}

/// Tombstoned version visible at snapshot `seq`?
inline bool dead_visible(const TombstoneRecord& t, std::uint64_t seq) {
  return t.added_seq <= seq && seq < t.deleted_seq;
}

}  // namespace

std::vector<metadata::FileMetadata> SmartStore::snapshot_dump(
    std::uint64_t seq) const {
  util::ReaderLock shared(structure_mu_);
  std::vector<metadata::FileMetadata> out;
  for (UnitId u = 0; u < units_.size(); ++u) {
    const util::MutexLock guard(unit_mutex(u));
    const StorageUnit& unit = units_[u];
    const auto& files = unit.files();
    const auto& seqs = unit.added_seqs();
    for (std::size_t i = 0; i < files.size(); ++i)
      if (live_visible(seqs[i], seq)) out.push_back(files[i]);
    for (const auto& t : unit.tombstones())
      if (dead_visible(t, seq)) out.push_back(t.file);
  }
  // Canonical order, like the snapshot queries: two dumps at the same seq
  // (even across different stores with different placement) compare ==.
  std::sort(out.begin(), out.end(),
            [](const metadata::FileMetadata& a, const metadata::FileMetadata& b) {
              return a.id != b.id ? a.id < b.id : a.name < b.name;
            });
  return out;
}

PointResult SmartStore::snapshot_point_query(const metadata::PointQuery& q,
                                             std::uint64_t seq) const {
  util::ReaderLock shared(structure_mu_);
  return snapshot_point_impl(q, seq);
}

PointResult SmartStore::snapshot_point_impl(const metadata::PointQuery& q,
                                            std::uint64_t seq) const {
  PointResult res;
  // Deterministic version pick: newest visible added_seq wins, ties broken
  // by smallest id — independent of unit visit order and writer timing.
  std::uint64_t best_added = 0;
  for (UnitId u = 0; u < units_.size(); ++u) {
    const util::MutexLock guard(unit_mutex(u));
    const StorageUnit& unit = units_[u];
    const auto& files = unit.files();
    const auto& seqs = unit.added_seqs();
    auto consider = [&](std::uint64_t added, FileId id, UnitId where) {
      if (res.found &&
          (added < best_added || (added == best_added && id >= res.id)))
        return;
      res.found = true;
      res.unit = where;
      res.id = id;
      best_added = added;
    };
    for (std::size_t i = 0; i < files.size(); ++i) {
      if (!live_visible(seqs[i], seq)) continue;
      if (files[i].name == q.filename) consider(seqs[i], files[i].id, u);
    }
    for (const auto& t : unit.tombstones()) {
      if (!dead_visible(t, seq)) continue;
      if (t.file.name == q.filename) consider(t.added_seq, t.file.id, u);
    }
  }
  res.first_try = true;
  res.stats.groups_visited = res.found ? 1 : 0;
  return res;
}

RangeResult SmartStore::snapshot_range_query(const metadata::RangeQuery& q,
                                             std::uint64_t seq) const {
  util::ReaderLock shared(structure_mu_);
  return snapshot_range_impl(q, seq);
}

RangeResult SmartStore::snapshot_range_impl(const metadata::RangeQuery& q,
                                            std::uint64_t seq) const {
  RangeResult res;
  std::vector<std::size_t> dim_idx;
  la::Vector lo, hi;
  standardize_range(q, dim_idx, lo, hi);

  auto in_box = [&](const la::Vector& c) {
    for (std::size_t j = 0; j < dim_idx.size(); ++j) {
      const double v = c[dim_idx[j]];
      if (v < lo[j] || v > hi[j]) return false;
    }
    return true;
  };

  for (UnitId u = 0; u < units_.size(); ++u) {
    const util::MutexLock guard(unit_mutex(u));
    const StorageUnit& unit = units_[u];
    const auto& coords = unit.std_coords();
    const auto& seqs = unit.added_seqs();
    for (std::size_t i = 0; i < coords.size(); ++i) {
      if (!live_visible(seqs[i], seq)) continue;
      if (in_box(coords[i])) res.ids.push_back(unit.files()[i].id);
    }
    for (const auto& t : unit.tombstones()) {
      if (!dead_visible(t, seq)) continue;
      if (in_box(t.std_coords)) res.ids.push_back(t.file.id);
    }
  }
  // Canonical order: sorted ids, so two scans at the same seq compare ==.
  std::sort(res.ids.begin(), res.ids.end());
  res.stats.records_scanned = res.ids.size();
  return res;
}

TopKResult SmartStore::snapshot_topk_query(const metadata::TopKQuery& q,
                                           std::uint64_t seq) const {
  util::ReaderLock shared(structure_mu_);
  return snapshot_topk_impl(q, seq);
}

TopKResult SmartStore::snapshot_topk_impl(const metadata::TopKQuery& q,
                                          std::uint64_t seq) const {
  TopKResult res;
  std::vector<std::size_t> dim_idx;
  const la::Vector point = standardize_point(q, dim_idx);

  auto dist2 = [&](const la::Vector& c) {
    double d = 0.0;
    for (std::size_t j = 0; j < dim_idx.size(); ++j) {
      const double delta = c[dim_idx[j]] - point[j];
      d += delta * delta;
    }
    return d;
  };

  std::vector<std::pair<double, FileId>> all;
  for (UnitId u = 0; u < units_.size(); ++u) {
    const util::MutexLock guard(unit_mutex(u));
    const StorageUnit& unit = units_[u];
    const auto& coords = unit.std_coords();
    const auto& seqs = unit.added_seqs();
    for (std::size_t i = 0; i < coords.size(); ++i) {
      if (!live_visible(seqs[i], seq)) continue;
      all.emplace_back(dist2(coords[i]), unit.files()[i].id);
    }
    for (const auto& t : unit.tombstones()) {
      if (!dead_visible(t, seq)) continue;
      all.emplace_back(dist2(t.std_coords), t.file.id);
    }
  }
  // Exact global order with (dist, id) tie-break, then truncate: canonical.
  std::sort(all.begin(), all.end());
  if (all.size() > q.k) all.resize(q.k);
  res.hits = std::move(all);
  return res;
}

SmartStore::Introspection SmartStore::introspect(std::uint64_t seq) const {
  util::ReaderLock shared(structure_mu_);
  Introspection out;
  // Topology changes only under the exclusive structure lock; the shared
  // lock is enough for stable reads. Node-summary writers mutate contents
  // under their stripes but never resize anything byte_size reads.
  out.num_units = units_.size();
  out.tree_height = static_cast<std::size_t>(tree_.height());
  out.tree_groups = tree_.groups().size();
  out.index_units = tree_.num_nodes();

  std::size_t active = 0;
  for (UnitId u = 0; u < units_.size(); ++u) {
    const util::MutexLock guard(unit_mutex(u));
    const StorageUnit& unit = units_[u];
    const auto& seqs = unit.added_seqs();
    for (std::size_t i = 0; i < seqs.size(); ++i)
      if (live_visible(seqs[i], seq)) ++out.files;
    for (const auto& t : unit.tombstones())
      if (dead_visible(t, seq)) ++out.files;
    if (!unit_active_[u]) continue;
    ++active;
    out.avg_space.metadata_bytes += unit.byte_size();
    out.avg_space.index_bytes += tree_.hosted_bytes(u);
    for (const auto& v : variants_)
      out.avg_space.index_bytes += v.tree.hosted_bytes(u);
  }
  if (active != 0) {
    out.avg_space.metadata_bytes /= active;
    out.avg_space.index_bytes /= active;
  }
  // Every unit carries a replica of every group summary, so the per-unit
  // replica/version bytes ARE the totals — no averaging. Version vectors
  // grow under the group's sync stripe; read under it.
  for (const auto& [g, gs] : sync_) {
    (void)g;
    const StripeLock stripe(&sync_stripes_, &gs);
    out.avg_space.replica_bytes +=
        gs.replica.byte_size() - gs.replica.versions_byte_size();
    out.avg_space.version_bytes += gs.replica.versions_byte_size();
    if (!gs.pending.empty())
      out.avg_space.version_bytes += gs.pending.byte_size();
  }
  return out;
}

}  // namespace smartstore::core
