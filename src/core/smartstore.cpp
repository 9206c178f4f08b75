#include "core/smartstore.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>

#include "util/thread_pool.h"

namespace smartstore::core {

using metadata::AttrSubset;
using metadata::FileId;
using metadata::FileMetadata;
using metadata::kNumAttrs;

namespace {

/// Message size of the simulated protocol's requests.
constexpr std::size_t kQueryMsgBytes = 256;

/// What a full synchronization copies out of first-level index unit `n`.
GroupReplica::Base replica_base(const IndexUnit& n) {
  return {n.centroid_raw(), n.attr_sum, n.file_count, n.box, n.name_filter};
}

VersionDelta empty_delta() {
  VersionDelta v;
  v.added_attr_sum.assign(kNumAttrs, 0.0);
  return v;
}

/// Closes an operation's session into its stats: the messages and hops it
/// sent, whether it met a dead node and, on a simulated session, its
/// latency since `arrival` and the part of it version checks cost.
void close_session(const sim::Session& s, double arrival, QueryStats& stats,
                   double version_cost = 0.0) {
  if (s.simulated()) {
    stats.latency_s = s.clock() - arrival;
    stats.version_check_s = version_cost;
  }
  stats.messages = s.messages();
  stats.hops = s.hops();
  stats.failed = s.failed();
}

}  // namespace

namespace {
/// Smallest population whose build() runs on a thread pool: below it the
/// pool's start-up and hand-offs cost more than they save.
constexpr std::size_t kParallelBuildFiles = 4096;
/// Upper bound on the build pool's workers (the pool takes
/// min(hardware threads, this)).
constexpr std::size_t kMaxBuildWorkers = 8;

/// Process-wide store instance ids, so per-thread RNG streams can tell
/// apart two stores that happen to occupy the same address over time.
std::atomic<std::uint64_t> g_next_store_id{1};
}  // namespace

SmartStore::SmartStore(Config cfg)
    : cfg_(std::move(cfg)),
      cluster_(std::make_unique<sim::Cluster>(cfg_.num_units, cfg_.cost)),
      rng_(cfg_.seed),
      store_id_(g_next_store_id.fetch_add(1, std::memory_order_relaxed)) {}

void SmartStore::serve() {
  util::WriterLock ex(structure_mu_);
  cluster_.reset();
}

// ---- concurrent checkpointing (a pinned MVCC read) ---------------------------

std::uint64_t SmartStore::begin_checkpoint(
    const std::function<void()>& while_frozen) {
  // Exclusive: every serving thread is outside its operation, so the
  // commit clock names a mutation boundary for all of them simultaneously
  // — which is also what makes `while_frozen` the right place to fence
  // the WAL shards.
  util::WriterLock ex(structure_mu_);
  // The watermark the UNITS serializer filters tombstones against is the
  // one before this fold's own pin: a pin taken after the freeze needs no
  // tombstone this image lacks, because its seq is >= the frozen seq.
  const std::uint64_t watermark = gc_watermark();
  std::uint64_t seq = 0;
  std::shared_ptr<void> pin = pin_snapshot(&seq);
  {
    util::MutexLock lock(freeze_.mu);
    assert(!freeze_.active && "one checkpoint at a time");
    freeze_.active = true;
    freeze_.core.bloom_bits = bloom_bits_;
    freeze_.core.total_files = total_files_.load(std::memory_order_relaxed);
    freeze_.core.rng_state = rng_.state();
    freeze_.core.unit_active = unit_active_;
    freeze_.core.standardizer = standardizer_;
    freeze_.core.unit_count = units_.size();
    // The MVCC cut: no mutator runs (exclusive structure lock), so the
    // pinned seq is the exact seq of the image being captured, and the
    // pin keeps every version visible at it until end_checkpoint.
    freeze_.core.commit_seq = seq;
    freeze_.core.gc_watermark = watermark;
    freeze_.core.pin = std::move(pin);
    // Units (the bulk of the state) are read as of the pinned seq by the
    // serializer; the index structures are captured eagerly here, so the
    // serializer never has to reconcile a structure being updated under
    // striped locks.
    freeze_.core.tree = tree_;
    freeze_.core.variants = variants_;
    freeze_.core.sync = sync_;
  }
  if (while_frozen) {
    try {
      while_frozen();
    } catch (...) {
      // The checkpoint never happened: release the freeze and its pin
      // here, or GC would stay held at this seq forever (and the next
      // begin_checkpoint would assert).
      end_checkpoint();
      throw;
    }
  }
  return seq;
}

void SmartStore::end_checkpoint() {
  util::MutexLock lock(freeze_.mu);
  freeze_.active = false;
  freeze_.core = FrozenCore{};
}

bool SmartStore::checkpoint_active() const {
  util::MutexLock lock(freeze_.mu);
  return freeze_.active;
}

void SmartStore::refuse_rehoming_while_frozen(const char* op) const {
  util::MutexLock lock(freeze_.mu);
  if (freeze_.active)
    throw std::logic_error(
        std::string(op) +
        " re-homes records under their commit seqs, which the checkpoint "
        "in progress reads as of its frozen seq; end_checkpoint() first");
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
  return standardizer_.transform(f.attrs);
}

void SmartStore::build(const std::vector<FileMetadata>& files) {
  // Bulk construction replaces every piece; serving threads and the
  // checkpoint serializer are excluded for the duration. It replaces the
  // records a checkpoint in progress reads, so it waits for none.
  util::WriterLock ex(structure_mu_);
  refuse_rehoming_while_frozen("build");
  la::Matrix attrs = attribute_matrix(files);
  standardizer_ = la::RowStandardizer::fit(attrs);
  set_bloom_bits(sized_bloom_bits(files.size()));

  // A large population is built on a pool that lives for this call. Its
  // work splits only independent outputs and keeps every floating-point
  // reduction in its serial order, so the store is the same for any
  // worker count; below the threshold (an empty Open, small stores) no
  // thread starts.
  std::unique_ptr<util::ThreadPool> pool;
  const std::size_t workers = std::min<std::size_t>(
      std::thread::hardware_concurrency(), kMaxBuildWorkers);
  if (files.size() >= kParallelBuildFiles && workers > 1)
    pool = std::make_unique<util::ThreadPool>(workers);

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
      const lsi::LsiModel placement =
          lsi::LsiModel::fit_columns(std::move(attrs), cfg_.lsi_rank);
      const std::size_t cap =
          (files.size() + cfg_.num_units - 1) / cfg_.num_units + 1 +
          files.size() / (cfg_.num_units * 8);
      place = kmeans_cluster(placement.all_doc_coords(), cfg_.num_units,
                             cfg_.placement_iters, cfg_.seed, cap, pool.get());
    }
    // Random placement; also when no LSI model fits (every attribute is
    // constant, as for a single file), which leaves nothing to cluster.
    if (place.groups.empty())
      place = random_grouping(files.size(), cfg_.num_units, cfg_.seed);
    // Unit g % num_units receives group g, members in order. Both
    // groupings make at most num_units groups, so each unit is filled by
    // one task and no other: the exclusive structure lock stands in for
    // the unit locks. Workers read the standardizer through this
    // reference, not the guarded member.
    assert(place.groups.size() <= units_.size());
    const la::RowStandardizer& standardizer = standardizer_;
    std::vector<StorageUnit>& units = units_;
    util::for_each_chunk(pool.get(), place.groups.size(), 1,
                         [&](std::size_t lo, std::size_t hi) {
                           std::array<double, kNumAttrs> coords;
                           for (std::size_t g = lo; g < hi; ++g) {
                             StorageUnit& unit = units[g % units.size()];
                             unit.reserve(place.groups[g].size());
                             for (std::size_t idx : place.groups[g]) {
                               const FileMetadata& f = files[idx];
                               standardizer.transform(f.attrs, coords);
                               unit.add_file(f, coords,
                                             bloom::hash_item(f.name));
                             }
                           }
                         });
  }
  total_files_ = files.size();

  SemanticRTree::BuildParams params;
  params.fanout = cfg_.fanout;
  params.min_fill = cfg_.min_fill;
  params.epsilon = cfg_.epsilon;
  params.lsi_rank = cfg_.lsi_rank;
  params.bloom_bits = bloom_bits_;
  params.bloom_hashes = cfg_.bloom_hashes;
  tree_.build(units_, params, pool.get());
  tree_.map_index_units(rng_);

  // A simulating core restarts its cluster idle at time zero, sized to the
  // new units.
  if (cluster_)
    cluster_ = std::make_unique<sim::Cluster>(cfg_.num_units, cfg_.cost);
  variants_.clear();
  sync_.clear();
  refresh_sync_groups();
}

void SmartStore::rebuild_group_bank() {
  const std::vector<std::size_t>& groups = tree_.groups();
  std::vector<bloom::BloomFilter> unions;
  unions.reserve(groups.size());
  for (std::size_t c = 0; c < groups.size(); ++c) {
    GroupSync& gs = sync_.at(groups[c]);
    gs.column = c;
    unions.push_back(gs.replica.union_filter());
  }
  group_bank_ = bloom::BitSlicedBank(bloom_bits_, cfg_.bloom_hashes, unions);
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
  // outside its operation. A checkpoint in progress is unaffected: it
  // captured the geometry and the index structures at its freeze, and
  // the image holds no unit filter.
  util::WriterLock ex(structure_mu_);
  const std::size_t bits =
      sized_bloom_bits(total_files_.load(std::memory_order_relaxed));
  if (bits <= bloom_bits_) return;  // a concurrent writer grew them first
  set_bloom_bits(bits);
  for (StorageUnit& u : units_) u.resize_name_filter(bits);
  tree_.resize_filters(units_, bits);
  for (auto& v : variants_) v.tree.resize_filters(units_, bits);
  // A replica base is a filter of the names its group held at the last
  // sync, which are not kept apart: only a full sync (as reconfigure()
  // runs) gives it the new geometry, and the group bank is rebuilt in it.
  for (std::size_t g : tree_.groups()) {
    GroupSync& gs = sync_.at(g);
    gs.replica.reset(replica_base(tree_.node(g)));
    gs.pending = empty_delta();
    gs.changes_since_full_sync = 0;
  }
  rebuild_group_bank();
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
  rebuild_group_bank();
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

sim::Session SmartStore::start_session(double arrival) {
  const sim::NodeId home = random_home();
  return cluster_ ? cluster_->start_session(home, arrival)
                  : sim::Session::counting(home, unit_active_);
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

// ---- query geometry ---------------------------------------------------------

SmartStore::StdBox SmartStore::standardize(
    const metadata::RangeQuery& q) const {
  const std::size_t n = q.dims.size();
  StdBox box{std::vector<std::size_t>(n), la::Vector(n), la::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    const auto d = static_cast<std::size_t>(q.dims[i]);
    box.dims[i] = d;
    const double a = (q.lo[i] - standardizer_.means[d]) *
                     standardizer_.inv_stdevs[d];
    const double b = (q.hi[i] - standardizer_.means[d]) *
                     standardizer_.inv_stdevs[d];
    box.lo[i] = std::min(a, b);
    box.hi[i] = std::max(a, b);
  }
  return box;
}

SmartStore::StdPoint SmartStore::standardize(
    const metadata::TopKQuery& q) const {
  const std::size_t n = q.dims.size();
  StdPoint p{std::vector<std::size_t>(n), la::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    const auto d = static_cast<std::size_t>(q.dims[i]);
    p.dims[i] = d;
    p.at[i] =
        (q.point[i] - standardizer_.means[d]) * standardizer_.inv_stdevs[d];
  }
  return p;
}

bool SmartStore::StdBox::intersects(const rtree::Mbr& mbr) const {
  if (!mbr.valid()) return false;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const std::size_t d = dims[i];
    if (mbr.hi()[d] < lo[i] || mbr.lo()[d] > hi[i]) return false;
  }
  return true;
}

double SmartStore::StdPoint::min_dist2(const rtree::Mbr& mbr) const {
  if (!mbr.valid()) return std::numeric_limits<double>::infinity();
  double acc = 0.0;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const std::size_t d = dims[i];
    double delta = 0.0;
    if (at[i] < mbr.lo()[d]) {
      delta = mbr.lo()[d] - at[i];
    } else if (at[i] > mbr.hi()[d]) {
      delta = at[i] - mbr.hi()[d];
    }
    acc += delta * delta;
  }
  return acc;
}

void SmartStore::unit_range_scan(const StorageUnit& u, const StdBox& box,
                                 std::vector<FileId>& out) {
  const StorageUnit::Columns cols = u.columns();
  const auto& ids = u.ids();
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (box.contains(cols.row(i))) out.push_back(ids[i]);
}

void SmartStore::unit_topk_scan(const StorageUnit& u, const StdPoint& point,
                                std::size_t k,
                                std::vector<std::pair<double, FileId>>& heap) {
  // `heap` is a max-heap of the best k candidates found so far.
  const StorageUnit::Columns cols = u.columns();
  const auto& ids = u.ids();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double dist = point.dist2(cols.row(i));
    if (heap.size() < k) {
      heap.emplace_back(dist, ids[i]);
      std::push_heap(heap.begin(), heap.end());
    } else if (dist < heap.front().first) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = {dist, ids[i]};
      std::push_heap(heap.begin(), heap.end());
    }
  }
}

// ---- routing ---------------------------------------------------------------

namespace {

/// Best first: ascending score, ties by node id.
template <typename Ranked>
void sort_best_first(std::vector<Ranked>& ranked) {
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.node_id < b.node_id;
  });
}

}  // namespace

rtree::Mbr SmartStore::group_box(const SemanticRTree& t, std::size_t g,
                                 double& version_cost) const {
  if (&t != &tree_) {
    const auto guard = maybe_lock(&summary_stripes_, &t.node(g));
    return t.node(g).box;  // variants route on fresh summaries
  }
  const auto guard = maybe_lock(&sync_stripes_, &sync_.at(g));
  const GroupSync& gs = sync_.at(g);
  version_cost += static_cast<double>(gs.replica.versions().size()) *
                  cfg_.cost.per_bloom_check_s;
  return gs.replica.effective_box(cfg_.versioning_enabled);
}

std::vector<SmartStore::RankedGroup> SmartStore::rank_groups_range(
    const SemanticRTree& t, const StdBox& box, double& version_cost) const {
  std::vector<RankedGroup> out;
  for (std::size_t g : t.groups()) {
    const rtree::Mbr mbr = group_box(t, g, version_cost);
    if (!box.intersects(mbr)) continue;
    // Score: negative overlap fraction, so bigger overlaps rank first.
    double overlap = 1.0;
    for (std::size_t i = 0; i < box.dims.size(); ++i) {
      const std::size_t d = box.dims[i];
      const double len = std::max(1e-12, mbr.hi()[d] - mbr.lo()[d]);
      const double o = std::min(box.hi[i], mbr.hi()[d]) -
                       std::max(box.lo[i], mbr.lo()[d]);
      overlap *= std::max(0.0, o) / len;
    }
    out.push_back({g, -overlap});
  }
  sort_best_first(out);
  return out;
}

std::vector<SmartStore::RankedGroup> SmartStore::rank_groups_topk(
    const SemanticRTree& t, const StdPoint& point,
    double& version_cost) const {
  std::vector<RankedGroup> out;
  for (std::size_t g : t.groups())
    out.push_back({g, point.min_dist2(group_box(t, g, version_cost))});
  sort_best_first(out);
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

void SmartStore::seal_version(std::size_t g) {
  // Every unit routes on the same replica, so sealing here is the version
  // multicast; it is asynchronous and adds nothing to the writer's latency.
  sync_stripes_.assert_held(&sync_.at(g));
  GroupSync& gs = sync_.at(g);
  if (gs.pending.empty()) return;
  for (const bloom::ItemHash& h : gs.pending.added_names)
    group_bank_.insert(gs.column, h);
  gs.replica.seal(std::move(gs.pending));
  gs.pending = empty_delta();
}

void SmartStore::full_sync_group(std::size_t g) {
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
    // The column holds the old union; only the bits the new base changes
    // flip, so a name in both never reads absent to a racing lookup.
    const bloom::BloomFilter before = gs.replica.union_filter();
    gs.replica.reset(std::move(base));
    group_bank_.update(gs.column, before, gs.replica.base().name_filter);
    gs.pending = std::move(pending);
    gs.changes_since_full_sync = 0;
  }
}

bool SmartStore::after_group_change(std::size_t g) {
  sync_stripes_.assert_held(&sync_.at(g));
  GroupSync& gs = sync_.at(g);
  ++gs.changes_since_full_sync;

  if (cfg_.versioning_enabled) {
    const std::size_t pending_changes =
        gs.pending.added_count + gs.pending.deleted.size();
    if (pending_changes >= cfg_.version_ratio) seal_version(g);
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
  for (std::size_t g : tree_.groups()) full_sync_group(g);
}

// ---- dynamic operations ------------------------------------------------------

QueryStats SmartStore::insert_file(const FileMetadata& f, double arrival,
                                   std::uint64_t seq) {
  QueryStats stats;
  {
    util::ReaderLock shared(structure_mu_);
    stats = insert_file_impl(f, arrival, seq == 0 ? kAssignSeq : seq,
                             journal_.load(std::memory_order_acquire));
  }
  maybe_grow_filters();
  return stats;
}

QueryStats SmartStore::insert_file_impl(const FileMetadata& f, double arrival,
                                        std::uint64_t seq, Journal* journal) {
  QueryStats stats;
  sim::Session session = start_session(arrival);

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

  // The mutation proper: log and apply under the target unit's lock, so
  // the shard's log order equals this unit's apply order.
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
    const std::uint64_t stamped = commit_stamp(seq);
    if (journal) journal->log_insert(target, f, stamped);
    units_[target].add_file(f, std, name_hash, stamped);
    units_[target].prune_tombstones(gc_watermark());
  }
  // The commit's fsync runs here, off every store lock: it stalls only
  // this unit's writers.
  if (journal) journal->commit(target);
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
    want_full_sync = after_group_change(g);
  }
  if (want_full_sync) full_sync_group(g);

  close_session(session, arrival, stats);
  stats.groups_visited = 1;
  return stats;
}

bool SmartStore::remove_located(UnitId u, FileId id, const std::string& name,
                                const bloom::ItemHash& name_hash,
                                std::uint64_t seq, Journal* journal) {
  la::Vector raw;
  {
    const util::MutexLock guard(unit_mutex(u));
    if (!units_[u].find(id, name)) return false;  // lost a delete race
    const std::uint64_t stamped = commit_stamp(seq);
    if (journal) journal->log_remove(u, name, stamped);
    auto removed = units_[u].remove_file(id, name, name_hash, stamped);
    assert(removed.has_value());
    raw = removed->full_vector();
    units_[u].prune_tombstones(gc_watermark());
  }
  if (journal) journal->commit(u);
  tree_.on_file_removed(u, raw, &summary_stripes_);
  for (auto& v : variants_) v.tree.on_file_removed(u, raw, &summary_stripes_);
  total_files_.fetch_sub(1, std::memory_order_relaxed);

  const std::size_t g = tree_.group_of_unit(u);
  bool want_full_sync;
  {
    const auto guard = maybe_lock(&sync_stripes_, &sync_.at(g));
    GroupSync& gs = sync_.at(g);
    gs.pending.deleted.push_back(id);
    want_full_sync = after_group_change(g);
  }
  if (want_full_sync) full_sync_group(g);
  return true;
}

bool SmartStore::erase_file(const std::string& name, std::uint64_t seq) {
  util::ReaderLock shared(structure_mu_);
  Journal* const journal = journal_.load(std::memory_order_acquire);
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
    if (remove_located(u, id, name, name_hash, seq == 0 ? kAssignSeq : seq,
                       journal))
      return true;
  }
  // Absent: nothing to log, but a given seq is consumed all the same.
  if (seq != 0) note_commit_seq(seq);
  return false;
}

// ---- point query --------------------------------------------------------------

PointResult SmartStore::point_query(const metadata::PointQuery& q,
                                    Routing routing, double arrival) {
  // One digest for every filter this query will consult.
  const bloom::ItemHash qhash = bloom::hash_item(q.filename);
  util::ReaderLock shared(structure_mu_);
  PointResult res;
  sim::Session session = start_session(arrival);
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
        close_session(session, arrival, res.stats);
        return res;
      }
    }
  }

  std::size_t groups_visited = 0;
  double version_cost = 0.0;  // off-line routing's version checks

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
    // Candidate groups from the replicated Bloom filters (+versions): one
    // lock-free probe of the group bank names, in group order, every group
    // whose union admits the name, and only those take their stripe to
    // confirm it.
    const std::vector<std::size_t>& groups = tree_.groups();
    std::vector<std::size_t> candidates;
    group_bank_.for_each_match(qhash, [&](std::size_t c) {
      const GroupSync& gs = sync_.at(groups[c]);
      const auto guard = maybe_lock(&sync_stripes_, &gs);
      if (gs.replica.confirm_name(qhash, cfg_.versioning_enabled))
        candidates.push_back(groups[c]);
    });
    // The paper's home unit checks every group's filter and every sealed
    // version, in group order; only a simulated session has a clock to
    // charge that to (the version counts need no lock).
    if (session.simulated()) {
      for (std::size_t g : groups)
        version_cost +=
            static_cast<double>(sync_.at(g).replica.version_count()) *
            cfg_.cost.per_bloom_check_s;
    }
    session.visit(static_cast<double>(groups.size()) *
                      cfg_.cost.per_bloom_check_s +
                  version_cost);

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
  close_session(session, arrival, res.stats, version_cost);
  return res;
}

// ---- range query ---------------------------------------------------------------

RangeResult SmartStore::range_query(const metadata::RangeQuery& q,
                                    Routing routing, double arrival) {
  util::ReaderLock shared(structure_mu_);
  RangeResult res;
  const StdBox box = standardize(q);

  sim::Session session = start_session(arrival);
  const UnitId home = session.location();
  std::vector<std::size_t> result_groups;
  double version_cost = 0.0;  // off-line routing's version checks

  // Auto-configuration (Section 2.4): pick the tree variant whose grouping
  // predicate best matches the queried attribute subset.
  const SemanticRTree& rt = routing == Routing::kOffline
                                ? tree_for_dims(q.dims)
                                : tree_;

  // One group visit on session `s`, in either routing mode: reach the
  // group's index unit, then scan its member units in parallel branches.
  auto scan_group = [&](sim::Session& s, std::size_t g) {
    const IndexUnit& group = rt.node(g);
    s.send_to(group.mapped_unit, kQueryMsgBytes);
    s.visit(cfg_.cost.per_node_visit_s);
    ++res.stats.groups_visited;
    const std::size_t before = res.ids.size();
    std::vector<sim::Session> branches;
    for (UnitId u : group.children) {
      // Box check and scan under one stripe hold: the records and their
      // coordinates stay consistent for the duration of the local scan.
      const util::MutexLock guard(unit_mutex(u));
      if (!box.intersects(units_[u].box())) continue;
      sim::Session b = s.fork();
      b.send_to(u, kQueryMsgBytes);
      b.visit(cfg_.cost.per_node_visit_s, units_[u].file_count());
      unit_range_scan(units_[u], box, res.ids);
      branches.push_back(b);
    }
    s.join(branches);
    if (res.ids.size() > before) result_groups.push_back(g);
  };

  if (routing == Routing::kOffline) {
    const auto ranked = rank_groups_range(rt, box, version_cost);
    session.visit(static_cast<double>(rt.groups().size()) *
                      cfg_.cost.per_node_visit_s * 0.1 +
                  version_cost);
    for (const auto& rg : ranked) {
      if (res.stats.groups_visited >= cfg_.max_groups_per_query) break;
      scan_group(session, rg.node_id);
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
            if (!box.intersects(n.box)) return;
          }
          if (n.level == 1) {
            scan_group(s, nid);
            return;
          }
          s.send_to(n.mapped_unit, kQueryMsgBytes);
          s.visit(cfg_.cost.per_node_visit_s);
          std::vector<sim::Session> branches;
          for (std::size_t c : n.children) {
            sim::Session b = s.fork();
            descend(b, c);
            branches.push_back(b);
          }
          s.join(branches);
        };
    descend(session, node_id);
  }

  res.stats.routing_hops = routing_distance(rt, result_groups);
  res.stats.records_scanned = res.ids.size();
  close_session(session, arrival, res.stats, version_cost);
  return res;
}

// ---- top-k query ---------------------------------------------------------------

TopKResult SmartStore::topk_query(const metadata::TopKQuery& q,
                                  Routing routing, double arrival) {
  util::ReaderLock shared(structure_mu_);
  TopKResult res;
  const StdPoint point = standardize(q);

  sim::Session session = start_session(arrival);
  const UnitId home = session.location();

  // Max-heap of the best-k candidates with their originating groups.
  std::vector<std::pair<double, FileId>> heap;
  std::vector<std::size_t> result_groups;
  double version_cost = 0.0;  // off-line routing's version checks
  const SemanticRTree& rt = routing == Routing::kOffline
                                ? tree_for_dims(q.dims)
                                : tree_;
  auto max_d = [&]() {
    return heap.size() < q.k ? std::numeric_limits<double>::infinity()
                             : heap.front().first;
  };

  // One group visit on session `s`, in either routing mode: reach the
  // group's index unit, then scan every member unit that could still
  // improve MaxD in parallel branches.
  auto scan_group = [&](sim::Session& s, std::size_t g) {
    const IndexUnit& group = rt.node(g);
    s.send_to(group.mapped_unit, kQueryMsgBytes);
    s.visit(cfg_.cost.per_node_visit_s);
    ++res.stats.groups_visited;
    bool contributed = false;
    std::vector<sim::Session> branches;
    for (UnitId u : group.children) {
      const util::MutexLock guard(unit_mutex(u));
      if (point.min_dist2(units_[u].box()) >= max_d() && heap.size() >= q.k)
        continue;
      sim::Session b = s.fork();
      b.send_to(u, kQueryMsgBytes);
      b.visit(cfg_.cost.per_node_visit_s, units_[u].file_count());
      const std::size_t before = heap.size();
      const double before_worst = max_d();
      unit_topk_scan(units_[u], point, q.k, heap);
      if (heap.size() > before || max_d() < before_worst) contributed = true;
      branches.push_back(b);
    }
    s.join(branches);
    if (contributed) result_groups.push_back(g);
  };

  if (routing == Routing::kOffline) {
    const auto ranked = rank_groups_topk(rt, point, version_cost);
    session.visit(static_cast<double>(rt.groups().size()) *
                      cfg_.cost.per_node_visit_s * 0.1 +
                  version_cost);
    for (const auto& rg : ranked) {
      if (res.stats.groups_visited >= cfg_.max_groups_per_query) break;
      // MaxD pruning (Section 3.3.2): stop when no remaining group can
      // improve the current k-th best distance.
      if (heap.size() >= q.k && rg.score >= max_d()) break;
      scan_group(session, rg.node_id);
    }
  } else {
    // On-line: serve the home group first to seed MaxD, then climb toward
    // the root, descending into any subtree whose MBR could improve MaxD.
    std::size_t start = tree_.group_of_unit(home);
    scan_group(session, start);

    std::function<void(sim::Session&, std::size_t)> descend =
        [&](sim::Session& s, std::size_t nid) {
          const IndexUnit& n = tree_.node(nid);
          {
            const auto guard = maybe_lock(&summary_stripes_, &n);
            if (point.min_dist2(n.box) >= max_d() && heap.size() >= q.k)
              return;
          }
          if (n.level == 1) {
            if (nid != start) scan_group(s, nid);  // start already served
            return;
          }
          s.send_to(n.mapped_unit, kQueryMsgBytes);
          s.visit(cfg_.cost.per_node_visit_s);
          for (std::size_t c : n.children) descend(s, c);
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
  close_session(session, arrival, res.stats, version_cost);
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

UnitId SmartStore::add_storage_unit() {
  // Exclusive: appending to units_ can reallocate the vector concurrent
  // serving threads and the snapshot serializer index into. A checkpoint
  // in progress writes only the units it froze, as of its seq, and the
  // new unit holds no record from before it.
  util::WriterLock ex(structure_mu_);
  const UnitId id = units_.size();
  units_.emplace_back(id, bloom_bits_, cfg_.bloom_hashes);
  unit_active_.push_back(true);
  rebuild_unit_locks();
  if (cluster_) cluster_->add_node();
  tree_.admit_unit(units_, id);
  for (auto& v : variants_) v.tree.admit_unit(units_, id);
  refresh_sync_groups();
  return id;
}

void SmartStore::remove_storage_unit(UnitId u) {
  util::WriterLock ex(structure_mu_);
  assert(u < units_.size() && unit_active_[u]);
  refuse_rehoming_while_frozen("remove_storage_unit");
  // Capture the records WITH their commit seqs: re-homing must be invisible
  // to snapshots, so each displaced file re-inserts under its original
  // added_seq and the removal leaves no tombstone
  // (deleted_seq 0). Pre-existing tombstones stay on the deactivated unit,
  // where snapshot scans (which visit inactive units too) still find them.
  std::vector<FileMetadata> displaced = units_[u].files();
  std::vector<std::uint64_t> displaced_seqs = units_[u].added_seqs();
  for (const auto& f : displaced) {
    auto removed =
        units_[u].remove_file(f.id, f.name, bloom::hash_item(f.name));
    tree_.on_file_removed(u, f.full_vector());
    for (auto& v : variants_) v.tree.on_file_removed(u, f.full_vector());
    total_files_.fetch_sub(1, std::memory_order_relaxed);
  }
  tree_.remove_unit(units_, u);
  for (auto& v : variants_) v.tree.remove_unit(units_, u);
  unit_active_[u] = false;
  if (cluster_) cluster_->set_node_alive(u, false);
  refresh_sync_groups();
  // Displaced files re-insert through the impl: the public insert_file
  // takes the structure lock shared and would self-deadlock here. Like
  // the removal itself, the moves go to no journal: the next fold
  // captures them. The original seq keeps each record's visibility window
  // unchanged across the move (seq 0 = pre-history records stay
  // pre-history).
  for (std::size_t i = 0; i < displaced.size(); ++i)
    insert_file_impl(displaced[i], 0.0, displaced_seqs[i], nullptr);
}

// ---- automatic configuration (Section 2.4) -------------------------------------

std::size_t SmartStore::autoconfigure(
    const std::vector<AttrSubset>& candidates) {
  util::WriterLock ex(structure_mu_);
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
  // The group bank holds, in group order, the union of each replica's
  // base filter and sealed digests: the bank a rebuild would make.
  const std::vector<std::size_t>& groups = tree_.groups();
  std::vector<bloom::BloomFilter> unions;
  unions.reserve(groups.size());
  for (std::size_t c = 0; c < groups.size(); ++c) {
    const auto it = sync_.find(groups[c]);
    if (it == sync_.end() || it->second.column != c) return false;
    const bloom::BloomFilter& base = it->second.replica.base().name_filter;
    if (base.bit_count() != group_bank_.bit_count() ||
        base.num_hashes() != group_bank_.num_hashes())
      return false;
    unions.push_back(it->second.replica.union_filter());
  }
  return group_bank_ ==
         bloom::BitSlicedBank(bloom_bits_, cfg_.bloom_hashes, unions);
}

// ---- MVCC snapshots ------------------------------------------------------------

std::uint64_t SmartStore::commit_stamp(std::uint64_t seq) {
  if (seq == kAssignSeq)
    return commit_seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
  note_commit_seq(seq);
  return seq;
}

void SmartStore::note_commit_seq(std::uint64_t seq) {
  // CAS-max: given seqs can arrive out of order (a re-homed record's is
  // already behind the clock), and the clock never runs backwards.
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

template <typename Fn>
void SmartStore::for_each_visible(std::uint64_t seq, Fn&& fn) const {
  for (UnitId u = 0; u < units_.size(); ++u) {
    const util::MutexLock guard(unit_mutex(u));
    const StorageUnit& unit = units_[u];
    const auto& files = unit.files();
    const StorageUnit::Columns cols = unit.columns();
    const auto& seqs = unit.added_seqs();
    for (std::size_t i = 0; i < files.size(); ++i)
      if (live_visible(seqs[i], seq)) fn(u, files[i], cols.row(i), seqs[i]);
    for (const TombstoneRecord& t : unit.tombstones())
      if (dead_visible(t, seq)) fn(u, t.file, t.std_coords, t.added_seq);
  }
}

std::vector<metadata::FileMetadata> SmartStore::snapshot_dump(
    std::uint64_t seq) const {
  util::ReaderLock shared(structure_mu_);
  std::vector<metadata::FileMetadata> out;
  for_each_visible(seq, [&](UnitId, const FileMetadata& f, const auto&,
                            std::uint64_t) { out.push_back(f); });
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
  PointResult res;
  // Deterministic version pick: newest visible added_seq wins, ties broken
  // by smallest id — independent of unit visit order and writer timing.
  std::uint64_t best_added = 0;
  for_each_visible(seq, [&](UnitId u, const FileMetadata& f, const auto&,
                            std::uint64_t added) {
    if (f.name != q.filename) return;
    if (res.found &&
        (added < best_added || (added == best_added && f.id >= res.id)))
      return;
    res.found = true;
    res.unit = u;
    res.id = f.id;
    best_added = added;
  });
  res.first_try = true;
  res.stats.groups_visited = res.found ? 1 : 0;
  return res;
}

RangeResult SmartStore::snapshot_range_query(const metadata::RangeQuery& q,
                                             std::uint64_t seq) const {
  util::ReaderLock shared(structure_mu_);
  RangeResult res;
  const StdBox box = standardize(q);
  for_each_visible(seq, [&](UnitId, const FileMetadata& f,
                            const auto& coords, std::uint64_t) {
    if (box.contains(coords)) res.ids.push_back(f.id);
  });
  // Canonical order: sorted ids, so two scans at the same seq compare ==.
  std::sort(res.ids.begin(), res.ids.end());
  res.stats.records_scanned = res.ids.size();
  return res;
}

TopKResult SmartStore::snapshot_topk_query(const metadata::TopKQuery& q,
                                           std::uint64_t seq) const {
  util::ReaderLock shared(structure_mu_);
  TopKResult res;
  const StdPoint point = standardize(q);
  for_each_visible(seq, [&](UnitId, const FileMetadata& f,
                            const auto& coords, std::uint64_t) {
    res.hits.emplace_back(point.dist2(coords), f.id);
  });
  // The k best in exact (dist, id) order — canonical — without ordering
  // the rest.
  const std::size_t k = std::min<std::size_t>(q.k, res.hits.size());
  std::partial_sort(res.hits.begin(), res.hits.begin() + k, res.hits.end());
  res.hits.resize(k);
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
  for_each_visible(seq, [&](UnitId, const FileMetadata&, const auto&,
                            std::uint64_t) { ++out.files; });

  std::size_t active = 0;
  for (UnitId u = 0; u < units_.size(); ++u) {
    if (!unit_active_[u]) continue;
    ++active;
    {
      const util::MutexLock guard(unit_mutex(u));
      out.avg_space.metadata_bytes += units_[u].byte_size();
    }
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
