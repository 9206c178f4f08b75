#include "core/semantic_rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "metadata/schema.h"
#include "util/thread_pool.h"

namespace smartstore::core {

using metadata::kNumAttrs;

la::Vector IndexUnit::centroid_raw() const {
  la::Vector c = attr_sum;
  if (file_count > 0) {
    const double inv = 1.0 / static_cast<double>(file_count);
    for (auto& x : c) x *= inv;
  }
  return c;
}

std::size_t IndexUnit::byte_size() const {
  return sizeof(*this) + children.capacity() * sizeof(std::size_t) +
         box.byte_size() + name_filter.byte_size() +
         attr_sum.capacity() * sizeof(double);
}

std::size_t SemanticRTree::new_node(int level) {
  std::size_t id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    nodes_[id] = IndexUnit{};
  } else {
    id = nodes_.size();
    nodes_.emplace_back();
  }
  nodes_[id].node_id = id;
  nodes_[id].level = level;
  nodes_[id].name_filter =
      bloom::BloomFilter(params_.bloom_bits, params_.bloom_hashes);
  nodes_[id].attr_sum.assign(kNumAttrs, 0.0);
  ++live_nodes_;
  return id;
}

void SemanticRTree::free_node(std::size_t id) {
  nodes_[id].node_id = kInvalidIndex;
  nodes_[id].children.clear();
  free_list_.push_back(id);
  --live_nodes_;
}

rtree::Mbr SemanticRTree::child_box(const std::vector<StorageUnit>& units,
                                    const IndexUnit& node,
                                    std::size_t child) const {
  return node.level == 1 ? units[child].box() : nodes_[child].box;
}

void SemanticRTree::recompute_node(const std::vector<StorageUnit>& units,
                                   std::size_t id) {
  IndexUnit& n = nodes_[id];
  n.box = rtree::Mbr();
  n.name_filter.clear();
  n.attr_sum.assign(kNumAttrs, 0.0);
  n.file_count = 0;
  for (std::size_t c : n.children) {
    if (n.level == 1) {
      const StorageUnit& u = units[c];
      n.box.expand(u.box());
      n.name_filter.merge(u.name_filter_view());
      const la::Vector cent = u.centroid_raw();
      for (std::size_t d = 0; d < kNumAttrs; ++d)
        n.attr_sum[d] += cent[d] * static_cast<double>(u.file_count());
      n.file_count += u.file_count();
    } else {
      const IndexUnit& ch = nodes_[c];
      n.box.expand(ch.box);
      n.name_filter.merge(ch.name_filter);
      for (std::size_t d = 0; d < kNumAttrs; ++d)
        n.attr_sum[d] += ch.attr_sum[d];
      n.file_count += ch.file_count;
    }
  }
}

void SemanticRTree::recompute_upward(const std::vector<StorageUnit>& units,
                                     std::size_t id) {
  std::size_t cur = id;
  while (cur != kInvalidIndex) {
    recompute_node(units, cur);
    cur = nodes_[cur].parent;
  }
}

void SemanticRTree::recompute_level(const std::vector<StorageUnit>& units,
                                    const std::vector<std::size_t>& ids,
                                    util::ThreadPool* pool) {
  util::for_each_chunk(pool, ids.size(), 1,
                       [&](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i)
                           recompute_node(units, ids[i]);
                       });
}

void SemanticRTree::recompute_all(const std::vector<StorageUnit>& units) {
  // Bottom-up by level so parents see refreshed children.
  if (!built()) return;
  const int h = nodes_[root_].level;
  for (int level = 1; level <= h; ++level)
    recompute_level(units, nodes_at_level(level), nullptr);
}

void SemanticRTree::resize_filters(const std::vector<StorageUnit>& units,
                                   std::size_t bits) {
  params_.bloom_bits = bits;
  for (IndexUnit& n : nodes_) {
    if (n.node_id != kInvalidIndex)
      n.name_filter = bloom::BloomFilter(bits, params_.bloom_hashes);
  }
  recompute_all(units);
}

std::vector<std::size_t> SemanticRTree::nodes_at_level(int level) const {
  std::vector<std::size_t> out;
  for (const auto& n : nodes_) {
    if (n.node_id != kInvalidIndex && n.level == level)
      out.push_back(n.node_id);
  }
  return out;
}

void SemanticRTree::rebuild_group_list() {
  groups_ = nodes_at_level(1);
}

la::Vector SemanticRTree::restrict_dims(const la::Vector& full) const {
  if (params_.lsi_dims.empty()) return full;
  la::Vector out(params_.lsi_dims.size());
  for (std::size_t i = 0; i < params_.lsi_dims.size(); ++i)
    out[i] = full[params_.lsi_dims[i]];
  return out;
}

namespace {

/// Fallback when threshold aggregation makes no progress: order documents
/// by their first coordinate and cut into chunks of `fanout`, which always
/// reduces the population (fanout >= 2, n > 1).
Grouping chunk_grouping(const std::vector<la::Vector>& docs,
                        std::size_t fanout) {
  const std::size_t n = docs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double xa = docs[a].empty() ? 0.0 : docs[a][0];
    const double xb = docs[b].empty() ? 0.0 : docs[b][0];
    if (xa != xb) return xa < xb;
    return a < b;
  });
  Grouping g;
  g.group_of.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % fanout == 0) g.groups.emplace_back();
    g.groups.back().push_back(order[i]);
    g.group_of[order[i]] = g.groups.size() - 1;
  }
  return g;
}

}  // namespace

void SemanticRTree::build(const std::vector<StorageUnit>& units,
                          const BuildParams& params, util::ThreadPool* pool) {
  params_ = params;
  nodes_.clear();
  free_list_.clear();
  live_nodes_ = 0;
  groups_.clear();
  level_epsilons_.clear();
  root_replicas_.clear();
  root_ = kInvalidIndex;
  unit_group_.assign(units.size(), kInvalidIndex);
  if (units.empty()) return;

  // Level 1: LSI over the storage units' semantic vectors, restricted to
  // the grouping predicate's dimensions.
  std::vector<la::Vector> docs;
  docs.reserve(units.size());
  for (const auto& u : units) docs.push_back(restrict_dims(u.centroid_raw()));
  unit_lsi_ = lsi::LsiModel::fit(docs, params.lsi_rank);

  double eps1 = params.epsilon;
  if (eps1 <= 0.0) eps1 = optimal_threshold(unit_lsi_, params.fanout);
  // An unfitted model (degenerate data: one unit, or identical/empty
  // centroids) falls back to raw-vector grouping, which handles any n.
  Grouping g = unit_lsi_.fitted() && unit_lsi_.num_docs() == units.size()
                   ? group_by_similarity(unit_lsi_, eps1, params.fanout)
                   : group_vectors_by_similarity(docs, eps1, params.fanout);
  if (g.num_groups() == units.size() && units.size() > params.fanout) {
    g = chunk_grouping(docs, params.fanout);
  }
  level_epsilons_.push_back(eps1);

  // Each level's nodes are all created before any is summarized, so the
  // node array no longer moves while the summaries are computed.
  std::vector<std::size_t> current;
  for (const auto& members : g.groups) {
    const std::size_t id = new_node(/*level=*/1);
    nodes_[id].children = members;
    for (std::size_t u : members) unit_group_[u] = id;
    current.push_back(id);
  }
  recompute_level(units, current, pool);

  // Recursive aggregation to the root (Section 3.1.1: level (i-1) nodes
  // aggregate into level-i nodes with threshold ε_i).
  int level = 1;
  while (current.size() > 1) {
    ++level;
    std::vector<la::Vector> level_docs;
    level_docs.reserve(current.size());
    for (std::size_t id : current)
      level_docs.push_back(restrict_dims(nodes_[id].centroid_raw()));

    double eps = params.epsilon;
    Grouping lg;
    if (current.size() <= params.fanout) {
      // Few enough to form the root directly.
      lg.groups = {std::vector<std::size_t>(current.size())};
      std::iota(lg.groups[0].begin(), lg.groups[0].end(), 0);
      lg.group_of.assign(current.size(), 0);
      eps = 0.0;
    } else {
      lsi::LsiModel model = lsi::LsiModel::fit(level_docs, params.lsi_rank);
      if (eps <= 0.0) eps = optimal_threshold(model, params.fanout);
      lg = model.fitted() && model.num_docs() == current.size()
               ? group_by_similarity(model, eps, params.fanout)
               : group_vectors_by_similarity(level_docs, eps, params.fanout);
      if (lg.num_groups() >= current.size() || lg.num_groups() == 0) {
        lg = chunk_grouping(level_docs, params.fanout);
      }
    }
    level_epsilons_.push_back(eps);

    std::vector<std::size_t> next;
    for (const auto& members : lg.groups) {
      const std::size_t id = new_node(level);
      for (std::size_t m : members) {
        nodes_[id].children.push_back(current[m]);
        nodes_[current[m]].parent = id;
      }
      next.push_back(id);
    }
    recompute_level(units, next, pool);
    current = std::move(next);
  }
  root_ = current.front();
  nodes_[root_].parent = kInvalidIndex;
  rebuild_group_list();
}

void SemanticRTree::on_file_inserted(UnitId unit, const la::Vector& raw,
                                     const la::Vector& std_coords,
                                     const bloom::ItemHash& name_hash,
                                     const StripedMutexPool* locks) {
  std::size_t cur = unit_group_[unit];
  while (cur != kInvalidIndex) {
    IndexUnit& n = nodes_[cur];
    std::size_t parent;
    {
      const auto guard = maybe_lock(locks, &n);
      n.box.expand(std_coords);
      n.name_filter.insert(name_hash);
      for (std::size_t d = 0; d < kNumAttrs; ++d) n.attr_sum[d] += raw[d];
      ++n.file_count;
      parent = n.parent;  // topology; read inside the stripe for free
    }
    cur = parent;
  }
}

void SemanticRTree::on_file_removed(UnitId unit, const la::Vector& raw,
                                    const StripedMutexPool* locks) {
  std::size_t cur = unit_group_[unit];
  while (cur != kInvalidIndex) {
    IndexUnit& n = nodes_[cur];
    std::size_t parent;
    {
      const auto guard = maybe_lock(locks, &n);
      for (std::size_t d = 0; d < kNumAttrs; ++d) n.attr_sum[d] -= raw[d];
      if (n.file_count > 0) --n.file_count;
      parent = n.parent;
    }
    cur = parent;
  }
}

double SemanticRTree::child_box_distance(const std::vector<StorageUnit>& units,
                                         const IndexUnit& node, std::size_t a,
                                         std::size_t b) const {
  const rtree::Mbr ba = child_box(units, node, a);
  const rtree::Mbr bb = child_box(units, node, b);
  if (!ba.valid() || !bb.valid()) return 0.0;
  return la::squared_distance(ba.center(), bb.center());
}

void SemanticRTree::split_node(const std::vector<StorageUnit>& units,
                               std::size_t id) {
  IndexUnit& n = nodes_[id];
  if (n.children.size() <= params_.fanout) return;

  // Seed with the two farthest-apart children (quadratic-split flavour on
  // box centers), then greedily assign the rest to the nearer seed.
  const std::size_t k = n.children.size();
  std::size_t sa = 0, sb = 1;
  double worst = -1.0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      const double d = child_box_distance(units, n, n.children[i],
                                          n.children[j]);
      if (d > worst) {
        worst = d;
        sa = i;
        sb = j;
      }
    }
  }

  std::vector<std::size_t> left{n.children[sa]}, right{n.children[sb]};
  rtree::Mbr left_box = child_box(units, n, n.children[sa]);
  rtree::Mbr right_box = child_box(units, n, n.children[sb]);
  for (std::size_t i = 0; i < k; ++i) {
    if (i == sa || i == sb) continue;
    const std::size_t c = n.children[i];
    const rtree::Mbr cb = child_box(units, n, c);
    const double dl = cb.valid() && left_box.valid()
                          ? la::squared_distance(cb.center(), left_box.center())
                          : 0.0;
    const double dr = cb.valid() && right_box.valid()
                          ? la::squared_distance(cb.center(), right_box.center())
                          : 0.0;
    // Keep sizes within bounds: force the smaller side when one is starved.
    const std::size_t remaining = k - i - (sa > i ? 1 : 0) - (sb > i ? 1 : 0);
    const bool force_left = right.size() >= params_.fanout ||
                            left.size() + remaining <= params_.min_fill;
    const bool force_right = left.size() >= params_.fanout ||
                             right.size() + remaining <= params_.min_fill;
    bool to_left;
    if (force_left && !force_right) {
      to_left = true;
    } else if (force_right && !force_left) {
      to_left = false;
    } else {
      to_left = dl <= dr;
    }
    if (to_left) {
      left.push_back(c);
      left_box.expand(cb);
    } else {
      right.push_back(c);
      right_box.expand(cb);
    }
  }

  const int level = n.level;
  const std::size_t parent = n.parent;
  const std::size_t sibling = new_node(level);
  // NOTE: new_node may reallocate nodes_; refresh the reference.
  IndexUnit& node = nodes_[id];
  node.children = std::move(left);
  nodes_[sibling].children = std::move(right);

  for (std::size_t c : nodes_[sibling].children) {
    if (level == 1) {
      unit_group_[c] = sibling;
    } else {
      nodes_[c].parent = sibling;
    }
  }
  recompute_node(units, id);
  recompute_node(units, sibling);

  if (parent == kInvalidIndex) {
    // Root split: grow the tree by one level.
    const std::size_t new_root = new_node(level + 1);
    nodes_[new_root].children = {id, sibling};
    nodes_[id].parent = new_root;
    nodes_[sibling].parent = new_root;
    recompute_node(units, new_root);
    root_ = new_root;
  } else {
    nodes_[sibling].parent = parent;
    nodes_[parent].children.push_back(sibling);
    recompute_upward(units, parent);
    if (nodes_[parent].children.size() > params_.fanout)
      split_node(units, parent);
  }
  if (level == 1) rebuild_group_list();
}

std::size_t SemanticRTree::admit_unit(const std::vector<StorageUnit>& units,
                                      UnitId u) {
  assert(u < units.size());
  if (unit_group_.size() < units.size())
    unit_group_.resize(units.size(), kInvalidIndex);

  // Locate the most semantically correlated group via LSI projection of
  // the new unit's semantic vector (Section 3.2.1).
  const la::Vector q =
      unit_lsi_.fitted()
          ? unit_lsi_.project(restrict_dims(units[u].centroid_raw()))
          : la::Vector{};
  std::size_t best = kInvalidIndex;
  double best_sim = -std::numeric_limits<double>::infinity();
  for (std::size_t g : groups_) {
    double sim = 0.0;
    if (unit_lsi_.fitted()) {
      sim = lsi::LsiModel::similarity(
          q, unit_lsi_.project(restrict_dims(nodes_[g].centroid_raw())));
    }
    if (sim > best_sim) {
      best_sim = sim;
      best = g;
    }
  }
  if (best == kInvalidIndex) {
    // Empty tree: bootstrap a single-group tree.
    const std::size_t id = new_node(1);
    nodes_[id].children = {u};
    unit_group_[u] = id;
    recompute_node(units, id);
    root_ = id;
    rebuild_group_list();
    map_new_nodes();
    return id;
  }

  nodes_[best].children.push_back(u);
  unit_group_[u] = best;
  recompute_upward(units, best);
  if (nodes_[best].children.size() > params_.fanout) {
    split_node(units, best);
    map_new_nodes();
    return unit_group_[u];
  }
  return best;
}

void SemanticRTree::remove_unit(const std::vector<StorageUnit>& units,
                                UnitId u) {
  const std::size_t g = unit_group_[u];
  if (g == kInvalidIndex) return;
  IndexUnit& group = nodes_[g];
  group.children.erase(
      std::remove(group.children.begin(), group.children.end(), u),
      group.children.end());
  unit_group_[u] = kInvalidIndex;
  recompute_upward(units, g);

  // The departed unit can no longer host index units: queries routed to a
  // node it hosted would hit a dead server forever. Evict it as a host
  // and let map_new_nodes() pick live members.
  auto evict_host = [&] {
    for (IndexUnit& n : nodes_) {
      if (n.node_id != kInvalidIndex && n.mapped_unit == u)
        n.mapped_unit = kInvalidIndex;
    }
    map_new_nodes();
  };

  if (group.children.size() >= params_.min_fill || groups_.size() <= 1) {
    evict_host();
    return;
  }

  // Merge the underfull group's remaining units into the most correlated
  // other group (Section 3.2.2).
  std::size_t target = kInvalidIndex;
  double best_sim = -std::numeric_limits<double>::infinity();
  const la::Vector gc = group.centroid_raw();
  for (std::size_t other : groups_) {
    if (other == g) continue;
    const double sim =
        la::cosine_similarity(gc, nodes_[other].centroid_raw());
    if (sim > best_sim) {
      best_sim = sim;
      target = other;
    }
  }
  if (target == kInvalidIndex) return;

  for (std::size_t member : nodes_[g].children) {
    nodes_[target].children.push_back(member);
    unit_group_[member] = target;
  }
  nodes_[g].children.clear();

  // Detach the emptied group from its parent; collapse single-child
  // parents upward (height adjustment).
  std::size_t parent = nodes_[g].parent;
  if (parent != kInvalidIndex) {
    auto& pc = nodes_[parent].children;
    pc.erase(std::remove(pc.begin(), pc.end(), g), pc.end());
  }
  const std::size_t freed_parent = nodes_[g].parent;
  free_node(g);

  std::size_t cur = freed_parent;
  while (cur != kInvalidIndex) {
    IndexUnit& n = nodes_[cur];
    const std::size_t up = n.parent;
    if (n.children.empty()) {
      // The dissolved group was this node's only child: remove the node
      // itself and keep propagating.
      if (up != kInvalidIndex) {
        auto& upc = nodes_[up].children;
        upc.erase(std::remove(upc.begin(), upc.end(), cur), upc.end());
      }
      free_node(cur);
    } else if (n.children.size() == 1) {
      // Single-child parent: the child takes its place (height adjustment
      // propagated upwardly, Section 3.2.2).
      const std::size_t only = n.children.front();
      if (up == kInvalidIndex) {
        nodes_[only].parent = kInvalidIndex;
        root_ = only;
        free_node(cur);
      } else {
        auto& upc = nodes_[up].children;
        std::replace(upc.begin(), upc.end(), cur, only);
        nodes_[only].parent = up;
        free_node(cur);
      }
    } else {
      recompute_node(units, cur);
    }
    cur = up;
  }

  recompute_upward(units, target);
  if (nodes_[target].children.size() > params_.fanout)
    split_node(units, target);
  rebuild_group_list();
  evict_host();  // also maps any nodes the merge/split/collapse created
}

void SemanticRTree::map_new_nodes() {
  for (IndexUnit& n : nodes_) {
    if (n.node_id == kInvalidIndex || n.mapped_unit != kInvalidIndex)
      continue;
    // Descend to a first-level node and host on its first member unit.
    std::size_t cur = n.node_id;
    while (nodes_[cur].level > 1 && !nodes_[cur].children.empty())
      cur = nodes_[cur].children.front();
    if (nodes_[cur].level == 1 && !nodes_[cur].children.empty())
      n.mapped_unit = nodes_[cur].children.front();
  }
}

void SemanticRTree::map_index_units(util::Rng& rng) {
  if (!built()) return;

  // Covered storage units per node, by DFS.
  std::vector<std::vector<UnitId>> covered(nodes_.size());
  const int h = nodes_[root_].level;
  for (int level = 1; level <= h; ++level) {
    for (std::size_t id : nodes_at_level(level)) {
      auto& cov = covered[id];
      if (nodes_[id].level == 1) {
        cov = nodes_[id].children;
      } else {
        for (std::size_t c : nodes_[id].children) {
          cov.insert(cov.end(), covered[c].begin(), covered[c].end());
        }
      }
    }
  }

  std::vector<bool> labeled(unit_group_.size(), false);
  for (auto& n : nodes_) {
    if (n.node_id != kInvalidIndex) n.mapped_unit = kInvalidIndex;
  }

  // Bottom-up: first-level index units first (Figure 6), then upward.
  for (int level = 1; level <= h; ++level) {
    std::vector<std::size_t> ids = nodes_at_level(level);
    rng.shuffle(ids);
    for (std::size_t id : ids) {
      const auto& cov = covered[id];
      if (cov.empty()) continue;
      std::vector<UnitId> unlabeled;
      for (UnitId u : cov)
        if (!labeled[u]) unlabeled.push_back(u);
      UnitId pick;
      if (!unlabeled.empty()) {
        pick = unlabeled[rng.uniform_u64(unlabeled.size())];
        labeled[pick] = true;
      } else {
        pick = cov[rng.uniform_u64(cov.size())];
      }
      nodes_[id].mapped_unit = pick;
    }
  }

  // Root multi-mapping (Section 4.3): one replica inside each root-child
  // subtree, so every subtree can reach a root copy locally.
  root_replicas_.clear();
  if (nodes_[root_].level == 1) {
    root_replicas_.push_back(nodes_[root_].mapped_unit);
  } else {
    for (std::size_t c : nodes_[root_].children) {
      const auto& cov = covered[c];
      if (cov.empty()) continue;
      root_replicas_.push_back(cov[rng.uniform_u64(cov.size())]);
    }
  }
}

std::size_t SemanticRTree::hosted_bytes(UnitId u) const {
  std::size_t b = 0;
  for (const auto& n : nodes_) {
    if (n.node_id == kInvalidIndex) continue;
    if (n.mapped_unit == u) b += n.byte_size();
  }
  // Root replicas hold a copy of the root node.
  if (built()) {
    for (UnitId r : root_replicas_) {
      if (r == u && nodes_[root_].mapped_unit != u)
        b += nodes_[root_].byte_size();
    }
  }
  return b;
}

std::size_t SemanticRTree::total_index_bytes() const {
  std::size_t b = 0;
  for (const auto& n : nodes_) {
    if (n.node_id != kInvalidIndex) b += n.byte_size();
  }
  return b;
}

bool SemanticRTree::check_invariants(
    const std::vector<StorageUnit>& units) const {
  if (!built()) return live_nodes_ == 0;
  std::vector<bool> seen_unit(units.size(), false);
  std::size_t visited = 0;

  std::vector<std::size_t> stack{root_};
  while (!stack.empty()) {
    const std::size_t id = stack.back();
    stack.pop_back();
    const IndexUnit& n = nodes_[id];
    if (n.node_id != id) return false;
    ++visited;
    if (n.children.empty()) return false;
    if (n.children.size() > params_.fanout) return false;
    // A mapped index unit must be hosted somewhere real: routing sends
    // queries to mapped_unit, so a stale host id (the bug class: splits
    // during unit admission forgetting the Section 4.2 mapping) would
    // send sessions to an out-of-range node. Unmapped is allowed only
    // because freshly built trees are mapped in a separate pass.
    if (n.mapped_unit != kInvalidIndex && n.mapped_unit >= units.size())
      return false;

    std::size_t child_files = 0;
    for (std::size_t c : n.children) {
      if (n.level == 1) {
        if (c >= units.size()) return false;
        if (seen_unit[c]) return false;
        seen_unit[c] = true;
        if (unit_group_[c] != id) return false;
        if (units[c].box().valid() && !n.box.contains(units[c].box()))
          return false;
        child_files += units[c].file_count();
      } else {
        const IndexUnit& ch = nodes_[c];
        if (ch.parent != id) return false;
        if (ch.level >= n.level) return false;
        if (ch.box.valid() && !n.box.contains(ch.box)) return false;
        child_files += ch.file_count;
        stack.push_back(c);
      }
    }
    if (n.file_count != child_files) return false;
  }
  if (visited != live_nodes_) return false;

  // Every unit assigned to a group must have been reached.
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (unit_group_[u] != kInvalidIndex && !seen_unit[u]) return false;
  }
  return true;
}

}  // namespace smartstore::core
