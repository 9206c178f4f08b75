#include "core/units.h"

#include <algorithm>
#include <cassert>

namespace smartstore::core {

using metadata::FileId;
using metadata::FileMetadata;
using metadata::kNumAttrs;

StorageUnit::StorageUnit(UnitId id, std::size_t bloom_bits,
                         unsigned bloom_hashes)
    : id_(id), name_filter_(bloom_bits, bloom_hashes),
      attr_sums_(kNumAttrs, 0.0) {}

void StorageUnit::add_file(const FileMetadata& f,
                           std::span<const double> std_coords,
                           const bloom::ItemHash& name_hash,
                           std::uint64_t added_seq) {
  assert(std_coords.size() == kNumAttrs);
  Slot& slot = by_name_[f.name];
  slot.pos = files_.size();
  ++slot.count;
  files_.push_back(f);
  ids_.push_back(f.id);
  box_.expand(std_coords);
  for (std::size_t d = 0; d < kNumAttrs; ++d) cols_[d].push_back(std_coords[d]);
  added_seqs_.push_back(added_seq);
  assert(name_hash == bloom::hash_item(f.name));
  name_hashes_.push_back(name_hash);
  name_filter_.insert(name_hash);
  for (std::size_t d = 0; d < kNumAttrs; ++d) attr_sums_[d] += f.attrs[d];
}

void StorageUnit::reserve(std::size_t n) {
  files_.reserve(n);
  ids_.reserve(n);
  for (auto& col : cols_) col.reserve(n);
  added_seqs_.reserve(n);
  name_hashes_.reserve(n);
  by_name_.reserve(n);
}

std::size_t StorageUnit::position(FileId id, const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return kInvalidIndex;
  if (files_[it->second.pos].id == id) return it->second.pos;
  if (it->second.count == 1) return kInvalidIndex;
  // The name repeats: only a scan finds the record with this id.
  for (std::size_t j = 0; j < files_.size(); ++j)
    if (files_[j].id == id && files_[j].name == name) return j;
  return kInvalidIndex;
}

void StorageUnit::unindex_name(std::size_t pos) {
  const std::string& name = files_[pos].name;
  const auto it = by_name_.find(name);
  assert(it != by_name_.end());
  if (--it->second.count == 0) {
    by_name_.erase(it);
    return;
  }
  if (it->second.pos != pos) return;
  std::size_t best = kInvalidIndex;
  for (std::size_t j = 0; j < files_.size(); ++j) {
    if (j == pos || files_[j].name != name) continue;
    if (best == kInvalidIndex || added_seqs_[j] > added_seqs_[best] ||
        (added_seqs_[j] == added_seqs_[best] && files_[j].id < files_[best].id))
      best = j;
  }
  assert(best != kInvalidIndex);
  it->second.pos = best;
}

std::optional<FileMetadata> StorageUnit::remove_file(
    FileId id, const std::string& name, const bloom::ItemHash& name_hash,
    std::uint64_t deleted_seq) {
  const std::size_t pos = position(id, name);
  if (pos == kInvalidIndex) return std::nullopt;
  FileMetadata removed = files_[pos];

  if (deleted_seq > 0) {
    // Version chain: snapshots pinned before the delete still see this
    // record. The caller prunes against the GC watermark.
    TombstoneRecord t;
    t.file = removed;
    t.std_coords = std_coords(pos);
    t.added_seq = added_seqs_[pos];
    t.deleted_seq = deleted_seq;
    tombstones_.push_back(std::move(t));
  }

  assert(name_hash == bloom::hash_item(removed.name));
  name_filter_.remove(name_hash);
  unindex_name(pos);
  for (std::size_t d = 0; d < kNumAttrs; ++d)
    attr_sums_[d] -= removed.attrs[d];

  // Swap-remove; a name index entry that named the moved record follows
  // it.
  const std::size_t last = files_.size() - 1;
  if (pos != last) {
    files_[pos] = std::move(files_[last]);
    ids_[pos] = ids_[last];
    for (auto& col : cols_) col[pos] = col[last];
    added_seqs_[pos] = added_seqs_[last];
    name_hashes_[pos] = name_hashes_[last];
    Slot& moved = by_name_.at(files_[pos].name);
    if (moved.pos == last) moved.pos = pos;
  }
  files_.pop_back();
  ids_.pop_back();
  for (auto& col : cols_) col.pop_back();
  added_seqs_.pop_back();
  name_hashes_.pop_back();
  return removed;
}

void StorageUnit::resize_name_filter(std::size_t bits) {
  name_filter_ = bloom::CountingBloomFilter(bits, name_filter_.num_hashes());
  for (const bloom::ItemHash& h : name_hashes_) name_filter_.insert(h);
}

std::size_t StorageUnit::prune_tombstones(std::uint64_t watermark) {
  if (tombstones_.empty()) return 0;
  const std::size_t before = tombstones_.size();
  tombstones_.erase(
      std::remove_if(tombstones_.begin(), tombstones_.end(),
                     [watermark](const TombstoneRecord& t) {
                       return t.deleted_seq <= watermark;
                     }),
      tombstones_.end());
  return before - tombstones_.size();
}

const FileMetadata* StorageUnit::find_by_name(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &files_[it->second.pos];
}

const FileMetadata* StorageUnit::find_by_id(FileId id) const {
  const auto it = std::find(ids_.begin(), ids_.end(), id);
  return it == ids_.end() ? nullptr : &files_[it - ids_.begin()];
}

const FileMetadata* StorageUnit::find(FileId id,
                                      const std::string& name) const {
  const std::size_t pos = position(id, name);
  return pos == kInvalidIndex ? nullptr : &files_[pos];
}

StorageUnit::Columns StorageUnit::columns() const {
  Columns c;
  for (std::size_t d = 0; d < kNumAttrs; ++d) c.col[d] = cols_[d].data();
  return c;
}

la::Vector StorageUnit::std_coords(std::size_t i) const {
  la::Vector v(kNumAttrs);
  for (std::size_t d = 0; d < kNumAttrs; ++d) v[d] = cols_[d][i];
  return v;
}

la::Vector StorageUnit::centroid_raw() const {
  la::Vector c = attr_sums_;
  if (!files_.empty()) {
    const double inv = 1.0 / static_cast<double>(files_.size());
    for (auto& x : c) x *= inv;
  }
  return c;
}

std::size_t StorageUnit::byte_size() const {
  std::size_t b = sizeof(*this);
  for (const auto& f : files_) b += f.byte_size();
  // The id and coordinate columns.
  b += files_.size() * (sizeof(FileId) + kNumAttrs * sizeof(double));
  // Name index: bucket array + one node per entry (approximation).
  b += by_name_.size() * (sizeof(void*) * 2 + 48);
  b += added_seqs_.size() * sizeof(std::uint64_t);
  for (const auto& t : tombstones_) {
    b += sizeof(TombstoneRecord) + t.file.byte_size() +
         t.std_coords.capacity() * sizeof(double);
  }
  b += name_filter_.byte_size();
  b += box_.byte_size();
  return b;
}

std::size_t VersionDelta::byte_size() const {
  return sizeof(*this) + added_box.byte_size() +
         added_names.capacity() * sizeof(bloom::ItemHash) +
         added_attr_sum.capacity() * sizeof(double) +
         deleted.capacity() * sizeof(metadata::FileId);
}

void GroupReplica::reset(Base base) {
  base_ = std::move(base);
  versions_.clear();
  version_count_.n.store(0, std::memory_order_relaxed);
  sum_ = base_.attr_sum;
  count_ = base_.file_count;
  centroid_.clear();
  box_ = base_.box;
}

void GroupReplica::seal(VersionDelta v) {
  box_.expand(v.added_box);
  if (v.added_count != 0) {
    for (std::size_t d = 0; d < sum_.size(); ++d) sum_[d] += v.added_attr_sum[d];
    count_ += v.added_count;
  }
  if (count_ == 0) {
    centroid_ = base_.centroid_raw;
  } else {
    centroid_ = sum_;
    for (auto& x : centroid_) x /= static_cast<double>(count_);
  }
  versions_.push_back(std::move(v));
  version_count_.n.store(versions_.size(), std::memory_order_relaxed);
}

const rtree::Mbr& GroupReplica::effective_box(bool with_versions) const {
  return with_versions ? box_ : base_.box;
}

const la::Vector& GroupReplica::effective_centroid(bool with_versions) const {
  return with_versions && !versions_.empty() ? centroid_ : base_.centroid_raw;
}

bool GroupReplica::confirm_name(const bloom::ItemHash& name,
                                bool with_versions) const {
  // The answer is an OR, so the cheap base probe may go first.
  if (base_.name_filter.may_contain(name)) return true;
  if (!with_versions) return false;
  // Rolling backward: newest version first (Section 4.4).
  for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
    for (const bloom::ItemHash& h : it->added_names)
      if (h == name) return true;
  }
  return false;
}

bloom::BloomFilter GroupReplica::union_filter() const {
  bloom::BloomFilter all = base_.name_filter;
  for (const auto& v : versions_)
    for (const bloom::ItemHash& h : v.added_names) all.insert(h);
  return all;
}

std::size_t GroupReplica::byte_size() const {
  return sizeof(Base) + sizeof(versions_) +
         base_.centroid_raw.capacity() * sizeof(double) +
         base_.attr_sum.capacity() * sizeof(double) + base_.box.byte_size() +
         base_.name_filter.byte_size() + versions_byte_size();
}

std::size_t GroupReplica::versions_byte_size() const {
  std::size_t b = 0;
  for (const auto& v : versions_) b += v.byte_size();
  return b;
}

}  // namespace smartstore::core
