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

void StorageUnit::add_file(const FileMetadata& f, const la::Vector& std_coords,
                           const bloom::ItemHash& name_hash,
                           std::uint64_t added_seq) {
  assert(std_coords.size() == kNumAttrs);
  by_name_[f.name] = files_.size();
  by_id_[f.id] = files_.size();
  files_.push_back(f);
  std_coords_.push_back(std_coords);
  added_seqs_.push_back(added_seq);
  assert(name_hash == bloom::hash_item(f.name));
  name_hashes_.push_back(name_hash);
  name_filter_.insert(name_hash);
  box_.expand(std_coords);
  for (std::size_t d = 0; d < kNumAttrs; ++d) attr_sums_[d] += f.attrs[d];
}

std::optional<FileMetadata> StorageUnit::remove_file(
    FileId id, const bloom::ItemHash& name_hash, std::uint64_t deleted_seq) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return std::nullopt;
  const std::size_t pos = it->second;
  FileMetadata removed = files_[pos];

  if (deleted_seq > 0) {
    // Version chain: snapshots pinned before the delete still see this
    // record. The caller prunes against the GC watermark.
    TombstoneRecord t;
    t.file = removed;
    t.std_coords = std_coords_[pos];
    t.added_seq = added_seqs_[pos];
    t.deleted_seq = deleted_seq;
    tombstones_.push_back(std::move(t));
  }

  assert(name_hash == bloom::hash_item(removed.name));
  name_filter_.remove(name_hash);
  by_name_.erase(removed.name);
  by_id_.erase(it);
  for (std::size_t d = 0; d < kNumAttrs; ++d)
    attr_sums_[d] -= removed.attrs[d];

  // Swap-remove; fix the indexes of the moved record.
  const std::size_t last = files_.size() - 1;
  if (pos != last) {
    files_[pos] = std::move(files_[last]);
    std_coords_[pos] = std::move(std_coords_[last]);
    added_seqs_[pos] = added_seqs_[last];
    name_hashes_[pos] = name_hashes_[last];
    by_name_[files_[pos].name] = pos;
    by_id_[files_[pos].id] = pos;
  }
  files_.pop_back();
  std_coords_.pop_back();
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
  return it == by_name_.end() ? nullptr : &files_[it->second];
}

const FileMetadata* StorageUnit::find_by_id(FileId id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &files_[it->second];
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
  b += std_coords_.size() * (kNumAttrs * sizeof(double) + sizeof(la::Vector));
  // Hash indexes: bucket array + one node per entry (approximation).
  b += by_name_.size() * (sizeof(void*) * 2 + 48);
  b += by_id_.size() * (sizeof(void*) * 2 + 24);
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
  names_ = base_.name_filter;
  sum_ = base_.attr_sum;
  count_ = base_.file_count;
  centroid_.clear();
  box_ = base_.box;
}

void GroupReplica::seal(VersionDelta v) {
  for (const bloom::ItemHash& h : v.added_names) names_.insert(h);
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
}

const rtree::Mbr& GroupReplica::effective_box(bool with_versions) const {
  return with_versions ? box_ : base_.box;
}

const la::Vector& GroupReplica::effective_centroid(bool with_versions) const {
  return with_versions && !versions_.empty() ? centroid_ : base_.centroid_raw;
}

bool GroupReplica::name_may_contain(const bloom::ItemHash& name,
                                    bool with_versions) const {
  if (with_versions && !versions_.empty()) {
    // One probe settles a miss in the base and every version at once.
    if (!names_.may_contain(name)) return false;
    // The answer is an OR, so the cheap base probe may go first.
    if (base_.name_filter.may_contain(name)) return true;
    // Rolling backward: newest version first (Section 4.4).
    for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
      for (const bloom::ItemHash& h : it->added_names)
        if (h == name) return true;
    }
    return false;
  }
  return base_.name_filter.may_contain(name);
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
