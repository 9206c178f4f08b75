#include "persist/wal_shard.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <filesystem>

namespace smartstore::persist {

namespace fs = std::filesystem;

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// EWMA smoothing factor. 1/8 reacts within a few dozen records while a
/// single outlier (one stalled fsync, one idle gap) moves the estimate
/// by at most 12.5%.
constexpr double kEwmaAlpha = 0.125;

double ewma(double state, double sample) {
  return state <= 0 ? sample : state + kEwmaAlpha * (sample - state);
}

}  // namespace

std::string ShardedWal::shard_dir(const std::string& deploy_dir) {
  return (fs::path(deploy_dir) / "wal").string();
}

std::string ShardedWal::shard_path(const std::string& deploy_dir,
                                   std::size_t shard) {
  return (fs::path(deploy_dir) / "wal" / (std::to_string(shard) + ".log"))
      .string();
}

bool ShardedWal::parse_shard_id(const fs::path& p, std::uint64_t* id_out) {
  if (p.extension() != ".log") return false;
  const std::string stem = p.stem().string();
  // Nine digits bounds any plausible unit count while keeping the
  // accumulation overflow-free.
  if (stem.empty() || stem.size() > 9) return false;
  std::uint64_t id = 0;
  for (char c : stem) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    id = id * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *id_out = id;
  return true;
}

ShardedWal::ShardedWal(std::string deploy_dir, std::size_t num_shards,
                       std::size_t group_commit, bool adaptive)
    : deploy_dir_(std::move(deploy_dir)),
      dir_(shard_dir(deploy_dir_)),
      group_commit_(group_commit == 0 ? 1 : group_commit),
      adaptive_(adaptive) {
  fs::create_directories(dir_);

  // Open every shard already on disk (a restart must resume the sequence
  // counter past everything it ever stamped, even shards for units that
  // have since been removed), then make sure [0, num_shards) exist.
  std::size_t max_existing = 0;
  bool any = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::uint64_t id = 0;
    if (!parse_shard_id(entry.path(), &id)) continue;
    any = true;
    max_existing = std::max(max_existing, static_cast<std::size_t>(id));
  }
  const std::size_t open_up_to =
      std::max(num_shards, any ? max_existing + 1 : 0);
  std::uint64_t max_seq = 0;
  for (std::size_t i = 0; i < open_up_to; ++i) {
    const bool on_disk = fs::exists(shard_path(deploy_dir_, i));
    if (!on_disk && i >= num_shards) continue;  // sparse ids stay sparse
    Shard& s = shard(i);
    const util::MutexLock lock(s.mu);
    max_seq = std::max(max_seq, s.writer->opened_max_seq());
  }
  next_seq_.store(max_seq + 1, std::memory_order_relaxed);
}

ShardedWal::Shard& ShardedWal::shard(std::size_t i) {
  const util::MutexLock lock(map_mu_);
  if (i >= shards_.size()) shards_.resize(i + 1);
  if (!shards_[i]) {
    shards_[i] = std::make_unique<Shard>(
        std::make_unique<WalWriter>(shard_path(deploy_dir_, i)));
  }
  return *shards_[i];
}

ShardedWal::Shard* ShardedWal::shard_if_exists(std::size_t i) const {
  const util::MutexLock lock(map_mu_);
  return i < shards_.size() && shards_[i] ? shards_[i].get() : nullptr;
}

std::size_t ShardedWal::num_shards() const {
  const util::MutexLock lock(map_mu_);
  return shards_.size();
}

void ShardedWal::set_commit_tap(CommitTap tap) {
  {
    const util::MutexLock lock(tap_mu_);
    tap_ = tap ? std::make_shared<const CommitTap>(std::move(tap)) : nullptr;
  }
  if (tap_snapshot()) return;
  // Disarm: tapped-but-uncommitted records will never be delivered (the
  // next armed tap belongs to a different replication stream); drop them
  // so the drain arithmetic starts clean.
  const std::size_t n = num_shards();
  for (std::size_t i = 0; i < n; ++i) {
    if (Shard* s = shard_if_exists(i)) {
      const util::MutexLock lock(s->mu);
      s->tap_pending.clear();
    }
  }
}

std::shared_ptr<const ShardedWal::CommitTap> ShardedWal::tap_snapshot() const {
  const util::MutexLock lock(tap_mu_);
  return tap_;
}

void ShardedWal::tap_append(Shard& s, const WalRecord& rec) {
  if (!tap_snapshot()) return;
  s.tap_pending.push_back(rec);
}

void ShardedWal::drain_tap(Shard& s) {
  if (s.tap_pending.empty()) return;
  const std::uint64_t pending = s.writer->pending_records();
  if (s.tap_pending.size() <= pending) return;
  const std::size_t committed =
      s.tap_pending.size() - static_cast<std::size_t>(pending);
  const std::shared_ptr<const CommitTap> tap = tap_snapshot();
  if (tap) {
    // Delivered under s.mu on purpose: the tap sees each shard's records
    // in commit order with no interleaving window where a later commit of
    // the same shard could overtake an earlier one.
    for (std::size_t i = 0; i < committed; ++i) (*tap)(s.tap_pending[i]);
  }
  s.tap_pending.erase(s.tap_pending.begin(),
                      s.tap_pending.begin() + static_cast<long>(committed));
}

std::uint64_t ShardedWal::append(std::size_t shard_id, WalRecord rec) {
  Shard& s = shard(shard_id);
  const util::MutexLock lock(s.mu);
  if (rec.seq == 0) {
    rec.seq = stamp();
  } else {
    ensure_seq_at_least(rec.seq + 1);
  }
  tap_append(s, rec);
  note_append(s);
  s.writer->append(rec);
  return rec.seq;
}

void ShardedWal::maybe_commit(std::size_t shard_id) {
  Shard* s = shard_if_exists(shard_id);
  if (!s) return;
  const util::MutexLock lock(s->mu);
  if (s->writer->pending_records() >= shard_group_commit(*s))
    timed_commit(*s);
  drain_tap(*s);
}

void ShardedWal::note_append(Shard& s) {
  if (!adaptive_) return;
  const double now = steady_seconds();
  if (s.last_append_s >= 0) s.ewma_gap_s = ewma(s.ewma_gap_s, now - s.last_append_s);
  s.last_append_s = now;
}

void ShardedWal::timed_commit(Shard& s) {
  if (!adaptive_) {
    s.writer->commit();
    return;
  }
  const double start = steady_seconds();
  s.writer->commit();
  s.ewma_sync_s = ewma(s.ewma_sync_s, steady_seconds() - start);
  // Amortization balance point: batch until the fsync cost is spread at
  // the rate records actually arrive on this shard. An idle shard (gap ≫
  // sync) converges to 1 — latency-optimal; a hot one grows toward the
  // ceiling.
  if (s.ewma_gap_s > 0 && s.ewma_sync_s > 0) {
    const double ratio = s.ewma_sync_s / s.ewma_gap_s;
    s.target = static_cast<std::size_t>(std::clamp(
        ratio, 1.0, static_cast<double>(kMaxAdaptiveGroupCommit)));
  }
}

std::size_t ShardedWal::effective_group_commit() const {
  if (!adaptive_) return group_commit_;
  std::size_t sum = 0, n = 0;
  const std::size_t shards = num_shards();
  for (std::size_t i = 0; i < shards; ++i) {
    Shard* s = shard_if_exists(i);
    if (!s) continue;
    const util::MutexLock lock(s->mu);
    sum += s->target > 0 ? s->target : group_commit_;
    ++n;
  }
  return n == 0 ? group_commit_ : sum / n;
}

std::uint64_t ShardedWal::log_structural(const WalRecord& rec_in) {
  // Barrier: everything logged so far becomes durable before the
  // structural record does, so the merged replay can never see a durable
  // structural record ahead of a lost earlier per-unit record.
  commit_all();
  Shard& s = shard(0);
  const util::MutexLock lock(s.mu);
  WalRecord rec = rec_in;
  rec.seq = stamp();
  // Structural records ARE tapped (the consumer maps them to seq-hole
  // markers): they consume a stamp, and a seq-ordered replication stream
  // would otherwise wait forever on the hole.
  tap_append(s, rec);
  s.writer->append(rec);
  s.writer->commit();
  drain_tap(s);
  return rec.seq;
}

std::uint64_t ShardedWal::log_add_unit() {
  WalRecord rec;
  rec.type = WalRecordType::kAddUnit;
  return log_structural(rec);
}

std::uint64_t ShardedWal::log_remove_unit(std::uint64_t unit) {
  WalRecord rec;
  rec.type = WalRecordType::kRemoveUnit;
  rec.unit = unit;
  return log_structural(rec);
}

std::uint64_t ShardedWal::log_autoconfigure(
    const std::vector<metadata::AttrSubset>& subsets) {
  WalRecord rec;
  rec.type = WalRecordType::kAutoconfigure;
  rec.subsets = subsets;
  return log_structural(rec);
}

void ShardedWal::commit_all() {
  const std::size_t n = num_shards();
  for (std::size_t i = 0; i < n; ++i) {
    if (Shard* s = shard_if_exists(i)) {
      const util::MutexLock lock(s->mu);
      s->writer->commit();
      drain_tap(*s);
    }
  }
}

WalFence ShardedWal::frontier() {
  WalFence fence;
  fence.present = true;
  const std::size_t n = num_shards();
  for (std::size_t i = 0; i < n; ++i) {
    Shard* s = shard_if_exists(i);
    if (!s) continue;
    const util::MutexLock lock(s->mu);
    s->writer->commit();
    drain_tap(*s);
    fence.shards.push_back({i, s->writer->generation(),
                            s->writer->committed_records(),
                            s->writer->committed_bytes()});
  }
  return fence;
}

void ShardedWal::rebase_to(const WalFence& fence) {
  for (const ShardFence& f : fence.shards) {
    Shard* s = shard_if_exists(static_cast<std::size_t>(f.shard));
    if (!s) continue;
    const util::MutexLock lock(s->mu);
    // A mismatched generation means this shard was already rebased since
    // the fence was taken — dropping by count would discard
    // unfenced records.
    if (s->writer->generation() != f.generation) continue;
    s->writer->rebase(static_cast<std::size_t>(f.records),
                      static_cast<std::size_t>(f.bytes));
  }
}

void ShardedWal::abandon() {
  const std::size_t n = num_shards();
  for (std::size_t i = 0; i < n; ++i) {
    if (Shard* s = shard_if_exists(i)) {
      const util::MutexLock lock(s->mu);
      s->writer->abandon();
      s->tap_pending.clear();  // dropped with the uncommitted batch
    }
  }
}

std::uint64_t ShardedWal::committed_records(std::size_t shard_id) const {
  Shard* s = shard_if_exists(shard_id);
  if (!s) return 0;
  const util::MutexLock lock(s->mu);
  return s->writer->committed_records();
}

std::uint64_t ShardedWal::pending_records(std::size_t shard_id) const {
  Shard* s = shard_if_exists(shard_id);
  if (!s) return 0;
  const util::MutexLock lock(s->mu);
  return s->writer->pending_records();
}

std::uint64_t ShardedWal::generation(std::size_t shard_id) const {
  Shard* s = shard_if_exists(shard_id);
  if (!s) return 0;
  const util::MutexLock lock(s->mu);
  return s->writer->generation();
}

}  // namespace smartstore::persist
