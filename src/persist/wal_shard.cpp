#include "persist/wal_shard.h"

#include <algorithm>
#include <cctype>
#include <filesystem>

namespace smartstore::persist {

namespace fs = std::filesystem;

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

ShardedWal::ShardedWal(std::string deploy_dir, std::size_t num_shards)
    : deploy_dir_(std::move(deploy_dir)), dir_(shard_dir(deploy_dir_)) {
  fs::create_directories(dir_);

  // Open every shard already on disk (a shard whose unit the recovered
  // shape lacks still holds replayed records the next checkpoint must
  // fence), then make sure [0, num_shards) exist.
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
  for (std::size_t i = 0; i < open_up_to; ++i) {
    const bool on_disk = fs::exists(shard_path(deploy_dir_, i));
    if (!on_disk && i >= num_shards) continue;  // sparse ids stay sparse
    shard(i);
  }
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

void ShardedWal::append(std::size_t shard_id, const WalRecord& rec) {
  Shard& s = shard(shard_id);
  const util::MutexLock lock(s.mu);
  tap_append(s, rec);
  s.writer->append(rec);
}

void ShardedWal::commit(core::UnitId shard_id) {
  Shard* s = shard_if_exists(shard_id);
  if (!s) return;
  const util::MutexLock lock(s->mu);
  s->writer->commit();
  drain_tap(*s);
}

void ShardedWal::commit_all() {
  const std::size_t n = num_shards();
  for (std::size_t i = 0; i < n; ++i) commit(i);
}

std::uint64_t ShardedWal::records_per_commit() const {
  std::uint64_t records = 0, blocks = 0;
  const std::size_t n = num_shards();
  for (std::size_t i = 0; i < n; ++i) {
    Shard* s = shard_if_exists(i);
    if (!s) continue;
    const util::MutexLock lock(s->mu);
    records += s->writer->records_written();
    blocks += s->writer->blocks_written();
  }
  return blocks == 0 ? 0 : (records + blocks / 2) / blocks;
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
