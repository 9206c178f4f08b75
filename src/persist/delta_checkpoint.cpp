#include "persist/delta_checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "persist/fault.h"
#include "util/timer.h"

namespace smartstore::persist {

namespace fs = std::filesystem;

DeltaEngine::DeltaEngine(core::SmartStore& store, ShardedWal& wal,
                         std::string dir)
    : store_(store), wal_(wal), dir_(std::move(dir)) {
  std::error_code ec;
  if (fs::weakly_canonical(wal_.dir(), ec) !=
      fs::weakly_canonical(ShardedWal::shard_dir(dir_), ec)) {
    throw PersistError("DeltaEngine: the sharded WAL must own this "
                       "directory's shards (" +
                       ShardedWal::shard_dir(dir_) + "), got " + wal_.dir());
  }
  const util::MutexLock lock(mu_);
  if (manifest_exists(dir_)) {
    publish_manifest_locked(read_manifest(dir_));
    loaded_ = true;
    const std::uint64_t files = store_.total_files();
    const std::uint64_t logged = logged_since_base_locked();
    base_files_ = files > logged ? files - logged : 0;
  }
}

void DeltaEngine::publish_manifest_locked(DeltaManifest m) {
  manifest_ = std::move(m);
  fold_seq_.store(manifest_.fold_seq, std::memory_order_relaxed);
  base_id_.store(manifest_.base_id, std::memory_order_relaxed);
}

std::uint64_t DeltaEngine::logged_since_base_locked() const {
  std::uint64_t logged = 0;
  for (std::size_t s = 0; s < wal_.num_shards(); ++s) {
    const std::uint64_t committed = wal_.committed_records(s);
    logged += committed - std::min(committed, manifest_.fenced_records(
                                                  s, wal_.generation(s)));
  }
  return logged;
}

void DeltaEngine::record_locked(const CheckpointStats& st) {
  last_ = st;
  completed_.fetch_add(1, std::memory_order_relaxed);
  total_mutations_during_.fetch_add(st.mutations_during,
                                    std::memory_order_relaxed);
}

CheckpointStats DeltaEngine::last_stats() const {
  const util::MutexLock lock(mu_);
  return last_;
}

CheckpointStats DeltaEngine::checkpoint() {
  const util::MutexLock lock(mu_);
  CheckpointStats st;
  if (!loaded_ ||
      logged_since_base_locked() >= std::max<std::uint64_t>(base_files_, 1))
    st = fold_locked();
  record_locked(st);
  return st;
}

CheckpointStats DeltaEngine::fold() {
  const util::MutexLock lock(mu_);
  const CheckpointStats st = fold_locked();
  record_locked(st);
  return st;
}

CheckpointStats DeltaEngine::fold_locked() {
  CheckpointStats st;
  st.folded = true;
  const std::uint64_t next_id = manifest_.manifest_id + 1;

  std::error_code ec;
  fs::create_directories(ckpt_dir(dir_), ec);

  // FREEZE: the frontier and the population are taken inside the
  // exclusive section, at exactly the frozen seq.
  DeltaManifest next;
  next.manifest_id = next_id;
  next.base_id = next_id;
  std::uint64_t files = 0;
  util::WallTimer phase;
  const std::uint64_t seq = store_.begin_checkpoint([&] {
    next.fence = wal_.frontier();
    files = store_.total_files();
  });
  next.fold_seq = seq;
  st.freeze_s = phase.seconds();
  phase.reset();

  // WRITE (concurrent with serving), then PUBLISH + TRUNCATE. Any failure,
  // an injected crash included, must release the freeze so a surviving
  // store's GC is no longer held at the frozen seq.
  try {
    const std::string base = base_path(dir_, next_id);
    save_snapshot_frozen(store_, base);
    const auto sz = fs::file_size(base, ec);
    if (!ec) st.base_bytes = static_cast<std::size_t>(sz);

    write_manifest(dir_, next);
    const WalFence fence = next.fence;
    publish_manifest_locked(std::move(next));
    loaded_ = true;
    base_files_ = files;
    folds_.fetch_add(1, std::memory_order_relaxed);
    st.write_s = phase.seconds();
    phase.reset();

    fault_point("compact:pre-rebase");
    wal_.rebase_to(fence);
    st.truncate_s = phase.seconds();
  } catch (...) {
    store_.end_checkpoint();
    throw;
  }
  st.mutations_during = store_.last_commit_seq() - seq;
  store_.end_checkpoint();

  // Superseded bases; a failure here leaves only unreferenced garbage.
  fault_point("compact:pre-prune");
  prune_ckpt_files(dir_, manifest_);
  return st;
}

}  // namespace smartstore::persist
