#include "persist/delta_checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
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
    manifest_ = read_manifest(dir_);
    loaded_ = true;
    publish_stats_locked(manifest_);
  }
}

void DeltaEngine::publish_stats_locked(const DeltaManifest& m) {
  chain_len_.store(m.cuts.size(), std::memory_order_relaxed);
  chain_bytes_.store(m.delta_bytes(), std::memory_order_relaxed);
  last_cut_seq_.store(m.last_cut_seq, std::memory_order_relaxed);
  base_id_.store(m.base_id, std::memory_order_relaxed);
}

void DeltaEngine::record_locked(const DeltaCutStats& st) {
  last_ = st;
  completed_.fetch_add(1, std::memory_order_relaxed);
  total_cow_copies_.fetch_add(st.cow_copies, std::memory_order_relaxed);
  total_mutations_during_.fetch_add(st.mutations_during,
                                    std::memory_order_relaxed);
}

DeltaCutStats DeltaEngine::last_stats() const {
  const util::MutexLock lock(mu_);
  return last_;
}

DeltaCutStats DeltaEngine::cut() {
  util::WallTimer t;
  const util::MutexLock lock(mu_);
  // No base to chain from yet: the first checkpoint is a fold.
  DeltaCutStats st = loaded_ ? cut_locked() : fold_locked();
  st.seconds = t.seconds();
  record_locked(st);
  return st;
}

DeltaCutStats DeltaEngine::cut_locked() {
  // The barrier: with every serving thread outside its operation, the
  // frontier and the commit seq describe one instant, and every stamped
  // record is committed by the frontier.
  WalFence fence;
  std::uint64_t cut_seq = 0;
  util::WallTimer phase;
  store_.mutation_barrier([&] {
    fence = wal_.frontier();
    cut_seq = store_.last_commit_seq();
  });

  DeltaCutStats st;
  st.freeze_s = phase.seconds();
  phase.reset();
  st.cut_seq = cut_seq;
  DeltaCut cutrec;
  cutrec.cut_id = manifest_.next_cut_id();
  cutrec.cut_seq = cut_seq;
  for (const ShardFence& f : fence.shards) {
    const std::uint64_t skip = manifest_.fenced_records(f.shard, f.generation);
    if (f.records <= skip) {
      // Cold unit: no records (data or structural) since the previous cut.
      ++st.units_cold;
      continue;
    }
    // The shard log may take concurrent appends while we read it; the
    // committed frontier prefix is durable and stable, and anything past
    // it (including a torn in-flight block) is beyond the slice we take.
    WalScan scan = scan_wal(ShardedWal::shard_path(dir_, f.shard));
    if (scan.generation != f.generation || scan.records.size() < f.records) {
      throw PersistError("delta cut: shard " + std::to_string(f.shard) +
                             " log moved under the engine",
                         PersistError::Code::kCorruption);
    }
    std::vector<WalRecord> slice(
        std::make_move_iterator(scan.records.begin() +
                                static_cast<std::ptrdiff_t>(skip)),
        std::make_move_iterator(scan.records.begin() +
                                static_cast<std::ptrdiff_t>(f.records)));
    const DeltaExtent ext = append_segment_extent(
        dir_, f.shard, slice, manifest_.segment_end(f.shard));
    st.delta_records += ext.records;
    st.delta_bytes += ext.length;
    ++st.units_contributing;
    cutrec.extents.push_back(ext);
  }

  if (cutrec.extents.empty()) {
    // Wholly cold store: publishing an empty cut would grow the chain for
    // nothing, and rebasing would churn generations. True no-op.
    st.noop = true;
    st.chain_len = manifest_.cuts.size();
    st.chain_bytes = manifest_.delta_bytes();
    return st;
  }

  DeltaManifest next = manifest_;
  next.manifest_id = manifest_.manifest_id + 1;
  next.last_cut_seq = cut_seq;
  next.fence = fence;
  next.cuts.push_back(std::move(cutrec));
  write_manifest(dir_, next);
  manifest_ = std::move(next);
  publish_stats_locked(manifest_);
  total_delta_bytes_.fetch_add(st.delta_bytes, std::memory_order_relaxed);
  cuts_.fetch_add(1, std::memory_order_relaxed);
  st.write_s = phase.seconds();
  phase.reset();

  // The crash window: manifest published, WAL not yet rebased. The fence
  // (generation match) makes recovery — and the next cut — skip exactly
  // the records the new delta carries.
  fault_point("delta:pre-rebase");
  wal_.rebase_to(fence);
  st.truncate_s = phase.seconds();

  st.chain_len = manifest_.cuts.size();
  st.chain_bytes = manifest_.delta_bytes();
  return st;
}

DeltaCutStats DeltaEngine::fold() {
  util::WallTimer t;
  const util::MutexLock lock(mu_);
  DeltaCutStats st = fold_locked();
  st.seconds = t.seconds();
  record_locked(st);
  return st;
}

DeltaCutStats DeltaEngine::fold_locked() {
  DeltaCutStats st;
  st.folded = true;
  const std::uint64_t next_id = manifest_.manifest_id + 1;

  std::error_code ec;
  fs::create_directories(ckpt_dir(dir_), ec);

  // FREEZE: the frontier is taken inside the exclusive section, at exactly
  // the frozen mutation boundary.
  WalFence fence;
  std::uint64_t cut_seq = 0;
  util::WallTimer phase;
  const std::uint64_t epoch = store_.begin_checkpoint([&] {
    fence = wal_.frontier();
    cut_seq = store_.last_commit_seq();
  });
  st.freeze_s = phase.seconds();
  phase.reset();
  st.cut_seq = cut_seq;

  // WRITE (concurrent with serving), then PUBLISH + TRUNCATE. Any failure,
  // an injected crash included, must release the freeze so a surviving
  // store stops paying the copy-on-write tax.
  try {
    const std::string base = base_path(dir_, next_id);
    save_snapshot_frozen(store_, base);
    const auto sz = fs::file_size(base, ec);
    if (!ec) st.base_bytes = static_cast<std::size_t>(sz);

    DeltaManifest next;
    next.manifest_id = next_id;
    next.base_id = next_id;
    next.last_cut_seq = cut_seq;
    next.fence = fence;
    write_manifest(dir_, next);
    manifest_ = std::move(next);
    loaded_ = true;
    publish_stats_locked(manifest_);
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
  st.cow_copies = store_.checkpoint_cow_copies();
  st.mutations_during = store_.mutation_epoch() - epoch;
  store_.end_checkpoint();

  // Superseded state: older bases and every segment (the chain is empty).
  // Failures here leave only unreferenced garbage.
  fault_point("compact:pre-prune");
  prune_ckpt_files(dir_, manifest_);
  return st;
}

}  // namespace smartstore::persist
