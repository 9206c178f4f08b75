// The Compactor's background slot under live traffic.
//
// A writer thread streams WAL-logged inserts through the db facade's write
// path (append under the routed unit's lock, group commit after it is
// released) while DeltaEngine cuts run on the Compactor's background
// thread and folds run on the test thread; the suite asserts the
// paper-level contract — a checkpoint taken while a writer streams
// inserts leaves a base + chain + WAL tail from which recover() restores
// every acknowledged write — plus the frozen view's copy-on-write
// semantics, the logged-reconfiguration replay, single-flight triggering
// and the fence accounting. This suite is a ThreadSanitizer target for the
// background checkpoint thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/smartstore.h"
#include "persist/compactor.h"
#include "persist/delta_checkpoint.h"
#include "persist/recovery.h"
#include "persist/segment.h"
#include "persist/snapshot.h"
#include "persist/wal_shard.h"
#include "trace/synth.h"

namespace {

using namespace smartstore;
using namespace smartstore::persist;

std::filesystem::path temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("smartstore_test_bgckpt_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::set<std::string> store_names(const core::SmartStore& s) {
  std::set<std::string> names;
  for (const auto& unit : s.units())
    for (const auto& f : unit.files()) names.insert(f.name);
  return names;
}

/// A built MSN-profile deployment over a temp directory, with the sharded
/// WAL and the delta engine attached but no checkpoint taken yet.
struct BgRig {
  BgRig(const std::filesystem::path& dir_in, std::size_t units,
        unsigned downscale)
      : dir(dir_in.string()),
        trace(trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42,
                                              downscale)),
        store([&] {
          core::Config c;
          c.num_units = units;
          c.seed = 7;
          return c;
        }()),
        wal(dir, units, /*group_commit=*/4),
        engine(store, wal, dir) {
    store.build(trace.files());
  }

  /// The db facade's write path: append under the routed unit's lock,
  /// group commit from the flush hook after it is released.
  void insert(const metadata::FileMetadata& f) {
    store.insert_file(
        f, 0.0,
        [&](core::UnitId target) {
          return wal.append(target, WalRecord::insert(f));
        },
        [&](core::UnitId target) { wal.maybe_commit(target); });
  }

  std::string dir;
  trace::SyntheticTrace trace;
  core::SmartStore store;
  ShardedWal wal;
  DeltaEngine engine;
};

TEST(BgCheckpoint, RestoresEveryAcknowledgedWriteUnderLiveInsertStream) {
  const auto dir = temp_dir("bg_live");
  BgRig rig(dir, 8, /*downscale=*/20);
  rig.engine.fold();
  Compactor compactor(rig.engine, /*max_chain_len=*/0, /*max_chain_bytes=*/0);

  const auto stream = rig.trace.make_insert_stream(300, 77);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      // Halfway through, wait until a fold is actually in its frozen
      // window so the second half of the stream provably rides along
      // with one (main folds continuously below, so this always
      // terminates; without the gate, a loaded machine can schedule the
      // whole stream before the first freeze).
      if (i == stream.size() / 2)
        while (!rig.store.checkpoint_active()) std::this_thread::yield();
      rig.insert(stream[i]);
    }
    done.store(true, std::memory_order_release);
  });

  // Checkpoint continuously while the stream runs: a cadence job (a cut)
  // on the background thread, then a fold on this one — both concurrent
  // with the writer.
  std::size_t checkpoints = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (compactor.trigger()) compactor.wait();
    compactor.compact_now();
    ++checkpoints;
  }
  writer.join();
  ASSERT_TRUE(compactor.trigger());  // a cut over the stream's tail
  compactor.wait();
  EXPECT_GE(checkpoints, 1u);
  // The gated second half of the stream overlapped a frozen window, so
  // mutations demonstrably rode along with a fold. (Whether they also
  // *copied* depends on which pieces were still unserialized at that
  // instant — FrozenViewExcludesMidFoldMutations asserts the COW
  // semantics deterministically.)
  EXPECT_GT(rig.engine.total_mutations_during(), 0u);

  // Every acknowledged write: the live store and the recovered one agree
  // exactly (inserts beyond the last fence replay from the rebased tail).
  rig.wal.commit_all();
  const RecoveryResult rec = recover(rig.dir);
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_EQ(rec.store->total_files(), rig.store.total_files());
  const std::set<std::string> got = store_names(*rec.store);
  EXPECT_EQ(got, store_names(rig.store));
  for (const auto& f : stream)
    ASSERT_TRUE(got.count(f.name)) << "acknowledged insert lost: " << f.name;
  std::filesystem::remove_all(dir);
}

TEST(BgCheckpoint, FrozenViewExcludesMidFoldMutations) {
  // Deterministic copy-on-write check, stepping through a fold's phases by
  // hand (DeltaEngine::fold runs them back to back): a mutation landing
  // between the freeze and the serialization must copy the pieces it
  // touches, and the published base must show the freeze-epoch state —
  // without the mutation — while the live store keeps it.
  const auto dir = temp_dir("bg_frozen");
  BgRig rig(dir, 6, /*downscale=*/40);
  const std::size_t files_at_freeze = rig.store.total_files();

  WalFence fence;
  rig.store.begin_checkpoint([&] { fence = rig.wal.frontier(); });
  const auto extra = rig.trace.make_insert_stream(3, 11);
  for (const auto& f : extra) rig.insert(f);
  EXPECT_GT(rig.store.checkpoint_cow_copies(), 0u);  // pieces were pending

  std::filesystem::create_directories(ckpt_dir(rig.dir));
  save_snapshot_frozen(rig.store, base_path(rig.dir, 1));
  DeltaManifest m;
  m.manifest_id = 1;
  m.base_id = 1;
  m.fence = fence;
  write_manifest(rig.dir, m);
  rig.wal.rebase_to(fence);
  rig.store.end_checkpoint();
  rig.wal.commit_all();

  // The image alone is the freeze-epoch state...
  const auto frozen = load_snapshot(base_path(rig.dir, 1));
  EXPECT_EQ(frozen->total_files(), files_at_freeze);
  const std::set<std::string> frozen_names = store_names(*frozen);
  for (const auto& f : extra) EXPECT_FALSE(frozen_names.count(f.name));
  // ...and image + WAL tail is the live state.
  const RecoveryResult rec = recover(rig.dir);
  EXPECT_EQ(rec.wal_records, extra.size());
  EXPECT_EQ(rec.store->total_files(), rig.store.total_files());
  EXPECT_EQ(store_names(*rec.store), store_names(rig.store));
  std::filesystem::remove_all(dir);
}

TEST(BgCheckpoint, ServesQueriesOnTheWritingThreadDuringCheckpoints) {
  const auto dir = temp_dir("bg_queries");
  BgRig rig(dir, 6, /*downscale=*/40);
  rig.engine.fold();
  Compactor compactor(rig.engine, /*max_chain_len=*/1, /*max_chain_bytes=*/0);

  const auto stream = rig.trace.make_insert_stream(120, 5);
  std::atomic<bool> done{false};
  std::size_t found = 0;
  std::thread serving([&] {
    for (const auto& f : stream) {
      rig.insert(f);
      // Query the file just inserted: on-line routing is exact, so it
      // must be visible immediately, checkpoint or no checkpoint.
      if (rig.store.point_query({f.name}, core::Routing::kOnline, 0.0).found)
        ++found;
    }
    done.store(true, std::memory_order_release);
  });

  std::size_t checkpoints = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (compactor.trigger()) {
      compactor.wait();
      ++checkpoints;
    }
  }
  serving.join();
  if (checkpoints == 0) {
    ASSERT_TRUE(compactor.trigger());
    compactor.wait();
  }
  EXPECT_EQ(found, stream.size());
  std::filesystem::remove_all(dir);
}

TEST(BgCheckpoint, LoggedReconfigurationReplaysIntoNewTopology) {
  const auto dir = temp_dir("bg_reconf");
  BgRig rig(dir, 6, /*downscale=*/40);
  rig.engine.fold();
  core::SmartStore& store = rig.store;
  const std::size_t base_units = store.units().size();

  // Reconfigure and mutate, never checkpointing afterwards: recovery must
  // replay the topology changes from the log alone.
  const core::UnitId added =
      store.add_storage_unit([&] { return rig.wal.log_add_unit(); });
  EXPECT_EQ(added, base_units);
  for (const auto& f : rig.trace.make_insert_stream(12, 9)) rig.insert(f);
  store.remove_storage_unit(1, [&] { return rig.wal.log_remove_unit(1); });
  const std::vector<metadata::AttrSubset> cands = {
      metadata::AttrSubset::from_mask(0x7u)};
  store.autoconfigure(cands, [&] { return rig.wal.log_autoconfigure(cands); });
  rig.wal.commit_all();

  // No index unit may stay hosted on the removed server: routing would
  // send every query crossing it to a dead node forever.
  auto hosts_on = [](const core::SmartStore& s, core::UnitId u) {
    std::size_t count = 0;
    std::vector<std::size_t> stack{s.tree().root_id()};
    while (!stack.empty()) {
      const auto& n = s.tree().node(stack.back());
      stack.pop_back();
      if (n.mapped_unit == u) ++count;
      if (n.level > 1)
        for (std::size_t c : n.children) stack.push_back(c);
    }
    return count;
  };
  EXPECT_EQ(hosts_on(store, 1), 0u);

  const RecoveryResult rec = recover(rig.dir);
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_EQ(rec.store->units().size(), base_units + 1);
  EXPECT_FALSE(rec.store->unit_active(1));
  EXPECT_EQ(hosts_on(*rec.store, 1), 0u);
  EXPECT_TRUE(rec.store->unit_active(added));
  EXPECT_EQ(rec.store->variants().size(), store.variants().size());
  EXPECT_EQ(rec.store->total_files(), store.total_files());
  EXPECT_EQ(store_names(*rec.store), store_names(store));
  std::filesystem::remove_all(dir);
}

TEST(BgCheckpoint, SecondTriggerWhileRunningIsRejected) {
  const auto dir = temp_dir("bg_reject");
  BgRig rig(dir, 6, /*downscale=*/30);
  Compactor compactor(rig.engine, 0, 0);

  // Hold the store's exclusive structure lock across both triggers: the
  // background job (a cut escalating to a fold on this fresh store) needs
  // that lock to begin, so the first job is provably still in flight
  // when the second trigger arrives.
  rig.store.mutation_barrier([&] {
    ASSERT_TRUE(compactor.trigger());
    EXPECT_TRUE(compactor.running());
    EXPECT_FALSE(compactor.trigger());
  });
  EXPECT_TRUE(compactor.wait());
  EXPECT_EQ(rig.engine.completed(), 1u);
  EXPECT_TRUE(rig.engine.last_stats().folded);
  EXPECT_GT(rig.engine.last_stats().base_bytes, 0u);

  // After completion a new checkpoint is accepted again.
  ASSERT_TRUE(compactor.trigger());
  EXPECT_TRUE(compactor.wait());
  EXPECT_EQ(rig.engine.completed(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(BgCheckpoint, FenceAccountingMatchesTheLog) {
  const auto dir = temp_dir("bg_fence");
  BgRig rig(dir, 6, /*downscale=*/40);
  rig.engine.fold();
  const auto stream = rig.trace.make_insert_stream(10, 3);
  for (std::size_t i = 0; i < 6; ++i) rig.insert(stream[i]);
  rig.wal.commit_all();
  std::vector<std::uint64_t> gen_before, records_before;
  for (std::size_t s = 0; s < rig.wal.num_shards(); ++s) {
    gen_before.push_back(rig.wal.generation(s));
    records_before.push_back(rig.wal.committed_records(s));
  }

  const DeltaCutStats st = rig.engine.cut();
  EXPECT_EQ(st.delta_records, 6u);
  EXPECT_EQ(st.units_contributing + st.units_cold, rig.wal.num_shards());
  // Each fenced prefix was rebased away under a fresh generation; a cold
  // shard keeps its log as it was.
  for (std::size_t s = 0; s < rig.wal.num_shards(); ++s) {
    EXPECT_EQ(rig.wal.committed_records(s), 0u) << "shard " << s;
    EXPECT_EQ(rig.wal.generation(s),
              gen_before[s] + (records_before[s] > 0 ? 1 : 0))
        << "shard " << s;
  }

  // Post-cut inserts live only in the tail; recovery stitches base, chain
  // and tail together.
  for (std::size_t i = 6; i < stream.size(); ++i) rig.insert(stream[i]);
  rig.wal.commit_all();
  const RecoveryResult rec = recover(rig.dir);
  EXPECT_EQ(rec.wal_fenced, 0u);  // generations changed: nothing to skip
  EXPECT_EQ(rec.wal_records, 4u);
  EXPECT_EQ(rec.delta_records, 6u);
  EXPECT_EQ(store_names(*rec.store), store_names(rig.store));
  std::filesystem::remove_all(dir);
}

}  // namespace
