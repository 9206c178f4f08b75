// The Compactor's background slot under live traffic.
//
// A writer thread streams WAL-logged inserts through the db facade's write
// path (append under the routed unit's lock, commit after it is
// released) while DeltaEngine checkpoints run on the Compactor's
// background thread and folds run on the test thread; the suite asserts
// the paper-level contract — a checkpoint taken while a writer streams
// inserts leaves a base + WAL tail from which recover() restores every
// acknowledged write — plus the frozen view a fold writes as of its pinned
// seq (inserts, deletes, a released pin and topology changes inside its
// window; re-homing refused there), the reconfiguration a fold captures,
// single-flight triggering and the fence accounting. This suite is a
// ThreadSanitizer target for the background checkpoint thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
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
        wal(dir, units),
        engine(store, wal, dir) {
    store.build(trace.files());
    store.attach_journal(&wal);
  }

  void insert(const metadata::FileMetadata& f) { store.insert_file(f, 0.0); }

  std::string dir;
  trace::SyntheticTrace trace;
  core::SmartStore store;
  ShardedWal wal;
  DeltaEngine engine;
};

/// A first fold of `rig`, stepped by hand through the phases
/// DeltaEngine::fold runs back to back, with `in_window` run between its
/// freeze and its image write. The base alone must be the store at the
/// freeze — it loads, passes check_invariants and holds exactly the names
/// and the count the store held there — and base plus WAL tail must
/// recover the live store.
void fold_with_window(BgRig& rig, const std::function<void()>& in_window) {
  const std::set<std::string> names_at_freeze = store_names(rig.store);
  const std::size_t files_at_freeze = rig.store.total_files();
  WalFence fence;
  const std::uint64_t frozen =
      rig.store.begin_checkpoint([&] { fence = rig.wal.frontier(); });
  in_window();
  EXPECT_GT(rig.store.last_commit_seq(), frozen) << "no write in the window";
  std::filesystem::create_directories(ckpt_dir(rig.dir));
  save_snapshot_frozen(rig.store, base_path(rig.dir, 1));
  DeltaManifest m;
  m.manifest_id = 1;
  m.base_id = 1;
  m.fold_seq = frozen;
  m.fence = fence;
  write_manifest(rig.dir, m);
  rig.wal.rebase_to(fence);
  rig.store.end_checkpoint();
  rig.wal.commit_all();

  std::unique_ptr<core::SmartStore> base;
  ASSERT_NO_THROW(base = load_snapshot(base_path(rig.dir, 1)));
  EXPECT_TRUE(base->check_invariants());
  EXPECT_EQ(base->total_files(), files_at_freeze);
  EXPECT_EQ(store_names(*base), names_at_freeze);
  const RecoveryResult rec = recover(rig.dir);
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_EQ(rec.store->total_files(), rig.store.total_files());
  EXPECT_EQ(store_names(*rec.store), store_names(rig.store));
}

TEST(BgCheckpoint, RestoresEveryAcknowledgedWriteUnderLiveInsertStream) {
  const auto dir = temp_dir("bg_live");
  BgRig rig(dir, 8, /*downscale=*/20);
  rig.engine.fold();
  Compactor compactor(rig.engine);

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

  // Checkpoint continuously while the stream runs: a cadence job (the one
  // checkpoint) on the background thread, then a fold on this one — both
  // concurrent with the writer.
  std::size_t checkpoints = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (compactor.trigger()) compactor.wait();
    rig.engine.fold();
    ++checkpoints;
  }
  writer.join();
  ASSERT_TRUE(compactor.trigger());  // a checkpoint over the stream's tail
  compactor.wait();
  EXPECT_GE(checkpoints, 1u);
  // The gated second half of the stream overlapped a frozen window, so
  // mutations demonstrably rode along with a fold.
  // (FrozenViewExcludesMidFoldMutations asserts what the image holds
  // then, deterministically.)
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
  // Deterministic check of the frozen view, stepping through a fold's
  // phases by hand (DeltaEngine::fold runs them back to back): a mutation
  // landing between the freeze and the serialization stays out of the
  // published base, which shows the state at the frozen seq — without the
  // mutation — while the live store keeps it.
  const auto dir = temp_dir("bg_frozen");
  BgRig rig(dir, 6, /*downscale=*/40);
  const std::size_t files_at_freeze = rig.store.total_files();

  WalFence fence;
  const std::uint64_t frozen_seq =
      rig.store.begin_checkpoint([&] { fence = rig.wal.frontier(); });
  const auto extra = rig.trace.make_insert_stream(3, 11);
  for (const auto& f : extra) rig.insert(f);
  // Every insert landed inside the frozen window.
  EXPECT_EQ(rig.store.last_commit_seq() - frozen_seq, extra.size());

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

  // Deletes of frozen records: each record is live at the frozen seq, so
  // the base holds it although the live unit no longer does.
  {
    BgRig r(temp_dir("bg_frozen_deletes"), 6, /*downscale=*/40);
    fold_with_window(r, [&] {
      for (std::size_t i = 0; i < 5; ++i)
        ASSERT_TRUE(r.store.erase_file(r.trace.files()[i * 11].name));
    });
    std::filesystem::remove_all(r.dir);
  }
  // An insert followed by its delete: the record lives and dies after the
  // frozen seq, so the base never holds it.
  {
    BgRig r(temp_dir("bg_frozen_churn"), 6, /*downscale=*/40);
    fold_with_window(r, [&] {
      for (const auto& f : r.trace.make_insert_stream(4, 12)) {
        r.insert(f);
        ASSERT_TRUE(r.store.erase_file(f.name));
      }
    });
    std::filesystem::remove_all(r.dir);
  }
  // The release of an older pin: deletes before the freeze leave
  // tombstones only that pin keeps. Inside the window the pin goes, and a
  // delete on each of those units prunes them mid-fold; the base still
  // holds every record live at the frozen seq.
  {
    BgRig r(temp_dir("bg_frozen_unpin"), 6, /*downscale=*/40);
    std::shared_ptr<void> older = r.store.pin_snapshot(nullptr);
    std::vector<std::string> in_window;
    for (core::UnitId u = 0; u < 3; ++u) {
      const auto& files = r.store.units()[u].files();
      ASSERT_GE(files.size(), 2u);
      const std::string before_freeze = files[0].name;
      in_window.push_back(files[1].name);
      ASSERT_TRUE(r.store.erase_file(before_freeze));
    }
    ASSERT_EQ(r.store.tombstone_count(), 3u);
    fold_with_window(r, [&] {
      older.reset();
      for (const std::string& name : in_window)
        ASSERT_TRUE(r.store.erase_file(name));
      // Only the fold's own pin is left: the tombstones of the deletes
      // before the freeze are gone, those of the window's deletes stay.
      EXPECT_EQ(r.store.tombstone_count(), in_window.size());
    });
    std::filesystem::remove_all(r.dir);
  }
}

TEST(BgCheckpoint, TopologyChangesInsideTheFrozenWindow) {
  // Unit admission, autoconfigure, reconfigure and a filter-growth step
  // change no record's seq: a fold that froze before them still writes
  // the store as of its seq, a base equal to the freeze state. No journal:
  // the growth step needs hundreds of inserts, and the base is what is
  // checked here.
  const auto tr =
      trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42, 40);
  core::Config cfg;
  cfg.num_units = 6;
  cfg.seed = 7;
  core::SmartStore store(cfg);
  store.build(tr.files());
  const auto dir = temp_dir("bg_topology");
  std::filesystem::create_directories(dir);
  const auto stream = tr.make_insert_stream(4000, 21);
  std::size_t next = 0;

  const std::set<std::string> names = store_names(store);
  const std::size_t files = store.total_files();
  const std::size_t units = store.units().size();
  const std::size_t bits = store.bloom_bits();
  store.begin_checkpoint();
  store.erase_file(tr.files()[3].name);
  EXPECT_EQ(store.add_storage_unit(), units);
  for (; next < 20; ++next) store.insert_file(stream[next], 0.0);
  store.autoconfigure({metadata::AttrSubset::from_mask(0x7u)});
  store.reconfigure();
  const std::uint64_t resizes = store.bloom_resizes();
  while (store.bloom_resizes() == resizes && next < stream.size())
    store.insert_file(stream[next++], 0.0);
  ASSERT_GT(store.bloom_resizes(), resizes) << "no growth step in the window";
  ASSERT_GT(store.bloom_bits(), bits);
  const std::string path = (dir / "base.bin").string();
  save_snapshot_frozen(store, path);
  store.end_checkpoint();

  std::unique_ptr<core::SmartStore> base;
  ASSERT_NO_THROW(base = load_snapshot(path));
  EXPECT_TRUE(base->check_invariants());
  EXPECT_EQ(base->total_files(), files);
  EXPECT_EQ(store_names(*base), names);
  EXPECT_EQ(base->units().size(), units);
  EXPECT_EQ(base->bloom_bits(), bits);
  EXPECT_TRUE(base->variants().empty());
  std::filesystem::remove_all(dir);
}

TEST(BgCheckpoint, RehomingInsideTheFrozenWindowThrows) {
  // A unit removal moves records under their original seqs and a build
  // replaces them, which no read as of the frozen seq can tell apart from
  // the records it froze: both refuse while a fold is frozen (a check
  // under the exclusive structure lock, not an assertion), leave the
  // store as it was, and the fold publishes a base that loads.
  BgRig rig(temp_dir("bg_rehome"), 6, /*downscale=*/40);
  fold_with_window(rig, [&] {
    const std::set<std::string> names = store_names(rig.store);
    const std::size_t files = rig.store.total_files();
    EXPECT_THROW(rig.store.remove_storage_unit(1), std::logic_error);
    EXPECT_THROW(rig.store.build(rig.trace.make_insert_stream(50, 3)),
                 std::logic_error);
    EXPECT_TRUE(rig.store.unit_active(1));
    EXPECT_EQ(rig.store.units().size(), 6u);
    EXPECT_EQ(rig.store.total_files(), files);
    EXPECT_EQ(store_names(rig.store), names);
    EXPECT_TRUE(rig.store.check_invariants());
    rig.insert(rig.trace.make_insert_stream(1, 4).front());
  });
  // Outside a fold both run as before.
  rig.store.remove_storage_unit(1);
  EXPECT_FALSE(rig.store.unit_active(1));
  EXPECT_TRUE(rig.store.check_invariants());
  std::filesystem::remove_all(rig.dir);
}

TEST(BgCheckpoint, ServesQueriesOnTheWritingThreadDuringCheckpoints) {
  const auto dir = temp_dir("bg_queries");
  BgRig rig(dir, 6, /*downscale=*/40);
  rig.engine.fold();
  Compactor compactor(rig.engine);

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

  // The stream is short of the base, so the background checkpoints write
  // nothing; the folds on this thread freeze under the serving thread.
  std::size_t checkpoints = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (compactor.trigger()) compactor.wait();
    rig.engine.fold();
    ++checkpoints;
  }
  serving.join();
  EXPECT_GE(checkpoints, 1u);
  EXPECT_EQ(found, stream.size());
  std::filesystem::remove_all(dir);
}

TEST(BgCheckpoint, FoldCapturesReconfiguredTopology) {
  const auto dir = temp_dir("bg_reconf");
  BgRig rig(dir, 6, /*downscale=*/40);
  rig.engine.fold();
  core::SmartStore& store = rig.store;
  const std::size_t base_units = store.units().size();

  // Reconfigure and mutate. A topology change writes no log record, so
  // the fold that follows is what makes the new shape durable: recovery
  // must come back in it.
  const core::UnitId added = store.add_storage_unit();
  EXPECT_EQ(added, base_units);
  for (const auto& f : rig.trace.make_insert_stream(12, 9)) rig.insert(f);
  store.remove_storage_unit(1);
  store.autoconfigure({metadata::AttrSubset::from_mask(0x7u)});
  rig.engine.fold();

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

/// Forwards to the WAL, but holds the next commit — and with it that
/// mutation's shared structure lock — until released.
class GateJournal final : public core::Journal {
 public:
  explicit GateJournal(ShardedWal& wal) : wal_(wal) {}
  void log_insert(core::UnitId unit, const metadata::FileMetadata& f,
                  std::uint64_t seq) override {
    wal_.log_insert(unit, f, seq);
  }
  void log_remove(core::UnitId unit, const std::string& name,
                  std::uint64_t seq) override {
    wal_.log_remove(unit, name, seq);
  }
  void commit(core::UnitId unit) override {
    entered.store(true, std::memory_order_release);
    while (!released.load(std::memory_order_acquire))
      std::this_thread::yield();
    wal_.commit(unit);
  }

  std::atomic<bool> entered{false};
  std::atomic<bool> released{false};

 private:
  ShardedWal& wal_;
};

TEST(BgCheckpoint, SecondTriggerWhileRunningIsRejected) {
  const auto dir = temp_dir("bg_reject");
  BgRig rig(dir, 6, /*downscale=*/30);
  Compactor compactor(rig.engine);

  // Park a writer inside its commit across both triggers: it holds the
  // store's structure lock shared, and the background job (the first
  // checkpoint of this fresh store, a fold) needs that lock exclusively
  // to freeze, so the first job is provably still in flight when the
  // second trigger arrives.
  GateJournal gate(rig.wal);
  rig.store.attach_journal(&gate);
  std::thread writer(
      [&] { rig.insert(rig.trace.make_insert_stream(1, 5).front()); });
  while (!gate.entered.load(std::memory_order_acquire))
    std::this_thread::yield();
  ASSERT_TRUE(compactor.trigger());
  EXPECT_TRUE(compactor.running());
  EXPECT_FALSE(compactor.trigger());
  gate.released.store(true, std::memory_order_release);
  writer.join();
  rig.store.attach_journal(&rig.wal);
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

  // Six records against a base of the whole trace: the checkpoint leaves
  // every shard as it was; the fold then fences all six.
  EXPECT_FALSE(rig.engine.checkpoint().folded);
  for (std::size_t s = 0; s < rig.wal.num_shards(); ++s) {
    EXPECT_EQ(rig.wal.generation(s), gen_before[s]) << "shard " << s;
    EXPECT_EQ(rig.wal.committed_records(s), records_before[s]);
  }
  EXPECT_TRUE(rig.engine.fold().folded);
  // Each fenced prefix was rebased away under a fresh generation; a cold
  // shard keeps its log as it was.
  for (std::size_t s = 0; s < rig.wal.num_shards(); ++s) {
    EXPECT_EQ(rig.wal.committed_records(s), 0u) << "shard " << s;
    EXPECT_EQ(rig.wal.generation(s),
              gen_before[s] + (records_before[s] > 0 ? 1 : 0))
        << "shard " << s;
  }

  // Post-fold inserts live only in the tail; recovery replays it over the
  // base.
  for (std::size_t i = 6; i < stream.size(); ++i) rig.insert(stream[i]);
  rig.wal.commit_all();
  const RecoveryResult rec = recover(rig.dir);
  EXPECT_EQ(rec.wal_fenced, 0u);  // generations changed: nothing to skip
  EXPECT_EQ(rec.wal_records, 4u);
  EXPECT_EQ(store_names(*rec.store), store_names(rig.store));
  std::filesystem::remove_all(dir);
}

}  // namespace
