// The checkpoint engine, end to end: the one checkpoint rule at the
// persist layer (DeltaEngine over a sharded WAL — a fold when there is no
// base or the log has grown to the base's size, nothing otherwise), folds
// and pruning, the Compactor's background slot running that rule, the
// pinned manifest bytes — and the db::Store facade wiring (Checkpoint and
// Compact(), the DumpSnapshot bootstrap payload on a durable store, typed
// I/O errors, the smartstore.ckpt.* properties, the measured records per
// commit, and the cadence-counter coalescing regression). The Compactor's
// background slot under live writer threads is test_bg_checkpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bloom/md5.h"
#include "core/smartstore.h"
#include "persist/compactor.h"
#include "persist/delta_checkpoint.h"
#include "persist/recovery.h"
#include "persist/segment.h"
#include "persist/wal_shard.h"
#include "smartstore/smartstore.h"
#include "util/binary_io.h"

namespace {

using namespace smartstore;
using namespace smartstore::persist;

std::filesystem::path temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("smartstore_test_delta_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

metadata::FileMetadata make_file(std::uint64_t id) {
  metadata::FileMetadata f;
  f.id = id;
  f.name = "file_" + std::to_string(id) + ".dat";
  for (std::size_t a = 0; a < metadata::kNumAttrs; ++a)
    f.attrs[a] = static_cast<double>((id * 31 + a * 7) % 1000);
  return f;
}

std::set<std::string> store_names(const core::SmartStore& s) {
  std::set<std::string> names;
  for (const auto& unit : s.units())
    for (const auto& f : unit.files()) names.insert(f.name);
  return names;
}

// ---- persist layer: DeltaEngine ---------------------------------------------

/// A SmartStore + ShardedWal + DeltaEngine triple over a temp directory,
/// with the WAL attached as the store's journal, as db::Store::Open does.
struct EngineRig {
  explicit EngineRig(const std::filesystem::path& dir_in)
      : dir(dir_in.string()), wal(dir, cfg().num_units) {
    store.build({});
    store.attach_journal(&wal);
  }
  static core::Config cfg() {
    core::Config c;
    c.num_units = 4;
    c.seed = 3;
    return c;
  }

  void insert(std::uint64_t id) {
    const auto f = make_file(id);
    store.insert_file(f, 0.0);
    inserted.insert(f.name);
  }

  std::string dir;
  core::SmartStore store{cfg()};
  ShardedWal wal;
  std::set<std::string> inserted;
};

/// Everything a checkpoint that writes nothing must leave alone: the
/// manifest id, every shard's generation, and the ckpt/ listing with each
/// file's size.
struct DiskState {
  std::uint64_t manifest_id = 0;
  std::vector<std::uint64_t> generations;
  std::map<std::string, std::uintmax_t> ckpt_files;

  static DiskState of(const EngineRig& rig) {
    DiskState d;
    d.manifest_id = read_manifest(rig.dir).manifest_id;
    for (std::size_t s = 0; s < rig.wal.num_shards(); ++s)
      d.generations.push_back(rig.wal.generation(s));
    for (const auto& e : std::filesystem::directory_iterator(
             std::filesystem::path(rig.dir) / "ckpt"))
      d.ckpt_files[e.path().filename().string()] = e.file_size();
    return d;
  }
  bool operator==(const DiskState& o) const {
    return manifest_id == o.manifest_id && generations == o.generations &&
           ckpt_files == o.ckpt_files;
  }
};

TEST(DeltaCkpt, CheckpointFoldsOnlyOnceTheLogHoldsTheBase) {
  const auto dir = temp_dir("rule");
  std::set<std::string> expect;
  {
    EngineRig rig(dir);
    DeltaEngine engine(rig.store, rig.wal, rig.dir);

    // No base yet: the first checkpoint folds, whatever the log holds.
    for (std::uint64_t i = 0; i < 8; ++i) rig.insert(i);
    EXPECT_TRUE(engine.checkpoint().folded);
    EXPECT_EQ(engine.folds(), 1u);
    const DiskState after_fold = DiskState::of(rig);

    // The base holds 8 files: checkpoints over 1..7 logged records write
    // nothing, rebase nothing and publish nothing.
    std::uint64_t next = 8;
    for (int logged = 1; logged < 8; ++logged) {
      rig.insert(next++);
      const CheckpointStats st = engine.checkpoint();
      EXPECT_FALSE(st.folded) << logged << " logged records";
      EXPECT_EQ(st.base_bytes, 0u);
      EXPECT_TRUE(DiskState::of(rig) == after_fold)
          << logged << " logged records changed the disk";
    }
    EXPECT_EQ(engine.folds(), 1u);

    // The 8th record since the base: the log holds as many as the base.
    rig.insert(next++);
    EXPECT_TRUE(engine.checkpoint().folded);
    EXPECT_EQ(engine.folds(), 2u);
    EXPECT_EQ(read_manifest(rig.dir).manifest_id, after_fold.manifest_id + 1);
    EXPECT_EQ(engine.completed(), 9u);  // every checkpoint counts

    // An engine opened over the same log learns the base's size (16) from
    // the store and the WAL: 5 records since the fold do not fold, 16 do.
    for (int i = 0; i < 5; ++i) rig.insert(next++);
    DeltaEngine reopened(rig.store, rig.wal, rig.dir);
    EXPECT_FALSE(reopened.checkpoint().folded);
    for (int i = 0; i < 10; ++i) rig.insert(next++);
    EXPECT_FALSE(reopened.checkpoint().folded);  // 15 < 16
    rig.insert(next++);
    EXPECT_TRUE(reopened.checkpoint().folded);
    expect = rig.inserted;
  }
  // Recovery: the last fold's base, no WAL tail left to replay.
  RecoveryResult rec = recover(dir.string());
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.used_manifest);
  EXPECT_EQ(rec.wal_records, 0u);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_EQ(store_names(*rec.store), expect);
  std::filesystem::remove_all(dir);
}

TEST(DeltaCkpt, FoldPrunesSupersededBases) {
  const auto dir = temp_dir("fold");
  std::set<std::string> expect;
  {
    EngineRig rig(dir);
    DeltaEngine engine(rig.store, rig.wal, rig.dir);
    for (std::uint64_t i = 0; i < 6; ++i) rig.insert(i);
    engine.checkpoint();  // fold #1 (no base yet)
    for (std::uint64_t i = 6; i < 10; ++i) rig.insert(i);

    // An explicit fold runs however short the tail is.
    const CheckpointStats fold = engine.fold();
    EXPECT_TRUE(fold.folded);
    EXPECT_GT(fold.base_bytes, 0u);
    EXPECT_EQ(engine.folds(), 2u);
    expect = rig.inserted;
  }
  // The superseded base image must be gone: exactly one base-<id>.bin
  // survives the fold's prune.
  std::size_t bases = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(dir / "ckpt")) {
    const std::string name = e.path().filename().string();
    if (name.rfind("base-", 0) == 0) ++bases;
  }
  EXPECT_EQ(bases, 1u);

  RecoveryResult rec = recover(dir.string());
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.used_manifest);
  EXPECT_EQ(rec.wal_records, 0u);
  EXPECT_EQ(store_names(*rec.store), expect);
  std::filesystem::remove_all(dir);
}

TEST(DeltaCkpt, CompactorRunsTheOneCheckpointInTheBackground) {
  const auto dir = temp_dir("compactor");
  EngineRig rig(dir);
  DeltaEngine engine(rig.store, rig.wal, rig.dir);
  Compactor compactor(engine);

  std::uint64_t next = 0;
  auto churn_and_checkpoint = [&](int n) {
    for (int i = 0; i < n; ++i) rig.insert(next++);
    EXPECT_TRUE(compactor.trigger());
    EXPECT_TRUE(compactor.wait());
    return engine.folds();
  };
  EXPECT_EQ(churn_and_checkpoint(3), 1u);  // no base yet: a base of 3
  EXPECT_EQ(churn_and_checkpoint(2), 1u);  // 2 < 3: nothing written
  EXPECT_EQ(churn_and_checkpoint(1), 2u);  // 3 >= 3: a base of 6
  EXPECT_EQ(churn_and_checkpoint(5), 2u);
  EXPECT_EQ(engine.completed(), 4u);

  RecoveryResult rec = recover(dir.string());
  ASSERT_TRUE(rec.store);
  EXPECT_EQ(rec.wal_records, 5u);
  EXPECT_EQ(store_names(*rec.store), rig.inserted);
  std::filesystem::remove_all(dir);
}

TEST(DeltaCkpt, FoldManifestBytesArePinned) {
  // The bytes write_manifest gives a manifest of the shape every fold
  // publishes: a base id, the fold's seq, a per-shard fence and a zero
  // cut count. Pinned because the SSMFTv01 (version 1) layout must not
  // move: builds that still chained delta cuts wrote these same bytes
  // for a fold, so a directory they folded opens here.
  const auto dir = temp_dir("manifest_pin");
  DeltaManifest m;
  m.manifest_id = 7;
  m.base_id = 7;
  m.fold_seq = 1234;
  m.fence.present = true;
  m.fence.shards = {{0, 0x1111, 5, 0}, {1, 0x2222, 0, 0}, {3, 0x3333, 9, 0}};
  write_manifest(dir.string(), m);
  const auto bytes =
      util::read_file_bytes((dir / "ckpt" / "MANIFEST").string());
  ASSERT_EQ(bytes.size(), 146u);
  EXPECT_EQ(bloom::md5(bytes.data(), bytes.size()).hex(),
            "5fa4223126e92a00f6117d7a1f97faf0");
  const DeltaManifest back = read_manifest(dir.string());
  EXPECT_EQ(back.manifest_id, 7u);
  EXPECT_EQ(back.base_id, 7u);
  EXPECT_EQ(back.fold_seq, 1234u);
  ASSERT_EQ(back.fence.shards.size(), 3u);
  EXPECT_EQ(back.fenced_records(3, 0x3333), 9u);
  EXPECT_EQ(back.fenced_records(3, 0x3334), 0u);  // a rebased shard

  // A real fold writes exactly these encodings of its own fields.
  const auto fold_dir = temp_dir("manifest_fold");
  {
    EngineRig rig(fold_dir);
    DeltaEngine engine(rig.store, rig.wal, rig.dir);
    for (std::uint64_t i = 0; i < 5; ++i) rig.insert(i);
    engine.fold();
  }
  const auto folded =
      util::read_file_bytes((fold_dir / "ckpt" / "MANIFEST").string());
  const auto redo = temp_dir("manifest_redo");
  write_manifest(redo.string(), read_manifest(fold_dir.string()));
  EXPECT_EQ(util::read_file_bytes((redo / "ckpt" / "MANIFEST").string()),
            folded);
  for (const auto& d : {dir, fold_dir, redo}) std::filesystem::remove_all(d);
}

// ---- db facade --------------------------------------------------------------

db::Options small_options() {
  db::Options o;
  o.num_units = 6;
  o.seed = 11;
  return o;
}

std::unique_ptr<db::Store> open_or_die(const db::Options& o,
                                       const std::string& path) {
  auto opened = db::Store::Open(o, path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

TEST(DeltaDb, CheckpointKeepsTheTailInTheWalUntilItHoldsTheBase) {
  const auto dir = temp_dir("db_roundtrip");
  {
    auto store = open_or_die(small_options(), dir.string());
    for (std::uint64_t i = 0; i < 30; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());  // fold (fresh store)
    for (std::uint64_t i = 30; i < 40; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());  // 10 < 30: writes nothing

    const db::CheckpointInfo info = store->GetCheckpointInfo();
    EXPECT_EQ(info.completed, 2u);
    EXPECT_EQ(info.delta_folds, 1u);
    EXPECT_EQ(info.delta_cuts, 0u);
    EXPECT_EQ(info.last_snapshot_bytes, 0u);  // the last one wrote nothing

    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.wal.committed-records", &v));
    EXPECT_EQ(v, "10");
    ASSERT_TRUE(store->GetProperty("smartstore.ckpt.delta-total-bytes", &v));
    EXPECT_EQ(v, "0");
    for (const char* gone : {"smartstore.ckpt.delta-cuts",
                             "smartstore.ckpt.delta-chain-len",
                             "smartstore.ckpt.delta-chain-bytes",
                             "smartstore.checkpoints.cow-copies"})
      EXPECT_FALSE(store->GetProperty(gone, &v)) << gone;
    ASSERT_TRUE(store->Close().ok());
  }
  {
    auto store = open_or_die(small_options(), dir.string());
    const db::RecoveryInfo& rec = store->recovery_info();
    EXPECT_TRUE(rec.recovered);
    EXPECT_EQ(rec.wal_records, 10u);
    EXPECT_EQ(rec.delta_cuts, 0u);
    EXPECT_EQ(rec.delta_records, 0u);
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
    EXPECT_EQ(v, "40");
    ASSERT_TRUE(store->Close().ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(DeltaDb, CompactFoldsTheTailAndSurvivesReopen) {
  const auto dir = temp_dir("db_compact");
  {
    auto store = open_or_die(small_options(), dir.string());
    for (int round = 0; round < 3; ++round) {
      for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(store->Put(make_file(round * 10 + i)).ok());
      ASSERT_TRUE(store->Checkpoint().ok());
    }
    // Rounds 1 and 2 fold (no base, then 10 >= 10); round 3 (10 < 20)
    // leaves its records in the WAL for the Compact() to fold.
    EXPECT_EQ(store->GetCheckpointInfo().delta_folds, 2u);
    ASSERT_TRUE(store->Compact().ok());
    const db::CheckpointInfo info = store->GetCheckpointInfo();
    EXPECT_EQ(info.delta_folds, 3u);
    EXPECT_GT(info.last_snapshot_bytes, 0u);
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.ckpt.delta-folds", &v));
    EXPECT_EQ(v, "3");
    ASSERT_TRUE(store->GetProperty("smartstore.wal.committed-records", &v));
    EXPECT_EQ(v, "0");
    ASSERT_TRUE(store->Close().ok());
  }
  {
    auto store = open_or_die(small_options(), dir.string());
    EXPECT_EQ(store->recovery_info().wal_records, 0u);
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
    EXPECT_EQ(v, "30");
    ASSERT_TRUE(store->Close().ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(DeltaDb, CheckpointPublishFailureIsIOErrorAndLosesNothing) {
  const auto dir = temp_dir("db_io_error");
  // The manifest publish opens MANIFEST.tmp for writing; a directory there
  // makes the OS refuse it, root or not.
  const auto obstacle = dir / "ckpt" / "MANIFEST.tmp";
  {
    auto store = open_or_die(small_options(), dir.string());
    for (std::uint64_t i = 0; i < 20; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    std::filesystem::create_directories(obstacle);
    db::Status s = store->Checkpoint();  // the first checkpoint: a fold
    EXPECT_TRUE(s.IsIOError()) << s.ToString();

    // The store keeps serving; with the obstacle gone the fold publishes.
    std::filesystem::remove_all(obstacle);
    ASSERT_TRUE(store->Checkpoint().ok());
    for (std::uint64_t i = 20; i < 30; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    std::filesystem::create_directories(obstacle);
    s = store->Compact();  // a fold of a 10-record tail
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_TRUE(store->Close().ok());
  }
  {
    auto store = open_or_die(small_options(), dir.string());
    EXPECT_EQ(store->recovery_info().wal_records, 10u);
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
    EXPECT_EQ(v, "30");
    db::QueryRequest q = db::QueryRequest::Point("file_25.dat");
    q.routing = db::Routing::kOnline;
    auto r = store->Query(q);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found);
    // The next fold publishes over the unreferenced image the failed one
    // left behind.
    std::filesystem::remove_all(obstacle);
    ASSERT_TRUE(store->Put(make_file(30)).ok());
    ASSERT_TRUE(store->Compact().ok());
    ASSERT_TRUE(store->Close().ok());
  }
  {
    auto store = open_or_die(small_options(), dir.string());
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
    EXPECT_EQ(v, "31");
    EXPECT_EQ(store->recovery_info().wal_records, 0u);
    ASSERT_TRUE(store->Close().ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(DeltaDb, DumpSnapshotMatchesContents) {
  const auto dir = temp_dir("db_dump");
  auto store = open_or_die(small_options(), dir.string());
  std::set<std::string> expect;
  for (std::uint64_t i = 0; i < 25; ++i) {
    ASSERT_TRUE(store->Put(make_file(i)).ok());
    expect.insert(make_file(i).name);
  }
  std::uint64_t seq = 0;
  auto dump = store->DumpSnapshot(&seq);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_GT(seq, 0u);
  std::set<std::string> got;
  for (const auto& f : *dump) got.insert(f.name);
  EXPECT_EQ(got, expect);
  ASSERT_TRUE(store->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(DeltaDb, GroupCommitEffectiveMeasuresRecordsPerCommit) {
  // The property is a measurement: records per commit block since Open.
  // A lone writer's Put commits its own record, so the blocks hold one.
  const auto dir = temp_dir("db_effective");
  auto store = open_or_die(small_options(), dir.string());
  std::string v;
  ASSERT_TRUE(store->GetProperty("smartstore.wal.group-commit.effective", &v));
  EXPECT_EQ(v, "0");  // no commit yet
  for (std::uint64_t i = 0; i < 200; ++i)
    ASSERT_TRUE(store->Put(make_file(i)).ok());
  ASSERT_TRUE(store->GetProperty("smartstore.wal.group-commit.effective", &v));
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(store->Close().ok());

  auto reopened = open_or_die(small_options(), dir.string());
  ASSERT_TRUE(reopened->GetProperty("smartstore.total-files", &v));
  EXPECT_EQ(v, "200");
  ASSERT_TRUE(reopened->Close().ok());
  std::filesystem::remove_all(dir);

  // Records logged before one commit share its block.
  const auto wal_dir = temp_dir("wal_effective");
  ShardedWal wal(wal_dir.string(), 1);
  for (std::uint64_t i = 0; i < 3; ++i) wal.log_insert(0, make_file(i), i + 1);
  EXPECT_EQ(wal.records_per_commit(), 0u);
  wal.commit(0);
  EXPECT_EQ(wal.records_per_commit(), 3u);
  EXPECT_EQ(wal.committed_records(0), 3u);
  std::filesystem::remove_all(wal_dir);
}

// Regression for the cadence-counter thundering herd: note_mutations used
// to reset the counter only when trigger() accepted the request, so while
// a checkpoint was in flight EVERY subsequent mutation re-took the
// coalescing lock and re-poked the checkpointer. Post-fix the counter
// resets unconditionally once a trigger attempt is made — single-threaded
// with checkpoint_every=1 the pending counter must therefore read 0 after
// every Put (the uncontended try_lock always succeeds).
TEST(DeltaDb, CadenceCounterResetsEvenWhenCheckpointInFlight) {
  const auto dir = temp_dir("db_cadence");
  db::Options o = small_options();
  o.checkpoint_every = 1;
  auto store = open_or_die(o, dir.string());
  for (std::uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(store->Put(make_file(i)).ok());
    std::string v;
    ASSERT_TRUE(
        store->GetProperty("smartstore.checkpoints.cadence-pending", &v));
    EXPECT_EQ(v, "0") << "mutation " << i
                      << " left the cadence counter armed";
  }
  ASSERT_TRUE(store->Close().ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
