// Crash-injection suite for the checkpoint protocol (sharded WAL + delta
// cuts and folds).
//
// Three attack angles on the same contract — recover() always lands on a
// consistent prefix of the acknowledged history, with no acknowledged
// write lost and nothing applied twice:
//
//   1. a deterministic fault-point sweep: one fixed workload (WAL-logged
//      inserts, delta cuts, folds, and a fold with inserts inside its
//      frozen window and ahead of its rebase) is killed at *every* fault
//      point it passes — every snapshot section boundary, atomic-publish
//      stage, WAL block boundary, segment append and rebase stage — and
//      recovery is verified from each crash state; the sweep must cross
//      every fault point src/persist/ declares;
//   2. a randomized oracle fuzz: insert/delete/reconfigure/cut/fold/
//      crash/recover against an in-memory name-set oracle (folds include
//      mutations landing mid-snapshot), with on-line point-query recall
//      checked after every recovery;
//   3. per-section snapshot corruption: one flipped bit in each
//      CRC-protected section (and in each stored CRC) must fail the load
//      cleanly with PersistError — no crash, no partially loaded store.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "persist/delta_checkpoint.h"
#include "persist/fault.h"
#include "persist/recovery.h"
#include "persist/segment.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "persist/wal_shard.h"
#include "recording_journal.h"
#include "trace/synth.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace smartstore::persist {
namespace {

using core::Config;
using core::Routing;
using core::SmartStore;
using metadata::AttrSubset;
using metadata::FileMetadata;

std::string temp_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("smartstore_crash_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::set<std::string> unit_names(const SmartStore& s) {
  std::set<std::string> out;
  for (const auto& u : s.units())
    for (const auto& f : u.files()) out.insert(f.name);
  return out;
}

/// A fold stepped by hand through the phases DeltaEngine::fold runs back
/// to back, so a test can mutate between them: `in_freeze` runs after the
/// freeze and before the base image is written (its mutations copy on
/// write and must stay out of the image), `before_rebase` after the
/// manifest publish (its records join the tail the rebase splices past
/// the fence). Returns the fence. A DeltaEngine caches the manifest, so
/// the caller rebuilds its engine afterwards.
WalFence stepped_fold(SmartStore& store, ShardedWal& wal,
                      const std::string& dir,
                      const std::function<void()>& in_freeze,
                      const std::function<void()>& before_rebase) {
  DeltaManifest next;
  next.manifest_id = read_manifest(dir).manifest_id + 1;
  next.base_id = next.manifest_id;
  store.begin_checkpoint([&] {
    next.fence = wal.frontier();
    next.last_cut_seq = store.last_commit_seq();
  });
  try {
    in_freeze();
    save_snapshot_frozen(store, base_path(dir, next.base_id));
    write_manifest(dir, next);
    before_rebase();
    wal.rebase_to(next.fence);
  } catch (...) {
    store.end_checkpoint();
    throw;
  }
  store.end_checkpoint();
  prune_ckpt_files(dir, next);
  return next.fence;
}

// ---- 1. deterministic fault-point sweep -------------------------------------

/// One logged insert's coordinates in the sharded log: which shard it
/// landed on and its position in that shard's record order.
struct ShardedInsert {
  std::string name;
  std::size_t shard = 0;
  std::uint64_t idx = 0;  ///< records logged to that shard before this one
};

struct ShardedScenarioResult {
  std::vector<ShardedInsert> inserts;        ///< every attempted insert
  std::vector<std::uint64_t> committed;      ///< per-shard durable records
                                             ///< when the crash hit
  std::set<std::string> base;
  bool completed = false;
  /// Pieces the stepped fold's in-window inserts copied on write.
  std::uint64_t cow_copies = 0;
  /// The stepped fold's rebase dropped a fenced prefix from a shard whose
  /// tail past the fence was non-empty.
  bool tail_spliced = false;
};

/// WAL-logged inserts over per-unit shards (one commit each), two delta
/// cuts growing a chain on the baseline fold's base image, a compaction
/// fold over that chain, a fold stepped by hand with inserts in its
/// frozen window and between its manifest publish and its rebase, a
/// third cut onto that base (slicing the spliced tail), a second engine
/// fold, and a trailing batch — so the sweep crosses every WAL commit,
/// segment-append, manifest-publish, image-write, rebase and prune
/// boundary, the image sections and rebase stages also with writes in
/// flight. Single-threaded for a deterministic fault sequence (the
/// multi-writer interleavings are test_concurrent's job; every crash
/// boundary is the same either way). The disarmed baseline fold gives
/// every crash state a manifest to recover from.
ShardedScenarioResult run_delta_crash_scenario(const std::string& dir,
                                               std::uint64_t arm_at) {
  ShardedScenarioResult res;

  fault_disarm();
  const auto tr = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42,
                                                  /*downscale=*/50);
  Config cfg;
  cfg.num_units = 6;
  cfg.seed = 7;
  SmartStore store(cfg);
  store.build(tr.files());
  res.base = unit_names(store);

  const auto stream = tr.make_insert_stream(22, 77);
  auto wal = std::make_unique<ShardedWal>(dir, cfg.num_units);
  // The journal records each insert's (shard, index) BEFORE the log
  // append: if the commit behind it crashes, the attempt is on file
  // but never counted durable (committed_records stays behind it).
  RecordingJournal journal(*wal);
  store.attach_journal(&journal);
  auto engine = std::make_unique<DeltaEngine>(store, *wal, dir);
  engine->fold();  // baseline: ckpt/base-1.bin + an empty-chain manifest

  // Durable frontiers are tracked CUMULATIVELY per shard: rebases drop
  // durable prefixes out of committed_records(), so the running `dropped`
  // baseline is added back — `committed[s] > idx` then compares in the
  // same coordinate system as the journal's cumulative indices. The
  // snapshots are taken only at points the scenario knows to be
  // quiescent; a crash leaves the previous (conservative) value, which can
  // only under-count acked writes, never over-count.
  std::vector<std::uint64_t> dropped(cfg.num_units, 0);
  auto snapshot_committed = [&] {
    res.committed.assign(wal->num_shards(), 0);
    for (std::size_t s = 0; s < wal->num_shards(); ++s)
      res.committed[s] =
          (s < dropped.size() ? dropped[s] : 0) + wal->committed_records(s);
  };
  // A successful cut/fold committed every shard at its barrier, so
  // everything logged so far is durable regardless of which shards the
  // rebase touched.
  auto mark_all_durable = [&] {
    if (dropped.size() < wal->num_shards()) dropped.resize(wal->num_shards());
    for (std::size_t s = 0; s < dropped.size(); ++s)
      dropped[s] = journal.logged(s);
    res.committed.assign(std::max(dropped.size(), wal->num_shards()), 0);
    for (std::size_t s = 0; s < res.committed.size(); ++s)
      res.committed[s] = s < dropped.size() ? dropped[s] : 0;
  };

  if (arm_at > 0) {
    fault_arm(arm_at);
  } else {
    fault_disarm();
  }
  try {
    auto logged_insert = [&](const FileMetadata& f) {
      store.insert_file(f, 0.0);
      snapshot_committed();
    };

    for (int i = 0; i < 4; ++i) logged_insert(stream[i]);
    engine->cut();  // cut #1: segment appends + manifest + rebase
    mark_all_durable();

    for (int i = 4; i < 7; ++i) logged_insert(stream[i]);
    engine->cut();  // cut #2: the chain grows
    mark_all_durable();

    for (int i = 7; i < 9; ++i) logged_insert(stream[i]);
    engine->fold();  // compaction: fresh base, empty chain, prune
    mark_all_durable();

    // A fold with writes inside it: two inserts land in the frozen window
    // (copied on write, kept out of the image), one more after the
    // manifest publish, so the rebase splices a non-empty tail.
    for (int i = 9; i < 13; ++i) logged_insert(stream[i]);
    const WalFence fence = stepped_fold(
        store, *wal, dir,
        [&] {
          snapshot_committed();  // the freeze committed every shard
          logged_insert(stream[13]);
          logged_insert(stream[14]);
          res.cow_copies = store.checkpoint_cow_copies();
        },
        [&] { logged_insert(stream[15]); });
    for (const ShardFence& f : fence.shards) {
      if (f.shard >= dropped.size()) dropped.resize(f.shard + 1, 0);
      dropped[f.shard] += f.records;
      res.tail_spliced = res.tail_spliced ||
                         (f.records > 0 && wal->committed_records(f.shard) > 0);
    }
    snapshot_committed();
    engine = std::make_unique<DeltaEngine>(store, *wal, dir);

    for (int i = 16; i < 18; ++i) logged_insert(stream[i]);
    engine->cut();  // cut #3: first cut onto the stepped fold's base
    mark_all_durable();

    for (int i = 18; i < 20; ++i) logged_insert(stream[i]);
    engine->fold();  // a second engine fold, over a non-empty chain
    mark_all_durable();

    for (int i = 20; i < 22; ++i) logged_insert(stream[i]);
    wal->commit_all();
    snapshot_committed();
    res.completed = true;
  } catch (const FaultInjected&) {
    wal->abandon();  // the process died: nothing may touch the files now
  }
  // Every attempted insert, from the journal's call log.
  for (const RecordingJournal::Call& c : journal.calls()) {
    if (c.kind == RecordingJournal::Kind::kInsert)
      res.inserts.push_back({c.name, c.unit, c.idx});
  }
  return res;
}

TEST(CrashInjection, DeltaCheckpointLosesNoAckedWriteAtAnyFaultPoint) {
  // Dry run: enumerate the workload's fault points.
  std::uint64_t total = 0;
  {
    const std::string dir = temp_dir("delta_dry");
    const ShardedScenarioResult dry = run_delta_crash_scenario(dir, 0);
    ASSERT_TRUE(dry.completed);
    // The stepped fold must really have had writes in flight: copies made
    // inside its frozen window, and a tail for its rebase to splice.
    EXPECT_GT(dry.cow_copies, 0u);
    EXPECT_TRUE(dry.tail_spliced);
    total = fault_points_passed();
    std::filesystem::remove_all(dir);
  }
  ASSERT_GT(total, 40u) << "the delta workload should cross many segment/"
                           "manifest/rebase/prune boundaries";

  std::set<std::string> fired;
  for (std::uint64_t k = 1; k <= total; ++k) {
    const std::string dir = temp_dir("delta_" + std::to_string(k));
    const ShardedScenarioResult r = run_delta_crash_scenario(dir, k);
    const std::string where = fault_last_fired();
    fault_disarm();
    ASSERT_FALSE(r.completed) << "fault " << k << " never fired";
    fired.insert(where);

    RecoveryResult rec;
    ASSERT_NO_THROW(rec = recover(dir))
        << "recovery failed after crash at point " << k << " (" << where
        << ")";
    ASSERT_TRUE(rec.store) << where;
    EXPECT_TRUE(rec.store->check_invariants()) << where;
    const std::set<std::string> got = unit_names(*rec.store);

    // 1. No acknowledged write lost: every record under a shard's durable
    //    frontier at crash time must survive base + delta chain + tail.
    for (const ShardedInsert& ins : r.inserts) {
      const bool acked = ins.shard < r.committed.size() &&
                         r.committed[ins.shard] > ins.idx;
      if (acked) {
        EXPECT_TRUE(got.count(ins.name))
            << "lost acked write " << ins.name << " (shard " << ins.shard
            << ") at point " << k << " (" << where << ")";
      }
    }
    // 2. Nothing applied twice: a folded delta replayed over a base that
    //    already contains it would duplicate ids — total_files() counts
    //    records, unit_names() dedups, so equality proves single-apply
    //    (check_invariants also cross-checks ids).
    EXPECT_EQ(rec.store->total_files(), got.size())
        << "double-applied record at point " << k << " (" << where << ")";
    // 3. Nothing invented.
    std::set<std::string> attempted;
    for (const ShardedInsert& ins : r.inserts) attempted.insert(ins.name);
    for (const auto& name : got) {
      EXPECT_TRUE(r.base.count(name) || attempted.count(name))
          << "unexpected survivor " << name << " at point " << k << " ("
          << where << ")";
    }
    // 4. Per-shard prefix: survivors form a prefix of each shard's order.
    std::map<std::size_t, std::vector<const ShardedInsert*>> by_shard;
    for (const ShardedInsert& ins : r.inserts)
      by_shard[ins.shard].push_back(&ins);
    for (const auto& [shard, list] : by_shard) {
      bool missing_seen = false;
      for (const ShardedInsert* ins : list) {
        const bool present = got.count(ins->name) > 0;
        if (!present) missing_seen = true;
        EXPECT_FALSE(present && missing_seen)
            << "non-prefix survivor " << ins->name << " in shard " << shard
            << " at point " << k << " (" << where << ")";
      }
    }
    std::filesystem::remove_all(dir);
  }

  // The sweep must actually have crossed every fault point src/persist/
  // declares — a silently skipped stage would void the whole exercise.
  // Keep this list in step with the fault_point() calls and the
  // write_file_atomic_faulted() prefixes there.
  for (const char* point : {
           "wal:commit:torn-block", "wal:commit:pre-sync",
           "wal:rebase:begin", "wal:rebase:torn-temp",
           "wal:rebase:pre-rename", "wal:rebase:pre-dirsync",
           "snapshot:section:config", "snapshot:section:standardizer",
           "snapshot:section:units", "snapshot:section:tree",
           "snapshot:section:variants", "snapshot:section:sync",
           "snapshot:write:torn-temp",
           "snapshot:write:pre-rename", "snapshot:write:pre-dirsync",
           "ckpt:manifest:torn-temp", "ckpt:manifest:pre-rename",
           "ckpt:manifest:pre-dirsync", "delta:seg:pre-truncate",
           "delta:seg:pre-append", "delta:seg:pre-sync", "delta:pre-rebase",
           "compact:pre-rebase", "compact:pre-prune"}) {
    EXPECT_TRUE(fired.count(point)) << "sweep never crossed " << point;
  }
}

// ---- 2. randomized oracle fuzz ----------------------------------------------

TEST(CrashOracle, RandomizedMutationsCrashesAndRecoveriesMatchOracle) {
  fault_disarm();
  const std::string dir = temp_dir("oracle");
  const auto tr = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42,
                                                  /*downscale=*/50);
  Config cfg;
  cfg.num_units = 8;
  cfg.seed = 7;
  auto store = std::make_unique<SmartStore>(cfg);
  store->build(tr.files());

  std::set<std::string> oracle = unit_names(*store);
  std::vector<std::string> live_names(oracle.begin(), oracle.end());

  // The durable pair a deployment runs: per-unit WAL shards attached as
  // the store's journal, and the delta engine over them. Opened the way
  // db::Store::Open does after recovery.
  std::unique_ptr<ShardedWal> wal;
  std::unique_ptr<DeltaEngine> engine;
  auto open_durable = [&] {
    wal = std::make_unique<ShardedWal>(dir, store->units().size());
    store->attach_journal(wal.get());
    engine = std::make_unique<DeltaEngine>(*store, *wal, dir);
  };
  open_durable();
  engine->fold();  // the base image every later crash recovers from

  const auto pool = tr.make_insert_stream(400, 123);
  std::size_t cursor = 0;
  util::Rng rng(2024);
  std::size_t crashes = 0, cuts = 0, folds = 0, stepped_folds = 0;

  auto insert_next = [&] {
    if (cursor >= pool.size()) return;
    const FileMetadata& f = pool[cursor++];
    store->insert_file(f, 0.0);
    oracle.insert(f.name);
    live_names.push_back(f.name);
  };

  auto verify_against_oracle = [&](const SmartStore& s) {
    ASSERT_EQ(unit_names(s), oracle);
    ASSERT_TRUE(s.check_invariants());
    ASSERT_EQ(s.total_files(), oracle.size());
  };

  for (int step = 0; step < 240; ++step) {
    const double r = rng.uniform();
    if (r < 0.55 && cursor < pool.size()) {
      insert_next();
    } else if (r < 0.72 && !live_names.empty()) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_u64(live_names.size()));
      const std::string name = live_names[pick];
      live_names.erase(live_names.begin() +
                       static_cast<std::ptrdiff_t>(pick));
      if (oracle.count(name)) {
        ASSERT_TRUE(store->erase_file(name)) << name;
        oracle.erase(name);
      }
    } else if (r < 0.77) {
      // Topology changes log nothing: a crash before the next fold
      // recovers the last base's shape with every logged mutation
      // replayed into it, which leaves names and file count unchanged.
      store->add_storage_unit();
    } else if (r < 0.80) {
      // Remove a random active unit, keeping a quorum alive.
      std::vector<core::UnitId> active;
      for (core::UnitId u = 0; u < store->units().size(); ++u)
        if (store->unit_active(u)) active.push_back(u);
      if (active.size() > 5) {
        const core::UnitId u = active[static_cast<std::size_t>(
            rng.uniform_u64(active.size()))];
        store->remove_storage_unit(u);
      }
    } else if (r < 0.84) {
      store->autoconfigure(
          {AttrSubset::from_mask(0x7u), AttrSubset::from_mask(0x1Fu)});
    } else if (r < 0.92) {
      // Checkpoint: mostly cuts growing the chain, sometimes a fold —
      // the engine's, or one stepped by hand with a mutation landing
      // mid-snapshot (COW path) and another ahead of the rebase (a tail
      // it splices past the fence).
      const double kind = rng.uniform();
      if (kind < 0.6) {
        engine->cut();
        ++cuts;
      } else if (kind < 0.8) {
        engine->fold();
        ++folds;
      } else {
        stepped_fold(*store, *wal, dir, insert_next, insert_next);
        engine = std::make_unique<DeltaEngine>(*store, *wal, dir);
        ++stepped_folds;
      }
    } else {
      // Simulated crash at a commit boundary, then recovery.
      wal->commit_all();
      engine.reset();
      wal.reset();
      store.reset();
      RecoveryResult rec = recover(dir);
      store = std::move(rec.store);
      open_durable();
      ++crashes;
      verify_against_oracle(*store);

      // On-line point routing is exact: every oracle member must resolve.
      std::size_t probes = 0;
      for (const auto& name : oracle) {
        if (++probes > 15) break;
        const auto res = store->point_query({name}, Routing::kOnline, 0.0);
        EXPECT_TRUE(res.found) << name << " lost after crash " << crashes;
      }
    }
  }

  // Final crash + recovery + full comparison.
  wal->commit_all();
  engine.reset();
  wal.reset();
  store.reset();
  RecoveryResult rec = recover(dir);
  ASSERT_TRUE(rec.store);
  verify_against_oracle(*rec.store);
  EXPECT_GE(crashes, 1u);
  EXPECT_GE(cuts, 1u);
  EXPECT_GE(folds, 1u);
  EXPECT_GE(stepped_folds, 1u);
  std::filesystem::remove_all(dir);
}

// ---- 3. per-section snapshot corruption -------------------------------------

struct SectionSpan {
  std::uint32_t id = 0;
  std::size_t payload_off = 0;
  std::size_t payload_len = 0;
  std::size_t crc_off = 0;
};

std::vector<SectionSpan> parse_sections(const std::vector<std::uint8_t>& b) {
  util::BinaryReader r(b);
  r.skip(sizeof(kSnapshotMagic));
  r.read_u32();  // format version
  const std::uint32_t nsections = r.read_u32();
  std::vector<SectionSpan> out;
  for (std::uint32_t i = 0; i < nsections; ++i) {
    SectionSpan s;
    s.id = r.read_u32();
    s.payload_len = static_cast<std::size_t>(r.read_u64());
    s.payload_off = r.position();
    r.skip(s.payload_len);
    s.crc_off = r.position();
    r.read_u32();
    out.push_back(s);
  }
  return out;
}

/// `image` with the WALFENCE section (id 7) earlier builds appended to
/// every fold's base image: the zero legacy (generation, records) pair,
/// then one (shard, generation, records) frontier entry.
std::vector<std::uint8_t> with_legacy_walfence(std::vector<std::uint8_t> image) {
  util::BinaryWriter payload;
  for (std::uint64_t v : {0, 0, /*shards=*/1, 0, 99, 3}) payload.write_u64(v);
  util::BinaryWriter sec;
  sec.write_u32(7);
  sec.write_u64(payload.size());
  sec.write_bytes(payload.buffer().data(), payload.size());
  sec.write_u32(util::crc32(payload.buffer().data(), payload.size()));
  image.insert(image.end(), sec.buffer().begin(), sec.buffer().end());
  // The little-endian u32 section count follows the magic and version.
  ++image[sizeof(kSnapshotMagic) + 4];
  return image;
}

TEST(SnapshotCorruption, OneFlippedBitInAnySectionFailsLoadCleanly) {
  fault_disarm();
  const std::string dir = temp_dir("corrupt_sections");
  const auto tr = trace::SyntheticTrace::generate(trace::hp_profile(), 1, 42,
                                                  /*downscale=*/20);
  Config cfg;
  cfg.num_units = 8;
  cfg.seed = 7;
  SmartStore store(cfg);
  store.build(tr.files());
  // Variants so the VARIANTS section is non-trivial too.
  store.autoconfigure({AttrSubset::from_mask(0x7u)});
  const std::string path = dir + "/image.bin";
  save_snapshot(store, path);
  const auto image = util::read_file_bytes(path);
  ASSERT_NO_THROW(load_snapshot(path));
  ASSERT_EQ(parse_sections(image).size(), 6u);  // no WALFENCE written

  // An image from an earlier build still carries the retired WALFENCE
  // section: it must load, and that section must stay checksummed.
  const auto pristine = with_legacy_walfence(image);
  write_file_atomic_faulted(path, pristine, "fixture");
  ASSERT_NO_THROW(load_snapshot(path));
  const auto sections = parse_sections(pristine);
  ASSERT_EQ(sections.size(), 7u);  // 6 mandatory + the retired WALFENCE

  for (const SectionSpan& s : sections) {
    // A flipped payload bit must trip the section checksum.
    if (s.payload_len > 0) {
      auto bytes = pristine;
      bytes[s.payload_off + s.payload_len / 2] ^= 0x10;
      write_file_atomic_faulted(path, bytes, "fixture");
      EXPECT_THROW(load_snapshot(path), PersistError)
          << "payload flip in section " << s.id;
    }
    // A flipped bit in the stored CRC itself must fail identically.
    auto bytes = pristine;
    bytes[s.crc_off] ^= 0x01;
    write_file_atomic_faulted(path, bytes, "fixture");
    EXPECT_THROW(load_snapshot(path), PersistError)
        << "crc flip in section " << s.id;
  }

  // The pristine bytes still load: corruption detection has no side
  // effects on the on-disk image.
  write_file_atomic_faulted(path, pristine, "fixture");
  EXPECT_NO_THROW(load_snapshot(path));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace smartstore::persist
