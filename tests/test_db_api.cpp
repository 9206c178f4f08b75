// smartstore::db::Store facade: the failure modes an embedding file system
// has to survive — corrupt directories, double-opens, use-after-Close,
// Checkpoint racing Close — plus the happy-path contracts (open/recover
// round trip, WriteBatch ordering, query validation, properties).
//
// Runs under ASan and TSan in CI (the tsan preset filter includes db_api):
// the racing suites are the interesting targets there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "persist/fault.h"
#include "smartstore/smartstore.h"
#include "trace/synth.h"
#include "util/binary_io.h"
#include "util/crc32.h"

namespace {

using namespace smartstore;

std::filesystem::path temp_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("smartstore_test_db_") + name);
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

// ---- Options validation -----------------------------------------------------

TEST(DbApi, OpenRejectsBadOptions) {
  db::Options o = small_options();
  o.num_units = 0;
  EXPECT_TRUE(db::Store::Open(o, "x").status().IsInvalidArgument());

  o = small_options();
  EXPECT_TRUE(db::Store::Open(o, "").status().IsInvalidArgument());

  o = small_options();
  o.checkpoint_every = 10;
  o.in_memory = true;  // nothing to checkpoint
  EXPECT_TRUE(db::Store::Open(o, "x").status().IsInvalidArgument());
}

// ---- open / recover round trip ---------------------------------------------

TEST(DbApi, FreshOpenPutCheckpointReopen) {
  const auto dir = temp_dir("roundtrip");
  {
    auto store = open_or_die(small_options(), dir.string());
    EXPECT_FALSE(store->recovery_info().recovered);
    for (std::uint64_t i = 0; i < 40; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(store->Close().ok());
  }
  {
    auto store = open_or_die(small_options(), dir.string());
    EXPECT_TRUE(store->recovery_info().recovered);
    // The checkpoint subsumed every record: nothing left to replay.
    EXPECT_EQ(store->recovery_info().wal_records, 0u);
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
    EXPECT_EQ(v, "40");
    db::QueryRequest q = db::QueryRequest::Point("file_7.dat");
    q.routing = db::Routing::kOnline;
    auto r = store->Query(q);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found);
  }
  std::filesystem::remove_all(dir);
}

TEST(DbApi, CrashBeforeFirstCheckpointReplaysWal) {
  const auto dir = temp_dir("nosnap");
  {
    auto store = open_or_die(small_options(), dir.string());
    for (std::uint64_t i = 0; i < 25; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    ASSERT_TRUE(store->Flush().ok());
    store->Abandon();  // crash: WAL shards exist, no snapshot yet
  }
  {
    auto store = open_or_die(small_options(), dir.string());
    EXPECT_EQ(store->recovery_info().wal_records, 25u);
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
    EXPECT_EQ(v, "25");
  }
  std::filesystem::remove_all(dir);
}

TEST(DbApi, BulkloadSurvivesCrashBeforeExplicitCheckpoint) {
  // Bulkload is not WAL-logged, so it checkpoints before returning: a
  // crash after Bulkload + a few Puts must recover population AND puts —
  // not replay the puts onto an empty base image.
  const auto dir = temp_dir("bulk_crash");
  const auto tr = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 5,
                                                  /*downscale=*/50);
  {
    auto store = open_or_die(small_options(), dir.string());
    ASSERT_TRUE(store->Bulkload(tr.files()).ok());
    for (std::uint64_t i = 0; i < 15; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    ASSERT_TRUE(store->Flush().ok());
    store->Abandon();  // crash: no explicit Checkpoint ever ran
  }
  {
    auto store = open_or_die(small_options(), dir.string());
    EXPECT_TRUE(store->recovery_info().recovered);
    EXPECT_EQ(store->recovery_info().wal_records, 15u);
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
    EXPECT_EQ(std::stoull(v), tr.files().size() + 15);
  }
  std::filesystem::remove_all(dir);
}

TEST(DbApi, BulkloadRequiresEmptyStore) {
  const auto dir = temp_dir("bulkload");
  const auto tr = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 5,
                                                  /*downscale=*/50);
  auto store = open_or_die(small_options(), dir.string());
  ASSERT_TRUE(store->Put(make_file(1)).ok());
  EXPECT_TRUE(store->Bulkload(tr.files()).IsFailedPrecondition());
  std::filesystem::remove_all(dir);
}

// ---- corrupt directory ------------------------------------------------------

TEST(DbApi, OpenCorruptSnapshotIsTypedCorruption) {
  const auto dir = temp_dir("corrupt");
  {
    auto store = open_or_die(small_options(), dir.string());
    for (std::uint64_t i = 0; i < 10; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(store->Close().ok());
  }
  // Flip a byte in the middle of the checkpoint image: a section checksum
  // fails. The first checkpoint of a fresh store folds into
  // ckpt/base-1.bin.
  const auto snap = dir / "ckpt" / "base-1.bin";
  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    ASSERT_GT(size, 64);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }
  auto opened = db::Store::Open(small_options(), dir.string());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(DbApi, OpenGarbageManifestIsCorruptionNotCrash) {
  const auto dir = temp_dir("garbage");
  std::filesystem::create_directories(dir / "ckpt");
  {
    std::ofstream f(dir / "ckpt" / "MANIFEST", std::ios::binary);
    f << "this is not a manifest at all";
  }
  auto opened = db::Store::Open(small_options(), dir.string());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(DbApi, OpenRefusesBarePreManifestLayout) {
  // A snapshot.bin or wal.bin without ckpt/MANIFEST is the pre-manifest
  // single-log layout. There is no importer: Open must refuse rather than
  // build an empty store over it, and must leave the files untouched.
  for (const char* legacy : {"snapshot.bin", "wal.bin"}) {
    const auto dir = temp_dir("legacy");
    std::filesystem::create_directories(dir);
    {
      std::ofstream f(dir / legacy, std::ios::binary);
      f << "bytes from an older release";
    }
    auto opened = db::Store::Open(small_options(), dir.string());
    ASSERT_FALSE(opened.ok()) << legacy;
    EXPECT_TRUE(opened.status().IsFailedPrecondition())
        << legacy << ": " << opened.status().ToString();
    EXPECT_TRUE(std::filesystem::exists(dir / legacy));
    EXPECT_FALSE(std::filesystem::exists(dir / "ckpt"));
    std::filesystem::remove_all(dir);
  }
}

TEST(DbApi, OpenRefusesManifestWithAdoptedBase) {
  // Earlier builds adopted the pre-manifest layout's full image as the
  // manifest's base (base kind 1) on the first cut after a Bulkload. Such
  // a manifest is well formed, so Open must report the missing importer
  // as FailedPrecondition, not as Corruption, and leave it untouched.
  const auto dir = temp_dir("adopted_base");
  {
    auto store = open_or_die(small_options(), dir.string());
    ASSERT_TRUE(store->Put(make_file(1)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(store->Close().ok());
  }
  // The base-kind byte follows the 8-byte magic, the u32 format version
  // and the u64 manifest id; the trailing CRC covers everything between
  // the magic and itself, so it is re-sealed over the edited byte.
  const std::string manifest = (dir / "ckpt" / "MANIFEST").string();
  std::vector<std::uint8_t> bytes = util::read_file_bytes(manifest);
  constexpr std::size_t kKindOffset = 8 + 4 + 8;
  ASSERT_GT(bytes.size(), kKindOffset + 4);
  ASSERT_EQ(bytes[kKindOffset], 2u);
  bytes[kKindOffset] = 1;
  const std::uint32_t crc = util::crc32(bytes.data() + 8, bytes.size() - 12);
  for (std::size_t i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  persist::write_file_atomic_faulted(manifest, bytes, "fixture");

  auto opened = db::Store::Open(small_options(), dir.string());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsFailedPrecondition())
      << opened.status().ToString();
  EXPECT_EQ(util::read_file_bytes(manifest), bytes);
  std::filesystem::remove_all(dir);
}

/// Every file under `dir` with its bytes.
std::map<std::string, std::vector<std::uint8_t>> dir_contents(
    const std::filesystem::path& dir) {
  std::map<std::string, std::vector<std::uint8_t>> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    const std::string rel =
        std::filesystem::relative(e.path(), dir).generic_string();
    out[rel] = e.is_regular_file() ? util::read_file_bytes(e.path().string())
                                   : std::vector<std::uint8_t>{};
  }
  return out;
}

TEST(DbApi, OpenRefusesManifestChainingDeltaCuts) {
  // Earlier builds checkpointed by chaining delta cuts onto the base: each
  // cut copied the WAL records since the previous one into per-unit
  // segment files (ckpt/units/<u>.seg) and listed them in the manifest.
  // This build keeps those records in the WAL until a fold and has no
  // chain reader, so a manifest with a non-zero cut count — well formed,
  // checksums intact — is a layout it cannot read: Open must say so with
  // FailedPrecondition and change nothing in the directory.
  const auto dir = temp_dir("cut_chain");
  {
    auto store = open_or_die(small_options(), dir.string());
    ASSERT_TRUE(store->Put(make_file(1)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());  // a fold: base-1 + manifest
    ASSERT_TRUE(store->Close().ok());
  }
  // The manifest an earlier build published after one cut of two records
  // on unit 0: the fold's fields, then the chain — per cut its id, seq and
  // extents (unit, offset, length, records, CRC of the extent bytes) and a
  // chain CRC over the previous link's CRC and the cut's fields — and the
  // trailer CRC over everything after the magic.
  const std::string manifest = (dir / "ckpt" / "MANIFEST").string();
  std::vector<std::uint8_t> folded = util::read_file_bytes(manifest);
  ASSERT_GT(folded.size(), 8u + 8 + 4);
  util::BinaryWriter body;
  body.write_bytes(folded.data() + 8, folded.size() - 8 - 8 - 4);
  util::BinaryWriter cut;
  cut.write_u32(0);   // the chain's first link follows CRC 0
  cut.write_u64(1);   // cut id
  cut.write_u64(3);   // cut seq
  cut.write_u64(1);   // extents
  cut.write_u64(0);   // unit
  cut.write_u64(16);  // offset past the segment header
  cut.write_u64(96);  // length
  cut.write_u64(2);   // records
  cut.write_u32(0x5eed5eed);  // the extent bytes' CRC
  body.write_u64(1);  // cut count
  body.write_bytes(cut.buffer().data() + 4, cut.size() - 4);
  body.write_u32(util::crc32(cut.buffer().data(), cut.size()));
  util::BinaryWriter out;
  out.write_bytes(folded.data(), 8);  // magic
  out.write_bytes(body.buffer().data(), body.size());
  out.write_u32(util::crc32(body.buffer().data(), body.size()));
  persist::write_file_atomic_faulted(manifest, out.buffer(), "fixture");
  std::filesystem::create_directories(dir / "ckpt" / "units");
  persist::write_file_atomic_faulted(
      (dir / "ckpt" / "units" / "0.seg").string(),
      std::vector<std::uint8_t>(16 + 96, 0x5a), "fixture");

  const auto before = dir_contents(dir);
  auto opened = db::Store::Open(small_options(), dir.string());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsFailedPrecondition())
      << opened.status().ToString();
  EXPECT_EQ(dir_contents(dir), before);
  std::filesystem::remove_all(dir);
}

TEST(DbApi, OpenMissingSnapshotWithoutCreateIsNotFound) {
  const auto dir = temp_dir("missing");
  db::Options o = small_options();
  o.create_if_missing = false;
  auto opened = db::Store::Open(o, dir.string());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsNotFound()) << opened.status().ToString();
  // The refusal creates nothing: no directory, no LOCK file.
  EXPECT_FALSE(std::filesystem::exists(dir));

  // A store that crashed before its first checkpoint holds WAL shards and
  // no manifest: that is a deployment, and it recovers without create.
  {
    auto store = open_or_die(small_options(), dir.string());
    for (std::uint64_t i = 0; i < 25; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    ASSERT_TRUE(store->Flush().ok());
    store->Abandon();
  }
  auto reopened = db::Store::Open(o, dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery_info().wal_records, 25u);
  std::string v;
  ASSERT_TRUE((*reopened)->GetProperty("smartstore.total-files", &v));
  EXPECT_EQ(v, "25");
  ASSERT_TRUE((*reopened)->Close().ok());
  std::filesystem::remove_all(dir);
}

// ---- double-open (LOCK file) ------------------------------------------------

TEST(DbApi, DoubleOpenIsBusy) {
  const auto dir = temp_dir("lock");
  auto first = open_or_die(small_options(), dir.string());
  auto second = db::Store::Open(small_options(), dir.string());
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsBusy()) << second.status().ToString();

  // Close releases the lock; the directory opens cleanly again.
  ASSERT_TRUE(first->Close().ok());
  auto third = db::Store::Open(small_options(), dir.string());
  EXPECT_TRUE(third.ok()) << third.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(DbApi, AbandonReleasesLock) {
  const auto dir = temp_dir("lock_abandon");
  auto first = open_or_die(small_options(), dir.string());
  ASSERT_TRUE(first->Put(make_file(1)).ok());
  first->Abandon();  // crash simulation must not wedge the directory
  auto second = db::Store::Open(small_options(), dir.string());
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  std::filesystem::remove_all(dir);
}

// ---- use after Close --------------------------------------------------------

TEST(DbApi, OperationsAfterCloseFailTyped) {
  const auto dir = temp_dir("after_close");
  auto store = open_or_die(small_options(), dir.string());
  ASSERT_TRUE(store->Put(make_file(1)).ok());
  ASSERT_TRUE(store->Close().ok());
  ASSERT_TRUE(store->Close().ok());  // idempotent

  EXPECT_TRUE(store->Put(make_file(2)).IsFailedPrecondition());
  EXPECT_TRUE(store->Delete("file_1.dat").IsFailedPrecondition());
  db::WriteBatch batch;
  batch.Put(make_file(3));
  EXPECT_TRUE(store->Write(std::move(batch)).IsFailedPrecondition());
  // An empty batch passes the same gate: a closed store acknowledges
  // nothing.
  EXPECT_TRUE(store->Write(db::WriteBatch{}).IsFailedPrecondition());
  EXPECT_TRUE(
      store->Query(db::QueryRequest::Point("x")).status()
          .IsFailedPrecondition());
  EXPECT_TRUE(store->Checkpoint().IsFailedPrecondition());
  EXPECT_TRUE(store->Flush().IsFailedPrecondition());
  std::filesystem::remove_all(dir);
}

// ---- WriteBatch semantics ---------------------------------------------------

TEST(DbApi, WriteBatchAppliesInOrder) {
  const auto dir = temp_dir("batch");
  auto store = open_or_die(small_options(), dir.string());

  db::WriteBatch batch;
  for (std::uint64_t i = 0; i < 300; ++i) batch.Put(make_file(i));
  batch.Delete("file_7.dat");   // deletes order against the preceding puts
  batch.Delete("file_250.dat");
  batch.Delete("no_such_file"); // absent: not an error inside a batch
  ASSERT_TRUE(store->Write(std::move(batch)).ok());

  std::string v;
  ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
  EXPECT_EQ(v, "298");

  db::QueryRequest q = db::QueryRequest::Point("file_7.dat");
  q.routing = db::Routing::kOnline;
  auto r = store->Query(q);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);

  // Standalone Delete of an absent name IS typed NotFound.
  EXPECT_TRUE(store->Delete("no_such_file").IsNotFound());
  std::filesystem::remove_all(dir);
}

/// Put is not an upsert: a retried Put stores a second record, and two
/// names may carry one id. On a one-unit store both records land on one
/// unit; each stays deletable, the routed and the exact lookup agree
/// after every step, and the store ends empty.
TEST(DbApi, RepeatedNameOrIdStaysDeletable) {
  db::Options o = small_options();
  o.num_units = 1;
  o.in_memory = true;
  auto store = open_or_die(o, "");
  auto total_files = [&] {
    std::string v;
    EXPECT_TRUE(store->GetProperty("smartstore.total-files", &v));
    return v;
  };
  auto lookups_agree = [&](const std::string& name, bool found,
                           std::uint64_t id) {
    auto routed = store->Query(db::QueryRequest::Point(name));
    auto exact = store->Query(db::QueryRequest::Point(name), db::ReadOptions{});
    ASSERT_TRUE(routed.ok() && exact.ok()) << name;
    EXPECT_EQ(routed->found, found) << name;
    EXPECT_EQ(exact->found, found) << name;
    if (found) {
      EXPECT_EQ(routed->id, id) << name;
      EXPECT_EQ(exact->id, id) << name;
    }
  };

  metadata::FileMetadata dup = make_file(1);
  dup.name = "/dup/x";
  ASSERT_TRUE(store->Put(dup).ok());
  ASSERT_TRUE(store->Put(dup).ok());  // a retried Put
  EXPECT_EQ(total_files(), "2");
  ASSERT_TRUE(store->Delete(dup.name).ok());
  lookups_agree(dup.name, true, 1);
  ASSERT_TRUE(store->Delete(dup.name).ok());
  lookups_agree(dup.name, false, 0);
  EXPECT_TRUE(store->Delete(dup.name).IsNotFound());

  metadata::FileMetadata a = make_file(7);
  a.name = "/shared/a";
  metadata::FileMetadata b = make_file(7);
  b.name = "/shared/b";
  ASSERT_TRUE(store->Put(a).ok());
  ASSERT_TRUE(store->Put(b).ok());
  ASSERT_TRUE(store->Delete(a.name).ok());
  lookups_agree(a.name, false, 0);
  lookups_agree(b.name, true, 7);
  ASSERT_TRUE(store->Delete(b.name).ok());
  lookups_agree(b.name, false, 0);
  EXPECT_EQ(total_files(), "0");
}

TEST(DbApi, QueryValidation) {
  auto opened = db::Store::Open([] {
    db::Options o;
    o.num_units = 6;
    o.seed = 11;
    o.in_memory = true;
    return o;
  }(), "");
  ASSERT_TRUE(opened.ok());
  auto& store = *opened;

  EXPECT_TRUE(store->Query(db::QueryRequest::Point(""))
                  .status().IsInvalidArgument());

  // An empty filename is refused by every mutation: a record under it
  // could never be deleted or looked up. A batch holding one is refused
  // whole, before any op applies.
  metadata::FileMetadata unnamed = make_file(1);
  unnamed.name.clear();
  EXPECT_TRUE(store->Put(unnamed).IsInvalidArgument());
  EXPECT_TRUE(store->Delete("").IsInvalidArgument());
  db::WriteBatch batch;
  batch.Put(make_file(2));
  batch.Put(unnamed);
  EXPECT_TRUE(store->Write(std::move(batch)).IsInvalidArgument());
  std::string files;
  ASSERT_TRUE(store->GetProperty("smartstore.total-files", &files));
  EXPECT_EQ(files, "0");
  EXPECT_EQ(store->LatestSequence(), 0u);

  metadata::RangeQuery rq;
  rq.dims = metadata::AttrSubset::all();
  rq.lo = la::Vector(1, 0.0);  // wrong arity vs dims
  rq.hi = la::Vector(1, 1.0);
  EXPECT_TRUE(store->Query(db::QueryRequest::Range(rq))
                  .status().IsInvalidArgument());

  metadata::TopKQuery tq;
  tq.dims = metadata::AttrSubset::all();
  tq.point = la::Vector(tq.dims.size(), 0.0);
  tq.k = 0;
  EXPECT_TRUE(store->Query(db::QueryRequest::TopK(tq))
                  .status().IsInvalidArgument());

  // In-memory stores refuse durability operations, typed.
  EXPECT_TRUE(store->Checkpoint().IsFailedPrecondition());
  EXPECT_TRUE(store->Flush().IsFailedPrecondition());
}

// ---- fault injection through the boundary -----------------------------------

TEST(DbApi, InjectedFaultPoisonsStoreAndRecovers) {
  const auto dir = temp_dir("fault");
  std::size_t acked = 0;
  {
    auto store = open_or_die(small_options(), dir.string());
    persist::fault_arm(4);  // die at the 4th persistence write boundary
    db::Status last;
    for (std::uint64_t i = 0; i < 50; ++i) {
      last = store->Put(make_file(i));
      if (!last.ok()) break;
      ++acked;
    }
    persist::fault_disarm();
    ASSERT_TRUE(last.IsFaultInjected()) << last.ToString();
    ASSERT_LT(acked, 50u);
    // Poisoned: every later operation reports the crash.
    EXPECT_TRUE(store->Put(make_file(99)).IsFaultInjected());
    EXPECT_TRUE(store->Checkpoint().IsFaultInjected());
    // Close releases resources without committing the abandoned tail; the
    // crash itself was already reported by the Put that hit it.
    EXPECT_TRUE(store->Close().ok());
  }
  {
    // The directory recovers every Put acknowledged before the fault, and
    // at most the one it interrupted besides.
    auto store = open_or_die(small_options(), dir.string());
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
    EXPECT_GE(std::stoull(v), acked);
    EXPECT_LE(std::stoull(v), acked + 1);
    for (std::uint64_t i = 0; i < acked; ++i) {
      auto r = store->Query(db::QueryRequest::Point(make_file(i).name),
                            db::ReadOptions{});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->found) << "lost acked Put " << i;
    }
  }
  std::filesystem::remove_all(dir);
}

// ---- power cut: an acknowledged write is a durable write ---------------------

/// Default Options on four units: few enough shards that concurrent
/// writers share them.
db::Options power_cut_options() {
  db::Options o;
  o.num_units = 4;
  return o;
}

/// Reopens `dir` and counts the `names` an exact read finds.
std::size_t count_found(const std::string& dir,
                        const std::vector<std::string>& names) {
  auto store = open_or_die(power_cut_options(), dir);
  std::size_t found = 0;
  for (const std::string& name : names) {
    auto r = store->Query(db::QueryRequest::Point(name), db::ReadOptions{});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok() && r->found) ++found;
  }
  return found;
}

TEST(DbApi, PowerCutKeepsALoneAcknowledgedPut) {
  const auto dir = temp_dir("power_cut_one");
  {
    auto store = open_or_die(power_cut_options(), dir.string());
    ASSERT_TRUE(store->Put(make_file(7)).ok());
    store->Abandon();  // power cut right after the ack: no Flush, no Close
  }
  EXPECT_EQ(count_found(dir.string(), {make_file(7).name}), 1u);
  std::filesystem::remove_all(dir);
}

TEST(DbApi, PowerCutKeepsEveryAcknowledgedPutOfConcurrentWriters) {
  const auto dir = temp_dir("power_cut_many");
  constexpr std::uint64_t kWriters = 4;
  constexpr std::uint64_t kPuts = 500;
  std::vector<std::vector<std::string>> acked(kWriters);
  {
    auto store = open_or_die(power_cut_options(), dir.string());
    std::vector<std::thread> writers;
    for (std::uint64_t t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < kPuts; ++i) {
          const metadata::FileMetadata f = make_file(t * kPuts + i);
          if (store->Put(f).ok()) acked[t].push_back(f.name);
        }
      });
    }
    for (auto& w : writers) w.join();
    store->Abandon();  // power cut: nothing committed after the last ack
  }
  std::vector<std::string> names;
  for (const auto& a : acked) names.insert(names.end(), a.begin(), a.end());
  EXPECT_EQ(names.size(), kWriters * kPuts);
  EXPECT_EQ(count_found(dir.string(), names), names.size());
  std::filesystem::remove_all(dir);
}

// ---- a failed background checkpoint -----------------------------------------

TEST(DbApi, FailedBackgroundCheckpointFailsNoMutation) {
  // A background checkpoint that fails (here: the manifest publish, with a
  // directory in the way of MANIFEST.tmp) must not fail the mutation whose
  // cadence tick finds it: that mutation is applied and durable already,
  // so an error would invite a retry, and Put is not an upsert. The
  // failure waits for the next Checkpoint().
  const auto dir = temp_dir("bg_ckpt_failure");
  const auto obstacle = dir / "ckpt" / "MANIFEST.tmp";
  db::Options o = small_options();
  o.checkpoint_every = 1;
  {
    auto store = open_or_die(o, dir.string());
    std::filesystem::create_directories(obstacle);
    for (std::uint64_t i = 0; i < 4; ++i) {
      const db::Status s = store->Put(make_file(i));
      EXPECT_TRUE(s.ok()) << "Put " << i << ": " << s.ToString();
    }
    // A batch spanning cadence ticks applies every op.
    db::WriteBatch batch;
    for (std::uint64_t i = 4; i < 10; ++i) batch.Put(make_file(i));
    const db::Status ws = store->Write(std::move(batch));
    EXPECT_TRUE(ws.ok()) << ws.ToString();
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
    EXPECT_EQ(v, "10");

    const db::Status failed = store->Checkpoint();
    EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
    std::filesystem::remove_all(obstacle);
    const db::Status ok = store->Checkpoint();
    EXPECT_TRUE(ok.ok()) << ok.ToString();
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = open_or_die(small_options(), dir.string());
  std::string v;
  ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
  EXPECT_EQ(v, "10");
  for (std::uint64_t i = 0; i < 10; ++i) {
    auto r = store->Query(db::QueryRequest::Point(make_file(i).name),
                          db::ReadOptions{});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found) << make_file(i).name;
  }
  ASSERT_TRUE(store->Close().ok());
  std::filesystem::remove_all(dir);
}

// ---- Checkpoint racing Close ------------------------------------------------

TEST(DbApi, CheckpointRacingCloseIsClean) {
  for (int round = 0; round < 8; ++round) {
    const auto dir = temp_dir("ckpt_close");
    auto store = open_or_die(small_options(), dir.string());
    for (std::uint64_t i = 0; i < 60; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());

    std::atomic<bool> go{false};
    std::thread checkpointer([&] {
      while (!go.load(std::memory_order_acquire)) {}
      // Either the checkpoint wins (OK) or Close got there first
      // (FailedPrecondition) — never a crash, hang, or torn directory.
      const db::Status s = store->Checkpoint();
      EXPECT_TRUE(s.ok() || s.IsFailedPrecondition()) << s.ToString();
    });
    std::thread closer([&] {
      while (!go.load(std::memory_order_acquire)) {}
      const db::Status s = store->Close();
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
    go.store(true, std::memory_order_release);
    checkpointer.join();
    closer.join();

    // Whatever interleaving happened, the directory must reopen cleanly.
    auto reopened = db::Store::Open(small_options(), dir.string());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::string v;
    ASSERT_TRUE((*reopened)->GetProperty("smartstore.total-files", &v));
    EXPECT_EQ(v, "60");
    std::filesystem::remove_all(dir);
  }
}

TEST(DbApi, IntrospectionRacingCloseIsClean) {
  // GetProperty / GetCheckpointInfo dereference the WAL and checkpointer,
  // which Close frees — the reads must hold the lifecycle lock, or this
  // is a use-after-free under TSan/ASan.
  for (int round = 0; round < 8; ++round) {
    const auto dir = temp_dir("props_close");
    auto store = open_or_die(small_options(), dir.string());
    for (std::uint64_t i = 0; i < 40; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());

    std::atomic<bool> go{false};
    std::thread reader([&] {
      while (!go.load(std::memory_order_acquire)) {}
      std::string v;
      for (int i = 0; i < 50; ++i) {
        store->GetProperty("smartstore.wal.frontier", &v);
        store->GetProperty("smartstore.wal.committed-records", &v);
        (void)store->GetCheckpointInfo();
      }
    });
    std::thread closer([&] {
      while (!go.load(std::memory_order_acquire)) {}
      EXPECT_TRUE(store->Close().ok());
    });
    go.store(true, std::memory_order_release);
    reader.join();
    closer.join();
    std::filesystem::remove_all(dir);
  }
}

// ---- writers racing Close (lifecycle exclusion) -----------------------------

TEST(DbApi, WritersRacingCloseNeverTearState) {
  const auto dir = temp_dir("write_close");
  auto store = open_or_die(small_options(), dir.string());
  std::atomic<std::uint64_t> acked{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 400; ++i) {
        const db::Status s =
            store->Put(make_file(static_cast<std::uint64_t>(t) * 1000 + i));
        if (s.IsFailedPrecondition()) return;  // Close won
        ASSERT_TRUE(s.ok()) << s.ToString();
        acked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let some writes land, then close under the writers.
  while (acked.load(std::memory_order_relaxed) < 50) std::this_thread::yield();
  EXPECT_TRUE(store->Close().ok());
  for (auto& w : writers) w.join();

  // Every acknowledged write is durable: each Put committed before it
  // returned.
  auto reopened = db::Store::Open(small_options(), dir.string());
  ASSERT_TRUE(reopened.ok());
  std::string v;
  ASSERT_TRUE((*reopened)->GetProperty("smartstore.total-files", &v));
  EXPECT_EQ(std::stoull(v), acked.load());
  std::filesystem::remove_all(dir);
}

// ---- properties -------------------------------------------------------------

TEST(DbApi, PropertiesReportCountersAndSpace) {
  const auto dir = temp_dir("props");
  auto store = open_or_die(small_options(), dir.string());
  for (std::uint64_t i = 0; i < 20; ++i)
    ASSERT_TRUE(store->Put(make_file(i)).ok());
  db::QueryRequest q = db::QueryRequest::Point("file_3.dat");
  q.routing = db::Routing::kOnline;
  ASSERT_TRUE(store->Query(q).ok());

  std::string v;
  EXPECT_TRUE(store->GetProperty("smartstore.counters.puts", &v));
  EXPECT_EQ(v, "20");
  EXPECT_TRUE(store->GetProperty("smartstore.counters.point-queries", &v));
  EXPECT_EQ(v, "1");
  EXPECT_TRUE(store->GetProperty("smartstore.counters.point-hits", &v));
  EXPECT_EQ(v, "1");
  EXPECT_TRUE(store->GetProperty("smartstore.num-units", &v));
  EXPECT_EQ(v, "6");
  EXPECT_TRUE(store->GetProperty("smartstore.invariants-ok", &v));
  EXPECT_EQ(v, "1");
  EXPECT_TRUE(store->GetProperty("smartstore.space.total-bytes", &v));
  EXPECT_GT(std::stoull(v), 0u);
  EXPECT_TRUE(store->GetProperty("smartstore.wal.shards", &v));
  EXPECT_EQ(v, "6");
  EXPECT_TRUE(store->GetProperty("smartstore.wal.frontier", &v));
  EXPECT_FALSE(v.empty());
  EXPECT_FALSE(store->GetProperty("smartstore.no-such-property", &v));
  std::filesystem::remove_all(dir);
}

TEST(DbApi, RepeatedLookupReportsTheSameStats) {
  // A served lookup's stats describe that lookup alone: nothing in them
  // accumulates with the ops before it (a simulated latency did — each
  // op queued behind every earlier one on a clock that never drains). One
  // unit makes every lookup start at the unit holding the name, so the
  // 1st and the 20,000th are the same lookup.
  db::Options o = small_options();
  o.num_units = 1;
  o.fanout = 2;
  o.in_memory = true;
  auto store = open_or_die(o, "");
  const auto tr = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 5,
                                                  /*downscale=*/5);
  ASSERT_TRUE(store->Bulkload(tr.files()).ok());
  const db::QueryRequest q = db::QueryRequest::Point(tr.files()[7].name);
  db::QueryStats first;
  db::QueryStats last;
  for (int i = 0; i < 20000; ++i) {
    auto r = store->Query(q);
    ASSERT_TRUE(r.ok() && r->found);
    (i == 0 ? first : last) = r->stats;
  }
  EXPECT_EQ(first, last);
  EXPECT_EQ(first.groups_visited, 1u);
}

TEST(DbApi, BloomPropertiesTrackFilterGrowth) {
  // A store that starts empty grows its name filters with the population:
  // 6 units at fanout 8 double the paper's 1024 bits at 66, 132 and 264
  // files, reaching 8192 bits (~12 per expected group member) at 400.
  const auto dir = temp_dir("bloom_props");
  auto store = open_or_die(small_options(), dir.string());
  std::string v;
  ASSERT_TRUE(store->GetProperty("smartstore.bloom.bits", &v));
  EXPECT_EQ(v, "1024");
  ASSERT_TRUE(store->GetProperty("smartstore.bloom.resizes", &v));
  EXPECT_EQ(v, "0");
  for (std::uint64_t i = 0; i < 400; ++i)
    ASSERT_TRUE(store->Put(make_file(i)).ok());
  ASSERT_TRUE(store->GetProperty("smartstore.bloom.bits", &v));
  EXPECT_EQ(v, "8192");
  ASSERT_TRUE(store->GetProperty("smartstore.bloom.resizes", &v));
  EXPECT_EQ(v, "3");
  ASSERT_TRUE(store->GetProperty("smartstore.invariants-ok", &v));
  EXPECT_EQ(v, "1");
  std::filesystem::remove_all(dir);
}

TEST(DbApi, FilterGrowthIsRederivedOnRecovery) {
  // The checkpoint image keeps the geometry it was written with; the WAL
  // tail replays through the same inserts, so it grows the filters again
  // at the same populations.
  const auto dir = temp_dir("bloom_recover");
  std::string bits_before;
  {
    auto store = open_or_die(small_options(), dir.string());
    for (std::uint64_t i = 0; i < 250; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    for (std::uint64_t i = 250; i < 600; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.bloom.resizes", &v));
    EXPECT_GE(std::stoull(v), 2u);
    ASSERT_TRUE(store->GetProperty("smartstore.bloom.bits", &bits_before));
    ASSERT_TRUE(store->Flush().ok());
    store->Abandon();  // crash: the growth past the checkpoint is unlogged
  }
  {
    auto store = open_or_die(small_options(), dir.string());
    EXPECT_GT(store->recovery_info().wal_records, 0u);
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.bloom.bits", &v));
    EXPECT_EQ(v, bits_before);
    for (std::uint64_t i = 0; i < 600; ++i) {
      auto r = store->Query(db::QueryRequest::Point(make_file(i).name),
                            db::ReadOptions{});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->found) << i;
      EXPECT_EQ(r->id, i);
    }
  }
  std::filesystem::remove_all(dir);
}

// ---- MVCC snapshot reads / time travel --------------------------------------

db::QueryRequest select_all() {
  metadata::RangeQuery rq;
  rq.dims = metadata::AttrSubset({metadata::Attr::kFileSize});
  rq.lo = {-1e30};
  rq.hi = {1e30};
  return db::QueryRequest::Range(std::move(rq));
}

TEST(DbApi, PinnedSnapshotScanBitIdenticalUnderWriters) {
  db::Options o = small_options();
  o.in_memory = true;
  auto opened = db::Store::Open(o, "");
  ASSERT_TRUE(opened.ok());
  auto& store = *opened;
  for (std::uint64_t i = 0; i < 100; ++i)
    ASSERT_TRUE(store->Put(make_file(i)).ok());

  auto snap = store->GetSnapshot();
  ASSERT_TRUE(snap.ok());
  const db::ReadOptions at_pin{snap->sequence()};
  auto first = store->Query(select_all(), at_pin);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->ids.size(), 100u);

  // A writer streams inserts while the pinned scan replays: every replay
  // must be bit-identical to the first.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> acked{0};
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < 400 && !done.load(std::memory_order_acquire);
         ++i) {
      EXPECT_TRUE(store->Put(make_file(10000 + i)).ok());
      acked.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int round = 0; round < 20; ++round) {
    auto replay = store->Query(select_all(), at_pin);
    ASSERT_TRUE(replay.ok());
    ASSERT_EQ(replay->ids, first->ids) << "pinned scan diverged, round "
                                       << round;
  }
  done.store(true, std::memory_order_release);
  writer.join();

  // The same scan at the latest seq sees everything the writer landed.
  auto latest = store->Query(select_all(), db::ReadOptions{});
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->ids.size(), 100u + acked.load());

  // Quiesced oracle: a fresh store holding exactly the pinned population
  // returns the same canonical ids (snapshot scans are placement-free).
  auto oracle_opened = db::Store::Open(o, "");
  ASSERT_TRUE(oracle_opened.ok());
  auto& oracle = *oracle_opened;
  for (std::uint64_t i = 0; i < 100; ++i)
    ASSERT_TRUE(oracle->Put(make_file(i)).ok());
  auto want = oracle->Query(select_all(), db::ReadOptions{});
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(first->ids, want->ids);
}

TEST(DbApi, QueryAsOfReplaysAcrossCheckpointBoundary) {
  // query-as-of(seq) must replay a historical view even when the seq
  // predates a checkpoint AND a restart: the checkpoint image persists
  // per-record commit seqs, and WAL replay re-stamps the tail.
  const auto dir = temp_dir("time_travel");
  std::uint64_t seq_a = 0;
  {
    auto store = open_or_die(small_options(), dir.string());
    for (std::uint64_t i = 0; i < 30; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    seq_a = store->LatestSequence();
    ASSERT_GT(seq_a, 0u);
    ASSERT_TRUE(store->Checkpoint().ok());
    for (std::uint64_t i = 100; i < 130; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    ASSERT_TRUE(store->Close().ok());
  }
  {
    auto store = open_or_die(small_options(), dir.string());
    EXPECT_TRUE(store->recovery_info().recovered);
    EXPECT_GE(store->LatestSequence(), seq_a);

    auto past = store->Query(select_all(), db::ReadOptions{seq_a});
    ASSERT_TRUE(past.ok());
    std::vector<metadata::FileId> want;
    for (std::uint64_t i = 0; i < 30; ++i) want.push_back(i);
    EXPECT_EQ(past->ids, want);  // batch A only, in canonical order

    auto now = store->Query(select_all(), db::ReadOptions{});
    ASSERT_TRUE(now.ok());
    EXPECT_EQ(now->ids.size(), 60u);

    // Point time travel agrees: batch B exists now, not at seq_a.
    auto then_pt = store->Query(db::QueryRequest::Point("file_100.dat"),
                                db::ReadOptions{seq_a});
    ASSERT_TRUE(then_pt.ok());
    EXPECT_FALSE(then_pt->found);
    auto now_pt = store->Query(db::QueryRequest::Point("file_100.dat"),
                               db::ReadOptions{});
    ASSERT_TRUE(now_pt.ok());
    EXPECT_TRUE(now_pt->found);
  }
  std::filesystem::remove_all(dir);
}

TEST(DbApi, CommitClockSurvivesReopenPastAFoldedNoOpRemove) {
  // A replicated remove of an absent name consumes its seq without
  // applying anything. Once a fold has taken it into the base and rebased
  // the WAL, no log record is left to resume the clock from: replay must
  // advance past every record it reads, applied or not, and recovery must
  // resume at no less than the manifest's fold seq.
  const auto dir = temp_dir("clock_resume");
  {
    auto store = open_or_die(small_options(), dir.string());
    ASSERT_TRUE(store->Checkpoint().ok());  // the first checkpoint folds
    std::vector<db::ReplicatedOp> ops(2);
    ops[0].seq = 1;
    ops[0].file = make_file(1);
    ops[1].is_insert = false;
    ops[1].seq = 2;
    ops[1].name = "never_inserted.dat";
    ASSERT_TRUE(store->ApplyReplicated(ops, nullptr).ok());
    EXPECT_EQ(store->LatestSequence(), 2u);
    // The base holds nothing: two logged records fold into a fresh one.
    ASSERT_TRUE(store->Checkpoint().ok());
    std::string folds;
    ASSERT_TRUE(store->GetProperty("smartstore.ckpt.delta-folds", &folds));
    EXPECT_EQ(folds, "2");
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = open_or_die(small_options(), dir.string());
  EXPECT_EQ(store->LatestSequence(), 2u);
  std::string next;
  ASSERT_TRUE(store->GetProperty("smartstore.wal.next-seq", &next));
  EXPECT_EQ(next, "3");
  ASSERT_TRUE(store->Put(make_file(3)).ok());
  EXPECT_EQ(store->LatestSequence(), 3u);
  // An as-of-2 read answers as it did before the restart.
  auto at2 = store->Query(select_all(), db::ReadOptions{2});
  ASSERT_TRUE(at2.ok());
  EXPECT_EQ(at2->ids, std::vector<metadata::FileId>{1});
  std::filesystem::remove_all(dir);
}

TEST(DbApi, BootstrapFrontierSurvivesReopen) {
  // A follower's bootstrap jumps its clock to the primary's frontier with
  // no log record of its own. The jump must outlive a restart, or the
  // ApplyReplicated gate would re-apply ops the dump already holds.
  const auto dir = temp_dir("bootstrap_frontier");
  const std::vector<metadata::FileMetadata> dump = {make_file(1), make_file(2),
                                                    make_file(3)};
  {
    auto store = open_or_die(small_options(), dir.string());
    ASSERT_TRUE(store->LoadBootstrap(10, dump).ok());
    EXPECT_EQ(store->LatestSequence(), 10u);
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = open_or_die(small_options(), dir.string());
  EXPECT_EQ(store->LatestSequence(), 10u);
  std::string v;
  ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
  EXPECT_EQ(v, "3");
  // A replayed op the dump already covers is skipped; the next one lands.
  std::vector<db::ReplicatedOp> ops(2);
  ops[0].seq = 9;
  ops[0].file = make_file(9);
  ops[1].seq = 11;
  ops[1].file = make_file(11);
  std::uint64_t frontier = 0;
  ASSERT_TRUE(store->ApplyReplicated(ops, &frontier).ok());
  EXPECT_EQ(frontier, 11u);
  ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
  EXPECT_EQ(v, "4");
  std::filesystem::remove_all(dir);
}

}  // namespace
