// The crash-consistent persistence layer: binary io bounds checking, CRC32
// vectors, snapshot round-trip fidelity (identical query results on an
// HP-profile deployment), corruption detection, WAL group commit, torn-tail
// recovery to the last commit boundary, and the checkpoint/recover protocol
// (a base fold plus the sharded WAL tail).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <string>

#include "core/ground_truth.h"
#include "persist/delta_checkpoint.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "persist/wal_shard.h"
#include "replica_reference.h"
#include "trace/query_gen.h"
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
using metadata::FileId;
using metadata::FileMetadata;

std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("smartstore_persist_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string image_path(const std::string& dir) { return dir + "/image.bin"; }

std::set<std::string> unit_names(const SmartStore& s) {
  std::set<std::string> out;
  for (const auto& u : s.units())
    for (const auto& f : u.files()) out.insert(f.name);
  return out;
}

// ---- binary io --------------------------------------------------------------

TEST(BinaryIo, PrimitivesRoundTrip) {
  util::BinaryWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFULL);
  w.write_f64(-1234.5678);
  w.write_bool(true);
  w.write_string("hello, store");
  w.write_vec_f64({1.0, -2.5, 1e300});
  w.write_vec_size({0, 42, static_cast<std::size_t>(-1)});

  util::BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.read_f64(), -1234.5678);
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.read_string(), "hello, store");
  EXPECT_EQ(r.read_vec_f64(), (std::vector<double>{1.0, -2.5, 1e300}));
  EXPECT_EQ(r.read_vec_size(),
            (std::vector<std::size_t>{0, 42, static_cast<std::size_t>(-1)}));
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryIo, ReadPastEndThrows) {
  util::BinaryWriter w;
  w.write_u32(7);
  util::BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_u32(), 7u);
  EXPECT_THROW(r.read_u8(), util::BinaryIoError);
}

TEST(BinaryIo, GarbageLengthPrefixRejectedBeforeAllocation) {
  util::BinaryWriter w;
  w.write_u64(static_cast<std::uint64_t>(-1));  // absurd element count
  util::BinaryReader r(w.buffer());
  EXPECT_THROW(r.read_vec_f64(), util::BinaryIoError);
}

TEST(BinaryIo, TruncatedStringThrows) {
  util::BinaryWriter w;
  w.write_string("0123456789");
  std::vector<std::uint8_t> cut(w.buffer().begin(), w.buffer().end() - 4);
  util::BinaryReader r(cut);
  EXPECT_THROW(r.read_string(), util::BinaryIoError);
}

TEST(Crc32, KnownVectors) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32("", 0), 0x00000000u);
  // Incremental == one-shot.
  std::uint32_t st = util::crc32_init();
  st = util::crc32_update(st, "1234", 4);
  st = util::crc32_update(st, "56789", 5);
  EXPECT_EQ(util::crc32_final(st), 0xCBF43926u);
}

/// Bit-at-a-time CRC-32 straight from the polynomial: the definition the
/// table-driven code must reproduce.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

TEST(Crc32, EveryLengthAndAlignmentMatchesBitwiseReference) {
  // Slicing-by-8 takes eight bytes per step and finishes bytewise: cover
  // every tail length and start alignment, one-shot and fed in two pieces
  // split at a point that varies with both, against the reference.
  std::vector<std::uint8_t> buf(300 + 8);
  util::Rng rng(17);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
  for (std::size_t align = 0; align < 8; ++align) {
    const std::uint8_t* p = buf.data() + align;
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint32_t want = crc32_bitwise(p, len);
      ASSERT_EQ(util::crc32(p, len), want) << "len " << len << " align " << align;
      const std::size_t cut = len * (align + 1) / 9;
      std::uint32_t st = util::crc32_init();
      st = util::crc32_update(st, p, cut);
      st = util::crc32_update(st, p + cut, len - cut);
      ASSERT_EQ(util::crc32_final(st), want)
          << "len " << len << " align " << align << " cut " << cut;
    }
  }
}

// ---- snapshot ---------------------------------------------------------------

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // HP-profile deployment, per the acceptance criterion.
    trace_ = trace::SyntheticTrace::generate(trace::hp_profile(), /*tif=*/1,
                                             /*seed=*/42, /*downscale=*/10);
    Config cfg;
    cfg.num_units = 16;
    cfg.fanout = 5;
    cfg.seed = 7;
    store_ = std::make_unique<SmartStore>(cfg);
    store_->build(trace_.files());
  }

  trace::SyntheticTrace trace_{};
  std::unique_ptr<SmartStore> store_;
};

TEST_F(SnapshotTest, RoundTripPreservesStructure) {
  const std::string dir = temp_dir("structure");
  const std::string path = image_path(dir);
  save_snapshot(*store_, path);

  auto loaded = load_snapshot(path);
  ASSERT_TRUE(loaded);
  EXPECT_TRUE(loaded->check_invariants());
  EXPECT_EQ(loaded->total_files(), store_->total_files());
  ASSERT_EQ(loaded->units().size(), store_->units().size());
  for (std::size_t u = 0; u < store_->units().size(); ++u) {
    EXPECT_EQ(loaded->units()[u].file_count(), store_->units()[u].file_count());
  }
  EXPECT_EQ(loaded->tree().num_nodes(), store_->tree().num_nodes());
  EXPECT_EQ(loaded->tree().height(), store_->tree().height());
  EXPECT_EQ(loaded->tree().groups(), store_->tree().groups());
  EXPECT_EQ(loaded->tree().root_replicas(), store_->tree().root_replicas());
  EXPECT_EQ(loaded->config().version_ratio, store_->config().version_ratio);
}

TEST_F(SnapshotTest, RoundTripYieldsIdenticalQueryResults) {
  const std::string dir = temp_dir("queries");
  const std::string path = image_path(dir);
  save_snapshot(*store_, path);
  auto loaded = load_snapshot(path);

  // Pre-generate the batches so both stores see the same query stream;
  // both stores start from the same persisted rng state, so routing draws
  // coincide too.
  trace::QueryGenerator gen(trace_, trace::QueryDistribution::kZipf, 99);
  const auto dims = AttrSubset::all();
  std::vector<metadata::PointQuery> points;
  std::vector<metadata::RangeQuery> ranges;
  std::vector<metadata::TopKQuery> topks;
  for (int i = 0; i < 120; ++i) points.push_back(gen.gen_point());
  for (int i = 0; i < 40; ++i) ranges.push_back(gen.gen_range(dims));
  for (int i = 0; i < 40; ++i) topks.push_back(gen.gen_topk(dims, 8));

  for (const auto& q : points) {
    const auto a = store_->point_query(q, Routing::kOffline, 0.0);
    const auto b = loaded->point_query(q, Routing::kOffline, 0.0);
    EXPECT_EQ(a.found, b.found) << "point query diverged on " << q.filename;
    if (a.found && b.found) {
      EXPECT_EQ(a.id, b.id);
    }
  }
  double recall_a = 0, recall_b = 0;
  for (const auto& q : ranges) {
    auto a = store_->range_query(q, Routing::kOffline, 0.0).ids;
    auto b = loaded->range_query(q, Routing::kOffline, 0.0).ids;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    const auto truth = core::brute_force_range(trace_.files(), q);
    recall_a += core::recall(truth, a);
    recall_b += core::recall(truth, b);
  }
  EXPECT_DOUBLE_EQ(recall_a, recall_b);
  for (const auto& q : topks) {
    auto a = store_->topk_query(q, Routing::kOffline, 0.0).ids();
    auto b = loaded->topk_query(q, Routing::kOffline, 0.0).ids();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST_F(SnapshotTest, SurvivesPostBuildMutations) {
  // Insert + delete before snapshotting so pending deltas, sealed versions
  // and conservative (unshrunk) MBRs all hit the codec.
  const auto extra = trace_.make_insert_stream(25, 1234);
  for (const auto& f : extra) store_->insert_file(f, 0.0);
  for (int i = 0; i < 5; ++i)
    store_->delete_file(trace_.files()[i * 31].name, 0.0);
  ASSERT_TRUE(store_->check_invariants());

  const std::string dir = temp_dir("mutated");
  save_snapshot(*store_, image_path(dir));
  auto loaded = load_snapshot(image_path(dir));
  EXPECT_TRUE(loaded->check_invariants());
  EXPECT_EQ(loaded->total_files(), store_->total_files());
  // The deleted files stay gone; the inserted ones stay present.
  for (const auto& f : extra) {
    const auto res = loaded->point_query({f.name}, Routing::kOnline, 0.0);
    EXPECT_TRUE(res.found) << f.name;
  }
}

// ---- replicas with sealed versions ------------------------------------------

class SnapshotReplicas : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = trace::SyntheticTrace::generate(trace::hp_profile(), /*tif=*/1,
                                             /*seed=*/42, /*downscale=*/20);
    Config cfg;
    cfg.num_units = 12;
    cfg.seed = 5;
    cfg.lazy_update_threshold = 10.0;  // no full sync clears the versions
    store_ = std::make_unique<SmartStore>(cfg);
    store_->build(trace_.files());
    // A run of deletes after the inserts seals delete-only versions too.
    extra_ = trace_.make_insert_stream(120, 77);
    for (const auto& f : extra_) store_->insert_file(f, 0.0);
    for (std::size_t i = 0; i < 80; ++i)
      store_->erase_file(trace_.files()[i * 7].name);
  }

  trace::SyntheticTrace trace_{};
  std::vector<FileMetadata> extra_;
  std::unique_ptr<SmartStore> store_;
};

TEST_F(SnapshotReplicas, LoadedReplicasRouteExactlyAsSaved) {
  SmartStore& store = *store_;
  const auto& tr = trace_;
  const auto& extra = extra_;
  std::size_t versions = 0, delete_only = 0;
  for (std::size_t g : store.tree().groups()) {
    for (const auto& v : store.group_replica(g).versions()) {
      ++versions;
      if (v.added_count == 0) ++delete_only;
    }
  }
  ASSERT_GT(versions, 0u);
  ASSERT_GT(delete_only, 0u);

  std::vector<bloom::ItemHash> probes;
  for (const auto& f : extra) probes.push_back(bloom::hash_item(f.name));
  for (std::size_t i = 0; i < 200; ++i)
    probes.push_back(bloom::hash_item(tr.files()[i].name));
  for (int i = 0; i < 200; ++i)
    probes.push_back(bloom::hash_item("/absent/" + std::to_string(i)));

  const std::string dir = temp_dir("replicas");
  save_snapshot(store, image_path(dir));
  auto loaded = load_snapshot(image_path(dir));
  ASSERT_EQ(loaded->tree().groups(), store.tree().groups());
  for (std::size_t g : store.tree().groups()) {
    const core::GroupReplica& live = store.group_replica(g);
    const core::GroupReplica& back = loaded->group_replica(g);
    EXPECT_TRUE(core::reference::matches(back, probes)) << "group " << g;
    ASSERT_EQ(back.versions().size(), live.versions().size());
    for (const bool with : {false, true}) {
      EXPECT_TRUE(core::reference::same_bits(back.effective_box(with),
                                             live.effective_box(with)));
      EXPECT_TRUE(core::reference::same_bits(back.effective_centroid(with),
                                             live.effective_centroid(with)));
      for (const auto& h : probes) {
        EXPECT_EQ(back.name_may_contain(h, with),
                  live.name_may_contain(h, with));
      }
    }
  }
  // The derived state is rebuilt, never stored: the image a loaded store
  // writes is the image it was loaded from.
  save_snapshot(*loaded, dir + "/again.bin");
  EXPECT_EQ(util::read_file_bytes(dir + "/again.bin"),
            util::read_file_bytes(image_path(dir)));
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, SaveSnapshotWritesTheImageAFoldWrites) {
  const auto tr = trace::SyntheticTrace::generate(trace::hp_profile(), 1, 42,
                                                  /*downscale=*/20);
  Config cfg;
  cfg.num_units = 8;
  cfg.seed = 7;
  cfg.autoconfig_threshold = 0.0;  // keep every variant that differs
  SmartStore store(cfg);
  store.build(tr.files());
  ASSERT_GT(store.autoconfigure(
                {AttrSubset::from_mask(0x7u), AttrSubset::from_mask(0x1Fu)}),
            0u);
  for (const auto& f : tr.make_insert_stream(300, 1234))
    store.insert_file(f, 0.0);
  for (std::size_t i = 0; i < 40; ++i)
    ASSERT_TRUE(store.erase_file(tr.files()[i * 13].name));

  const std::string dir = temp_dir("fold_image");
  save_snapshot(store, image_path(dir));
  ShardedWal wal(dir, store.units().size());
  DeltaEngine engine(store, wal, dir);
  ASSERT_TRUE(engine.fold().folded);
  EXPECT_EQ(util::read_file_bytes(base_path(dir, engine.base_id())),
            util::read_file_bytes(image_path(dir)));
  EXPECT_FALSE(store.checkpoint_active());
  std::filesystem::remove_all(dir);
}

/// Rewrites section `id` of a snapshot image through `edit`, resealing
/// every section's length and CRC, so the load sees well-formed framing
/// around whatever the edit did to the payload.
std::vector<std::uint8_t> edit_section(
    const std::vector<std::uint8_t>& image, std::uint32_t id,
    const std::function<void(std::vector<std::uint8_t>&)>& edit) {
  util::BinaryReader r(image);
  r.skip(sizeof(kSnapshotMagic) + 4);  // magic, format version
  const std::uint32_t count = r.read_u32();
  util::BinaryWriter out;
  out.write_bytes(image.data(), r.position());
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t sid = r.read_u32();
    const auto len = static_cast<std::size_t>(r.read_u64());
    const auto* begin = image.data() + r.position();
    std::vector<std::uint8_t> payload(begin, begin + len);
    r.skip(len);
    r.read_u32();  // old CRC
    if (sid == id) edit(payload);
    out.write_u32(sid);
    out.write_u64(payload.size());
    out.write_bytes(payload.data(), payload.size());
    out.write_u32(util::crc32(payload.data(), payload.size()));
  }
  return out.buffer();
}

void skip_mbr(util::BinaryReader& r) {
  if (!r.read_bool()) return;
  r.read_vec_f64();
  r.read_vec_f64();
}

void skip_bloom(util::BinaryReader& r) {
  r.read_u64();
  r.read_u32();
  r.read_vec_u64();
}

/// A version delta's digest list: a u64 count, then four u32 words each.
void skip_digests(util::BinaryReader& r) {
  r.skip(static_cast<std::size_t>(r.read_u64()) * 16);
}

/// Payload offsets of the first sealed version that inserted files: its
/// added_box's lo and hi vectors, its digest count and its added_attr_sum.
struct VersionOffsets {
  std::size_t lo = 0, hi = 0, names = 0, sum = 0;
};

std::optional<VersionOffsets> first_inserting_version(
    const std::vector<std::uint8_t>& sync) {
  util::BinaryReader r(sync);
  const std::uint64_t groups = r.read_u64();
  for (std::uint64_t g = 0; g < groups; ++g) {
    r.read_u64();      // group id
    r.read_vec_f64();  // base centroid
    r.read_vec_f64();  // base attr_sum
    r.read_u64();      // base file_count
    skip_mbr(r);
    skip_bloom(r);
    const std::uint64_t versions = r.read_u64();
    for (std::uint64_t v = 0; v < versions; ++v) {
      VersionOffsets at;
      if (r.read_bool()) {
        at.lo = r.position();
        r.read_vec_f64();
        at.hi = r.position();
        r.read_vec_f64();
      }
      at.names = r.position();
      skip_digests(r);
      at.sum = r.position();
      r.read_vec_f64();
      if (r.read_u64() != 0 && at.lo != 0) return at;
      r.read_vec_u64();
      r.read_f64();
    }
    skip_mbr(r);  // pending delta: box, names, sum, count, deleted, sealed_at
    skip_digests(r);
    r.read_vec_f64();
    r.read_u64();
    r.read_vec_u64();
    r.read_f64();
    r.read_u64();  // changes_since_full_sync
  }
  return std::nullopt;
}

/// Drops the last element of the f64 vector encoded at `at`.
void drop_last_f64(std::vector<std::uint8_t>& payload, std::size_t at) {
  util::BinaryReader r(payload.data() + at, 8);
  const std::uint64_t n = r.read_u64();
  util::BinaryWriter w;
  w.write_u64(n - 1);
  std::copy(w.buffer().begin(), w.buffer().end(), payload.begin() + at);
  const auto last = payload.begin() + static_cast<std::ptrdiff_t>(at + 8 * n);
  payload.erase(last, last + 8);
}

TEST_F(SnapshotReplicas, ShortSealedVersionFailsLoadCleanly) {
  // A load rebuilds each replica's running sum and box from its sealed
  // versions: a version one attribute or one dimension short must fail
  // the load, not be indexed past its end.
  const std::string dir = temp_dir("short_version");
  const std::string path = image_path(dir);
  save_snapshot(*store_, path);
  const auto image = util::read_file_bytes(path);
  constexpr std::uint32_t kSync = 6;

  util::write_file_atomic(path, edit_section(image, kSync, [](auto&) {}));
  ASSERT_NO_THROW(load_snapshot(path));  // the resealing alone is harmless

  for (const bool short_box : {false, true}) {
    util::write_file_atomic(
        path, edit_section(image, kSync, [&](std::vector<std::uint8_t>& sync) {
          const auto at = first_inserting_version(sync);
          ASSERT_TRUE(at.has_value());
          if (short_box) {
            drop_last_f64(sync, at->hi);  // the later offset first
            drop_last_f64(sync, at->lo);
          } else {
            drop_last_f64(sync, at->sum);
          }
        }));
    EXPECT_THROW(load_snapshot(path), PersistError) << "short_box=" << short_box;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(SnapshotReplicas, OversizedDigestCountFailsWithoutAllocating) {
  // A version's digest count is a length field like any other: bounded by
  // what is left of the SYNC payload before anything is allocated.
  const std::string dir = temp_dir("digest_count");
  const std::string path = image_path(dir);
  save_snapshot(*store_, path);
  const auto image = util::read_file_bytes(path);
  constexpr std::uint32_t kSync = 6;
  for (const bool just_past : {true, false}) {
    util::write_file_atomic(
        path, edit_section(image, kSync, [&](std::vector<std::uint8_t>& sync) {
          const auto at = first_inserting_version(sync);
          ASSERT_TRUE(at.has_value());
          const std::uint64_t left = sync.size() - at->names - 8;
          util::BinaryWriter count;
          count.write_u64(just_past ? left / 16 + 1 : std::uint64_t{1} << 60);
          std::copy(count.buffer().begin(), count.buffer().end(),
                    sync.begin() + static_cast<std::ptrdiff_t>(at->names));
        }));
    EXPECT_THROW(load_snapshot(path), PersistError) << "just_past=" << just_past;
  }
  std::filesystem::remove_all(dir);
}

/// Re-encodes a format-3 SYNC payload the way format 2 wrote it: every
/// version delta names its inserted files by a filter of the group's base
/// geometry instead of a digest list.
std::vector<std::uint8_t> sync_as_v2(const std::vector<std::uint8_t>& sync) {
  util::BinaryReader r(sync);
  util::BinaryWriter w;
  auto copy_vec_f64 = [&] { w.write_vec_f64(r.read_vec_f64()); };
  auto copy_mbr = [&] {
    const bool valid = r.read_bool();
    w.write_bool(valid);
    if (!valid) return;
    copy_vec_f64();
    copy_vec_f64();
  };
  auto delta_as_v2 = [&](const bloom::BloomFilter& geometry) {
    copy_mbr();
    bloom::BloomFilter names(geometry.bit_count(), geometry.num_hashes());
    for (std::uint64_t n = r.read_u64(); n > 0; --n) {
      bloom::ItemHash h;
      for (auto& word : h.w) word = r.read_u32();
      names.insert(h);
    }
    w.write_u64(names.bit_count());
    w.write_u32(names.num_hashes());
    w.write_vec_u64(names.words());
    copy_vec_f64();                     // added_attr_sum
    w.write_u64(r.read_u64());          // added_count
    w.write_vec_u64(r.read_vec_u64());  // deleted
    w.write_f64(r.read_f64());          // sealed_at
  };
  const std::uint64_t groups = r.read_u64();
  w.write_u64(groups);
  for (std::uint64_t g = 0; g < groups; ++g) {
    w.write_u64(r.read_u64());  // group id
    copy_vec_f64();             // base centroid
    copy_vec_f64();             // base attr_sum
    w.write_u64(r.read_u64());  // base file_count
    copy_mbr();
    const std::uint64_t bits = r.read_u64();
    const std::uint32_t k = r.read_u32();
    const bloom::BloomFilter base =
        bloom::BloomFilter::from_words(bits, k, r.read_vec_u64());
    w.write_u64(bits);
    w.write_u32(k);
    w.write_vec_u64(base.words());
    const std::uint64_t versions = r.read_u64();
    w.write_u64(versions);
    for (std::uint64_t v = 0; v < versions; ++v) delta_as_v2(base);
    delta_as_v2(base);          // pending
    w.write_u64(r.read_u64());  // changes_since_full_sync
  }
  EXPECT_TRUE(r.at_end());
  return w.buffer();
}

TEST_F(SnapshotReplicas, Version2SyncLoadsWithGroupsFullSynced) {
  // A format-2 image stored each version's names as a filter, from which
  // no digest list can be recovered: it loads with every group
  // full-synced, the state a live lazy-update refresh produces.
  const std::string dir = temp_dir("sync_v2");
  const std::string path = image_path(dir);
  save_snapshot(*store_, path);
  auto image = edit_section(util::read_file_bytes(path), /*kSync=*/6,
                            [](std::vector<std::uint8_t>& sync) {
                              sync = sync_as_v2(sync);
                            });
  image[sizeof(kSnapshotMagic)] = 2;  // little-endian u32 format version
  util::write_file_atomic(path, image);

  std::unique_ptr<SmartStore> loaded;
  ASSERT_NO_THROW(loaded = load_snapshot(path));
  EXPECT_TRUE(loaded->check_invariants());
  EXPECT_EQ(loaded->total_files(), store_->total_files());
  EXPECT_EQ(loaded->bloom_bits(), store_->bloom_bits());
  for (std::size_t g : loaded->tree().groups()) {
    const core::GroupReplica& r = loaded->group_replica(g);
    const core::IndexUnit& node = loaded->tree().node(g);
    EXPECT_TRUE(r.versions().empty()) << "group " << g;
    EXPECT_EQ(r.base().file_count, node.file_count) << "group " << g;
    EXPECT_EQ(r.base().name_filter, node.name_filter) << "group " << g;
  }
  // Full-synced replicas hold every inserted name in their bases.
  for (const auto& f : extra_) {
    const auto res = loaded->point_query({f.name}, Routing::kOnline, 0.0);
    ASSERT_TRUE(res.found) << f.name;
    const std::size_t g = loaded->tree().group_of_unit(res.unit);
    EXPECT_TRUE(loaded->group_replica(g).name_may_contain(
        bloom::hash_item(f.name), /*with_versions=*/false))
        << f.name;
  }
  // Saved again, it is a format-3 image.
  save_snapshot(*loaded, dir + "/again.bin");
  EXPECT_NO_THROW(load_snapshot(dir + "/again.bin"));
  std::filesystem::remove_all(dir);
}

TEST(SnapshotGrowth, GrownStoreRoundTripsByteIdentically) {
  // A store grown from empty by inserts, as every routed shard and
  // replication follower is: its filters grew several times, and the
  // versions sealed since the last growth carry digests.
  const auto tr = trace::SyntheticTrace::generate(trace::hp_profile(), 1, 42,
                                                  /*downscale=*/20);
  Config cfg;
  cfg.num_units = 8;
  cfg.seed = 5;
  cfg.lazy_update_threshold = 10.0;  // only growth full-syncs
  SmartStore store(cfg);
  store.build({});
  for (const auto& f : tr.files()) store.insert_file(f, 0.0);
  ASSERT_GE(store.bloom_resizes(), 2u);
  std::size_t versions = 0;
  for (std::size_t g : store.tree().groups())
    versions += store.group_replica(g).versions().size();
  ASSERT_GT(versions, 0u);

  std::vector<bloom::ItemHash> probes;
  for (const auto& f : tr.files()) probes.push_back(bloom::hash_item(f.name));
  for (int i = 0; i < 200; ++i)
    probes.push_back(bloom::hash_item("/absent/" + std::to_string(i)));

  const std::string dir = temp_dir("grown");
  save_snapshot(store, image_path(dir));
  auto loaded = load_snapshot(image_path(dir));
  EXPECT_EQ(loaded->bloom_bits(), store.bloom_bits());
  for (const auto& u : loaded->units())
    EXPECT_EQ(u.name_filter().bit_count(), store.bloom_bits());
  for (std::size_t g : store.tree().groups()) {
    const core::GroupReplica& back = loaded->group_replica(g);
    EXPECT_TRUE(core::reference::matches(back, probes)) << "group " << g;
    ASSERT_EQ(back.versions().size(), store.group_replica(g).versions().size());
    for (const auto& h : probes)
      EXPECT_EQ(back.name_may_contain(h, true),
                store.group_replica(g).name_may_contain(h, true));
  }
  for (const auto& f : tr.files())
    EXPECT_TRUE(loaded->point_query({f.name}, Routing::kOnline, 0.0).found);
  save_snapshot(*loaded, dir + "/again.bin");
  EXPECT_EQ(util::read_file_bytes(dir + "/again.bin"),
            util::read_file_bytes(image_path(dir)));
  std::filesystem::remove_all(dir);
}

TEST_F(SnapshotTest, CorruptedSectionFailsLoad) {
  const std::string dir = temp_dir("corrupt");
  const std::string path = image_path(dir);
  save_snapshot(*store_, path);

  auto bytes = util::read_file_bytes(path);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-file
  util::write_file_atomic(path, bytes);
  EXPECT_THROW(load_snapshot(path), PersistError);
}

TEST_F(SnapshotTest, TruncatedFileFailsLoad) {
  const std::string dir = temp_dir("truncated");
  const std::string path = image_path(dir);
  save_snapshot(*store_, path);

  auto bytes = util::read_file_bytes(path);
  bytes.resize(bytes.size() * 3 / 4);
  util::write_file_atomic(path, bytes);
  EXPECT_THROW(load_snapshot(path), PersistError);
}

TEST_F(SnapshotTest, BadMagicFailsLoad) {
  const std::string dir = temp_dir("magic");
  const std::string path = image_path(dir);
  util::write_file_atomic(path, {'n', 'o', 't', 'a', 's', 'n', 'a', 'p',
                                 0, 0, 0, 0});
  EXPECT_THROW(load_snapshot(path), PersistError);
}

// ---- WAL --------------------------------------------------------------------

/// One record through the shard log the way the store's hooks drive it:
/// the append, then the group-commit trigger.
std::uint64_t log_record(ShardedWal& wal, std::size_t shard, WalRecord rec) {
  const std::uint64_t seq = wal.append(shard, std::move(rec));
  wal.maybe_commit(shard);
  return seq;
}

TEST(Wal, GroupCommitBatchesRecords) {
  const std::string dir = temp_dir("wal_batch");
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  const auto stream = tr.make_insert_stream(10, 5);

  {
    ShardedWal wal(dir, 1, /*group_commit=*/4);
    for (const auto& f : stream) log_record(wal, 0, WalRecord::insert(f));
    // 10 records at batch 4: blocks of 4+4 committed, 2 still pending.
    EXPECT_EQ(wal.committed_records(0), 8u);
    EXPECT_EQ(wal.pending_records(0), 2u);
  }  // the shard writer's destructor commits the tail batch

  const WalScan scan = scan_wal(ShardedWal::shard_path(dir, 0));
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.blocks, 3u);
  ASSERT_EQ(scan.records.size(), 10u);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(scan.records[i].type, WalRecordType::kInsert);
    EXPECT_EQ(scan.records[i].seq, i + 1);  // store-wide stamps, in order
    EXPECT_EQ(scan.records[i].file.id, stream[i].id);
    EXPECT_EQ(scan.records[i].file.name, stream[i].name);
  }
  EXPECT_EQ(scan.max_seq, 10u);
}

TEST(Wal, RemoveRecordsRoundTrip) {
  const std::string dir = temp_dir("wal_remove");
  {
    ShardedWal wal(dir, 1, /*group_commit=*/2);
    log_record(wal, 0, WalRecord::remove("some/file.txt"));
    log_record(wal, 0, WalRecord::remove("other/file.bin"));
  }
  const WalScan scan = scan_wal(ShardedWal::shard_path(dir, 0));
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].type, WalRecordType::kRemove);
  EXPECT_EQ(scan.records[0].name, "some/file.txt");
  EXPECT_EQ(scan.records[1].name, "other/file.bin");
}

TEST(Wal, TornTailRecoversToLastCommitBoundary) {
  const std::string dir = temp_dir("wal_torn");
  const std::string path = ShardedWal::shard_path(dir, 0);
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  const auto stream = tr.make_insert_stream(12, 5);

  {
    ShardedWal wal(dir, 1, /*group_commit=*/4);
    for (const auto& f : stream) log_record(wal, 0, WalRecord::insert(f));
  }  // 3 complete blocks of 4

  // Crash mid-append: chop into the last block's payload.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 17);

  const WalScan scan = scan_wal(path);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.blocks, 2u);
  EXPECT_EQ(scan.records.size(), 8u);  // the last group commit is the cutoff

  // Reopening for append truncates the tear; new records land after the
  // valid prefix and the log scans clean again.
  {
    WalWriter wal(path);
    EXPECT_EQ(wal.committed_records(), 8u);
    WalRecord rec;
    rec.file = stream[8];
    rec.seq = 100;
    wal.append(rec);
    wal.commit();
  }
  const WalScan rescan = scan_wal(path);
  EXPECT_FALSE(rescan.torn_tail);
  EXPECT_EQ(rescan.records.size(), 9u);
  EXPECT_EQ(rescan.records.back().seq, 100u);
}

TEST(Wal, CorruptedBlockChecksumStopsScan) {
  const std::string dir = temp_dir("wal_crc");
  const std::string path = ShardedWal::shard_path(dir, 0);
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  const auto stream = tr.make_insert_stream(8, 5);
  {
    ShardedWal wal(dir, 1, /*group_commit=*/4);
    for (const auto& f : stream) log_record(wal, 0, WalRecord::insert(f));
  }
  auto bytes = util::read_file_bytes(path);
  bytes[bytes.size() - 10] ^= 0x01;  // corrupt the second block's payload
  util::write_file_atomic(path, bytes);

  const WalScan scan = scan_wal(path);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.blocks, 1u);
  EXPECT_EQ(scan.records.size(), 4u);
}

TEST(Wal, MissingFileScansEmpty) {
  const std::string dir = temp_dir("wal_missing");
  const WalScan scan = scan_wal(ShardedWal::shard_path(dir, 0));
  EXPECT_EQ(scan.records.size(), 0u);
  EXPECT_FALSE(scan.torn_tail);
}

TEST(Wal, CraftedHugeRecordCountIsCorruptionNotAllocation) {
  // A block whose header claims 2^32-1 records over a 1-byte payload, with
  // a *valid* checksum: must be treated as a corrupt block (prefix kept),
  // not turned into a multi-gigabyte reserve.
  const std::string dir = temp_dir("wal_hugecount");
  const std::string path = ShardedWal::shard_path(dir, 0);
  std::filesystem::create_directories(ShardedWal::shard_dir(dir));
  util::BinaryWriter w;
  w.write_bytes(kWalMagic, sizeof(kWalMagic));
  w.write_u64(12345);  // log generation
  w.write_u32(kWalBlockMagic);
  w.write_u32(0xFFFFFFFFu);  // absurd record count
  w.write_u64(1);            // one payload byte
  const std::uint8_t payload = 0x01;
  w.write_u8(payload);
  w.write_u32(util::crc32(&payload, 1));
  util::write_file_atomic(path, w.buffer());

  const WalScan scan = scan_wal(path);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.blocks, 0u);
  EXPECT_EQ(scan.records.size(), 0u);
}

TEST(Wal, PreShardingLogMagicIsNotAWal) {
  // Logs from before sharding carry no per-record seq; their magic is
  // rejected instead of being misparsed as sequenced records.
  const std::string dir = temp_dir("wal_v2");
  const std::string path = dir + "/old.log";
  util::BinaryWriter w;
  w.write_bytes("SSWALv02", 8);
  w.write_u64(7);
  util::write_file_atomic(path, w.buffer());
  EXPECT_THROW(scan_wal(path), PersistError);
}

TEST(Wal, RebaseDropsFencedPrefixKeepsTailUnderNextGeneration) {
  const std::string dir = temp_dir("wal_rebase");
  const std::string path = dir + "/0.log";
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  const auto stream = tr.make_insert_stream(7, 5);

  WalWriter wal(path);
  std::size_t fence_bytes = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    wal.append(WalRecord::insert(stream[i], i + 1));
    if (i % 2 == 1) wal.commit();
    if (i == 3) fence_bytes = wal.committed_bytes();
  }
  wal.commit();
  const std::uint64_t gen = wal.generation();
  ASSERT_EQ(wal.committed_records(), 7u);

  // A checkpoint fenced the first four records at this byte offset.
  wal.rebase(4, fence_bytes);
  EXPECT_EQ(wal.generation(), gen + 1);
  EXPECT_EQ(wal.committed_records(), 3u);

  const WalScan scan = scan_wal(path);
  EXPECT_EQ(scan.generation, gen + 1);
  ASSERT_EQ(scan.records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(scan.records[i].file.name, stream[4 + i].name);
    EXPECT_EQ(scan.records[i].seq, 5 + i);
  }

  // Appends keep working through the swapped handle.
  wal.append(WalRecord::remove(stream[0].name, 8));
  wal.commit();
  EXPECT_EQ(scan_wal(path).records.size(), 4u);
}

TEST(Wal, RebaseOutsideTheCommittedLogThrowsAndChangesNothing) {
  const std::string dir = temp_dir("wal_rebase_range");
  const std::string path = dir + "/0.log";
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  const auto stream = tr.make_insert_stream(5, 5);

  WalWriter wal(path);
  for (std::size_t i = 0; i < 4; ++i) {
    wal.append(WalRecord::insert(stream[i], i + 1));
    wal.commit();
  }
  const std::uint64_t gen = wal.generation();
  const std::size_t end = wal.committed_bytes();
  const auto bytes_before = util::read_file_bytes(path);
  // A pending record must stay pending: a rejected rebase writes nothing.
  wal.append(WalRecord::insert(stream[4], 5));

  EXPECT_THROW(wal.rebase(2, end + 1), PersistError);  // past the log
  EXPECT_THROW(wal.rebase(2, 3), PersistError);        // inside the header
  EXPECT_THROW(wal.rebase(5, end), PersistError);      // more than committed
  EXPECT_EQ(wal.generation(), gen);
  EXPECT_EQ(wal.committed_records(), 4u);
  EXPECT_EQ(wal.committed_bytes(), end);
  EXPECT_EQ(wal.pending_records(), 1u);
  EXPECT_EQ(util::read_file_bytes(path), bytes_before);

  // Later appends land behind the untouched prefix.
  wal.commit();
  const WalScan scan = scan_wal(path);
  EXPECT_EQ(scan.generation, gen);
  ASSERT_EQ(scan.records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(scan.records[i].seq, i + 1);
    EXPECT_EQ(scan.records[i].file.name, stream[i].name);
  }
}

TEST(Wal, AppendStampsZeroSeqAndKeepsAGivenOne) {
  const std::string dir = temp_dir("wal_append_seq");
  {
    ShardedWal wal(dir, 2, /*group_commit=*/1);
    EXPECT_EQ(log_record(wal, 0, WalRecord::remove("a")), 1u);
    EXPECT_EQ(log_record(wal, 1, WalRecord::remove("b")), 2u);
    // A replicated apply carries the primary's seq: kept, counter raised.
    EXPECT_EQ(log_record(wal, 1, WalRecord::remove("c", 10)), 10u);
    EXPECT_EQ(wal.next_seq(), 11u);
    EXPECT_EQ(log_record(wal, 0, WalRecord::remove("d")), 11u);
    // A seq below the counter is kept too, and never lowers it.
    EXPECT_EQ(log_record(wal, 0, WalRecord::remove("e", 4)), 4u);
    EXPECT_EQ(log_record(wal, 1, WalRecord::remove("f")), 12u);
  }
  const WalScan s0 = scan_wal(ShardedWal::shard_path(dir, 0));
  const WalScan s1 = scan_wal(ShardedWal::shard_path(dir, 1));
  ASSERT_EQ(s0.records.size(), 3u);
  ASSERT_EQ(s1.records.size(), 3u);
  EXPECT_EQ(s0.records[0].seq, 1u);
  EXPECT_EQ(s0.records[1].seq, 11u);
  EXPECT_EQ(s0.records[2].seq, 4u);
  EXPECT_EQ(s0.records[2].name, "e");
  EXPECT_EQ(s1.records[0].seq, 2u);
  EXPECT_EQ(s1.records[1].seq, 10u);
  EXPECT_EQ(s1.records[2].seq, 12u);
  // A reopened log resumes past every seq on disk.
  ShardedWal reopened(dir, 2);
  EXPECT_EQ(reopened.next_seq(), 13u);
}

// ---- checkpoint / recover ---------------------------------------------------

/// A built store over a directory with the durable pair every deployment
/// runs: per-unit WAL shards and the delta engine, whose first fold has
/// published the base image.
struct Durable {
  Durable(const std::string& dir_in, const trace::SyntheticTrace& tr,
          std::size_t units, std::size_t group_commit)
      : dir(dir_in),
        store([&] {
          Config cfg;
          cfg.num_units = units;
          cfg.fanout = 5;
          cfg.seed = 7;
          return cfg;
        }()),
        wal(dir, units, group_commit),
        engine(store, wal, dir) {
    store.build(tr.files());
    engine.fold();
  }

  /// Logs and applies one insert through the WAL and flush hooks.
  void insert(const FileMetadata& f) {
    store.insert_file(
        f, 0.0,
        [&](core::UnitId target) {
          return wal.append(target, WalRecord::insert(f));
        },
        [&](core::UnitId target) { wal.maybe_commit(target); });
  }

  std::string dir;
  SmartStore store;
  ShardedWal wal;
  DeltaEngine engine;
};

TEST(Recovery, CheckpointPlusWalTailRestoresAllCommittedMutations) {
  const std::string dir = temp_dir("recover");
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::hp_profile(), 1, 42, /*downscale=*/20);
  Durable d(dir, tr, 10, 4);

  // Post-checkpoint mutations, write-ahead logged as they apply.
  for (const auto& f : tr.make_insert_stream(9, 77)) d.insert(f);
  const std::string victim = tr.files()[3].name;
  ASSERT_TRUE(d.store.erase_file(
      victim,
      [&](core::UnitId located) {
        return d.wal.append(located, WalRecord::remove(victim));
      },
      [&](core::UnitId located) { d.wal.maybe_commit(located); }));
  d.wal.commit_all();

  const RecoveryResult rec = recover(dir);
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.used_manifest);
  EXPECT_FALSE(rec.wal_tail_torn);
  EXPECT_EQ(rec.wal_records, 10u);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_EQ(rec.store->total_files(), d.store.total_files());
  EXPECT_EQ(unit_names(*rec.store), unit_names(d.store));
}

TEST(Recovery, TornShardTailRollsBackToItsCommitBoundary) {
  const std::string dir = temp_dir("recover_torn");
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::hp_profile(), 1, 42, /*downscale=*/20);
  Durable d(dir, tr, 10, 4);
  const std::size_t base_files = d.store.total_files();

  // Eight logged inserts in one shard: two group-commit blocks of four.
  // (Replay routes each record itself; the shard is only its log.)
  const auto stream = tr.make_insert_stream(8, 77);
  for (const auto& f : stream) log_record(d.wal, 0, WalRecord::insert(f));
  // Tear into the second block: only the first group commit must survive.
  const std::string shard = ShardedWal::shard_path(dir, 0);
  std::filesystem::resize_file(shard, std::filesystem::file_size(shard) - 9);

  const RecoveryResult rec = recover(dir);
  EXPECT_TRUE(rec.wal_tail_torn);
  EXPECT_EQ(rec.wal_records, 4u);
  EXPECT_EQ(rec.store->total_files(), base_files + 4);
  EXPECT_TRUE(rec.store->check_invariants());
  const std::set<std::string> got = unit_names(*rec.store);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_TRUE(got.count(stream[i].name)) << stream[i].name;
  for (std::size_t i = 4; i < 8; ++i)
    EXPECT_FALSE(got.count(stream[i].name)) << stream[i].name;
}

TEST(Recovery, CutRebasesTheWalItSubsumes) {
  const std::string dir = temp_dir("checkpoint");
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  Durable d(dir, tr, 6, 2);

  for (const auto& f : tr.make_insert_stream(4, 3)) d.insert(f);
  d.engine.cut();
  for (std::size_t s = 0; s < d.wal.num_shards(); ++s)
    EXPECT_EQ(d.wal.committed_records(s), 0u) << "shard " << s;

  // Recovery after the cut sees the mutations exactly once, from the chain.
  const RecoveryResult rec = recover(dir);
  EXPECT_EQ(rec.wal_records, 0u);
  EXPECT_EQ(rec.delta_records, 4u);
  EXPECT_EQ(rec.store->total_files(), d.store.total_files());
}

TEST(Recovery, CrashBetweenManifestAndRebaseReplaysNothingTwice) {
  // The checkpoint crash window: manifest published, WAL not yet rebased.
  // The manifest's fence must suppress the duplicate replay.
  const std::string dir = temp_dir("ckpt_crash");
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  Durable d(dir, tr, 6, 1);
  for (const auto& f : tr.make_insert_stream(5, 3)) d.insert(f);

  // Simulate the crash: preserve the pre-cut logs, cut (segments +
  // manifest land, shards are rebased), then restore the old logs as if
  // the rebase never hit the disk.
  const std::string wal_dir = ShardedWal::shard_dir(dir);
  const std::string saved = dir + "/wal.saved";
  std::filesystem::copy(wal_dir, saved);
  d.engine.cut();
  std::filesystem::remove_all(wal_dir);
  std::filesystem::copy(saved, wal_dir);

  const RecoveryResult rec = recover(dir);
  EXPECT_EQ(rec.wal_fenced, 5u);   // all five suppressed by the fence
  EXPECT_EQ(rec.wal_records, 0u);  // nothing replayed on top
  EXPECT_EQ(rec.delta_records, 5u);
  EXPECT_EQ(rec.store->total_files(), d.store.total_files());
  EXPECT_TRUE(rec.store->check_invariants());
  // No duplicate records: per-unit name multisets match the live store.
  std::multiset<std::string> live, recovered;
  for (const auto& u : d.store.units())
    for (const auto& f : u.files()) live.insert(f.name);
  for (const auto& u : rec.store->units())
    for (const auto& f : u.files()) recovered.insert(f.name);
  EXPECT_EQ(live, recovered);
}

}  // namespace
}  // namespace smartstore::persist
