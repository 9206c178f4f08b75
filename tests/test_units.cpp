// Tests for storage units, group replicas and version deltas.
#include "core/units.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metadata/schema.h"
#include "replica_reference.h"
#include "util/rng.h"

namespace smartstore::core {
namespace {

using metadata::Attr;
using metadata::FileMetadata;
using metadata::kNumAttrs;

FileMetadata make_file(metadata::FileId id, double size, double ctime) {
  FileMetadata f;
  f.id = id;
  f.name = "/t/f" + std::to_string(id);
  f.set_attr(Attr::kFileSize, size);
  f.set_attr(Attr::kCreationTime, ctime);
  return f;
}

la::Vector coords(const FileMetadata& f) {
  return f.full_vector();  // identity "standardization" for unit tests
}

void add(StorageUnit& u, const FileMetadata& f) {
  u.add_file(f, coords(f), bloom::hash_item(f.name));
}

std::optional<FileMetadata> remove(StorageUnit& u, metadata::FileId id) {
  const FileMetadata* f = u.find_by_id(id);
  const std::string name = f ? f->name : "";
  return u.remove_file(id, name, bloom::hash_item(name));
}

TEST(StorageUnit, AddAndFind) {
  StorageUnit u(3, 1024, 7);
  EXPECT_EQ(u.id(), 3u);
  EXPECT_TRUE(u.empty());
  const auto f = make_file(1, 100, 5);
  add(u, f);
  EXPECT_EQ(u.file_count(), 1u);
  ASSERT_NE(u.find_by_name(f.name), nullptr);
  EXPECT_EQ(u.find_by_name(f.name)->id, 1u);
  ASSERT_NE(u.find_by_id(1), nullptr);
  EXPECT_EQ(u.find_by_id(1)->name, f.name);
  EXPECT_EQ(u.find_by_name("/missing"), nullptr);
}

TEST(StorageUnit, BloomTracksMembership) {
  StorageUnit u(0, 1024, 7);
  const auto f = make_file(7, 10, 1);
  add(u, f);
  EXPECT_TRUE(u.name_filter().may_contain(f.name));
  remove(u, 7);
  EXPECT_FALSE(u.name_filter().may_contain(f.name));
}

TEST(StorageUnit, RemoveSwapsIndexesCorrectly) {
  StorageUnit u(0, 1024, 7);
  for (int i = 1; i <= 5; ++i) {
    const auto f = make_file(i, 10.0 * i, i);
    add(u, f);
  }
  auto removed = remove(u, 2);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id, 2u);
  EXPECT_EQ(u.file_count(), 4u);
  // Every remaining file must still be findable by name and id.
  for (int i : {1, 3, 4, 5}) {
    ASSERT_NE(u.find_by_id(i), nullptr) << i;
    EXPECT_EQ(u.find_by_id(i)->id, static_cast<metadata::FileId>(i));
    EXPECT_NE(u.find_by_name("/t/f" + std::to_string(i)), nullptr);
  }
  EXPECT_FALSE(remove(u, 2).has_value());
}

TEST(StorageUnit, ResizeNameFilterRefillsFromLiveRecords) {
  // The growth step rebuilds a unit's counting filter from the digests of
  // its live records: the result is the filter a unit built at the new
  // geometry would hold, whatever the old one had saturated.
  StorageUnit u(0, 64, 7);
  for (int i = 1; i <= 200; ++i) add(u, make_file(i, i, i));
  for (int i = 1; i <= 200; i += 3) remove(u, i);
  u.resize_name_filter(8192);
  EXPECT_EQ(u.name_filter().bit_count(), 8192u);

  StorageUnit fresh(1, 8192, 7);
  for (const auto& f : u.files()) add(fresh, f);
  EXPECT_EQ(u.name_filter_view(), fresh.name_filter_view());
  for (const auto& f : u.files()) EXPECT_TRUE(u.name_filter().may_contain(f.name));
  std::size_t removed_hits = 0;
  for (int i = 1; i <= 200; i += 3)
    removed_hits += u.name_filter().may_contain("/t/f" + std::to_string(i));
  EXPECT_LT(removed_hits, 3u);
}

TEST(StorageUnit, BoxCoversAllCoords) {
  StorageUnit u(0, 1024, 7);
  for (int i = 1; i <= 10; ++i) {
    const auto f = make_file(i, 10.0 * i, 100.0 - i);
    add(u, f);
  }
  for (std::size_t i = 0; i < u.file_count(); ++i)
    EXPECT_TRUE(u.box().contains(u.std_coords(i)));
}

TEST(StorageUnit, CentroidIsMeanAndUpdatesOnRemove) {
  StorageUnit u(0, 1024, 7);
  const auto f1 = make_file(1, 10, 0);
  const auto f2 = make_file(2, 30, 0);
  add(u, f1);
  add(u, f2);
  EXPECT_DOUBLE_EQ(u.centroid_raw()[static_cast<std::size_t>(Attr::kFileSize)],
                   20.0);
  remove(u, 1);
  EXPECT_DOUBLE_EQ(u.centroid_raw()[static_cast<std::size_t>(Attr::kFileSize)],
                   30.0);
}

TEST(StorageUnit, ByteSizeGrows) {
  StorageUnit u(0, 1024, 7);
  const std::size_t before = u.byte_size();
  for (int i = 0; i < 100; ++i) {
    const auto f = make_file(i + 1, i, i);
    add(u, f);
  }
  EXPECT_GT(u.byte_size(), before);
}

/// Removing the first, a middle and the last record keeps the columns,
/// the records, their ids and seqs aligned, and the moved record stays
/// reachable by name, id and column row; a copy equals the original.
TEST(StorageUnit, SwapRemoveKeepsColumnsAligned) {
  StorageUnit u(0, 1024, 7);
  for (int i = 1; i <= 9; ++i) {
    const auto f = make_file(i, 10.0 * i, 100.0 + i);
    u.add_file(f, coords(f), bloom::hash_item(f.name),
               static_cast<std::uint64_t>(100 + i));
  }
  auto aligned = [](const StorageUnit& unit) {
    const StorageUnit::Columns cols = unit.columns();
    for (std::size_t i = 0; i < unit.file_count(); ++i) {
      const FileMetadata& f = unit.files()[i];
      const la::Vector want = coords(f);
      for (std::size_t d = 0; d < kNumAttrs; ++d) {
        if (cols.row(i)[d] != want[d]) return false;
      }
      if (unit.std_coords(i) != want || unit.ids()[i] != f.id) return false;
      if (unit.added_seqs()[i] != 100 + f.id) return false;
      if (unit.find_by_id(f.id) != &f || unit.find_by_name(f.name) != &f ||
          unit.find(f.id, f.name) != &f)
        return false;
    }
    return true;
  };
  ASSERT_TRUE(aligned(u));
  const auto at = [&](std::size_t pos) { return u.files()[pos].id; };
  for (const std::size_t pos : {std::size_t{0}, std::size_t{3}, std::size_t{6}}) {
    ASSERT_LT(pos, u.file_count());
    const metadata::FileId moved = at(u.file_count() - 1);
    ASSERT_TRUE(remove(u, at(pos)).has_value());
    EXPECT_TRUE(aligned(u)) << "after removing position " << pos;
    if (pos < u.file_count()) {
      EXPECT_EQ(at(pos), moved);
    }
  }
  EXPECT_EQ(u.file_count(), 6u);
  ASSERT_TRUE(remove(u, at(u.file_count() - 1)).has_value());  // the last
  EXPECT_TRUE(aligned(u));

  const StorageUnit copy = u;
  EXPECT_TRUE(aligned(copy));
  ASSERT_EQ(copy.file_count(), u.file_count());
  for (std::size_t i = 0; i < u.file_count(); ++i) {
    EXPECT_EQ(copy.files()[i].id, u.files()[i].id);
    EXPECT_EQ(copy.std_coords(i), u.std_coords(i));
  }
  EXPECT_EQ(copy.added_seqs(), u.added_seqs());
  EXPECT_EQ(copy.name_filter_view(), u.name_filter_view());
  EXPECT_EQ(copy.box(), u.box());
  EXPECT_EQ(copy.byte_size(), u.byte_size());
}

/// Put is not an upsert: a retried Put stores a second record under one
/// name and id, and two names may carry one id. Each record stays
/// reachable until its own removal.
TEST(StorageUnit, RepeatedNameOrIdStaysReachable) {
  StorageUnit u(0, 1024, 7);
  const auto dup = make_file(1, 10, 1);
  add(u, dup);
  add(u, dup);
  ASSERT_TRUE(u.remove_file(1, dup.name, bloom::hash_item(dup.name)));
  ASSERT_NE(u.find_by_name(dup.name), nullptr);
  ASSERT_NE(u.find(1, dup.name), nullptr);
  EXPECT_NE(u.find_by_id(1), nullptr);
  EXPECT_TRUE(u.name_filter().may_contain(dup.name));
  ASSERT_TRUE(u.remove_file(1, dup.name, bloom::hash_item(dup.name)));
  EXPECT_EQ(u.find_by_name(dup.name), nullptr);
  EXPECT_EQ(u.find(1, dup.name), nullptr);
  EXPECT_EQ(u.find_by_id(1), nullptr);
  EXPECT_FALSE(u.remove_file(1, dup.name, bloom::hash_item(dup.name)));

  // Two names, one id: removing one by its name keeps the other whole.
  auto a = make_file(7, 20, 2);
  auto b = a;
  b.name = "/t/other";
  add(u, a);
  add(u, b);
  const auto removed = u.remove_file(7, a.name, bloom::hash_item(a.name));
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->name, a.name);
  EXPECT_EQ(u.find_by_name(a.name), nullptr);
  EXPECT_EQ(u.find(7, a.name), nullptr);
  ASSERT_NE(u.find_by_id(7), nullptr);
  EXPECT_EQ(u.find_by_id(7)->name, b.name);
  ASSERT_TRUE(u.remove_file(7, b.name, bloom::hash_item(b.name)));
  EXPECT_TRUE(u.empty());

  // Once the newest record under a name goes, the index names the one an
  // exact read picks: the greatest added_seq.
  auto v = make_file(2, 1, 1);
  for (const auto& [id, seq] : {std::pair<metadata::FileId, std::uint64_t>{2, 5},
                                {3, 9}, {4, 7}}) {
    v.id = id;
    u.add_file(v, coords(v), bloom::hash_item(v.name), seq);
  }
  EXPECT_EQ(u.find_by_name(v.name)->id, 4u);
  ASSERT_TRUE(u.remove_file(4, v.name, bloom::hash_item(v.name)));
  EXPECT_EQ(u.find_by_name(v.name)->id, 3u);
  ASSERT_TRUE(u.remove_file(3, v.name, bloom::hash_item(v.name)));
  EXPECT_EQ(u.find_by_name(v.name)->id, 2u);
}

TEST(VersionDelta, EmptyAndByteSize) {
  VersionDelta v;
  v.added_attr_sum.assign(kNumAttrs, 0.0);
  EXPECT_TRUE(v.empty());
  v.deleted.push_back(4);
  EXPECT_FALSE(v.empty());
  const std::size_t delete_only = v.byte_size();
  EXPECT_GT(delete_only, 0u);
  // An inserting version pays for its digests, not for a filter.
  v.added_names.push_back(bloom::hash_item("/new/a"));
  v.added_count = 1;
  EXPECT_GE(v.byte_size(), delete_only + sizeof(bloom::ItemHash));
  EXPECT_LT(v.byte_size(), delete_only + 1024 / 8);
}

GroupReplica make_replica() {
  GroupReplica::Base b;
  b.centroid_raw.assign(kNumAttrs, 0.0);
  b.attr_sum.assign(kNumAttrs, 0.0);
  b.centroid_raw[0] = 100;
  b.attr_sum[0] = 1000;
  b.file_count = 10;
  b.box = rtree::Mbr(la::Vector(kNumAttrs, 0.0), la::Vector(kNumAttrs, 1.0));
  b.name_filter = bloom::BloomFilter(1024, 7);
  b.name_filter.insert("/base/file");
  GroupReplica r;
  r.reset(std::move(b));
  return r;
}

VersionDelta make_delta(double coord, const std::string& name, double sum0) {
  VersionDelta v;
  v.added_box = rtree::Mbr(la::Vector(kNumAttrs, coord));
  v.added_names.push_back(bloom::hash_item(name));
  v.added_attr_sum.assign(kNumAttrs, 0.0);
  v.added_attr_sum[0] = sum0;
  v.added_count = 1;
  return v;
}

bool may_contain(const GroupReplica& r, const std::string& name,
                 bool with_versions) {
  return r.name_may_contain(bloom::hash_item(name), with_versions);
}

TEST(GroupReplica, EffectiveBoxUnionsVersions) {
  GroupReplica r = make_replica();
  r.seal(make_delta(5.0, "/new/a", 10));
  const rtree::Mbr without = r.effective_box(false);
  const rtree::Mbr with = r.effective_box(true);
  EXPECT_FALSE(without.contains(la::Vector(kNumAttrs, 5.0)));
  EXPECT_TRUE(with.contains(la::Vector(kNumAttrs, 5.0)));
}

TEST(GroupReplica, EffectiveCentroidBlendsVersions) {
  GroupReplica r = make_replica();  // sum0=1000, count=10 -> mean 100
  r.seal(make_delta(1.0, "/new/a", 100));  // +1 file at 100
  const la::Vector with = r.effective_centroid(true);
  EXPECT_DOUBLE_EQ(with[0], 1100.0 / 11.0);
  const la::Vector without = r.effective_centroid(false);
  EXPECT_DOUBLE_EQ(without[0], 100.0);
}

TEST(GroupReplica, NameMayContainChecksVersionsRollingBackward) {
  GroupReplica r = make_replica();
  EXPECT_TRUE(may_contain(r, "/base/file", true));
  EXPECT_FALSE(may_contain(r, "/new/x", true));
  r.seal(make_delta(1.0, "/new/x", 1));
  EXPECT_TRUE(may_contain(r, "/new/x", true));
  EXPECT_FALSE(may_contain(r, "/new/x", false));  // versions disabled
  EXPECT_TRUE(may_contain(r, "/base/file", true));
}

TEST(GroupReplica, ResetDropsVersions) {
  GroupReplica r = make_replica();
  r.seal(make_delta(5.0, "/new/x", 10));
  ASSERT_EQ(r.versions().size(), 1u);
  r.reset(make_replica().base());
  EXPECT_TRUE(r.versions().empty());
  EXPECT_FALSE(may_contain(r, "/new/x", true));
  EXPECT_FALSE(r.effective_box(true).contains(la::Vector(kNumAttrs, 5.0)));
  EXPECT_DOUBLE_EQ(r.effective_centroid(true)[0], 100.0);
}

TEST(GroupReplica, ByteSizeIncludesVersions) {
  GroupReplica r = make_replica();
  const std::size_t base = r.byte_size();
  r.seal(make_delta(1.0, "/new/x", 1));
  EXPECT_GT(r.byte_size(), base);
  EXPECT_GT(r.versions_byte_size(), 0u);
}

/// Random replica lifecycles — seal()s of inserting and delete-only
/// versions, and reset()s to random bases, some in a bigger geometry (the
/// store's filters grew) — with every derived view checked against the
/// reference walk over versions() after each step. A bank column follows
/// the replica as the store keeps it (digests set on a seal, the differing
/// bits flipped on a reset, a rebuild on a geometry change), beside a
/// second column that shares its row words and never changes.
TEST(GroupReplica, DerivedStateMatchesReferenceWalk) {
  // Small filters fill up: many absent names hit the union of the base
  // and the sealed digests while matching no digest and missing the base,
  // so the walk behind the union decides.
  constexpr std::size_t kBits = 256;
  constexpr unsigned kHashes = 3;
  std::size_t union_only_hits = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    std::vector<bloom::ItemHash> probes;
    for (int i = 0; i < 64; ++i)
      probes.push_back(bloom::hash_item("/absent/" + std::to_string(i)));
    auto fresh_name = [&] {
      probes.push_back(
          bloom::hash_item("/n" + std::to_string(probes.size())));
      return probes.back();
    };
    auto random_vector = [&](double scale) {
      la::Vector v(kNumAttrs);
      for (auto& x : v) x = rng.uniform(-scale, scale);
      return v;
    };
    auto filter_bits = [&](std::uint64_t odd_one_in) {
      return rng.uniform_u64(odd_one_in) == 0 ? 2 * kBits : kBits;
    };
    auto random_base = [&] {
      GroupReplica::Base b;
      b.centroid_raw = random_vector(1e3);
      b.attr_sum = random_vector(1e6);
      b.file_count = rng.uniform_u64(4) == 0 ? 0 : rng.uniform_u64(1000);
      if (rng.uniform_u64(4) != 0) b.box = rtree::Mbr(random_vector(10));
      b.name_filter = bloom::BloomFilter(filter_bits(6), kHashes);
      for (std::uint64_t i = rng.uniform_u64(12); i > 0; --i)
        b.name_filter.insert(fresh_name());
      return b;
    };
    auto random_delta = [&] {
      VersionDelta v;
      v.added_attr_sum.assign(kNumAttrs, 0.0);
      if (rng.uniform_u64(3) == 0) {
        v.deleted.push_back(rng.uniform_u64(1000) + 1);  // delete-only
        return v;
      }
      v.added_count = 1 + rng.uniform_u64(4);
      for (std::size_t i = 0; i < v.added_count; ++i) {
        v.added_box.expand(random_vector(20));
        v.added_names.push_back(fresh_name());
        const la::Vector raw = random_vector(1e4);
        for (std::size_t d = 0; d < kNumAttrs; ++d) v.added_attr_sum[d] += raw[d];
      }
      return v;
    };

    GroupReplica r;
    r.reset(random_base());
    bloom::BloomFilter neighbour;
    bloom::BitSlicedBank bank;
    auto rebuild = [&] {
      const bloom::BloomFilter& f = r.base().name_filter;
      neighbour = bloom::BloomFilter(f.bit_count(), kHashes);
      for (int i = 0; i < 8; ++i)
        neighbour.insert(bloom::hash_item("/other/" + std::to_string(i)));
      bank = bloom::BitSlicedBank(f.bit_count(), kHashes,
                                  {neighbour, r.union_filter()});
    };
    rebuild();
    for (int step = 0; step < 60; ++step) {
      if (rng.uniform_u64(8) == 0) {
        const bloom::BloomFilter before = r.union_filter();
        r.reset(random_base());
        if (r.base().name_filter.bit_count() == before.bit_count()) {
          bank.update(1, before, r.base().name_filter);
        } else {
          rebuild();
        }
      } else {
        VersionDelta v = random_delta();
        for (const auto& h : v.added_names) bank.insert(1, h);
        r.seal(std::move(v));
      }
      ASSERT_TRUE(reference::matches(r, probes, &bank, 1))
          << "seed " << seed << " step " << step;
      ASSERT_EQ(bank.member(0), neighbour);

      const bloom::BloomFilter all = reference::union_filter(r);
      for (const auto& h : probes) {
        if (all.may_contain(h) && !reference::name_may_contain(r, h, true))
          ++union_only_hits;
      }
    }
  }
  EXPECT_GT(union_only_hits, 0u);
}

/// The store probes its group bank and reads a replica's version count
/// without the group's stripe, while writers seal versions and full-sync
/// groups. Two groups share the bank's row words here, each written by
/// its own thread under its own mutex (the group's stripe in the store).
/// Under TSan a plain access in that race is a report. A name every base
/// holds must probe positive in both columns throughout, and confirm under
/// the group's mutex: its bits are set in the old union and the new one,
/// and no write touches them.
TEST(GroupReplica, UnlockedProbesRaceSealAndReset) {
  const bloom::ItemHash always = bloom::hash_item("/always/here");
  auto base = [&](std::uint64_t salt) {
    GroupReplica::Base b;
    b.centroid_raw.assign(kNumAttrs, 0.0);
    b.attr_sum.assign(kNumAttrs, 0.0);
    b.name_filter = bloom::BloomFilter(1024, 7);
    b.name_filter.insert(always);
    for (int i = 0; i < 20; ++i)
      b.name_filter.insert(bloom::hash_item("/b" + std::to_string(salt) + "/" +
                                            std::to_string(i)));
    return b;
  };
  std::vector<bloom::ItemHash> others;
  for (int i = 0; i < 64; ++i)
    others.push_back(bloom::hash_item("/probe/" + std::to_string(i)));

  constexpr std::size_t kGroups = 2;
  std::array<GroupReplica, kGroups> r;
  std::array<std::mutex, kGroups> mu;
  r[0].reset(base(0));
  r[1].reset(base(1));
  bloom::BitSlicedBank bank(1024, 7, {r[0].union_filter(), r[1].union_filter()});

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> misses{0};
  std::atomic<std::size_t> probes{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t), maybes = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t hits = 0;
        bank.for_each_match(always, [&](std::size_t g) {
          ++hits;
          const std::lock_guard<std::mutex> lock(mu[g]);
          if (!r[g].confirm_name(always, true)) misses.fetch_add(1);
        });
        if (hits != kGroups) misses.fetch_add(1);
        bank.for_each_match(others[i++ % others.size()],
                            [&](std::size_t) { ++maybes; });
        maybes += r[i % kGroups].version_count();
        probes.fetch_add(1, std::memory_order_relaxed);
      }
      EXPECT_GE(maybes, 0u);
    });
  }
  // One writer per group, as the group's stripe serializes them in the
  // store.
  std::vector<std::thread> writers;
  for (std::size_t g = 0; g < kGroups; ++g) {
    writers.emplace_back([&, g] {
      for (std::uint64_t step = 1; step <= 2000; ++step) {
        const std::lock_guard<std::mutex> lock(mu[g]);
        if (step % 16 == 0) {
          const bloom::BloomFilter before = r[g].union_filter();
          r[g].reset(base(step * kGroups + g));
          bank.update(g, before, r[g].base().name_filter);
          continue;
        }
        VersionDelta v;
        v.added_attr_sum.assign(kNumAttrs, 1.0);
        v.added_count = 1;
        v.added_box =
            rtree::Mbr(la::Vector(kNumAttrs, static_cast<double>(step)));
        v.added_names.push_back(bloom::hash_item(
            "/v" + std::to_string(g) + "/" + std::to_string(step)));
        bank.insert(g, v.added_names.back());
        r[g].seal(std::move(v));
      }
    });
  }
  for (auto& th : writers) th.join();
  while (probes.load() < 1000) std::this_thread::yield();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(misses.load(), 0u);
  for (std::size_t g = 0; g < kGroups; ++g)
    EXPECT_TRUE(reference::matches(r[g], others, &bank, g)) << "group " << g;
}

}  // namespace
}  // namespace smartstore::core
