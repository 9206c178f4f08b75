// Tests for the Bloom filter substrate: no false negatives, bounded false
// positives at the paper's 1024-bit / k=7 configuration, hierarchy unions,
// counting-filter deletions.
#include "bloom/bloom_filter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace smartstore::bloom {
namespace {

std::vector<std::string> make_names(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back("/u" + std::to_string(rng.uniform_u64(100)) + "/f" +
                  std::to_string(i) + "_" + std::to_string(rng.next_u64()));
  }
  return out;
}

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bf(1024, 7);
  const auto names = make_names(80, 1);
  for (const auto& n : names) bf.insert(n);
  for (const auto& n : names) EXPECT_TRUE(bf.may_contain(n));
}

TEST(BloomFilter, FalsePositiveRateAtPaperConfig) {
  // ~100 items in 1024 bits with k=7: theoretical FPP ~ 1.5%; allow slack.
  BloomFilter bf(1024, 7);
  const auto inserted = make_names(100, 2);
  for (const auto& n : inserted) bf.insert(n);
  const auto probes = make_names(5000, 3);
  std::size_t fp = 0;
  for (const auto& p : probes)
    if (bf.may_contain(p + "#absent")) ++fp;
  EXPECT_LT(static_cast<double>(fp) / 5000.0, 0.05);
}

TEST(BloomFilter, EmptyFilterRejectsEverything) {
  BloomFilter bf(1024, 7);
  for (const auto& n : make_names(100, 4)) EXPECT_FALSE(bf.may_contain(n));
  EXPECT_EQ(bf.popcount(), 0u);
}

TEST(BloomFilter, MergeIsUnion) {
  BloomFilter a(1024, 7), b(1024, 7);
  const auto na = make_names(40, 5);
  const auto nb = make_names(40, 6);
  for (const auto& n : na) a.insert(n);
  for (const auto& n : nb) b.insert(n);
  a.merge(b);
  for (const auto& n : na) EXPECT_TRUE(a.may_contain(n));
  for (const auto& n : nb) EXPECT_TRUE(a.may_contain(n));
}

TEST(BloomFilter, HierarchicalUnionPropagatesPositives) {
  // Three "leaf" filters unioned into a parent, as in Figure 4.
  BloomFilter leaf1(1024, 7), leaf2(1024, 7), leaf3(1024, 7);
  leaf1.insert("/a/1");
  leaf2.insert("/b/2");
  leaf3.insert("/c/3");
  BloomFilter parent(1024, 7);
  parent.merge(leaf1);
  parent.merge(leaf2);
  parent.merge(leaf3);
  EXPECT_TRUE(parent.may_contain("/a/1"));
  EXPECT_TRUE(parent.may_contain("/b/2"));
  EXPECT_TRUE(parent.may_contain("/c/3"));
  // A child-level negative can still be parent-positive (union), but a
  // parent negative must imply child negatives.
  if (!parent.may_contain("/never/inserted")) {
    EXPECT_FALSE(leaf1.may_contain("/never/inserted"));
  }
}

TEST(BloomFilter, BitsRoundedToWordMultiple) {
  BloomFilter bf(100, 3);
  EXPECT_EQ(bf.bit_count() % 64, 0u);
  EXPECT_GE(bf.bit_count(), 100u);
}

TEST(BloomFilter, FillRatioAndEstimatedFpp) {
  BloomFilter bf(1024, 7);
  EXPECT_DOUBLE_EQ(bf.fill_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(bf.estimated_fpp(), 0.0);
  for (const auto& n : make_names(64, 7)) bf.insert(n);
  EXPECT_GT(bf.fill_ratio(), 0.0);
  EXPECT_LT(bf.fill_ratio(), 1.0);
  EXPECT_GT(bf.estimated_fpp(), 0.0);
}

TEST(BloomFilter, ClearResets) {
  BloomFilter bf(1024, 7);
  bf.insert("/x");
  EXPECT_TRUE(bf.may_contain("/x"));
  bf.clear();
  EXPECT_FALSE(bf.may_contain("/x"));
  EXPECT_EQ(bf.popcount(), 0u);
}

TEST(CountingBloomFilter, InsertRemoveRoundTrip) {
  CountingBloomFilter cbf(1024, 7);
  cbf.insert("/data/file1");
  EXPECT_TRUE(cbf.may_contain("/data/file1"));
  cbf.remove("/data/file1");
  EXPECT_FALSE(cbf.may_contain("/data/file1"));
}

TEST(CountingBloomFilter, RemoveKeepsOtherItems) {
  CountingBloomFilter cbf(2048, 7);
  const auto names = make_names(50, 8);
  for (const auto& n : names) cbf.insert(n);
  cbf.remove(names[0]);
  // No false negatives for the remaining items.
  for (std::size_t i = 1; i < names.size(); ++i)
    EXPECT_TRUE(cbf.may_contain(names[i]));
}

TEST(CountingBloomFilter, ToBloomFilterMatchesMembership) {
  CountingBloomFilter cbf(1024, 7);
  const auto names = make_names(60, 9);
  for (const auto& n : names) cbf.insert(n);
  cbf.remove(names[5]);
  const BloomFilter bf = cbf.to_bloom_filter();
  BloomFilter plain(1024, 7);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i == 5) continue;
    EXPECT_TRUE(bf.may_contain(names[i]));
    plain.insert(names[i]);
  }
  EXPECT_EQ(bf.bit_count(), cbf.bit_count());
  // Bit for bit: a counter above zero is exactly a set bit.
  EXPECT_EQ(bf, plain);
}

TEST(CountingBloomFilter, DuplicateInsertsNeedMatchingRemoves) {
  CountingBloomFilter cbf(1024, 7);
  cbf.insert("/f");
  cbf.insert("/f");
  cbf.remove("/f");
  EXPECT_TRUE(cbf.may_contain("/f"));  // one copy still accounted
  cbf.remove("/f");
  EXPECT_FALSE(cbf.may_contain("/f"));
}

class BloomGeometryTest
    : public ::testing::TestWithParam<std::pair<std::size_t, unsigned>> {};

TEST_P(BloomGeometryTest, NoFalseNegativesAcrossGeometries) {
  const auto [bits, k] = GetParam();
  BloomFilter bf(bits, k);
  const auto names = make_names(bits / 16, 10);
  for (const auto& n : names) bf.insert(n);
  for (const auto& n : names) EXPECT_TRUE(bf.may_contain(n));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BloomGeometryTest,
    ::testing::Values(std::make_pair<std::size_t, unsigned>(256, 3),
                      std::make_pair<std::size_t, unsigned>(512, 5),
                      std::make_pair<std::size_t, unsigned>(1024, 7),
                      std::make_pair<std::size_t, unsigned>(4096, 7),
                      std::make_pair<std::size_t, unsigned>(8192, 11)));

// ---- bit-sliced bank ----------------------------------------------------------

/// The bank answers as its members' plain filters do: every matching
/// member in increasing order, and each member's bits.
::testing::AssertionResult bank_matches(const BitSlicedBank& bank,
                                        const std::vector<BloomFilter>& want,
                                        const std::vector<ItemHash>& probes) {
  if (bank.members() != want.size())
    return ::testing::AssertionFailure() << "member count";
  for (std::size_t m = 0; m < want.size(); ++m)
    if (!(bank.member(m) == want[m]))
      return ::testing::AssertionFailure() << "member " << m << " bits";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    std::vector<std::size_t> expect, got;
    for (std::size_t m = 0; m < want.size(); ++m)
      if (want[m].may_contain(probes[i])) expect.push_back(m);
    bank.for_each_match(probes[i], [&](std::size_t m) { got.push_back(m); });
    if (got != expect)
      return ::testing::AssertionFailure() << "matches of probe " << i;
  }
  return ::testing::AssertionSuccess();
}

/// Random members (more than 64 of them in some geometries, so rows span
/// words), then inserts, diff updates and a rebuild in a bigger geometry,
/// each checked against per-member BloomFilters.
TEST(BitSlicedBank, MatchesPerMemberFilters) {
  for (const std::size_t members : {1, 2, 3, 8, 27, 64, 65, 130}) {
    util::Rng rng(members);
    std::vector<ItemHash> probes;
    auto fresh = [&] {
      probes.push_back(hash_item("/n" + std::to_string(probes.size()) + "_" +
                                 std::to_string(members)));
      return probes.back();
    };
    for (int i = 0; i < 200; ++i) fresh();  // absent from every member
    auto random_filter = [&](std::size_t bits) {
      BloomFilter f(bits, 5);
      for (std::uint64_t n = rng.uniform_u64(40); n > 0; --n) f.insert(fresh());
      return f;
    };
    std::size_t bits = 512;
    std::vector<BloomFilter> want;
    for (std::size_t m = 0; m < members; ++m) want.push_back(random_filter(bits));
    BitSlicedBank bank(bits, 5, want);
    ASSERT_TRUE(bank_matches(bank, want, probes)) << members << " members";

    for (int step = 0; step < 40; ++step) {
      const std::size_t m = rng.uniform_u64(members);
      if (rng.uniform_u64(3) == 0) {
        BloomFilter next = random_filter(bits);
        bank.update(m, want[m], next);
        want[m] = std::move(next);
      } else {
        const ItemHash h = fresh();
        bank.insert(m, h);
        want[m].insert(h);
      }
      ASSERT_TRUE(bank_matches(bank, want, probes))
          << members << " members, step " << step;
    }
    // The patched bank is the bank a rebuild from the same filters makes.
    EXPECT_TRUE(bank == BitSlicedBank(bits, 5, want)) << members << " members";
    EXPECT_FALSE(bank == BitSlicedBank(bits, 5, {}));

    bits = 2048;  // the geometry grows: a new bank
    for (auto& f : want) f = random_filter(bits);
    bank = BitSlicedBank(bits, 5, want);
    ASSERT_TRUE(bank_matches(bank, want, probes)) << members << " grown";
  }
}

/// A row is as wide as the smallest power of two covering the members, or
/// whole words beyond 64 members: the store's geometries cost these.
TEST(BitSlicedBank, RowWidthFollowsMemberCount) {
  auto payload = [](std::size_t members, std::size_t bits) {
    const BitSlicedBank bank(bits, 7,
                             std::vector<BloomFilter>(members, BloomFilter(bits, 7)));
    return bank.byte_size() - sizeof(BitSlicedBank);
  };
  EXPECT_EQ(payload(27, 131072), 131072u * 4);
  EXPECT_EQ(payload(8, 131072), 131072u);
  EXPECT_EQ(payload(8, 524288), 524288u);
  EXPECT_EQ(payload(2, 32768), 32768u / 4);
  EXPECT_EQ(payload(1, 1024), 1024u / 8);
  EXPECT_EQ(payload(65, 1024), 1024u * 16);
}

/// Readers probe with no lock while one writer per member inserts items
/// and replaces its filter by diff updates; three members share every row
/// word. Under TSan a plain access in that race is a report. An item every
/// version of every member holds never reads absent.
TEST(BitSlicedBank, UnlockedProbesRaceWriters) {
  constexpr std::size_t kMembers = 3;
  constexpr std::size_t kBits = 1024;
  const ItemHash always = hash_item("/always/here");
  auto base = [&](std::uint64_t salt) {
    BloomFilter f(kBits, 7);
    f.insert(always);
    for (int i = 0; i < 20; ++i)
      f.insert(hash_item("/b" + std::to_string(salt) + "/" + std::to_string(i)));
    return f;
  };
  std::vector<BloomFilter> current;
  for (std::size_t m = 0; m < kMembers; ++m) current.push_back(base(m));
  BitSlicedBank bank(kBits, 7, current);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> misses{0};
  std::atomic<std::size_t> probes{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t), maybes = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t hits = 0;
        bank.for_each_match(always, [&](std::size_t) { ++hits; });
        if (hits != kMembers) misses.fetch_add(1);
        bank.for_each_match(hash_item("/probe/" + std::to_string(i++ % 64)),
                            [&](std::size_t) { ++maybes; });
        probes.fetch_add(1, std::memory_order_relaxed);
      }
      EXPECT_GE(maybes, 0u);
    });
  }
  std::vector<std::thread> writers;
  for (std::size_t m = 0; m < kMembers; ++m) {
    writers.emplace_back([&, m] {
      BloomFilter& cur = current[m];  // this writer's member alone
      for (std::uint64_t step = 1; step <= 2000; ++step) {
        if (step % 16 == 0) {
          BloomFilter next = base(step * kMembers + m);
          bank.update(m, cur, next);
          cur = std::move(next);
        } else {
          const ItemHash h =
              hash_item("/v" + std::to_string(m) + "/" + std::to_string(step));
          bank.insert(m, h);
          cur.insert(h);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  while (probes.load() < 1000) std::this_thread::yield();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(misses.load(), 0u);
  for (std::size_t m = 0; m < kMembers; ++m)
    EXPECT_EQ(bank.member(m), current[m]) << "member " << m;
}

}  // namespace
}  // namespace smartstore::bloom
