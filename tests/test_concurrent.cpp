// Multi-writer serving: the striped mutation path under real threads.
//
// The contract under test (the PR's tentpole): any number of writer
// threads may insert/erase concurrently — routing under the shared
// structure lock, the mutation under the target unit's stripe — while
// background delta cuts and folds slice, freeze, serialize and rebase the
// sharded WAL underneath, and queries keep running throughout. Assertions run against
// a map oracle after the threads join (every insert landed exactly once,
// invariants hold, recovery reproduces the live state); the data-race
// half of the contract is what the ThreadSanitizer build of this suite
// checks (CMakePresets' tsan preset includes it).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "persist/compactor.h"
#include "persist/delta_checkpoint.h"
#include "persist/recovery.h"
#include "persist/wal_shard.h"
#include "trace/synth.h"

namespace smartstore::persist {
namespace {

using core::Config;
using core::Routing;
using core::SmartStore;
using metadata::FileMetadata;

std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("smartstore_conc_") + tag);
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

struct Deployment {
  trace::SyntheticTrace trace;
  SmartStore store;
  explicit Deployment(std::size_t units, unsigned downscale)
      : trace(trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42,
                                              downscale)),
        store([&] {
          Config cfg;
          cfg.num_units = units;
          cfg.seed = 7;
          return cfg;
        }()) {
    store.build(trace.files());
  }
};

/// Splits [0, n) into `parts` contiguous ranges.
std::vector<std::pair<std::size_t, std::size_t>> split(std::size_t n,
                                                       std::size_t parts) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t chunk = (n + parts - 1) / parts;
  for (std::size_t b = 0; b < n; b += chunk)
    out.emplace_back(b, std::min(b + chunk, n));
  return out;
}

TEST(MultiWriter, ConcurrentInsertsAllLandExactlyOnce) {
  Deployment d(8, /*downscale=*/20);
  SmartStore& store = d.store;
  const std::set<std::string> base = unit_names(store);
  const std::size_t base_count = store.total_files();

  const auto stream = d.trace.make_insert_stream(600, 77);
  const auto ranges = split(stream.size(), 4);
  std::vector<std::thread> writers;
  for (const auto& [b, e] : ranges) {
    writers.emplace_back([&, b = b, e = e] {
      for (std::size_t i = b; i < e; ++i) store.insert_file(stream[i], 0.0);
    });
  }
  for (auto& t : writers) t.join();

  // Oracle: base ∪ stream, every insert exactly once.
  EXPECT_EQ(store.total_files(), base_count + stream.size());
  EXPECT_TRUE(store.check_invariants());
  std::set<std::string> expect = base;
  for (const auto& f : stream) expect.insert(f.name);
  EXPECT_EQ(unit_names(store), expect);

  // On-line point routing is exact: every inserted file must resolve.
  std::size_t probes = 0;
  for (const auto& f : stream) {
    if (++probes > 40) break;
    EXPECT_TRUE(store.point_query({f.name}, Routing::kOnline, 0.0).found)
        << f.name;
  }
}

TEST(MultiWriter, ConcurrentInsertAndEraseMatchOracle) {
  Deployment d(8, /*downscale=*/20);
  SmartStore& store = d.store;
  const std::set<std::string> base = unit_names(store);

  // Each thread inserts its own slice and erases every third of its own
  // files — disjoint names, so the per-thread oracles compose.
  const auto stream = d.trace.make_insert_stream(480, 99);
  const auto ranges = split(stream.size(), 4);
  std::vector<std::thread> writers;
  for (const auto& [b, e] : ranges) {
    writers.emplace_back([&, b = b, e = e] {
      for (std::size_t i = b; i < e; ++i) {
        store.insert_file(stream[i], 0.0);
        if ((i - b) % 3 == 2) {
          EXPECT_TRUE(store.erase_file(stream[i].name)) << stream[i].name;
        }
      }
    });
  }
  for (auto& t : writers) t.join();

  std::set<std::string> expect = base;
  for (const auto& [b, e] : ranges)
    for (std::size_t i = b; i < e; ++i)
      if ((i - b) % 3 != 2) expect.insert(stream[i].name);
  EXPECT_TRUE(store.check_invariants());
  EXPECT_EQ(unit_names(store), expect);
  EXPECT_EQ(store.total_files(), expect.size());
}

TEST(MultiWriter, QueriesRunConcurrentlyWithWriters) {
  // Once on a simulating core (every visit and send takes the simulator's
  // lock) and once on a serving one (they take none).
  for (const bool serving : {false, true}) {
    SCOPED_TRACE(serving ? "serving" : "simulating");
    Deployment d(8, /*downscale=*/20);
    SmartStore& store = d.store;
    if (serving) store.serve();
    const auto stream = d.trace.make_insert_stream(400, 55);
    const auto dims = metadata::AttrSubset::all();

    std::atomic<bool> done{false};
    std::atomic<std::size_t> found{0};
    // Two reader threads hammer all three query kinds in both routing
    // modes while two writers insert; TSan is the judge, the counters just
    // keep the work from being optimized away.
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&, r] {
        std::size_t i = 0;
        while (!done.load(std::memory_order_acquire)) {
          const auto& f = stream[(i * 13 + static_cast<std::size_t>(r)) %
                                 stream.size()];
          const Routing routing = i % 2 == 0 ? Routing::kOnline
                                             : Routing::kOffline;
          if (store.point_query({f.name}, routing, 0.0).found)
            found.fetch_add(1, std::memory_order_relaxed);
          metadata::RangeQuery rq;
          rq.dims = dims;
          for (std::size_t a = 0; a < metadata::kNumAttrs; ++a) {
            rq.lo.push_back(f.attr(static_cast<metadata::Attr>(a)) * 0.9 - 1);
            rq.hi.push_back(f.attr(static_cast<metadata::Attr>(a)) * 1.1 + 1);
          }
          found.fetch_add(store.range_query(rq, routing, 0.0).ids.size(),
                          std::memory_order_relaxed);
          metadata::TopKQuery tq;
          tq.dims = dims;
          tq.k = 4;
          for (std::size_t a = 0; a < metadata::kNumAttrs; ++a)
            tq.point.push_back(f.attr(static_cast<metadata::Attr>(a)));
          found.fetch_add(store.topk_query(tq, routing, 0.0).hits.size(),
                          std::memory_order_relaxed);
          ++i;
        }
      });
    }
    const auto ranges = split(stream.size(), 2);
    std::vector<std::thread> writers;
    for (const auto& [b, e] : ranges) {
      writers.emplace_back([&, b = b, e = e] {
        for (std::size_t i = b; i < e; ++i) store.insert_file(stream[i], 0.0);
      });
    }
    for (auto& t : writers) t.join();
    done.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();

    EXPECT_TRUE(store.check_invariants());
    EXPECT_GT(found.load(), 0u);
    // Every inserted file is visible to exact on-line routing afterwards.
    for (std::size_t i = 0; i < 30; ++i) {
      EXPECT_TRUE(
          store.point_query({stream[i].name}, Routing::kOnline, 0.0).found);
    }
  }
}

TEST(MultiWriter, ShardedWalBackgroundCheckpointsRecoverEverything) {
  const std::string dir = temp_dir("bg");
  Deployment d(8, /*downscale=*/20);
  SmartStore& store = d.store;

  ShardedWal wal(dir, store.units().size());
  store.attach_journal(&wal);
  DeltaEngine engine(store, wal, dir);
  engine.fold();
  // A short chain budget: the background slot alternates cuts and folds.
  Compactor compactor(engine, /*max_chain_len=*/1, /*max_chain_bytes=*/0);

  const auto stream = d.trace.make_insert_stream(600, 31);
  const auto ranges = split(stream.size(), 4);
  std::atomic<std::size_t> done_writers{0};
  std::vector<std::thread> writers;
  for (const auto& [b, e] : ranges) {
    writers.emplace_back([&, b = b, e = e] {
      for (std::size_t i = b; i < e; ++i) {
        store.insert_file(stream[i], 0.0);
        // A third of each thread's files are erased again, through the
        // same sharded write-ahead discipline.
        if ((i - b) % 3 == 2) {
          EXPECT_TRUE(store.erase_file(stream[i].name));
        }
      }
      done_writers.fetch_add(1, std::memory_order_release);
    });
  }

  // Checkpoint continuously while the writers stream.
  std::size_t checkpoints = 0;
  while (done_writers.load(std::memory_order_acquire) < writers.size()) {
    if (compactor.trigger()) {
      compactor.wait();
      ++checkpoints;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : writers) t.join();
  while (checkpoints < 2) {
    ASSERT_TRUE(compactor.trigger());
    compactor.wait();
    ++checkpoints;
  }
  EXPECT_GE(checkpoints, 2u);

  // Acknowledge everything still pending, then recovery must reproduce
  // the live store exactly: base + delta chain + merged shard tails.
  wal.commit_all();
  const RecoveryResult rec = recover(dir);
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_GT(rec.wal_shards, 0u);
  EXPECT_EQ(rec.store->total_files(), store.total_files());
  EXPECT_EQ(unit_names(*rec.store), unit_names(store));
  std::filesystem::remove_all(dir);
}

TEST(MultiWriter, FiltersGrowFromEmptyUnderWritersReadersAndCheckpoints) {
  // A store built empty, filled by concurrent logged writers while readers
  // route and the background slot cuts and folds: every filter-growth step
  // takes the structure lock exclusively in between, copying units still
  // pending in an active freeze first.
  const std::string dir = temp_dir("growth");
  const auto tr = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42,
                                                  /*downscale=*/10);
  const std::vector<FileMetadata>& stream = tr.files();
  Config cfg;
  cfg.num_units = 8;
  cfg.seed = 7;
  SmartStore store(cfg);
  store.build({});
  ShardedWal wal(dir, store.units().size());
  store.attach_journal(&wal);
  DeltaEngine engine(store, wal, dir);
  engine.fold();
  Compactor compactor(engine, /*max_chain_len=*/1, /*max_chain_bytes=*/0);

  std::atomic<std::size_t> done_writers{0};
  std::atomic<std::size_t> found{0};
  std::thread reader([&] {
    for (std::size_t i = 0;
         done_writers.load(std::memory_order_acquire) < 3; ++i) {
      const auto& f = stream[(i * 13) % stream.size()];
      const Routing routing = i % 2 == 0 ? Routing::kOnline : Routing::kOffline;
      if (store.point_query({f.name}, routing, 0.0).found)
        found.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const auto ranges = split(stream.size(), 3);
  std::vector<std::thread> writers;
  for (const auto& [b, e] : ranges) {
    writers.emplace_back([&, b = b, e = e] {
      for (std::size_t i = b; i < e; ++i) store.insert_file(stream[i], 0.0);
      done_writers.fetch_add(1, std::memory_order_release);
    });
  }
  while (done_writers.load(std::memory_order_acquire) < writers.size()) {
    if (compactor.trigger()) {
      compactor.wait();
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : writers) t.join();
  reader.join();

  // 1,250 files on 8 units double the 1024-bit filters four times.
  EXPECT_GE(store.bloom_resizes(), 3u);
  SmartStore bulk(cfg);
  bulk.build(stream);
  EXPECT_EQ(store.bloom_bits(), bulk.bloom_bits());
  EXPECT_TRUE(store.check_invariants());
  EXPECT_EQ(store.total_files(), stream.size());
  std::set<std::string> expect;
  for (const auto& f : stream) expect.insert(f.name);
  EXPECT_EQ(unit_names(store), expect);
  for (const auto& f : stream)
    ASSERT_TRUE(store.point_query({f.name}, Routing::kOnline, 0.0).found)
        << f.name;

  // Recovery replays the same inserts and grows the filters again.
  wal.commit_all();
  const RecoveryResult rec = recover(dir);
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_EQ(rec.store->bloom_bits(), store.bloom_bits());
  EXPECT_EQ(unit_names(*rec.store), expect);
  std::filesystem::remove_all(dir);
}

TEST(MultiWriter, ReconfigurationRacesWritersThenFoldCapturesIt) {
  const std::string dir = temp_dir("structural");
  Deployment d(6, /*downscale=*/30);
  SmartStore& store = d.store;

  ShardedWal wal(dir, store.units().size());
  store.attach_journal(&wal);
  DeltaEngine engine(store, wal, dir);
  engine.fold();

  const auto stream = d.trace.make_insert_stream(300, 13);
  const auto ranges = split(stream.size(), 3);
  std::vector<std::thread> writers;
  for (const auto& [b, e] : ranges) {
    writers.emplace_back([&, b = b, e = e] {
      for (std::size_t i = b; i < e; ++i) store.insert_file(stream[i], 0.0);
    });
  }
  // Topology changes race the writers under the exclusive structure lock.
  // They log nothing; the fold after the join captures them, and every
  // insert the writers logged meanwhile.
  const core::UnitId added = store.add_storage_unit();
  store.autoconfigure({metadata::AttrSubset::from_mask(0x7u)});
  for (auto& t : writers) t.join();
  EXPECT_GE(added, 6u);

  engine.fold();
  const RecoveryResult rec = recover(dir);
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_EQ(rec.store->units().size(), store.units().size());
  EXPECT_EQ(rec.store->variants().size(), store.variants().size());
  EXPECT_EQ(rec.store->total_files(), store.total_files());
  EXPECT_EQ(unit_names(*rec.store), unit_names(store));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace smartstore::persist
