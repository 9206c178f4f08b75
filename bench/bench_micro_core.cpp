// Micro-benchmarks (google-benchmark) for the core operations: MD5
// hashing, Bloom filter ops, B+-tree ops, SVD/LSI fitting and projection,
// R-tree insert/search, SmartStore bulk build, record encoding and CRC-32,
// and query paths (routed, and exact at a pinned seq), and point lookups
// on a serving core alone and amid scans.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bloom/bloom_filter.h"
#include "bloom/md5.h"
#include "btree/bplus_tree.h"
#include "core/ground_truth.h"
#include "core/grouping.h"
#include "core/smartstore.h"
#include "la/svd.h"
#include "lsi/lsi.h"
#include "persist/codec.h"
#include "rtree/rtree.h"
#include "trace/query_gen.h"
#include "trace/synth.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace smartstore;

namespace {

// ---- hashing / filters ------------------------------------------------------

void BM_Md5Digest(benchmark::State& state) {
  const std::string name = "/sub3/u042/app017/f001234.dat";
  for (auto _ : state) {
    benchmark::DoNotOptimize(bloom::md5(name));
  }
}
BENCHMARK(BM_Md5Digest);

void BM_BloomInsert(benchmark::State& state) {
  bloom::BloomFilter bf(static_cast<std::size_t>(state.range(0)), 7);
  std::uint64_t i = 0;
  for (auto _ : state) {
    bf.insert("/file/" + std::to_string(i++));
  }
}
BENCHMARK(BM_BloomInsert)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_BloomQuery(benchmark::State& state) {
  bloom::BloomFilter bf(8192, 7);
  for (int i = 0; i < 500; ++i) bf.insert("/file/" + std::to_string(i));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.may_contain("/file/" + std::to_string(i++ % 1000)));
  }
}
BENCHMARK(BM_BloomQuery);

// ---- B+-tree ---------------------------------------------------------------

void BM_BtreeInsert(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    btree::BPlusTree<double, std::uint64_t> t;
    state.ResumeTiming();
    for (std::int64_t i = 0; i < state.range(0); ++i)
      t.insert(rng.uniform(0, 1e9), static_cast<std::uint64_t>(i));
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BtreeInsert)->Arg(1000)->Arg(10000);

void BM_BtreeRangeScan(benchmark::State& state) {
  btree::BPlusTree<double, std::uint64_t> t;
  util::Rng rng(2);
  for (int i = 0; i < 20000; ++i)
    t.insert(rng.uniform(0, 1000), static_cast<std::uint64_t>(i));
  for (auto _ : state) {
    std::size_t n = 0;
    t.range_scan(400, 420, [&](double, std::uint64_t) { ++n; });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_BtreeRangeScan);

// ---- linear algebra / LSI ---------------------------------------------------

void BM_SvdThin(benchmark::State& state) {
  util::Rng rng(3);
  la::Matrix a(10, static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.gauss();
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::svd_thin(a));
  }
}
BENCHMARK(BM_SvdThin)->Arg(60)->Arg(600)->Arg(6000);

void BM_LsiFit(benchmark::State& state) {
  util::Rng rng(4);
  std::vector<la::Vector> docs(static_cast<std::size_t>(state.range(0)),
                               la::Vector(10));
  for (auto& d : docs)
    for (auto& x : d) x = rng.gauss();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsi::LsiModel::fit(docs, 5));
  }
}
BENCHMARK(BM_LsiFit)->Arg(60)->Arg(600);

void BM_LsiProject(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<la::Vector> docs(200, la::Vector(10));
  for (auto& d : docs)
    for (auto& x : d) x = rng.gauss();
  const lsi::LsiModel m = lsi::LsiModel::fit(docs, 5);
  la::Vector q(10, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.project(q));
  }
}
BENCHMARK(BM_LsiProject);

// ---- R-tree ----------------------------------------------------------------

void BM_RtreeInsert(benchmark::State& state) {
  util::Rng rng(6);
  for (auto _ : state) {
    state.PauseTiming();
    rtree::RTree t(10, 16);
    state.ResumeTiming();
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      la::Vector p(10);
      for (auto& x : p) x = rng.gauss();
      t.insert(p, static_cast<std::uint64_t>(i));
    }
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RtreeInsert)->Arg(1000)->Arg(5000);

void BM_RtreeKnn(benchmark::State& state) {
  util::Rng rng(7);
  rtree::RTree t(10, 16);
  for (int i = 0; i < 10000; ++i) {
    la::Vector p(10);
    for (auto& x : p) x = rng.gauss();
    t.insert(p, static_cast<std::uint64_t>(i));
  }
  la::Vector q(10, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.knn(q, 8));
  }
}
BENCHMARK(BM_RtreeKnn);

// ---- bulk build -------------------------------------------------------------

/// The two bulkloaded populations of the repository benchmark (perfbench):
/// HP at TIF 4 (80,000 files, 60 units) and MSN at TIF 1 (12,500 files,
/// 16 units), from its dataset seed.
const trace::SyntheticTrace& bulk_trace(bool hp) {
  if (hp) {
    static const trace::SyntheticTrace tr =
        trace::SyntheticTrace::generate(trace::hp_profile(), 4, 42, 1);
    return tr;
  }
  static const trace::SyntheticTrace tr =
      trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42, 1);
  return tr;
}

/// SmartStore::build (placement fit, k-means, unit population, tree) as
/// Store::Bulkload runs it; Arg 0 = HP on 60 units, 1 = MSN on 16.
void BM_Bulkload(benchmark::State& state) {
  const bool hp = state.range(0) == 0;
  const trace::SyntheticTrace& tr = bulk_trace(hp);
  core::Config cfg;
  cfg.num_units = hp ? 60 : 16;
  cfg.fanout = 8;
  for (auto _ : state) {
    state.PauseTiming();
    auto store = std::make_unique<core::SmartStore>(cfg);
    state.ResumeTiming();
    store->build(tr.files());
    state.PauseTiming();
    store.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tr.files().size()));
  state.SetLabel(hp ? "hp_tif4_60_units" : "msn_tif1_16_units");
}
BENCHMARK(BM_Bulkload)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The build's file placement alone: balanced k-means of the HP TIF 4
/// population's LSI coordinates onto 60 units; Arg = pool workers (0 =
/// the calling thread only). The placement is the same for every Arg.
void BM_KmeansCluster(benchmark::State& state) {
  static const lsi::LsiModel model = lsi::LsiModel::fit_columns(
      core::attribute_matrix(bulk_trace(true).files()), 0);
  const std::size_t n = model.num_docs(), k = 60;
  const std::size_t cap = (n + k - 1) / k + 1 + n / (k * 8);
  std::unique_ptr<util::ThreadPool> pool;
  if (state.range(0) > 0)
    pool = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::kmeans_cluster(model.all_doc_coords(), k,
                                                  4, 42, cap, pool.get()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KmeansCluster)
    ->Arg(0)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- image encoding ---------------------------------------------------------

/// persist::write_file_meta over the MSN TIF 1 population (the 12,500
/// files ingest_durable bulkloads) into one BinaryWriter, as the base
/// image's UNITS section and WAL inserts encode records. The writer is
/// cleared, not freed, between iterations: this times the encoder, not
/// malloc.
void BM_EncodeFileRecords(benchmark::State& state) {
  const auto& files = bulk_trace(false).files();
  util::BinaryWriter w;
  for (auto _ : state) {
    w.clear();
    for (const auto& f : files) persist::write_file_meta(w, f);
    benchmark::DoNotOptimize(w.buffer().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.size()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(files.size()));
}
BENCHMARK(BM_EncodeFileRecords)->Unit(benchmark::kMicrosecond);

/// The CRC-32 every image section, WAL block and RPC frame carries, over
/// the bytes BM_EncodeFileRecords writes.
void BM_Crc32(benchmark::State& state) {
  util::BinaryWriter w;
  for (const auto& f : bulk_trace(false).files())
    persist::write_file_meta(w, f);
  const std::vector<std::uint8_t>& bytes = w.buffer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

// ---- SmartStore query paths --------------------------------------------------

struct StoreFixture {
  StoreFixture() {
    tr = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 5, 10);
    core::Config cfg;
    cfg.num_units = 20;
    cfg.fanout = 5;
    store = std::make_unique<core::SmartStore>(cfg);
    store->build(tr.files());
    gen = std::make_unique<trace::QueryGenerator>(
        tr, trace::QueryDistribution::kZipf, 8);
  }
  trace::SyntheticTrace tr;
  std::unique_ptr<core::SmartStore> store;
  std::unique_ptr<trace::QueryGenerator> gen;
};

StoreFixture& fixture() {
  static StoreFixture f;
  return f;
}

void BM_SmartStorePointQuery(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.store->point_query(
        f.gen->gen_point(0.9), core::Routing::kOffline, 0.0));
  }
}
BENCHMARK(BM_SmartStorePointQuery);

void BM_SmartStoreRangeQuery(benchmark::State& state) {
  auto& f = fixture();
  const auto dims = metadata::AttrSubset(
      {metadata::Attr::kModificationTime, metadata::Attr::kReadBytes});
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.store->range_query(
        f.gen->gen_range(dims, 0.05), core::Routing::kOffline, 0.0));
  }
}
BENCHMARK(BM_SmartStoreRangeQuery);

void BM_SmartStoreTopKQuery(benchmark::State& state) {
  auto& f = fixture();
  const auto dims = metadata::AttrSubset::all();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.store->topk_query(
        f.gen->gen_topk(dims, 8), core::Routing::kOffline, 0.0));
  }
}
BENCHMARK(BM_SmartStoreTopKQuery);

// The exact scans a read at a pinned seq runs (db::Store's as-of queries,
// which routed_mix's pinned Range and TopK send to every shard): the same
// store and query draws as the routed pair above, every record visited.

void BM_SmartStoreExactRangeQuery(benchmark::State& state) {
  auto& f = fixture();
  std::uint64_t seq = 0;
  const auto pin = f.store->pin_snapshot(&seq);
  const auto dims = metadata::AttrSubset(
      {metadata::Attr::kModificationTime, metadata::Attr::kReadBytes});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.store->snapshot_range_query(f.gen->gen_range(dims, 0.05), seq));
  }
}
BENCHMARK(BM_SmartStoreExactRangeQuery);

void BM_SmartStoreExactTopKQuery(benchmark::State& state) {
  auto& f = fixture();
  std::uint64_t seq = 0;
  const auto pin = f.store->pin_snapshot(&seq);
  const auto dims = metadata::AttrSubset::all();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.store->snapshot_topk_query(f.gen->gen_topk(dims, 8), seq));
  }
}
BENCHMARK(BM_SmartStoreExactTopKQuery);

// ---- point lookups on a serving core -----------------------------------------

/// A serving core shaped like the repository benchmark's semantic_query
/// store (the HP TIF 4 population, 80,000 files, on 60 units, fanout 8)
/// with a Zipf query generator over it.
struct ServingFixture {
  ServingFixture() {
    core::Config cfg;
    cfg.num_units = 60;
    cfg.fanout = 8;
    store = std::make_unique<core::SmartStore>(cfg);
    store->serve();
    store->build(bulk_trace(true).files());
    gen = std::make_unique<trace::QueryGenerator>(
        bulk_trace(true), trace::QueryDistribution::kZipf, 11);
  }
  std::unique_ptr<core::SmartStore> store;
  std::unique_ptr<trace::QueryGenerator> gen;
};

ServingFixture& serving_fixture() {
  static ServingFixture f;
  return f;
}

/// Off-line point lookups (10% absent names) on that core, three per
/// iteration: alone (Arg 0), or after a range query or a top-k query in
/// turn (Arg 1) on semantic_query's dims (mtime, read and write bytes;
/// boxes 5% wide, top-8), whose scans evict what the lookups keep warm.
/// Only the lookups are timed; the reported time is per three lookups.
void BM_ServingLookup(benchmark::State& state) {
  auto& f = serving_fixture();
  const bool amid_scans = state.range(0) == 1;
  const auto dims = metadata::AttrSubset({metadata::Attr::kModificationTime,
                                          metadata::Attr::kReadBytes,
                                          metadata::Attr::kWriteBytes});
  std::vector<metadata::PointQuery> points(3);
  bool range_next = true;
  for (auto _ : state) {
    if (amid_scans) {
      if (range_next) {
        benchmark::DoNotOptimize(f.store->range_query(
            f.gen->gen_range(dims, 0.05), core::Routing::kOffline));
      } else {
        benchmark::DoNotOptimize(f.store->topk_query(
            f.gen->gen_topk(dims, 8), core::Routing::kOffline));
      }
      range_next = !range_next;
    }
    for (auto& p : points) p = f.gen->gen_point(0.9);
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& p : points)
      benchmark::DoNotOptimize(f.store->point_query(p, core::Routing::kOffline));
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
  state.SetLabel(amid_scans ? "amid_scans" : "alone");
}
BENCHMARK(BM_ServingLookup)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
