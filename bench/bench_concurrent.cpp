// Multi-writer ingest throughput and sharded-WAL recovery, driven through
// the smartstore::db::Store facade.
//
// Measures what the striped mutation path + per-unit WAL shards buy:
//
//   1. inserts/sec at 1/2/4/8 writer threads, without WAL (ephemeral
//      in-memory store: routing under the shared structure lock, apply
//      under the target unit's stripe) and with the sharded WAL (each
//      insert committed and fsynced before it is acknowledged, each shard
//      independently — writers routed to different units overlap their
//      durability waits, which is the win even when cores are scarce);
//   2. off-line point lookups/sec of existing names at 1/2/4 reader
//      threads on one in-memory store (HP profile at TIF 4, 80,000 files,
//      on 60 units at fanout 8): a db::Store core serves (it runs no
//      virtual-time simulator), so its readers take no simulator lock;
//   3. recovery time from the sharded logs: one Open = snapshot load + N
//      records merged across shards by sequence number and replayed.
//
// Every thread drives the same Store handle with small WriteBatches — the
// facade's documented multi-writer contract, so these numbers ARE the
// embedding API's numbers, not a core-layer best case.
//
// Wall-clock numbers depend on hardware: CPU-bound scaling needs cores
// (std::thread::hardware_concurrency is printed with the results), the
// WAL-bound configuration also needs independent fsyncs to overlap on the
// backing device. Reference: on a 4-core x86-64 VM with ext4 on a virtio
// disk, 4 writers with WAL ran at 1.6-2.2x the single-writer rate over
// 10 runs (medians 20.6k and 10.5k inserts/s).
//
// Environment knobs:
//   BENCH_SMOKE=1          tiny sizes (CI smoke: exercises every path)
//   BENCH_INSERTS=N        override the per-run insert count
// Arguments:
//   --json PATH            additionally emit machine-readable results
//                          (scripts/bench_report.sh -> BENCH_persist.json)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_db_common.h"
#include "smartstore/smartstore.h"
#include "trace/synth.h"
#include "util/timer.h"

namespace {

using namespace smartstore;
using bench::check;
using bench::int_property;

struct IngestResult {
  std::size_t threads = 0;
  bool wal = false;
  double seconds = 0;
  std::size_t inserts = 0;
  double per_sec() const { return static_cast<double>(inserts) / seconds; }
};

struct LookupResult {
  std::size_t threads = 0;
  double seconds = 0;
  std::size_t lookups = 0;
  std::size_t found = 0;
  double per_sec() const { return static_cast<double>(lookups) / seconds; }
};

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

db::Options make_options(std::size_t units, bool wal_on) {
  db::Options o;
  o.num_units = units;
  o.seed = 7;
  o.in_memory = !wal_on;
  return o;
}

/// One timed ingest run: `threads` writers claim contiguous batches of
/// `stream` and push them through Store::Write. Returns wall-clock seconds.
double run_ingest(db::Store& store,
                  const std::vector<metadata::FileMetadata>& stream,
                  std::size_t threads) {
  const std::size_t batch = 32;
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    while (true) {
      const std::size_t b = next.fetch_add(batch, std::memory_order_relaxed);
      if (b >= stream.size()) break;
      const std::size_t e = std::min(b + batch, stream.size());
      db::WriteBatch wb;
      wb.reserve(e - b);
      for (std::size_t i = b; i < e; ++i) wb.Put(stream[i]);
      check(store.Write(std::move(wb)), "write");
    }
  };

  util::WallTimer t;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers.emplace_back(worker);
  for (auto& w : workers) w.join();
  return t.seconds();
}

/// One timed read run: `threads` readers share `lookups` off-line point
/// lookups of the names in `files`, each reader striding through them
/// from its own offset. Fills seconds and found.
void run_lookups(db::Store& store,
                 const std::vector<metadata::FileMetadata>& files,
                 LookupResult& r) {
  std::atomic<std::size_t> found{0};
  auto reader = [&](std::size_t t) {
    std::size_t hits = 0;
    for (std::size_t i = t; i < r.lookups; i += r.threads) {
      db::QueryRequest req =
          db::QueryRequest::Point(files[(i * 7919) % files.size()].name);
      req.routing = db::Routing::kOffline;
      auto res = store.Query(req);
      check(res.status(), "lookup");
      if (res->found) ++hits;
    }
    found.fetch_add(hits, std::memory_order_relaxed);
  };

  util::WallTimer t;
  std::vector<std::thread> readers;
  readers.reserve(r.threads);
  for (std::size_t i = 0; i < r.threads; ++i) readers.emplace_back(reader, i);
  for (auto& w : readers) w.join();
  r.seconds = t.seconds();
  r.found = found.load();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  const bool smoke = env_size("BENCH_SMOKE", 0) != 0;
  const std::size_t units = smoke ? 8 : 16;
  const std::size_t inserts =
      env_size("BENCH_INSERTS", smoke ? 800 : 20000);
  const std::size_t lookups = smoke ? 2000 : 400000;

  const auto tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/smoke ? 50 : 10);
  const auto stream = tr.make_insert_stream(inserts, 77);

  std::printf(
      "bench_concurrent: %zu base files, %zu inserts/run, %zu units, "
      "hardware threads %u\n\n",
      tr.files().size(), stream.size(), units,
      std::thread::hardware_concurrency());

  const std::filesystem::path state =
      std::filesystem::current_path() / "bench_concurrent_state";

  // ---- ingest scaling -------------------------------------------------------
  std::vector<IngestResult> results;
  std::printf("%-8s %-6s %12s %12s %10s\n", "threads", "wal", "seconds",
              "inserts/s", "speedup");
  for (const bool wal_on : {false, true}) {
    double base_per_sec = 0;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      // Fresh deployment per run: identical starting state, no carry-over.
      if (wal_on) std::filesystem::remove_all(state);
      auto opened =
          db::Store::Open(make_options(units, wal_on), state.string());
      check(opened.status(), "open");
      std::unique_ptr<db::Store> store = std::move(opened).value();
      check(store->Bulkload(tr.files()), "bulkload");

      IngestResult r;
      r.threads = threads;
      r.wal = wal_on;
      r.inserts = stream.size();
      r.seconds = run_ingest(*store, stream, threads);
      if (threads == 1) base_per_sec = r.per_sec();
      std::printf("%-8zu %-6s %12.3f %12.0f %9.2fx\n", r.threads,
                  wal_on ? "on" : "off", r.seconds, r.per_sec(),
                  r.per_sec() / base_per_sec);
      results.push_back(r);
      check(store->Close(), "close");
    }
  }

  // ---- point-lookup scaling --------------------------------------------------
  // One bulkloaded in-memory store, read by 1, 2 and 4 threads at once.
  std::vector<LookupResult> reads;
  {
    const auto hp = trace::SyntheticTrace::generate(
        trace::hp_profile(), smoke ? 1 : 4, 42, smoke ? 10 : 1);
    db::Options o;
    o.in_memory = true;
    o.num_units = smoke ? 8 : 60;
    o.fanout = 8;
    auto opened = db::Store::Open(o, "");
    check(opened.status(), "open");
    std::unique_ptr<db::Store> store = std::move(opened).value();
    check(store->Bulkload(hp.files()), "bulkload");
    std::printf("\n%zu files on %zu units, %zu lookups/run\n",
                hp.files().size(), o.num_units, lookups);
    std::printf("%-8s %12s %12s %10s %8s\n", "readers", "seconds",
                "lookups/s", "speedup", "found");
    for (const std::size_t threads : {1u, 2u, 4u}) {
      LookupResult r;
      r.threads = threads;
      r.lookups = lookups;
      run_lookups(*store, hp.files(), r);
      std::printf("%-8zu %12.3f %12.0f %9.2fx %7.1f%%\n", r.threads,
                  r.seconds, r.per_sec(),
                  r.per_sec() / (reads.empty() ? r : reads[0]).per_sec(),
                  100.0 * static_cast<double>(r.found) /
                      static_cast<double>(r.lookups));
      reads.push_back(r);
    }
    check(store->Close(), "close");
  }

  // ---- recovery from sharded logs -------------------------------------------
  // Checkpoint the base deployment, ingest the whole stream (4 writers,
  // WAL on), crash, then recover: one Open = snapshot load +
  // sequence-merged shard replay.
  std::filesystem::remove_all(state);
  double recover_seconds = 0;
  std::size_t recovered_records = 0;
  {
    auto opened = db::Store::Open(make_options(units, true), state.string());
    check(opened.status(), "open");
    std::unique_ptr<db::Store> store = std::move(opened).value();
    check(store->Bulkload(tr.files()), "bulkload");
    check(store->Checkpoint(), "checkpoint");
    run_ingest(*store, stream, 4);
    const std::uint64_t expected =
        int_property(*store, "smartstore.total-files");
    store->Abandon();  // crash: every acked insert is already durable,
    store.reset();     // process state dropped

    util::WallTimer t;
    auto recovered =
        db::Store::Open(make_options(units, true), state.string());
    check(recovered.status(), "recover");
    recover_seconds = t.seconds();
    recovered_records = (*recovered)->recovery_info().wal_records;
    const std::uint64_t got =
        int_property(**recovered, "smartstore.total-files");
    if (got != expected) {
      std::fprintf(stderr,
                   "recovery mismatch: expected %llu files, got %llu\n",
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(got));
      return 1;
    }
    std::printf(
        "\nrecovery : %zu WAL records from %zu shards in %.3f s "
        "(%.0f records/s), %llu files restored\n",
        recovered_records, (*recovered)->recovery_info().wal_shards,
        recover_seconds,
        static_cast<double>(recovered_records) / recover_seconds,
        static_cast<unsigned long long>(got));
    (*recovered)->Close();
  }
  std::filesystem::remove_all(state);

  // results layout: [0..3] wal-off x {1,2,4,8} threads, [4..7] wal-on.
  const double speedup4 =
      results[4].per_sec() > 0 ? results[6].per_sec() / results[4].per_sec()
                               : 0;  // wal-on: 4 threads vs 1
  std::printf(
      "\nsummary  : wal-on 4-writer speedup %.2fx vs 1 writer "
      "(CPU-bound scaling needs cores; fsync overlap carries the rest); "
      "4-reader lookup speedup %.2fx vs 1 reader\n",
      speedup4, reads[2].per_sec() / reads[0].per_sec());

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"ingest\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const IngestResult& r = results[i];
      std::fprintf(f,
                   "    {\"threads\": %zu, \"wal\": %s, \"inserts\": %zu, "
                   "\"seconds\": %.6f, \"inserts_per_sec\": %.1f}%s\n",
                   r.threads, r.wal ? "true" : "false", r.inserts, r.seconds,
                   r.per_sec(), i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"lookups\": [\n");
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const LookupResult& r = reads[i];
      std::fprintf(f,
                   "    {\"threads\": %zu, \"lookups\": %zu, \"found\": "
                   "%zu, \"seconds\": %.6f, \"lookups_per_sec\": %.1f}%s\n",
                   r.threads, r.lookups, r.found, r.seconds, r.per_sec(),
                   i + 1 < reads.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"recovery\": {\"records\": %zu, \"seconds\": "
                 "%.6f}\n}\n",
                 recovered_records, recover_seconds);
    std::fclose(f);
    std::printf("json     : wrote %s\n", json_path.c_str());
  }
  return 0;
}
