// Facade-overhead bench: what does the smartstore::db::Store boundary cost
// over raw core::SmartStore calls, and how fast are facade-level
// open/recover/ingest? Emits BENCH_db.json (scripts/bench_report.sh) so
// the API layer's overhead is tracked from the PR that introduced it.
//
// Three comparisons, same population and insert stream:
//   put     facade Put() (in-memory store: no WAL, so the measured delta
//           is the boundary itself — status plumbing, lifecycle lock,
//           counters) vs raw insert_file on a bare core store that
//           serves, like the facade's (core::SmartStore::serve);
//   batch   facade Write(WriteBatch of 64) vs 64 raw insert_file calls;
//   durable facade Put() with the sharded WAL attached vs raw insert_file
//           on a core with the WAL attached by hand (the composition
//           Open() replaces).
// Plus the lifecycle numbers embedders plan capacity around: fresh
// Open+Bulkload, Checkpoint, reopen (snapshot load), reopen after a crash
// (snapshot load + shard-merged replay).
//
// Environment knobs: BENCH_SMOKE=1 (tiny sizes), BENCH_INSERTS=N.
// Arguments: --json PATH.
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
#include "core/smartstore.h"
#include "persist/wal_shard.h"
#include "smartstore/smartstore.h"
#include "trace/synth.h"
#include "util/timer.h"

namespace {

using namespace smartstore;
using bench::check;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

struct Rates {
  double facade_per_sec = 0;
  double raw_per_sec = 0;
  double overhead_pct() const {
    if (facade_per_sec <= 0) return 0;
    return (raw_per_sec / facade_per_sec - 1.0) * 100.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  const bool smoke = env_size("BENCH_SMOKE", 0) != 0;
  const std::size_t units = smoke ? 8 : 16;
  const std::size_t inserts = env_size("BENCH_INSERTS", smoke ? 600 : 12000);

  const auto tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/smoke ? 50 : 10);
  const auto stream = tr.make_insert_stream(inserts, 77);

  std::printf(
      "bench_db_api: %zu base files, %zu inserts/run, %zu units\n\n",
      tr.files().size(), stream.size(), units);

  core::Config cfg;
  cfg.num_units = units;
  cfg.seed = 7;

  db::Options mem_options;
  mem_options.num_units = units;
  mem_options.seed = 7;
  mem_options.in_memory = true;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "smartstore_bench_db")
          .string();

  // ---- put: facade boundary cost alone (no WAL on either side) -------------
  Rates put;
  {
    auto opened = db::Store::Open(mem_options, "");
    check(opened.status(), "open in-memory");
    check((*opened)->Bulkload(tr.files()), "bulkload");
    util::WallTimer t;
    for (const auto& f : stream) check((*opened)->Put(f), "put");
    put.facade_per_sec = static_cast<double>(stream.size()) / t.seconds();
  }
  {
    core::SmartStore raw(cfg);
    raw.serve();  // as every db::Store core does
    raw.build(tr.files());
    util::WallTimer t;
    for (const auto& f : stream) raw.insert_file(f, 0.0);
    put.raw_per_sec = static_cast<double>(stream.size()) / t.seconds();
  }

  // ---- batch: Write(64-Put batches) vs 64 raw inserts ---------------------
  Rates batch;
  const std::size_t kBatch = 64;
  {
    auto opened = db::Store::Open(mem_options, "");
    check(opened.status(), "open in-memory");
    check((*opened)->Bulkload(tr.files()), "bulkload");
    util::WallTimer t;
    for (std::size_t b = 0; b < stream.size(); b += kBatch) {
      const std::size_t e = std::min(b + kBatch, stream.size());
      db::WriteBatch wb;
      wb.reserve(e - b);
      for (std::size_t i = b; i < e; ++i) wb.Put(stream[i]);
      check((*opened)->Write(std::move(wb)), "write");
    }
    batch.facade_per_sec = static_cast<double>(stream.size()) / t.seconds();
  }
  {
    core::SmartStore raw(cfg);
    raw.serve();  // as every db::Store core does
    raw.build(tr.files());
    util::WallTimer t;
    for (const auto& f : stream) raw.insert_file(f, 0.0);
    batch.raw_per_sec = static_cast<double>(stream.size()) / t.seconds();
  }

  // ---- durable: Put with WAL shards vs hand-wired core + ShardedWal --------
  Rates durable;
  double open_fresh_s = 0, bulkload_s = 0, checkpoint_s = 0;
  {
    std::filesystem::remove_all(dir);
    db::Options o;
    o.num_units = units;
    o.seed = 7;
    util::WallTimer t;
    auto opened = db::Store::Open(o, dir);
    open_fresh_s = t.seconds();
    check(opened.status(), "open durable");
    t.reset();
    check((*opened)->Bulkload(tr.files()), "bulkload");
    bulkload_s = t.seconds();
    t.reset();
    for (const auto& f : stream) check((*opened)->Put(f), "put");
    check((*opened)->Flush(), "flush");
    durable.facade_per_sec = static_cast<double>(stream.size()) / t.seconds();
    t.reset();
    check((*opened)->Checkpoint(), "checkpoint");
    checkpoint_s = t.seconds();
    check((*opened)->Close(), "close");
  }
  {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    core::SmartStore raw(cfg);
    raw.serve();  // as every db::Store core does
    raw.build(tr.files());
    persist::ShardedWal wal(dir, units);
    raw.attach_journal(&wal);
    util::WallTimer t;
    for (const auto& f : stream) raw.insert_file(f, 0.0);
    wal.commit_all();
    raw.attach_journal(nullptr);
    durable.raw_per_sec = static_cast<double>(stream.size()) / t.seconds();
  }

  // ---- lifecycle: reopen (snapshot only) and crash-reopen (replay) ---------
  double reopen_s = 0, crash_reopen_s = 0;
  std::size_t replayed = 0;
  {
    std::filesystem::remove_all(dir);
    db::Options o;
    o.num_units = units;
    o.seed = 7;
    auto opened = db::Store::Open(o, dir);
    check(opened.status(), "open durable");
    check((*opened)->Bulkload(tr.files()), "bulkload");
    check((*opened)->Checkpoint(), "checkpoint");
    check((*opened)->Close(), "close");

    util::WallTimer t;
    auto reopened = db::Store::Open(o, dir);
    check(reopened.status(), "reopen");
    reopen_s = t.seconds();
    for (const auto& f : stream) check((*reopened)->Put(f), "put");
    check((*reopened)->Flush(), "flush");
    (*reopened)->Abandon();  // crash: snapshot + full shard tail on disk

    t.reset();
    auto recovered = db::Store::Open(o, dir);
    check(recovered.status(), "crash reopen");
    crash_reopen_s = t.seconds();
    replayed = (*recovered)->recovery_info().wal_records;
    (*recovered)->Close();
  }
  std::filesystem::remove_all(dir);

  // ---- snapshot scan under writers -----------------------------------------
  // A pinned-snapshot range scan racing a writer thread streaming Puts:
  // the MVCC read path's throughput, plus the stability check the whole
  // design is for (every scan at the pinned seq returns the same rows).
  double snap_scans_per_sec = 0, snap_writer_puts_per_sec = 0;
  std::size_t snap_rows = 0;
  bool snap_stable = true;
  {
    auto opened = db::Store::Open(mem_options, "");
    check(opened.status(), "open in-memory");
    check((*opened)->Bulkload(tr.files()), "bulkload");
    db::Store& store = **opened;

    auto snap = store.GetSnapshot();
    check(snap.status(), "get snapshot");
    db::ReadOptions ro;
    ro.snapshot_seq = snap->sequence();

    metadata::RangeQuery rq;
    rq.dims = metadata::AttrSubset(
        {metadata::Attr::kFileSize, metadata::Attr::kCreationTime});
    rq.lo = la::Vector{-1e30, -1e30};
    rq.hi = la::Vector{1e30, 1e30};
    const auto req = db::QueryRequest::Range(rq);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> writes{0};
    std::thread writer([&] {
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        check(store.Put(stream[i % stream.size()]), "writer put");
        writes.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });

    auto first = store.Query(req, ro);
    check(first.status(), "snapshot scan");
    snap_rows = first->ids.size();
    const std::size_t kScans = smoke ? 20 : 100;
    util::WallTimer t;
    for (std::size_t s = 0; s < kScans; ++s) {
      auto r = store.Query(req, ro);
      check(r.status(), "snapshot scan");
      if (r->ids != first->ids) snap_stable = false;
    }
    const double scan_s = t.seconds();
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    snap_scans_per_sec = static_cast<double>(kScans) / scan_s;
    snap_writer_puts_per_sec =
        static_cast<double>(writes.load()) / scan_s;
    check(snap_stable
              ? db::Status::OK()
              : db::Status::Corruption("snapshot scan drifted under writes"),
          "snapshot stability");
  }

  std::printf("%-8s %14s %14s %10s\n", "path", "facade/s", "raw/s",
              "overhead");
  std::printf("%-8s %14.0f %14.0f %9.1f%%\n", "put", put.facade_per_sec,
              put.raw_per_sec, put.overhead_pct());
  std::printf("%-8s %14.0f %14.0f %9.1f%%\n", "batch", batch.facade_per_sec,
              batch.raw_per_sec, batch.overhead_pct());
  std::printf("%-8s %14.0f %14.0f %9.1f%%\n", "durable",
              durable.facade_per_sec, durable.raw_per_sec,
              durable.overhead_pct());
  std::printf(
      "\nlifecycle: open(fresh) %.3fs, bulkload %.3fs, checkpoint %.3fs, "
      "reopen %.3fs, crash-reopen %.3fs (%zu records replayed)\n",
      open_fresh_s, bulkload_s, checkpoint_s, reopen_s, crash_reopen_s,
      replayed);
  std::printf(
      "snapshot : %.0f pinned scans/s (%zu rows each, stable=%s) against "
      "%.0f concurrent puts/s\n",
      snap_scans_per_sec, snap_rows, snap_stable ? "yes" : "NO",
      snap_writer_puts_per_sec);
  std::printf(
      "overhead = how much faster the raw core path is; near zero means "
      "the facade boundary is free at this batch size.\n");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"inserts\": %zu,\n  \"units\": %zu,\n",
                 stream.size(), units);
    std::fprintf(f,
                 "  \"put\": {\"facade_per_sec\": %.1f, \"raw_per_sec\": "
                 "%.1f, \"overhead_pct\": %.2f},\n",
                 put.facade_per_sec, put.raw_per_sec, put.overhead_pct());
    std::fprintf(f,
                 "  \"batch\": {\"facade_per_sec\": %.1f, \"raw_per_sec\": "
                 "%.1f, \"overhead_pct\": %.2f},\n",
                 batch.facade_per_sec, batch.raw_per_sec,
                 batch.overhead_pct());
    std::fprintf(f,
                 "  \"durable\": {\"facade_per_sec\": %.1f, "
                 "\"raw_per_sec\": %.1f, \"overhead_pct\": %.2f},\n",
                 durable.facade_per_sec, durable.raw_per_sec,
                 durable.overhead_pct());
    std::fprintf(f,
                 "  \"lifecycle\": {\"open_fresh_s\": %.6f, \"bulkload_s\": "
                 "%.6f, \"checkpoint_s\": %.6f, \"reopen_s\": %.6f, "
                 "\"crash_reopen_s\": %.6f, \"replayed_records\": %zu},\n",
                 open_fresh_s, bulkload_s, checkpoint_s, reopen_s,
                 crash_reopen_s, replayed);
    std::fprintf(f,
                 "  \"snapshot_scan\": {\"scans_per_sec\": %.1f, "
                 "\"rows\": %zu, \"stable\": %s, "
                 "\"concurrent_puts_per_sec\": %.1f}\n}\n",
                 snap_scans_per_sec, snap_rows, snap_stable ? "true" : "false",
                 snap_writer_puts_per_sec);
    std::fclose(f);
    std::printf("json     : wrote %s\n", json_path.c_str());
  }
  return 0;
}
