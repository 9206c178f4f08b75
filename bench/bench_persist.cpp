// Persistence-layer throughput, measured through the smartstore::db::Store
// facade: checkpoint (a fold: full base image save) / Open (base image
// load) and WAL append/replay rates, plus restart-under-load.
//
// The number that motivates the subsystem is the reopen column — a restart
// that recovers the snapshot instead of re-running SVD + balanced k-means
// + bottom-up tree construction. Checkpoint/reopen are reported as
// wall-clock time, on-disk size, and files per second; the WAL as facade
// Puts per second, each Put acknowledged only once its WAL commit is
// fsynced, plus the replay rate (a reopen after a simulated crash) that
// bounds recovery time.
#include "bench_common.h"
#include "bench_db_common.h"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "smartstore/smartstore.h"
#include "util/bytes.h"
#include "util/timer.h"

using namespace smartstore;
using namespace smartstore::bench;

namespace {

db::Options bench_options(std::size_t units) {
  db::Options o;
  o.num_units = units;
  o.seed = 7;
  return o;
}

// Restart under load (the metric a production metadata service cares
// about): writer threads stream TIF-intensified inserts through the facade
// while background checkpoints run at the Options::checkpoint_every
// cadence; the process "crashes" mid-stream (Store::Abandon), and we
// measure recovery time, time-to-first-query and the recall of
// acknowledged inserts after reopening.
void restart_under_load() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "smartstore_bench_restart")
          .string();

  std::printf(
      "\n=== Restart under load: crash mid-stream, recover, serve ===\n\n");
  std::printf("%-4s %8s | %7s %9s | %9s %11s %8s\n", "TIF", "inserts",
              "ckpts", "wal-tail", "recover", "first-query", "recall");

  for (const unsigned tif : {1u, 4u}) {
    std::filesystem::remove_all(dir);
    const auto tr = trace::SyntheticTrace::generate(trace::msn_profile(), tif,
                                                    13, /*downscale=*/10);
    // A background checkpoint runs every `every` Puts. It folds once the
    // WAL holds as many records since the base as the base holds, and
    // writes nothing otherwise: the fourth outgrows the bulkloaded base
    // and folds. The stream runs half a cadence past it, so the crash
    // leaves a WAL tail that the reopen replays.
    const std::size_t churn = 1500 * tif;
    const std::size_t every = churn / 4;
    const auto stream = tr.make_insert_stream(churn + every / 2, 99);

    db::Options options = bench_options(30);
    options.checkpoint_every = every;
    auto opened = db::Store::Open(options, dir);
    check(opened.status(), "open");
    std::unique_ptr<db::Store> store = std::move(opened).value();
    check(store->Bulkload(tr.files()), "bulkload");
    check(store->Checkpoint(), "baseline checkpoint");

    std::thread writer([&] {
      for (const auto& f : stream) check(store->Put(f), "put");
    });
    writer.join();

    // Crash: every acknowledged insert is durable already; drop the
    // process state. Everything after this line sees only the on-disk
    // pair.
    const db::CheckpointInfo ck = store->GetCheckpointInfo();
    store->Abandon();
    store.reset();

    util::WallTimer t;
    db::Options reopen = bench_options(30);
    auto recovered = db::Store::Open(reopen, dir);
    check(recovered.status(), "recover");
    const double recover_s = t.seconds();
    const std::size_t wal_tail = (*recovered)->recovery_info().wal_records;
    auto first = (*recovered)->Query(db::QueryRequest::Point(
        metadata::PointQuery{stream.front().name}));
    check(first.status(), "first query");
    const double ttfq_s = t.seconds();

    std::size_t found = 0;
    for (const auto& f : stream) {
      db::QueryRequest q = db::QueryRequest::Point(
          metadata::PointQuery{f.name});
      q.routing = db::Routing::kOnline;  // exact: measures durability, not
      auto res = (*recovered)->Query(q); // replica staleness
      check(res.status(), "recall query");
      if (res->found) ++found;
    }

    std::printf("%-4u %8zu | %7llu %9llu | %8.3fs %10.3fs %7.1f%%\n", tif,
                stream.size(), static_cast<unsigned long long>(ck.completed),
                static_cast<unsigned long long>(wal_tail), recover_s, ttfq_s,
                100.0 * static_cast<double>(found) /
                    static_cast<double>(stream.size()));
    (*recovered)->Close();
  }
  std::printf(
      "\nwal-tail = WAL records the reopen replayed; recall = acked inserts "
      "found after reopening.\n");
  std::filesystem::remove_all(dir);
}

}  // namespace

int main() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "smartstore_bench_persist")
          .string();

  std::printf("=== Persistence: snapshot + WAL throughput (db facade) ===\n\n");
  std::printf("%-7s %8s | %9s %10s %10s | %9s %12s | %9s %9s\n", "trace",
              "files", "build", "ckpt", "size", "reopen", "load-files/s",
              "wal-put/s", "replay/s");

  for (const auto kind : {trace::TraceKind::kHP, trace::TraceKind::kMSN}) {
    const auto profile = trace::profile_for(kind);
    const auto tr = trace::SyntheticTrace::generate(profile, 2, 13, 5);
    std::filesystem::remove_all(dir);

    // Build + checkpoint through the facade.
    auto opened = db::Store::Open(bench_options(60), dir);
    check(opened.status(), "open");
    std::unique_ptr<db::Store> store = std::move(opened).value();
    util::WallTimer t;
    check(store->Bulkload(tr.files()), "bulkload");
    const double build_s = t.seconds();

    // Bulkload already folded once; time a second fold, the full-image
    // checkpoint (a plain Checkpoint() here would write nothing).
    t.reset();
    check(store->Compact(), "checkpoint");
    const double save_s = t.seconds();
    const std::size_t snap_bytes =
        static_cast<std::size_t>(int_property(*store,
                                              "smartstore.snapshot.bytes"));
    check(store->Close(), "close");

    // Reopen: snapshot load, no SVD/k-means/tree build.
    t.reset();
    auto reopened = db::Store::Open(bench_options(60), dir);
    check(reopened.status(), "reopen");
    const double load_s = t.seconds();
    store = std::move(reopened).value();
    const double nfiles = static_cast<double>(tr.files().size());

    // WAL: Put a churn stream, crash (Abandon: every acked Put is
    // durable, process state dropped), then time the reopen that replays
    // it.
    const std::size_t churn = 2000;
    const auto stream = tr.make_insert_stream(churn, 99);
    t.reset();
    for (const auto& f : stream) check(store->Put(f), "put");
    const double append_s = t.seconds();
    store->Abandon();
    store.reset();

    t.reset();
    auto replayed = db::Store::Open(bench_options(60), dir);
    check(replayed.status(), "replay reopen");
    const double replay_s = t.seconds();
    const std::size_t replayed_records =
        (*replayed)->recovery_info().wal_records;
    if (replayed_records != churn) {
      std::fprintf(stderr, "replay mismatch: expected %zu records, got %zu\n",
                    churn, replayed_records);
      return 1;
    }
    (*replayed)->Close();

    std::printf(
        "%-7s %8zu | %8.2fs %9.3fs %10s | %8.3fs %12.0f | %9.0f %9.0f\n",
        profile.name.c_str(), tr.files().size(), build_s, save_s,
        util::format_bytes(snap_bytes).c_str(), load_s, nfiles / load_s,
        static_cast<double>(churn) / append_s,
        static_cast<double>(churn) / replay_s);
  }

  std::printf(
      "\nrestart speedup = build / reopen; WAL rates include one commit "
      "fsync per Put. replay/s = reopen after crash, snapshot load + shard-merge "
      "replay.\n");
  std::filesystem::remove_all(dir);

  restart_under_load();
  return 0;
}
