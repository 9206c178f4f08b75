// Scale tiers for the checkpoint engine: at 1M/5M/10M-file
// store sizes (parameterized — CI's nightly job runs the 1M tier), how
// much does a checkpoint cost once it is a WAL-delta cut instead of a
// full image?
//
// Per tier, against one on-disk deployment:
//   * full-image bytes + seconds (a fold) — the denominator of the
//     headline claim;
//   * delta-cut bytes + seconds after 1% churn — the numerator; the
//     engine's acceptance bar is delta < 5% of the full image at 1% churn
//     (reported as PASS/FAIL, and as delta_ratio_pct in the JSON);
//   * reopen seconds from base + delta chain, and crash-reopen seconds
//     with a WAL tail on top (recovery-time scaling);
//   * ingest puts/s quiet vs puts/s while a fold runs concurrently
//     (the epoch-freeze/COW "checkpoint does not stop the world" claim,
//     reported as degradation_pct).
//
// Usage: bench_scale [--files N] [--json PATH]
// Environment: BENCH_SCALE_FILES (same as --files), BENCH_SMOKE=1 (tiny
// tier so CI smoke runs exercise every path).
#include "bench_common.h"
#include "bench_db_common.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "smartstore/smartstore.h"
#include "util/bytes.h"
#include "util/timer.h"

using namespace smartstore;
using namespace smartstore::bench;

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v && *v ? static_cast<std::size_t>(std::strtoull(v, nullptr, 10))
                 : fallback;
}

metadata::FileMetadata synth_file(std::uint64_t id) {
  metadata::FileMetadata f;
  f.id = id;
  f.name = "scale_" + std::to_string(id) + ".dat";
  for (std::size_t a = 0; a < metadata::kNumAttrs; ++a)
    f.attrs[a] = static_cast<double>((id * 2654435761ull + a * 40503) % 100000) /
                 100.0;
  return f;
}

/// Sum of the checkpoint base images on disk — the full-image cost. (The
/// fold prunes superseded bases, so after a compaction exactly one
/// base-<id>.bin remains.)
std::uint64_t base_image_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator(dir / "ckpt", ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("base-", 0) == 0) total += e.file_size(ec);
  }
  return total;
}

double timed_puts(db::Store& store, std::uint64_t first_id,
                  std::size_t count) {
  util::WallTimer t;
  for (std::size_t i = 0; i < count; ++i)
    check(store.Put(synth_file(first_id + i)), "put");
  check(store.Flush(), "flush");
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t files = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--files") == 0 && i + 1 < argc)
      files = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
  }
  const bool smoke = env_size("BENCH_SMOKE", 0) != 0;
  if (files == 0)
    files = env_size("BENCH_SCALE_FILES", smoke ? 5000 : 100000);
  const std::size_t churn = std::max<std::size_t>(1, files / 100);  // 1%

  const std::string dir =
      (std::filesystem::current_path() / "bench_scale_state").string();
  std::filesystem::remove_all(dir);

  db::Options options;
  options.num_units = smoke ? 16 : 64;
  options.seed = 7;
  options.compaction_trigger = 0;  // manual folds only: the bench is the
  options.compaction_byte_budget = 0;  // policy here, not the compactor

  std::printf("bench_scale: %zu files, %zu churn (1%%), %zu units\n\n",
              files, churn, options.num_units);

  // ---- build the tier -------------------------------------------------------
  std::vector<metadata::FileMetadata> base;
  base.reserve(files);
  for (std::uint64_t i = 0; i < files; ++i) base.push_back(synth_file(i));

  auto opened = db::Store::Open(options, dir);
  check(opened.status(), "open");
  std::unique_ptr<db::Store> store = std::move(opened).value();
  util::WallTimer t;
  check(store->Bulkload(base), "bulkload");
  const double build_s = t.seconds();
  base.clear();
  base.shrink_to_fit();

  // ---- full image (fold) ----------------------------------------------------
  t.reset();
  check(store->Compact(), "fold");
  const double full_s = t.seconds();
  const std::uint64_t full_bytes = base_image_bytes(dir);

  // ---- delta cut after 1% churn ---------------------------------------------
  const double churn_quiet_s = timed_puts(*store, files, churn);
  t.reset();
  check(store->Checkpoint(), "delta cut");
  const double delta_s = t.seconds();
  const db::CheckpointInfo info = store->GetCheckpointInfo();
  const std::uint64_t delta_bytes = info.delta_chain_bytes;
  const double ratio_pct = full_bytes > 0
                               ? 100.0 * static_cast<double>(delta_bytes) /
                                     static_cast<double>(full_bytes)
                               : 0.0;

  std::printf("%-26s %12s %10s\n", "checkpoint", "bytes", "seconds");
  std::printf("%-26s %12s %9.3fs\n", "full image (fold)",
              util::format_bytes(full_bytes).c_str(), full_s);
  std::printf("%-26s %12s %9.3fs\n", "delta cut (1% churn)",
              util::format_bytes(delta_bytes).c_str(), delta_s);
  std::printf("%-26s %11.2f%%  -> %s (bar: < 5%%)\n\n", "delta / full",
              ratio_pct, ratio_pct < 5.0 ? "PASS" : "FAIL");

  // ---- recovery time --------------------------------------------------------
  check(store->Close(), "close");
  t.reset();
  opened = db::Store::Open(options, dir);
  check(opened.status(), "reopen");
  const double reopen_s = t.seconds();
  store = std::move(opened).value();
  const std::uint64_t total_now =
      int_property(*store, "smartstore.total-files");
  if (total_now != files + churn) {
    std::fprintf(stderr, "reopen lost files: expected %zu, got %llu\n",
                 files + churn, static_cast<unsigned long long>(total_now));
    return 1;
  }

  // Crash-reopen: a fresh 1% WAL tail on top of base + chain.
  timed_puts(*store, files + churn, churn);
  store->Abandon();
  store.reset();
  t.reset();
  opened = db::Store::Open(options, dir);
  check(opened.status(), "crash reopen");
  const double crash_reopen_s = t.seconds();
  store = std::move(opened).value();

  std::printf("%-26s %9.3fs (%.0f files/s)\n", "reopen (base+deltas)",
              reopen_s, static_cast<double>(files + churn) / reopen_s);
  std::printf("%-26s %9.3fs (%zu-record WAL tail)\n\n", "crash reopen",
              crash_reopen_s, churn);

  // ---- ingest degradation during compaction ---------------------------------
  // Quiet rate was measured above; now ingest the same volume while a
  // fold runs concurrently (epoch-freeze/COW: traffic must keep flowing).
  std::uint64_t next_id = files + 2 * churn;
  std::atomic<bool> fold_failed{false};
  std::thread folder([&] {
    const db::Status s = store->Compact();
    if (!s.ok()) fold_failed.store(true);
  });
  const double churn_busy_s = timed_puts(*store, next_id, churn);
  folder.join();
  if (fold_failed.load()) {
    std::fprintf(stderr, "concurrent fold failed\n");
    return 1;
  }
  const double quiet_rate = static_cast<double>(churn) / churn_quiet_s;
  const double busy_rate = static_cast<double>(churn) / churn_busy_s;
  const double degradation_pct =
      quiet_rate > 0 ? 100.0 * (1.0 - busy_rate / quiet_rate) : 0.0;
  std::printf("%-26s %12.0f puts/s\n", "ingest quiet", quiet_rate);
  std::printf("%-26s %12.0f puts/s (%.1f%% degradation)\n",
              "ingest during fold", busy_rate, degradation_pct);

  check(store->Close(), "final close");
  std::filesystem::remove_all(dir);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"files\": %zu,\n"
                 "  \"churn\": %zu,\n"
                 "  \"build_seconds\": %.6f,\n"
                 "  \"full_ckpt_bytes\": %llu,\n"
                 "  \"full_ckpt_seconds\": %.6f,\n"
                 "  \"delta_ckpt_bytes\": %llu,\n"
                 "  \"delta_ckpt_seconds\": %.6f,\n"
                 "  \"delta_ratio_pct\": %.4f,\n"
                 "  \"delta_ratio_pass\": %s,\n"
                 "  \"reopen_seconds\": %.6f,\n"
                 "  \"crash_reopen_seconds\": %.6f,\n"
                 "  \"ingest_quiet_per_sec\": %.1f,\n"
                 "  \"ingest_during_fold_per_sec\": %.1f,\n"
                 "  \"degradation_pct\": %.2f\n"
                 "}\n",
                 files, churn, build_s,
                 static_cast<unsigned long long>(full_bytes), full_s,
                 static_cast<unsigned long long>(delta_bytes), delta_s,
                 ratio_pct, ratio_pct < 5.0 ? "true" : "false", reopen_s,
                 crash_reopen_s, quiet_rate, busy_rate, degradation_pct);
    std::fclose(f);
    std::printf("json     : wrote %s\n", json_path.c_str());
  }
  return 0;
}
