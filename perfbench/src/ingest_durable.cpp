// ingest_durable: the only workload through persist.
//
// A durable db::Store with default Options (adaptive group commit, delta
// checkpoints, compaction_trigger 4) plus a fixed checkpoint_every
// cadence, so every round goes through several cut -> fold cycles. It is
// bulkloaded with the MSN profile at TIF 1 (12,500 files) on 16 units.
// Two writer threads each run a closed loop of 80% create-Puts (disjoint
// slices of the insert stream), 10% Deletes of their own names (oldest
// first) and 10% point lookups of their own names; the main thread issues
// one Compact() once half the round's ops are done.
//
// The store grows ~5x in a round, and a point lookup's cost grows with it
// (a time-bounded prototype went from 94 us in its first second to 785 us
// in its tenth). A time-bounded phase would stop at a size set by the
// machine's speed and feed that noise back into every figure. So the timed
// phase is a number of identical rounds, each a fixed amount of work on a
// freshly bulkloaded store: one round per kRoundSeconds of --seconds, each
// about that long on the reference machine. Every round walks the same
// size trajectory, and each figure is the median over the rounds.
//
// Epilogue (untimed, after the last round): Flush and Compact; then one
// thread writes a fixed tail — writes, a cut, writes, a cut, writes,
// Flush — and Abandon()s the store like a power cut. The re-Open is timed
// (recover_s): it replays a base image, two cuts and the tail, whatever
// the background cuts did. Checks after recovery, with the exact
// Query(request, ReadOptions) snapshot overload: one full-space range scan
// must hold every acknowledged, undeleted file id and no
// acknowledged-deleted one, and a sample of names is looked up by point
// query. Any loss fails the run.
//
// The data directory lives under the work dir; fsync is counted and not
// forwarded (see io_counters.h).
#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <deque>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io_counters.h"
#include "smartstore/store.h"
#include "spans.h"
#include "trace/synth.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace db = smartstore::db;
namespace md = smartstore::metadata;

constexpr int kWriters = 2;
/// One round per this many seconds of --seconds.
constexpr double kRoundSeconds = 2.5;
/// Ops each writer issues per round: about kRoundSeconds of work on the
/// reference machine.
constexpr std::size_t kOpsPerWriterRound = 35'000;

enum class Kind : std::uint8_t { kCreate, kDelete, kPoint };

struct Op {
  Kind kind;
  std::uint32_t index;  ///< into the writer's slice
};

/// One writer's inputs: 80% creates, 10% deletes of its oldest live name,
/// 10% lookups of a name it created earlier.
std::vector<Op> make_ops(std::size_t n, std::uint64_t seed) {
  smartstore::util::Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(n);
  std::deque<std::uint32_t> live;
  std::uint32_t next = 0;
  while (ops.size() < n) {
    const double u = rng.uniform();
    Kind k = u < 0.8 ? Kind::kCreate : u < 0.9 ? Kind::kDelete : Kind::kPoint;
    if (k != Kind::kCreate && next == 0) k = Kind::kCreate;
    if (k == Kind::kDelete && live.empty()) k = Kind::kCreate;
    Op op{k, 0};
    if (k == Kind::kCreate) {
      op.index = next;
      live.push_back(next++);
    } else if (k == Kind::kDelete) {
      op.index = live.front();
      live.pop_front();
    } else {
      op.index = static_cast<std::uint32_t>(rng.uniform_u64(next));
    }
    ops.push_back(op);
  }
  return ops;
}

struct WriterResult {
  Samples put, del, point;
  std::vector<std::pair<std::int64_t, std::int64_t>> put_spans;  ///< [t0,t1)
  std::vector<char> created;  ///< acked create, by slice index
  std::vector<char> deleted;  ///< acked delete, by slice index
  std::uint64_t done = 0, failed = 0, user_bytes = 0;
};

/// Everything one round measured.
struct Round {
  std::vector<WriterResult> writers;
  double seconds = 0;
  std::int64_t fold0 = 0, fold1 = 0;  ///< the mid-round Compact
  IoCounters io;
  ProcUsage usage;  ///< cpu and context switches over the round
  db::CheckpointInfo ck0, ck1;
  std::uint64_t delta_bytes = 0;
  std::uint64_t group_commit = 0;
};

std::uint64_t record_bytes(const md::FileMetadata& f) {
  return sizeof(f.id) + f.name.size() + sizeof(f.attrs);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

std::uint64_t property(db::Store* store, const char* name) {
  std::string v;
  if (!store->GetProperty(name, &v))
    throw std::runtime_error(std::string("missing property ") + name);
  return std::stoull(v);
}

void check(const db::Status& s, const char* what) {
  if (!s.ok())
    throw std::runtime_error(std::string(what) + ": " + s.ToString());
}

/// Fresh directory, Open + Bulkload; records the set-up time.
std::unique_ptr<db::Store> set_up(const db::Options& opts,
                                  const std::string& dir,
                                  const std::vector<md::FileMetadata>& files,
                                  Samples* setup_s, Samples* bulkload_s) {
  std::filesystem::remove_all(dir);
  const std::int64_t t0 = now_ns();
  auto opened = db::Store::Open(opts, dir);
  check(opened.status(), "open");
  std::unique_ptr<db::Store> store = std::move(opened).value();
  const std::int64_t t1 = now_ns();
  check(store->Bulkload(files), "bulkload");
  const std::int64_t t2 = now_ns();
  setup_s->add(static_cast<double>(t2 - t0) * 1e-9);
  bulkload_s->add(static_cast<double>(t2 - t1) * 1e-9);
  return store;
}

/// One timed round: two writers through their streams, one Compact once
/// half the ops are done.
Round run_round(db::Store* store, const std::vector<std::vector<Op>>& streams,
                const std::vector<md::FileMetadata>& inserts,
                std::size_t slice, std::int64_t cap_ns) {
  Round round;
  round.writers.resize(kWriters);
  round.ck0 = store->GetCheckpointInfo();
  const std::uint64_t delta0 =
      property(store, "smartstore.ckpt.delta-total-bytes");
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::int64_t> start_ns{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      WriterResult& res = round.writers[w];
      const std::vector<Op>& ops = streams[w];
      const md::FileMetadata* mine = inserts.data() + slice * w;
      res.created.assign(slice, 0);
      res.deleted.assign(slice, 0);
      res.put.reserve(ops.size());
      res.put_spans.reserve(ops.size());
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::int64_t deadline = start_ns.load() + cap_ns;
      std::int64_t now = now_ns();
      std::size_t i = 0;
      for (; i < ops.size() && now < deadline; ++i) {
        const Op& op = ops[i];
        const md::FileMetadata& f = mine[op.index];
        spans::set_op((static_cast<std::uint64_t>(w) << 40) | i);
        const std::int64_t t0 = now_ns();
        bool ok = true;
        if (op.kind == Kind::kCreate) {
          {
            const spans::Scope span(spans::Name::kStorePut);
            ok = store->Put(f).ok();
          }
          now = now_ns();
          res.put.add(static_cast<double>(now - t0) * 1e-3);
          res.put_spans.emplace_back(t0, now);
          if (ok) {
            res.created[op.index] = 1;
            res.user_bytes += record_bytes(f);
          }
        } else if (op.kind == Kind::kDelete) {
          {
            const spans::Scope span(spans::Name::kStoreDelete);
            ok = store->Delete(f.name).ok();
          }
          now = now_ns();
          res.del.add(static_cast<double>(now - t0) * 1e-3);
          if (ok) {
            res.deleted[op.index] = 1;
            res.user_bytes += f.name.size();
          }
        } else {
          {
            const spans::Scope span(
                spans::Name::kStoreQuery,
                static_cast<std::uint8_t>(db::QueryKind::kPoint));
            ok = store->Query(db::QueryRequest::Point(f.name)).ok();
          }
          now = now_ns();
          res.point.add(static_cast<double>(now - t0) * 1e-3);
        }
        if (!ok) ++res.failed;
        progress.fetch_add(1, std::memory_order_relaxed);
      }
      res.done = i;
      if (i < ops.size())
        std::fprintf(stderr, "ingest_durable: writer %d hit the time cap\n",
                     w);
    });
  }
  while (ready.load() < kWriters) std::this_thread::yield();
  const ProcUsage usage0 = ProcUsage::Now();
  const IoCounters io0 = IoCounters::Now();
  const std::int64_t t_start = now_ns();
  start_ns.store(t_start);
  go.store(true, std::memory_order_release);
  const std::uint64_t half = streams[0].size() * kWriters / 2;
  while (progress.load(std::memory_order_relaxed) < half &&
         now_ns() - t_start < cap_ns)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  round.fold0 = now_ns();
  {
    const spans::Scope span(spans::Name::kStoreCompact);
    check(store->Compact(), "mid-round compact");
  }
  round.fold1 = now_ns();
  for (auto& t : threads) t.join();
  round.seconds = static_cast<double>(now_ns() - t_start) * 1e-9;
  round.io = IoCounters::Now() - io0;
  const ProcUsage usage1 = ProcUsage::Now();
  round.usage.cpu_s = usage1.cpu_s - usage0.cpu_s;
  round.usage.vol_csw = usage1.vol_csw - usage0.vol_csw;
  round.usage.invol_csw = usage1.invol_csw - usage0.invol_csw;
  round.ck1 = store->GetCheckpointInfo();
  round.delta_bytes =
      property(store, "smartstore.ckpt.delta-total-bytes") - delta0;
  round.group_commit =
      property(store, "smartstore.wal.group-commit.effective");
  return round;
}

}  // namespace

Outcome run_ingest_durable(const Args& args, Report* report) {
  namespace st = smartstore::trace;
  Outcome out;

  // ---- inputs (before any timing) ----------------------------------------
  const st::SyntheticTrace trace = st::SyntheticTrace::generate(
      st::msn_profile(), 1, kDatasetSeed, args.tiny ? 10 : 1);
  const auto& files = trace.files();
  const std::size_t slice = args.tiny ? 6000 : kOpsPerWriterRound;
  const int rounds =
      args.tiny ? 1
                : std::max(1, static_cast<int>(
                                  std::lround(args.seconds / kRoundSeconds)));
  const std::size_t tail = args.tiny ? 40 : 400;  // per tail segment
  // Creates are at most every op, so each writer's slice has one record
  // per op; every round replays the same streams on a fresh store.
  const auto inserts = trace.make_insert_stream(
      slice * kWriters + 3 * tail, sub_seed(args.seed, 9));
  std::vector<std::vector<Op>> streams;
  for (int w = 0; w < kWriters; ++w)
    streams.push_back(make_ops(slice, sub_seed(args.seed, 100 + w)));
  const md::FileMetadata* tail_files = inserts.data() + slice * kWriters;

  db::Options opts;
  opts.num_units = args.tiny ? 4 : 16;
  opts.checkpoint_every = args.tiny ? 500 : 5000;
  const std::string dir = args.work_dir + "/ingest_durable";
  // A slow machine stops a round at the cap instead of overrunning the
  // run's time budget; the stderr note says the trajectory was cut short.
  const auto cap_ns =
      static_cast<std::int64_t>((4 * kRoundSeconds + 10) * 1e9);

  // ---- set-up alone several times, then the timed rounds ------------------
  // Each round starts from a set-up of its own; those count in setup_s too.
  Samples setup_s, bulkload_s;
  for (int r = 0; r < args.setups(); ++r)
    check(set_up(opts, dir, files, &setup_s, &bulkload_s)->Close(), "close");
  std::vector<Round> done_rounds;
  std::unique_ptr<db::Store> store;
  for (int r = 0; r < rounds; ++r) {
    if (store) check(store->Close(), "close");
    store = set_up(opts, dir, files, &setup_s, &bulkload_s);
    done_rounds.push_back(
        run_round(store.get(), streams, inserts, slice, cap_ns));
  }
  const Round& last = done_rounds.back();

  // Figures are medians over the rounds, like the other workloads'
  // medians over one-second windows.
  WriterResult all;
  std::vector<Samples> put_parts, point_parts;
  Samples round_rate, during_fold;
  double timed_s = 0;
  IoCounters io;
  ProcUsage usage;
  std::uint64_t cuts = 0, folds = 0, cow = 0, ckpts = 0, delta_bytes = 0;
  for (const Round& rd : done_rounds) {
    timed_s += rd.seconds;
    io.fsyncs += rd.io.fsyncs;
    io.write_bytes += rd.io.write_bytes;
    io.write_calls += rd.io.write_calls;
    usage.cpu_s += rd.usage.cpu_s;
    usage.vol_csw += rd.usage.vol_csw;
    usage.invol_csw += rd.usage.invol_csw;
    cuts += rd.ck1.delta_cuts - rd.ck0.delta_cuts;
    folds += rd.ck1.delta_folds - rd.ck0.delta_folds;
    cow += rd.ck1.total_cow_copies - rd.ck0.total_cow_copies;
    ckpts += rd.ck1.completed - rd.ck0.completed;
    delta_bytes += rd.delta_bytes;
    put_parts.emplace_back();
    point_parts.emplace_back();
    std::uint64_t round_ops = 0;
    for (const WriterResult& w : rd.writers) {
      put_parts.back().append(w.put);
      point_parts.back().append(w.point);
      round_ops += w.done;
      all.put.append(w.put);
      all.del.append(w.del);
      all.done += w.done;
      all.failed += w.failed;
      all.user_bytes += w.user_bytes;
      for (const auto& [t0, t1] : w.put_spans)
        if (t0 < rd.fold1 && t1 > rd.fold0)
          during_fold.add(static_cast<double>(t1 - t0) * 1e-3);
    }
    round_rate.add(static_cast<double>(round_ops) / rd.seconds);
  }
  const std::uint64_t puts = all.put.size();
  const std::uint64_t mutations = puts + all.del.size();

  // ---- epilogue: Flush, Compact, fixed tail, crash, timed recovery --------
  const std::int64_t e0 = now_ns();
  {
    const spans::Scope span(spans::Name::kStoreFlush);
    check(store->Flush(), "flush");
  }
  const std::int64_t e1 = now_ns();
  {
    const spans::Scope span(spans::Name::kStoreCompact);
    check(store->Compact(), "compact");
  }
  const std::int64_t e2 = now_ns();
  const std::uint64_t live_files =
      property(store.get(), "smartstore.total-files");
  const std::uint64_t disk_bytes = dir_bytes(dir);
  Samples cut_ms;
  for (int seg = 0; seg < 3; ++seg) {
    for (std::size_t i = 0; i < tail; ++i) {
      const spans::Scope span(spans::Name::kStorePut);
      check(store->Put(tail_files[seg * tail + i]), "tail put");
    }
    if (seg == 2) break;
    const std::int64_t c0 = now_ns();
    {
      const spans::Scope span(spans::Name::kStoreCheckpoint);
      check(store->Checkpoint(), "tail cut");
    }
    cut_ms.add(static_cast<double>(now_ns() - c0) * 1e-6);
  }
  {
    const spans::Scope span(spans::Name::kStoreFlush);
    check(store->Flush(), "tail flush");
  }
  store->Abandon();
  store.reset();
  const std::int64_t r0 = now_ns();
  auto reopened = db::Store::Open(opts, dir);
  check(reopened.status(), "reopen");
  store = std::move(reopened).value();
  const double recover_s = static_cast<double>(now_ns() - r0) * 1e-9;
  const db::RecoveryInfo rec = store->recovery_info();

  // ---- output checks on the recovered store (the last round's) -----------
  std::vector<md::FileId> must_have, must_not;
  for (const auto& f : files) must_have.push_back(f.id);
  for (std::size_t i = 0; i < 3 * tail; ++i)
    must_have.push_back(tail_files[i].id);
  std::vector<std::string> sample_have, sample_gone;
  for (int w = 0; w < kWriters; ++w) {
    const WriterResult& r = last.writers[w];
    const auto cap = 100 * static_cast<std::size_t>(w + 1);
    for (std::size_t i = 0; i < slice; ++i) {
      const md::FileMetadata& f = inserts[slice * w + i];
      if (r.deleted[i]) {
        must_not.push_back(f.id);
        if (sample_gone.size() < cap) sample_gone.push_back(f.name);
      } else if (r.created[i]) {
        must_have.push_back(f.id);
        if (sample_have.size() < cap) sample_have.push_back(f.name);
      }
    }
  }
  md::RangeQuery everything;
  everything.dims = md::AttrSubset({md::Attr::kFileSize});
  everything.lo = {-DBL_MAX};
  everything.hi = {DBL_MAX};
  auto scan = store->Query(db::QueryRequest::Range(everything),
                           db::ReadOptions{});
  check(scan.status(), "verification scan");
  std::vector<md::FileId> present = scan->ids;
  std::sort(present.begin(), present.end());
  std::uint64_t lost = 0, resurrected = 0;
  for (md::FileId id : must_have)
    if (!std::binary_search(present.begin(), present.end(), id)) ++lost;
  for (md::FileId id : must_not)
    if (std::binary_search(present.begin(), present.end(), id)) ++resurrected;
  for (const std::string& name : sample_have) {
    auto r = store->Query(db::QueryRequest::Point(name), db::ReadOptions{});
    if (!r.ok() || !r->found) ++lost;
  }
  for (const std::string& name : sample_gone) {
    auto r = store->Query(db::QueryRequest::Point(name), db::ReadOptions{});
    if (!r.ok() || r->found) ++resurrected;
  }
  if (lost || resurrected)
    std::fprintf(stderr,
                 "ingest_durable: %llu acknowledged writes lost, %llu "
                 "acknowledged deletes undone\n",
                 static_cast<unsigned long long>(lost),
                 static_cast<unsigned long long>(resurrected));
  check(store->Close(), "close");
  store.reset();
  std::filesystem::remove_all(dir);

  out.attempted = all.done;
  out.failed = all.failed;
  out.correct = lost == 0 && resurrected == 0 && all.failed == 0;

  // ---- end-to-end ---------------------------------------------------------
  report->add("setup_s", setup_s.quantile(0.5), "s", setup_s.size());
  report->add("ops_per_s", round_rate.quantile(0.5), "1/s", all.done);
  report->add_latency("point", point_parts);
  report->add_latency("put", put_parts);
  report->add("recover_s", recover_s, "s", 1);
  report->add("disk_bytes_per_file",
              live_files ? static_cast<double>(disk_bytes) /
                               static_cast<double>(live_files)
                         : 0.0,
              "B", live_files);
  report->add("peak_rss_mb", ProcUsage::Now().max_rss_mb, "MB", 1);

  // ---- per-layer ----------------------------------------------------------
  report->add("db.bulkload_s", bulkload_s.quantile(0.5), "s",
              bulkload_s.size());
  report->add("db.flush_ms", static_cast<double>(e1 - e0) * 1e-6, "ms", 1);
  report->add("db.checkpoint_ms", cut_ms.quantile(0.5), "ms", cut_ms.size());
  report->add("db.compact_ms", static_cast<double>(e2 - e1) * 1e-6, "ms", 1);
  const double per_put = puts ? 1000.0 / static_cast<double>(puts) : 0.0;
  report->add("persist.fsyncs_per_1k_puts",
              static_cast<double>(io.fsyncs) * per_put, "count", puts);
  report->add("persist.write_bytes_per_user_byte",
              all.user_bytes ? static_cast<double>(io.write_bytes) /
                                   static_cast<double>(all.user_bytes)
                             : 0.0,
              "ratio", io.write_calls);
  report->add("persist.group_commit_effective",
              static_cast<double>(last.group_commit), "count", 1);
  const std::uint64_t periods = mutations / opts.checkpoint_every;
  report->add("persist.cuts", static_cast<double>(cuts), "count", periods);
  report->add("persist.folds", static_cast<double>(folds), "count", cuts);
  report->add("persist.cut_coverage",
              periods ? static_cast<double>(cuts) /
                            static_cast<double>(periods)
                      : 0.0,
              "ratio", periods);
  report->add("persist.cow_copies", static_cast<double>(cow), "count", ckpts);
  report->add("persist.delta_bytes",
              mutations ? static_cast<double>(delta_bytes) /
                              static_cast<double>(mutations)
                        : 0.0,
              "B/op", mutations);
  report->add("persist.put_p50_during_fold_us", during_fold.quantile(0.5),
              "us", during_fold.size());
  report->add("persist.replayed_records", static_cast<double>(rec.wal_records),
              "count", rec.wal_shards);
  report->add("persist.delta_records", static_cast<double>(rec.delta_records),
              "count", rec.delta_cuts);
  report->add("persist.replay_records_per_s",
              static_cast<double>(rec.wal_records + rec.delta_records) /
                  recover_s,
              "1/s", rec.wal_records + rec.delta_records);
  add_proc_metrics(report, ProcUsage{}, usage, all.done);
  if (args.trace) {
    out.spans = spans::take();
    add_trace_metrics(report, out.spans, timed_s * kWriters);
  }
  return out;
}

}  // namespace perfbench
