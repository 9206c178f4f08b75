// semantic_query: the paper's own mechanism on one in-memory store.
//
// An in-memory db::Store is bulkloaded with the HP profile at TIF 4
// (80,000 files) on 60 units, fanout 8, default offline routing. One
// client issues read-only calls in a closed loop: 60% point lookups of
// Zipf-popular names (10% absent), 20% range queries over mtime, read
// bytes and write bytes (boxes 5% wide, Zipf-anchored), 20% top-8 queries
// (Zipf). No writer, disk or RPC is on the path, so a core/lsi/bloom
// change shows here alone.
//
// Output checks run before the timed loop on the freshly built store, on
// a fixed prefix of the op stream and from the main thread (the first
// thread to query the store, so its routing rng stream is the same on
// every run): hit ratio and recall against core::brute_force_*, and no
// wrong answer (a found name with the wrong id, an absent name found, a
// range result outside the box, an unknown top-k id). Recall and the core
// counts therefore repeat exactly for a seed.
#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/ground_truth.h"
#include "smartstore/store.h"
#include "spans.h"
#include "trace/query_gen.h"
#include "trace/synth.h"
#include "workloads.h"

namespace perfbench {

namespace {

using smartstore::db::QueryKind;
using smartstore::db::QueryRequest;
using smartstore::db::QueryResult;
using smartstore::metadata::FileId;

struct Op {
  QueryRequest request;
  bool exists = false;  ///< point: the name is in the population
  FileId truth = 0;     ///< point: its id
};

smartstore::metadata::AttrSubset query_dims() {
  using smartstore::metadata::Attr;
  return smartstore::metadata::AttrSubset(
      {Attr::kModificationTime, Attr::kReadBytes, Attr::kWriteBytes});
}

/// Check-phase tallies (deterministic for a seed).
struct Check {
  std::size_t wrong = 0;
  std::size_t failed = 0;
  std::size_t point_existing = 0, point_found = 0, point_first_try = 0;
  std::size_t range_n = 0, range_scored = 0;
  double range_recall_sum = 0;
  std::uint64_t range_groups = 0, range_scanned = 0, range_msgs = 0,
                range_results = 0;
  std::size_t topk_n = 0, topk_scored = 0;
  double topk_recall_sum = 0;
  std::uint64_t topk_groups = 0, topk_scanned = 0, topk_msgs = 0,
                topk_results = 0;
};

}  // namespace

Outcome run_semantic_query(const Args& args, Report* report) {
  namespace db = smartstore::db;
  namespace st = smartstore::trace;
  Outcome out;

  // ---- inputs (before any timing) ----------------------------------------
  const unsigned tif = args.tiny ? 1 : 4;
  const unsigned downscale = args.tiny ? 10 : 1;
  const st::SyntheticTrace trace = st::SyntheticTrace::generate(
      st::hp_profile(), tif, kDatasetSeed, downscale);
  const auto& files = trace.files();
  std::unordered_map<std::string, FileId> id_of;
  std::unordered_set<FileId> all_ids;
  id_of.reserve(files.size());
  for (const auto& f : files) {
    id_of.emplace(f.name, f.id);
    all_ids.insert(f.id);
  }

  const std::size_t stream_len = args.tiny ? 4096 : 65536;
  const std::size_t check_len = args.tiny ? 600 : 2500;
  st::QueryGenerator gen(trace, st::QueryDistribution::kZipf,
                         sub_seed(args.seed, 1));
  smartstore::util::Rng pick(sub_seed(args.seed, 2));
  const auto dims = query_dims();
  std::vector<Op> ops(stream_len);
  for (Op& op : ops) {
    const double u = pick.uniform();
    if (u < 0.60) {
      auto q = gen.gen_point(0.9);
      const auto it = id_of.find(q.filename);
      op.exists = it != id_of.end();
      op.truth = op.exists ? it->second : 0;
      op.request = QueryRequest::Point(std::move(q));
    } else if (u < 0.80) {
      op.request = QueryRequest::Range(gen.gen_range(dims, 0.05));
    } else {
      op.request = QueryRequest::TopK(gen.gen_topk(dims, 8));
    }
  }
  const auto standardizer = smartstore::core::fit_standardizer(files);

  // ---- setup, several times; the last store serves the run ---------------
  db::Options opts;
  opts.in_memory = true;
  opts.num_units = args.tiny ? 8 : 60;
  opts.fanout = 8;
  Samples setup_s, bulkload_s;
  std::unique_ptr<db::Store> store;
  for (int r = 0; r < args.setups(); ++r) {
    store.reset();
    const std::int64_t t0 = now_ns();
    auto opened = db::Store::Open(opts, "");
    if (!opened.ok()) throw std::runtime_error(opened.status().ToString());
    store = std::move(opened).value();
    const std::int64_t t1 = now_ns();
    const db::Status s = store->Bulkload(files);
    if (!s.ok()) throw std::runtime_error(s.ToString());
    const std::int64_t t2 = now_ns();
    setup_s.add(static_cast<double>(t2 - t0) * 1e-9);
    bulkload_s.add(static_cast<double>(t2 - t1) * 1e-9);
  }

  // ---- output checks on the fresh store ----------------------------------
  Check c;
  for (std::size_t i = 0; i < check_len; ++i) {
    const Op& op = ops[i];
    auto r = store->Query(op.request);
    if (!r.ok()) {
      ++c.failed;
      continue;
    }
    const QueryResult& res = *r;
    switch (op.request.kind()) {
      case QueryKind::kPoint:
        if (op.exists) {
          ++c.point_existing;
          if (res.found) {
            ++c.point_found;
            if (res.first_try) ++c.point_first_try;
            if (res.id != op.truth) ++c.wrong;
          }
        } else if (res.found) {
          ++c.wrong;
        }
        break;
      case QueryKind::kRange: {
        const auto& q = std::get<smartstore::metadata::RangeQuery>(
            op.request.op);
        auto truth = smartstore::core::brute_force_range(files, q);
        std::sort(truth.begin(), truth.end());
        for (FileId id : res.ids)
          if (!std::binary_search(truth.begin(), truth.end(), id)) ++c.wrong;
        ++c.range_n;
        c.range_groups += res.stats.groups_visited;
        c.range_scanned += res.stats.records_scanned;
        c.range_msgs += res.stats.messages;
        c.range_results += res.ids.size();
        if (!truth.empty()) {
          ++c.range_scored;
          c.range_recall_sum += smartstore::core::recall(truth, res.ids);
        }
        break;
      }
      case QueryKind::kTopK: {
        const auto& q = std::get<smartstore::metadata::TopKQuery>(
            op.request.op);
        const auto best =
            smartstore::core::brute_force_topk(files, standardizer, q);
        std::vector<FileId> truth;
        for (const auto& h : best) truth.push_back(h.second);
        std::unordered_set<FileId> seen;
        for (FileId id : res.ids) {
          if (all_ids.count(id) == 0 || !seen.insert(id).second) ++c.wrong;
        }
        ++c.topk_n;
        c.topk_groups += res.stats.groups_visited;
        c.topk_scanned += res.stats.records_scanned;
        c.topk_msgs += res.stats.messages;
        c.topk_results += res.ids.size();
        if (!truth.empty()) {
          ++c.topk_scored;
          c.topk_recall_sum += smartstore::core::recall(truth, res.ids);
        }
        break;
      }
    }
  }

  // ---- timed closed loop: one client, read-only ---------------------------
  Timeline lat[3];
  for (Timeline& t : lat) t.reserve(1 << 20);
  std::uint64_t done = 0, failed = 0;
  const ProcUsage before = ProcUsage::Now();
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t now = start;
  for (std::size_t i = 0; now < deadline; i = (i + 1) % ops.size()) {
    const Op& op = ops[i];
    const auto kind = op.request.kind();
    spans::set_op(done);
    const std::int64_t t0 = now_ns();
    bool ok;
    {
      const spans::Scope span(spans::Name::kStoreQuery,
                              static_cast<std::uint8_t>(kind));
      auto r = store->Query(op.request);
      ok = r.ok() && (kind != QueryKind::kPoint || op.exists || !r->found);
    }
    now = now_ns();
    lat[static_cast<int>(kind)].add(now, static_cast<double>(now - t0) * 1e-3);
    ++done;
    if (!ok) ++failed;
  }
  const double wall_s = static_cast<double>(now - start) * 1e-9;
  const ProcUsage after = ProcUsage::Now();
  const Windows windows = Windows::Of(start, args.seconds);
  Timeline completed;
  for (const Timeline& t : lat) completed.append(t);

  out.attempted = done + check_len;
  out.failed = failed + c.failed + c.wrong;
  out.correct = c.failed == 0 && c.wrong == 0 && failed == 0;

  // ---- end-to-end ---------------------------------------------------------
  report->add("setup_s", setup_s.quantile(0.5), "s", setup_s.size());
  report->add("ops_per_s", windowed_rate(completed, windows), "1/s", done);
  for (const QueryKind k :
       {QueryKind::kPoint, QueryKind::kRange, QueryKind::kTopK}) {
    static const char* const kPrefix[] = {"point", "range", "topk"};
    const int i = static_cast<int>(k);
    report->add_latency(kPrefix[i], lat[i].windows(windows));
  }
  const auto ratio = [](double num, std::size_t den) {
    return den ? num / static_cast<double>(den) : 0.0;
  };
  report->add("point_hit_ratio",
              ratio(static_cast<double>(c.point_found), c.point_existing),
              "ratio", c.point_existing);
  report->add("range_recall", ratio(c.range_recall_sum, c.range_scored),
              "ratio", c.range_scored);
  report->add("topk_recall", ratio(c.topk_recall_sum, c.topk_scored),
              "ratio", c.topk_scored);
  report->add("peak_rss_mb", ProcUsage::Now().max_rss_mb, "MB", 1);

  // ---- per-layer ----------------------------------------------------------
  report->add("db.bulkload_s", bulkload_s.quantile(0.5), "s",
              bulkload_s.size());
  report->add("core.point_first_try_ratio",
              ratio(static_cast<double>(c.point_first_try), c.point_existing),
              "ratio", c.point_existing);
  report->add("core.groups_per_range",
              ratio(static_cast<double>(c.range_groups), c.range_n), "count",
              c.range_n);
  report->add("core.groups_per_topk",
              ratio(static_cast<double>(c.topk_groups), c.topk_n), "count",
              c.topk_n);
  report->add("core.scanned_per_range_result",
              ratio(static_cast<double>(c.range_scanned), c.range_results),
              "count", c.range_n);
  report->add("core.scanned_per_topk_result",
              ratio(static_cast<double>(c.topk_scanned), c.topk_results),
              "count", c.topk_n);
  report->add("core.messages_per_range",
              ratio(static_cast<double>(c.range_msgs), c.range_n), "count",
              c.range_n);
  report->add("core.messages_per_topk",
              ratio(static_cast<double>(c.topk_msgs), c.topk_n), "count",
              c.topk_n);
  add_proc_metrics(report, before, after, done);
  if (args.trace) {
    out.spans = spans::take();
    add_trace_metrics(report, out.spans, wall_s);
  }
  return out;
}

}  // namespace perfbench
