// routed_mix: the whole serving stack under concurrency, with no disk.
//
// A svc::Cluster of 4 in-memory shards (15 units each, store defaults) is
// preloaded through Router::Write with the HP profile at TIF 1 (20,000
// files). Three client threads each own a Router (distinct client id,
// authoritative map) and a deterministic op stream derived from
// (seed, client), in a closed loop:
//   75%   point lookups, Zipf over preloaded names, 10% absent;
//   10%   update-Puts of a Zipf-popular preloaded name that this client
//         owns (MetaService upsert): client c updates only preloaded
//         names whose index is c mod 3, so no two clients upsert one name;
//    6%   create-Puts from the client's own slice of the insert stream;
//    6%   Deletes of names that client created (oldest first), so the
//         population stays stationary;
//  1.5%   Range and 1.5% TopK, pinned scatter, Uniform query points.
//
// Output checks after the loop, on the quiesced cluster:
//   - one pinned full-space Range (an exhaustive snapshot scan on every
//     shard) must hold every preloaded id and every acknowledged,
//     undeleted create, and no acknowledged-deleted one; a Point lookup
//     of each acknowledged-deleted name must not find it. Any loss fails
//     the run.
//   - the census: summed ShardStats.total_files against preload + acked
//     creates - acked deletes. MetaService::ApplyPut (Delete then Put,
//     not atomic) lets two concurrent upserts of one name leave a
//     duplicate record. The owned update names keep the load off that
//     known race; any excess record still counts as one failed operation.
//   - RouterStats.gave_up must be 0.
#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rpc/transport.h"
#include "rpc/wire.h"
#include "spans.h"
#include "svc/cluster.h"
#include "svc/router.h"
#include "trace/query_gen.h"
#include "trace/synth.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace md = smartstore::metadata;
namespace rpc = smartstore::rpc;
namespace svc = smartstore::svc;

constexpr int kClients = 3;
constexpr std::uint32_t kShards = 4;

enum class Kind : std::uint8_t { kPoint, kUpdate, kCreate, kDelete, kRange,
                                 kTopK };

struct Op {
  Kind kind;
  std::uint32_t index;  ///< into the client's table for this kind
};

/// One client's inputs, generated before timing from (seed, client).
struct Stream {
  std::vector<Op> ops;
  std::vector<std::string> point_names;  ///< distinct names looked up
  std::vector<bool> point_exists;
  std::vector<md::FileMetadata> updates;
  const md::FileMetadata* creates = nullptr;  ///< this client's slice
  std::size_t n_creates = 0;
  std::vector<md::RangeQuery> ranges;
  std::vector<md::TopKQuery> topks;
};

Stream make_stream(const smartstore::trace::SyntheticTrace& trace,
                   const md::FileMetadata* slice, std::size_t slice_len,
                   const std::unordered_set<std::string>& names,
                   std::size_t n_ops, int client, std::uint64_t seed) {
  namespace st = smartstore::trace;
  Stream s;
  s.creates = slice;
  s.n_creates = slice_len;
  st::QueryGenerator zipf(trace, st::QueryDistribution::kZipf,
                          sub_seed(seed, 1));
  st::QueryGenerator uniform(trace, st::QueryDistribution::kUniform,
                             sub_seed(seed, 2));
  smartstore::util::Rng pick(sub_seed(seed, 3));
  const md::AttrSubset dims({md::Attr::kModificationTime,
                             md::Attr::kReadBytes, md::Attr::kWriteBytes});
  std::unordered_map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < trace.files().size(); ++i)
    index_of.emplace(trace.files()[i].name, i);

  // Zipf lookups repeat names, so each distinct name is stored once.
  std::unordered_map<std::string, std::uint32_t> point_slot;
  std::deque<std::uint32_t> created;  // created, not yet deleted (FIFO)
  std::uint32_t next_create = 0;
  s.ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    const double u = pick.uniform() * 100.0;
    Kind k = u < 75   ? Kind::kPoint
             : u < 85 ? Kind::kUpdate
             : u < 91 ? Kind::kCreate
             : u < 97 ? Kind::kDelete
             : u < 98.5 ? Kind::kRange
                        : Kind::kTopK;
    if (k == Kind::kDelete && created.empty()) k = Kind::kCreate;
    if (k == Kind::kCreate && next_create == s.n_creates) break;
    Op op{k, 0};
    switch (k) {
      case Kind::kPoint: {
        auto q = zipf.gen_point(0.9);
        const auto [it, fresh] = point_slot.emplace(
            q.filename, static_cast<std::uint32_t>(s.point_names.size()));
        if (fresh) {
          s.point_exists.push_back(names.count(q.filename) != 0);
          s.point_names.push_back(std::move(q.filename));
        }
        op.index = it->second;
        break;
      }
      case Kind::kUpdate: {
        // The Zipf draw picks a popularity rank; the client updates its
        // own name of that rank's group of kClients.
        const auto q = zipf.gen_point(1.0);
        constexpr auto kGroup = static_cast<std::size_t>(kClients);
        const std::size_t drawn = index_of.at(q.filename);
        std::size_t own =
            drawn - drawn % kGroup + static_cast<std::size_t>(client);
        if (own >= trace.files().size()) own -= kGroup;
        md::FileMetadata f = trace.files()[own];
        f.set_attr(md::Attr::kAccessTime, f.attr(md::Attr::kAccessTime) +
                                              1.0 + static_cast<double>(i));
        f.set_attr(md::Attr::kReadCount, f.attr(md::Attr::kReadCount) + 1.0);
        op.index = static_cast<std::uint32_t>(s.updates.size());
        s.updates.push_back(std::move(f));
        break;
      }
      case Kind::kCreate:
        op.index = next_create;
        created.push_back(next_create++);
        break;
      case Kind::kDelete:
        op.index = created.front();
        created.pop_front();
        break;
      case Kind::kRange:
        op.index = static_cast<std::uint32_t>(s.ranges.size());
        s.ranges.push_back(uniform.gen_range(dims, 0.05));
        break;
      case Kind::kTopK:
        op.index = static_cast<std::uint32_t>(s.topks.size());
        s.topks.push_back(uniform.gen_topk(dims, 8));
        break;
    }
    s.ops.push_back(op);
  }
  return s;
}

/// Channel decorator for the traced run: a span per Call, frame bytes, and
/// a bounded sample of frames for the codec timing after the run. One
/// instance serves one client thread (each client connects its own).
class TimingChannel final : public rpc::Channel {
 public:
  explicit TimingChannel(std::shared_ptr<rpc::Channel> inner)
      : inner_(std::move(inner)) {}

  smartstore::db::Status Call(const rpc::Frame& req,
                              rpc::Frame* resp) override {
    smartstore::db::Status s;
    {
      const spans::Scope span(spans::Name::kChannelCall,
                              static_cast<std::uint8_t>(req.method));
      s = inner_->Call(req, resp);
    }
    bytes_ += 2 * rpc::kFrameHeaderBytes + req.payload.size() +
              resp->payload.size();
    if (s.ok() && frames_.size() < kMaxFrames) frames_.emplace_back(req, *resp);
    return s;
  }

  std::uint64_t bytes() const { return bytes_; }
  const std::vector<std::pair<rpc::Frame, rpc::Frame>>& frames() const {
    return frames_;
  }

 private:
  static constexpr std::size_t kMaxFrames = 2048;
  std::shared_ptr<rpc::Channel> inner_;
  std::uint64_t bytes_ = 0;
  std::vector<std::pair<rpc::Frame, rpc::Frame>> frames_;
};

struct ClientResult {
  Timeline point, put, del, range, topk;
  std::uint64_t done = 0, failed = 0;
  std::uint64_t creates_acked = 0, deletes_acked = 0;
  std::vector<char> created;  ///< acked create, by slice index
  std::vector<char> deleted;  ///< acked delete, by slice index
  std::int64_t end_ns = 0;
  svc::RouterStats stats;
  std::vector<std::shared_ptr<TimingChannel>> channels;
};

std::unique_ptr<svc::Cluster> start_cluster(const Args& args) {
  svc::ClusterOptions copt;
  copt.num_shards = kShards;
  copt.in_memory = true;
  copt.store_options.num_units = args.tiny ? 4 : 15;
  auto started = svc::Cluster::Start(copt);
  if (!started.ok()) throw std::runtime_error(started.status().ToString());
  return std::move(started).value();
}

void preload(svc::Cluster* cluster,
             const std::vector<md::FileMetadata>& files) {
  svc::RouterOptions ropt;
  ropt.client_id = 1000;
  svc::Router router(cluster->ConnectAll(), cluster->map(), ropt);
  std::vector<rpc::BatchOp> batch;
  for (std::size_t i = 0; i < files.size(); ++i) {
    batch.push_back(rpc::BatchOp{true, files[i], {}});
    if (batch.size() == 256 || i + 1 == files.size()) {
      const auto s = router.Write(batch);
      if (!s.ok()) throw std::runtime_error("preload: " + s.ToString());
      batch.clear();
    }
  }
}

}  // namespace

Outcome run_routed_mix(const Args& args, Report* report) {
  namespace st = smartstore::trace;
  Outcome out;

  // ---- inputs (before any timing) ----------------------------------------
  const st::SyntheticTrace trace = st::SyntheticTrace::generate(
      st::hp_profile(), 1, kDatasetSeed, args.tiny ? 10 : 1);
  const auto& files = trace.files();
  std::unordered_set<std::string> names;
  for (const auto& f : files) names.insert(f.name);
  // Sized for 12k ops/s per client, about 1.5x the fastest rate seen on
  // the reference machine, to keep the inputs' share of peak_rss_mb
  // small; a client that runs out stops early and the stderr note says so.
  const std::size_t ops_per_client =
      args.tiny ? 3000
                : static_cast<std::size_t>(args.seconds * 12'000.0) + 1000;
  const std::size_t slice = ops_per_client / 12;  // > 6% creates
  const auto inserts =
      trace.make_insert_stream(slice * kClients, sub_seed(args.seed, 9));
  std::vector<Stream> streams;
  for (int c = 0; c < kClients; ++c)
    streams.push_back(make_stream(trace, inserts.data() + slice * c, slice,
                                  names, ops_per_client, c,
                                  sub_seed(args.seed, 100 + c)));

  // ---- setup: Cluster::Start + routed preload, several times -------------
  Samples setup_s;
  std::unique_ptr<svc::Cluster> cluster;
  for (int r = 0; r < args.setups(); ++r) {
    if (cluster) (void)cluster->Stop();
    cluster.reset();
    const std::int64_t t0 = now_ns();
    cluster = start_cluster(args);
    preload(cluster.get(), files);
    setup_s.add(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // ---- timed closed loop: three clients -----------------------------------
  std::vector<ClientResult> results(kClients);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::int64_t> start_ns{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientResult& res = results[c];
      const Stream& s = streams[c];
      auto channels = cluster->ConnectAll();
      if (args.trace) {
        for (auto& ch : channels) {
          auto timed = std::make_shared<TimingChannel>(ch);
          res.channels.push_back(timed);
          ch = timed;
        }
      }
      svc::RouterOptions ropt;
      ropt.client_id = static_cast<std::uint64_t>(c + 1);
      svc::Router router(std::move(channels), cluster->map(), ropt);
      for (Timeline* t : {&res.point, &res.put, &res.del})
        t->reserve(s.ops.size());
      res.created.assign(s.n_creates, 0);
      res.deleted.assign(s.n_creates, 0);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::int64_t deadline =
          start_ns.load() + static_cast<std::int64_t>(args.seconds * 1e9);
      std::int64_t now = now_ns();
      std::size_t i = 0;
      for (; i < s.ops.size() && now < deadline; ++i) {
        const Op& op = s.ops[i];
        spans::set_op((static_cast<std::uint64_t>(c) << 40) | i);
        const std::int64_t t0 = now_ns();
        bool ok = true;
        Timeline* into = nullptr;
        switch (op.kind) {
          case Kind::kPoint: {
            const spans::Scope span(spans::Name::kRouterPoint);
            auto r = router.Point(s.point_names[op.index]);
            ok = r.ok() && (s.point_exists[op.index] || !r->found);
            into = &res.point;
            break;
          }
          case Kind::kUpdate: {
            const spans::Scope span(spans::Name::kRouterPut);
            ok = router.Put(s.updates[op.index]).ok();
            into = &res.put;
            break;
          }
          case Kind::kCreate: {
            const spans::Scope span(spans::Name::kRouterPut);
            ok = router.Put(s.creates[op.index]).ok();
            if (ok) {
              ++res.creates_acked;
              res.created[op.index] = 1;
            }
            into = &res.put;
            break;
          }
          case Kind::kDelete: {
            const spans::Scope span(spans::Name::kRouterDelete);
            ok = router.Delete(s.creates[op.index].name).ok();
            if (ok) {
              ++res.deletes_acked;
              res.deleted[op.index] = 1;
            }
            into = &res.del;
            break;
          }
          case Kind::kRange: {
            const spans::Scope span(spans::Name::kRouterRange);
            ok = router.Range(s.ranges[op.index]).ok();
            into = &res.range;
            break;
          }
          case Kind::kTopK: {
            const spans::Scope span(spans::Name::kRouterTopK);
            ok = router.TopK(s.topks[op.index]).ok();
            into = &res.topk;
            break;
          }
        }
        now = now_ns();
        into->add(now, static_cast<double>(now - t0) * 1e-3);
        if (!ok) ++res.failed;
      }
      res.done = i;
      res.end_ns = now;
      if (i == s.ops.size() && now < deadline)
        std::fprintf(stderr, "routed_mix: client %d ran out of ops\n", c);
      res.stats = router.stats();
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  const ProcUsage before = ProcUsage::Now();
  const std::int64_t t_start = now_ns();
  start_ns.store(t_start);
  go.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  const ProcUsage after = ProcUsage::Now();
  std::int64_t t_end = t_start;
  for (const auto& r : results) t_end = std::max(t_end, r.end_ns);
  const double wall_s = static_cast<double>(t_end - t_start) * 1e-9;

  // ---- output checks: acked writes, census and gave_up --------------------
  ClientResult all;
  svc::RouterStats rs;
  for (const ClientResult& r : results) {
    all.point.append(r.point);
    all.put.append(r.put);
    all.del.append(r.del);
    all.range.append(r.range);
    all.topk.append(r.topk);
    all.done += r.done;
    all.failed += r.failed;
    all.creates_acked += r.creates_acked;
    all.deletes_acked += r.deletes_acked;
    rs.retries += r.stats.retries;
    rs.redirects += r.stats.redirects;
    rs.gave_up += r.stats.gave_up;
    rs.unpinned_scatters += r.stats.unpinned_scatters;
  }
  svc::RouterOptions sopt;
  sopt.client_id = 2000;
  svc::Router stats_router(cluster->ConnectAll(), cluster->map(), sopt);
  rpc::ShardStats sum;
  std::uint64_t largest = 0;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    auto st = stats_router.Stats(k);
    if (!st.ok()) throw std::runtime_error(st.status().ToString());
    sum.total_files += st->total_files;
    sum.dup_hits += st->dup_hits;
    sum.wrong_shard += st->wrong_shard;
    largest = std::max(largest, st->total_files);
  }
  const std::uint64_t expected =
      files.size() + all.creates_acked - all.deletes_acked;
  const std::uint64_t excess =
      sum.total_files > expected ? sum.total_files - expected : 0;
  if (sum.total_files != expected)
    std::fprintf(stderr,
                 "routed_mix: census %llu, expected %llu (preload %zu + "
                 "creates %llu - deletes %llu)\n",
                 static_cast<unsigned long long>(sum.total_files),
                 static_cast<unsigned long long>(expected), files.size(),
                 static_cast<unsigned long long>(all.creates_acked),
                 static_cast<unsigned long long>(all.deletes_acked));

  md::RangeQuery everything;
  everything.dims = md::AttrSubset({md::Attr::kFileSize});
  everything.lo = {-DBL_MAX};
  everything.hi = {DBL_MAX};
  auto pinned = stats_router.PinSnapshot();
  if (!pinned.ok()) throw std::runtime_error(pinned.status().ToString());
  auto scan = stats_router.Range(everything, *pinned);
  if (!scan.ok()) throw std::runtime_error(scan.status().ToString());
  (void)stats_router.ReleaseSnapshot(*pinned);
  std::vector<md::FileId> present = scan->ids;
  std::sort(present.begin(), present.end());
  const auto has = [&present](md::FileId id) {
    return std::binary_search(present.begin(), present.end(), id);
  };
  std::uint64_t lost = 0, resurrected = 0;
  for (const auto& f : files)
    if (!has(f.id)) ++lost;
  for (int c = 0; c < kClients; ++c) {
    const ClientResult& r = results[c];
    for (std::size_t i = 0; i < streams[c].n_creates; ++i) {
      const md::FileMetadata& f = streams[c].creates[i];
      if (r.deleted[i]) {
        auto p = stats_router.Point(f.name);
        if (!p.ok()) throw std::runtime_error(p.status().ToString());
        if (p->found || has(f.id)) ++resurrected;
      } else if (r.created[i] && !has(f.id)) {
        ++lost;
      }
    }
  }
  if (lost || resurrected)
    std::fprintf(stderr,
                 "routed_mix: %llu acknowledged writes lost, %llu "
                 "acknowledged deletes undone\n",
                 static_cast<unsigned long long>(lost),
                 static_cast<unsigned long long>(resurrected));
  out.attempted = all.done;
  out.failed = all.failed + excess;
  out.correct = lost == 0 && resurrected == 0 && rs.gave_up == 0;

  // ---- end-to-end ---------------------------------------------------------
  report->add("setup_s", setup_s.quantile(0.5), "s", setup_s.size());
  const Windows windows = Windows::Of(t_start, args.seconds);
  Timeline completed;
  for (const Timeline* t : {&all.point, &all.put, &all.del, &all.range,
                            &all.topk})
    completed.append(*t);
  report->add("ops_per_s", windowed_rate(completed, windows), "1/s",
              all.done);
  report->add_latency("point", all.point.windows(windows));
  report->add_latency("put", all.put.windows(windows));
  report->add_latency("range", all.range.windows(windows));
  report->add_latency("topk", all.topk.windows(windows));
  report->add("peak_rss_mb", after.max_rss_mb, "MB", 1);

  // ---- per-layer: counters ------------------------------------------------
  report->add("svc.router.retries", static_cast<double>(rs.retries), "count",
              all.done);
  report->add("svc.router.redirects", static_cast<double>(rs.redirects),
              "count", all.done);
  report->add("svc.router.gave_up", static_cast<double>(rs.gave_up), "count",
              all.done);
  report->add("svc.router.unpinned_scatters",
              static_cast<double>(rs.unpinned_scatters), "count",
              all.range.size() + all.topk.size());
  report->add("svc.service.dup_hits", static_cast<double>(sum.dup_hits),
              "count", all.done);
  report->add("svc.service.wrong_shard", static_cast<double>(sum.wrong_shard),
              "count", all.done);
  report->add("svc.shard_skew",
              sum.total_files ? static_cast<double>(largest) * kShards /
                                    static_cast<double>(sum.total_files)
                              : 0.0,
              "ratio", kShards);
  add_proc_metrics(report, before, after, all.done);
  if (!args.trace) return out;

  // ---- per-layer: spans ---------------------------------------------------
  out.spans = spans::take();
  Samples keyed_self, scatter_self, call_keyed, call_scatter;
  std::uint64_t scatter_calls = 0, scatters = 0;
  for (const auto& t : out.spans) {
    const auto derived = spans::derive(t.spans);
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const spans::Span& s = t.spans[i];
      const double self_us = static_cast<double>(derived[i].self_ns) * 1e-3;
      switch (s.name) {
        case spans::Name::kRouterPoint:
        case spans::Name::kRouterPut:
        case spans::Name::kRouterDelete:
          keyed_self.add(self_us);
          break;
        case spans::Name::kRouterRange:
        case spans::Name::kRouterTopK:
          scatter_self.add(self_us);
          scatter_calls += derived[i].children;
          ++scatters;
          break;
        case spans::Name::kChannelCall: {
          if (s.parent < 0) break;
          const auto parent = t.spans[static_cast<std::size_t>(s.parent)].name;
          const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
          if (parent == spans::Name::kRouterRange ||
              parent == spans::Name::kRouterTopK)
            call_scatter.add(us);
          else
            call_keyed.add(us);
          break;
        }
        default:
          break;
      }
    }
  }
  report->add("svc.router.keyed_self_us", keyed_self.quantile(0.5), "us",
              keyed_self.size());
  report->add("svc.router.scatter_self_us", scatter_self.quantile(0.5), "us",
              scatter_self.size());
  report->add("svc.router.calls_per_scatter",
              scatters ? static_cast<double>(scatter_calls) /
                             static_cast<double>(scatters)
                       : 0.0,
              "count", scatters);
  report->add("rpc.call_keyed_us", call_keyed.quantile(0.5), "us",
              call_keyed.size());
  report->add("rpc.call_scatter_us", call_scatter.quantile(0.5), "us",
              call_scatter.size());

  std::uint64_t bytes = 0;
  std::vector<const std::pair<rpc::Frame, rpc::Frame>*> frames;
  for (const ClientResult& r : results) {
    for (const auto& ch : r.channels) {
      bytes += ch->bytes();
      for (const auto& f : ch->frames()) frames.push_back(&f);
    }
  }
  report->add("rpc.bytes_per_op",
              all.done ? static_cast<double>(bytes) /
                             static_cast<double>(all.done)
                       : 0.0,
              "B", all.done);
  // Codec cost on the recorded frames: encode + decode of request and
  // response, best of three passes.
  double best_ns = 0;
  for (int pass = 0; pass < 3; ++pass) {
    rpc::Frame decoded;
    const std::int64_t t0 = now_ns();
    for (const auto* f : frames) {
      for (const rpc::Frame* fr : {&f->first, &f->second}) {
        const auto bytes_out = rpc::encode_frame(*fr);
        if (!rpc::decode_frame(bytes_out, &decoded).ok())
          throw std::runtime_error("recorded frame does not decode");
      }
    }
    const double ns = static_cast<double>(now_ns() - t0);
    best_ns = pass == 0 ? ns : std::min(best_ns, ns);
  }
  report->add("rpc.codec_us_per_call",
              frames.empty() ? 0.0
                             : best_ns * 1e-3 /
                                   static_cast<double>(frames.size()),
              "us", frames.size());
  add_trace_metrics(report, out.spans, wall_s * kClients);
  return out;
}

}  // namespace perfbench
