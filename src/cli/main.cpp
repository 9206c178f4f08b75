// smartstore_cli: command-line driver for the SmartStore metadata system.
//
// Loads one of the paper's synthetic trace profiles (HP / MSN / EECS),
// opens a smartstore::db::Store over it, and replays batches of point,
// range and top-k queries end-to-end, reporting result counts and the
// message/hop accounting. This is the user-facing entry
// point for workload scenarios: every knob the experiments vary (trace,
// TIF, unit count, routing mode, query distribution) is a flag.
//
// All durability wiring goes through the Store facade: --save/--load/--wal
// name the data directory (when more than one is given they must agree —
// a deployment lives in ONE directory), Open() recovers whatever
// checkpoint (ckpt/) + WAL shards (wal/) it finds there, --churn N inserts
// ride the sharded WAL (each one durable before the next is applied), and
// --bg-checkpoint N sets the background-checkpoint cadence (a delta cut
// every N acknowledged mutations, concurrent with the insert stream).
// --crash-at K arms the K-th persistence write boundary
// (persist::fault_arm) to simulate a power cut (exit 3); recover by
// re-running with --load.
//
//   smartstore_cli --trace msn --units 20 --point 200 --range 50 --topk 50
//   smartstore_cli --trace hp --save state/          # build once, persist
//   smartstore_cli --trace hp --load state/ --point 200   # restart, no build
//   smartstore_cli --trace hp --load state/ --churn 5000
//       --save state/ --bg-checkpoint 1000       # checkpoint under load
//   smartstore_cli --trace hp --churn 20000 --wal state/   # durable ingest
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cli/cluster_mode.h"
#include "persist/fault.h"
#include "smartstore/smartstore.h"
#include "trace/profiles.h"
#include "trace/query_gen.h"
#include "trace/synth.h"
#include "util/bytes.h"

namespace {

using namespace smartstore;

struct CliOptions {
  trace::TraceKind kind = trace::TraceKind::kMSN;
  unsigned tif = 1;
  unsigned downscale = 5;
  std::size_t units = 20;
  std::size_t fanout = 8;
  db::Routing routing = db::Routing::kOffline;
  trace::QueryDistribution dist = trace::QueryDistribution::kZipf;
  std::size_t point_queries = 200;
  std::size_t range_queries = 50;
  std::size_t topk_queries = 50;
  std::size_t k = 8;
  std::uint64_t seed = 42;
  std::size_t churn = 0;
  std::string save_dir;
  std::string load_dir;
  std::string wal_dir;
  std::size_t bg_checkpoint = 0;  ///< checkpoint every N churn inserts
  std::size_t compaction_trigger = 4;       ///< fold past N chained cuts
  std::uint64_t compaction_bytes = 64ull << 20;  ///< ...or N delta bytes
  bool compact = false;           ///< fold the delta chain before querying
  std::size_t crash_at = 0;       ///< fault-injection point to die at
  bool time_travel = false;       ///< --query-as-of given
  std::uint64_t as_of_seq = 0;    ///< commit seq the query batches scan at

  // Distributed modes (cluster_mode.h). --serve and --connect are
  // mutually exclusive with each other and with the workload flow above.
  bool serve = false;
  cli::ServeOptions serve_opt;
  bool connect = false;
  cli::ConnectOptions connect_opt;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "Builds a SmartStore over a synthetic trace and replays query batches.\n"
      "\n"
      "options:\n"
      "  --trace hp|msn|eecs        trace profile (default msn)\n"
      "  --tif N                    trace intensifying factor (default 1)\n"
      "  --downscale N              population downscale divisor (default 5)\n"
      "  --units N                  storage units (default 20)\n"
      "  --fanout N                 semantic R-tree fanout M (default 8)\n"
      "  --routing online|offline   query routing mode (default offline)\n"
      "  --dist uniform|gauss|zipf  query distribution (default zipf)\n"
      "  --point N                  point queries to run (default 200)\n"
      "  --range N                  range queries to run (default 50)\n"
      "  --topk N                   top-k queries to run (default 50)\n"
      "  --k K                      k for top-k queries (default 8)\n"
      "  --seed S                   rng seed (default 42)\n"
      "  --churn N                  insert N extra files before querying\n"
      "  --save DIR                 checkpoint the deployment into DIR\n"
      "                             (base image + delta chain in DIR/ckpt/)\n"
      "  --load DIR                 restore DIR's checkpoint (+ WAL replay)\n"
      "                             instead of building; trace flags must\n"
      "                             match the saved deployment's\n"
      "  --wal DIR                  keep the deployment durable in DIR\n"
      "                             without a final checkpoint: churn\n"
      "                             inserts are write-ahead logged, one\n"
      "                             log per unit in DIR/wal/\n"
      "  --bg-checkpoint N          take a delta cut in the background\n"
      "                             every N churn inserts while inserting\n"
      "                             continues (requires --save)\n"
      "  --compaction-trigger N     fold the delta chain into a fresh base\n"
      "                             past N chained cuts (default 4; 0 =\n"
      "                             never by length)\n"
      "  --compaction-bytes N       ...or past N chained delta bytes\n"
      "                             (default 64 MiB; 0 = never by bytes)\n"
      "  --compact                  fold the whole delta chain into a\n"
      "                             fresh base image after the churn phase\n"
      "  --crash-at K               kill the K-th persistence write boundary\n"
      "                             (exit 3); recover with --load afterwards\n"
      "  --query-as-of SEQ          time travel: run the query batches as\n"
      "                             exact snapshot scans at commit seq SEQ\n"
      "                             instead of routed reads at latest; a\n"
      "                             seq survives --load, so a historical\n"
      "                             view replays across checkpoint and\n"
      "                             restart boundaries\n"
      "\n"
      "  --save/--load/--wal name the same deployment directory when more\n"
      "  than one is given (a Store owns exactly one directory).\n"
      "\n"
      "cluster modes (exclusive with the workload flags above):\n"
      "  --serve DIR                serve one shard of a metadata-service\n"
      "                             cluster from DIR (created if missing;\n"
      "                             'mem' serves an in-memory shard)\n"
      "  --shard k/N                this shard's index and the cluster\n"
      "                             size (default 0/1)\n"
      "  --port P                   TCP port to bind (default 0 =\n"
      "                             ephemeral)\n"
      "  --port-file FILE           write the bound port to FILE\n"
      "  --serve-seconds S          stop serving after S seconds\n"
      "                             (default 0 = until killed)\n"
      "  --connect EPS              run the client workload against a\n"
      "                             cluster; EPS is host:port[,host:port...]\n"
      "                             with one endpoint per shard, in shard\n"
      "                             order\n"
      "  --puts N                   client workload size (default 64)\n"
      "  --units/--fanout/--seed also shape --serve's store (a durable\n"
      "  shard commits every write before acking it); --seed also varies\n"
      "  --connect's workload names.\n"
      "\n"
      "  --help                     this message\n",
      argv0);
}

/// Parses argv into CliOptions; exits with a message on malformed input.
CliOptions parse_args(int argc, char** argv) {
  CliOptions opt;
  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", argv[i]);
      std::exit(2);
    }
    return argv[i + 1];
  };
  auto parse_size = [&](int i) {
    const char* v = need_value(i);
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    // strtoull accepts "-5" via unsigned wraparound; require a leading digit.
    if (!std::isdigit(static_cast<unsigned char>(v[0])) || end == v ||
        *end != '\0') {
      std::fprintf(stderr, "error: %s expects a number, got '%s'\n", argv[i], v);
      std::exit(2);
    }
    return static_cast<std::uint64_t>(n);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else if (a == "--trace") {
      const std::string v = need_value(i++);
      if (v == "hp") opt.kind = trace::TraceKind::kHP;
      else if (v == "msn") opt.kind = trace::TraceKind::kMSN;
      else if (v == "eecs") opt.kind = trace::TraceKind::kEECS;
      else {
        std::fprintf(stderr, "error: unknown trace '%s'\n", v.c_str());
        std::exit(2);
      }
    } else if (a == "--routing") {
      const std::string v = need_value(i++);
      if (v == "online") opt.routing = db::Routing::kOnline;
      else if (v == "offline") opt.routing = db::Routing::kOffline;
      else {
        std::fprintf(stderr, "error: unknown routing '%s'\n", v.c_str());
        std::exit(2);
      }
    } else if (a == "--dist") {
      const std::string v = need_value(i++);
      if (v == "uniform") opt.dist = trace::QueryDistribution::kUniform;
      else if (v == "gauss") opt.dist = trace::QueryDistribution::kGauss;
      else if (v == "zipf") opt.dist = trace::QueryDistribution::kZipf;
      else {
        std::fprintf(stderr, "error: unknown distribution '%s'\n", v.c_str());
        std::exit(2);
      }
    } else if (a == "--tif") {
      opt.tif = static_cast<unsigned>(parse_size(i++));
    } else if (a == "--downscale") {
      opt.downscale = static_cast<unsigned>(parse_size(i++));
    } else if (a == "--units") {
      opt.units = parse_size(i++);
    } else if (a == "--fanout") {
      opt.fanout = parse_size(i++);
    } else if (a == "--point") {
      opt.point_queries = parse_size(i++);
    } else if (a == "--range") {
      opt.range_queries = parse_size(i++);
    } else if (a == "--topk") {
      opt.topk_queries = parse_size(i++);
    } else if (a == "--k") {
      opt.k = parse_size(i++);
    } else if (a == "--seed") {
      opt.seed = parse_size(i++);
    } else if (a == "--churn") {
      opt.churn = parse_size(i++);
    } else if (a == "--save") {
      opt.save_dir = need_value(i++);
    } else if (a == "--load") {
      opt.load_dir = need_value(i++);
    } else if (a == "--wal") {
      opt.wal_dir = need_value(i++);
    } else if (a == "--bg-checkpoint") {
      opt.bg_checkpoint = parse_size(i++);
    } else if (a == "--compaction-trigger") {
      opt.compaction_trigger = parse_size(i++);
    } else if (a == "--compaction-bytes") {
      opt.compaction_bytes = parse_size(i++);
    } else if (a == "--compact") {
      opt.compact = true;
    } else if (a == "--crash-at") {
      opt.crash_at = parse_size(i++);
    } else if (a == "--query-as-of") {
      opt.time_travel = true;
      opt.as_of_seq = parse_size(i++);
    } else if (a == "--serve") {
      opt.serve = true;
      const std::string v = need_value(i++);
      opt.serve_opt.dir = (v == "mem") ? "" : v;
    } else if (a == "--shard") {
      const char* v = need_value(i++);
      unsigned k = 0;
      unsigned n = 0;
      if (std::sscanf(v, "%u/%u", &k, &n) != 2 || n == 0 || k >= n) {
        std::fprintf(stderr, "error: --shard expects k/N with k < N, got '%s'\n",
                     v);
        std::exit(2);
      }
      opt.serve_opt.shard_id = k;
      opt.serve_opt.num_shards = n;
    } else if (a == "--port") {
      const std::uint64_t p = parse_size(i++);
      if (p > 65535) {
        std::fprintf(stderr, "error: --port must be <= 65535\n");
        std::exit(2);
      }
      opt.serve_opt.port = static_cast<std::uint16_t>(p);
    } else if (a == "--port-file") {
      opt.serve_opt.port_file = need_value(i++);
    } else if (a == "--serve-seconds") {
      opt.serve_opt.serve_seconds = parse_size(i++);
    } else if (a == "--connect") {
      opt.connect = true;
      opt.connect_opt.endpoints = need_value(i++);
    } else if (a == "--puts") {
      opt.connect_opt.puts = parse_size(i++);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", a.c_str());
      usage(argv[0]);
      std::exit(2);
    }
  }
  if (opt.serve && opt.connect) {
    std::fprintf(stderr,
                 "error: --serve and --connect are separate processes\n");
    std::exit(2);
  }
  if ((opt.serve || opt.connect) &&
      (!opt.save_dir.empty() || !opt.load_dir.empty() ||
       !opt.wal_dir.empty())) {
    std::fprintf(stderr,
                 "error: cluster modes take --serve DIR, not "
                 "--save/--load/--wal\n");
    std::exit(2);
  }
  if (opt.tif == 0 || opt.downscale == 0 || opt.units == 0 || opt.k == 0) {
    std::fprintf(stderr, "error: --tif/--downscale/--units/--k must be > 0\n");
    std::exit(2);
  }
  if (opt.bg_checkpoint > 0 && opt.save_dir.empty()) {
    std::fprintf(stderr, "error: --bg-checkpoint requires --save DIR\n");
    std::exit(2);
  }
  // One deployment, one directory: every persistence flag given must agree.
  const std::string* dirs[] = {&opt.save_dir, &opt.load_dir, &opt.wal_dir};
  std::string chosen;
  for (const std::string* d : dirs) {
    if (d->empty()) continue;
    if (chosen.empty()) {
      chosen = *d;
    } else if (*d != chosen) {
      std::fprintf(stderr,
                   "error: --save/--load/--wal must name the same directory "
                   "('%s' vs '%s')\n",
                   chosen.c_str(), d->c_str());
      std::exit(2);
    }
  }
  return opt;
}

/// Running sums of per-query accounting for one batch.
struct BatchTotals {
  std::size_t queries = 0;
  std::size_t successes = 0;  ///< found (point) / non-empty (range, top-k)
  std::size_t results = 0;
  std::uint64_t messages = 0;
  std::uint64_t hops = 0;

  void add(const db::QueryStats& s, std::size_t nresults) {
    ++queries;
    if (nresults > 0) ++successes;
    results += nresults;
    messages += s.messages;
    hops += s.hops;
  }

  void print(const char* what) const {
    if (queries == 0) return;
    const double n = static_cast<double>(queries);
    std::printf(
        "%-6s %6zu queries | %5.1f%% hit | %6.2f results/q | "
        "%6.1f msgs/q | %5.1f hops/q\n",
        what, queries, 100.0 * static_cast<double>(successes) / n,
        static_cast<double>(results) / n, static_cast<double>(messages) / n,
        static_cast<double>(hops) / n);
  }
};

/// Non-OK statuses funnel here: a kFaultInjected is the simulated power
/// cut (exit 3, on-disk state frozen for a later --load); anything else is
/// a hard error (exit 1).
[[noreturn]] void die(const db::Status& s, std::size_t crash_at) {
  if (s.IsFaultInjected()) {
    std::printf("crash injected: %s (fault point %zu)\n", s.message().c_str(),
                crash_at);
    std::exit(3);
  }
  std::fprintf(stderr, "error: persistence failure: %s\n",
               s.ToString().c_str());
  std::exit(1);
}

std::string property(db::Store& store, const std::string& name) {
  std::string v;
  return store.GetProperty(name, &v) ? v : std::string("?");
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt = parse_args(argc, argv);

  if (opt.serve) {
    opt.serve_opt.units = opt.units;
    opt.serve_opt.fanout = opt.fanout;
    opt.serve_opt.seed = opt.seed;
    return cli::RunServe(opt.serve_opt);
  }
  if (opt.connect) {
    opt.connect_opt.seed = opt.seed;
    return cli::RunConnect(opt.connect_opt);
  }

  const auto profile = trace::profile_for(opt.kind);
  std::printf("trace   : %s (TIF %u, downscale %u, seed %llu)\n",
              profile.name.c_str(), opt.tif, opt.downscale,
              static_cast<unsigned long long>(opt.seed));
  const auto tr =
      trace::SyntheticTrace::generate(profile, opt.tif, opt.seed, opt.downscale);
  std::printf("population: %zu files, %zu trace ops\n", tr.files().size(),
              tr.ops().size());

  // One Open composes everything PRs 2-4 exposed piecemeal: recovery,
  // sharded WAL, background checkpoint cadence, the data-directory lock.
  db::Options options;
  options.num_units = opt.units;
  options.fanout = opt.fanout;
  options.seed = opt.seed;
  options.routing = opt.routing;
  options.checkpoint_every = opt.bg_checkpoint;
  options.compaction_trigger = opt.compaction_trigger;
  options.compaction_byte_budget = opt.compaction_bytes;

  std::string dir = !opt.load_dir.empty() ? opt.load_dir : opt.save_dir;
  if (dir.empty()) dir = opt.wal_dir;
  options.in_memory = dir.empty();
  // --load expects an existing deployment; --save/--wal create one.
  options.create_if_missing = opt.load_dir.empty();

  // The injector is process-global: armed here, it counts every
  // persistence write boundary from the Open on.
  if (opt.crash_at > 0) persist::fault_arm(opt.crash_at);
  auto opened = db::Store::Open(options, dir);
  if (!opened.ok()) die(opened.status(), opt.crash_at);
  std::unique_ptr<db::Store> store = std::move(opened).value();

  const db::RecoveryInfo& rec = store->recovery_info();
  if (rec.recovered) {
    if (rec.used_manifest) {
      std::printf("restored : checkpoint (base + %zu cuts, %zu delta "
                  "records), %zu WAL records replayed "
                  "(%zu blocks, %zu fenced, %zu shards)%s\n",
                  rec.delta_cuts, rec.delta_records, rec.wal_records,
                  rec.wal_blocks, rec.wal_fenced, rec.wal_shards,
                  rec.wal_tail_torn ? ", torn tail dropped" : "");
    } else {
      std::printf("restored : no checkpoint yet, %zu WAL records replayed "
                  "(%zu blocks, %zu shards)%s\n",
                  rec.wal_records, rec.wal_blocks, rec.wal_shards,
                  rec.wal_tail_torn ? ", torn tail dropped" : "");
    }
    if (opt.load_dir.empty()) {
      // --save/--wal hit a directory that already holds a deployment: the
      // saved store wins over the trace flags (a Store owns its
      // directory), which is only obvious if we say so.
      std::printf(
          "note     : %s already held a deployment — restored it instead "
          "of rebuilding from the trace (pass --load to make this "
          "explicit, or use a fresh directory to rebuild)\n",
          dir.c_str());
    }
  } else {
    db::Status built = store->Bulkload(tr.files());
    if (!built.ok()) die(built, opt.crash_at);
  }

  if (opt.churn > 0) {
    const auto stream = tr.make_insert_stream(opt.churn, opt.seed + 99);
    // The facade write-ahead logs each record to its routed unit's WAL
    // shard and triggers background checkpoints at the --bg-checkpoint
    // cadence while inserts continue.
    db::WriteBatch batch;
    batch.reserve(stream.size());
    for (const auto& f : stream) batch.Put(f);
    db::Status ws = store->Write(std::move(batch));
    if (!ws.ok()) die(ws, opt.crash_at);
    std::printf(
        "churn    : %zu files inserted%s\n", stream.size(),
        opt.bg_checkpoint > 0
            ? " (write-ahead logged, background checkpoints)"
            : (options.in_memory ? "" : " (write-ahead logged, sharded)"));
    if (opt.bg_checkpoint > 0) {
      const db::CheckpointInfo ck = store->GetCheckpointInfo();
      if (ck.completed > 0) {
        std::printf(
            "bg ckpt  : %llu checkpoints, cuts and folds (%llu mutations rode "
            "along with folds, %llu COW copies); last: freeze %.1f ms, "
            "write %.1f ms, truncate %.1f ms, %s\n",
            static_cast<unsigned long long>(ck.completed),
            static_cast<unsigned long long>(ck.total_mutations_during),
            static_cast<unsigned long long>(ck.total_cow_copies),
            ck.last_freeze_s * 1e3, ck.last_write_s * 1e3,
            ck.last_truncate_s * 1e3,
            util::format_bytes(ck.last_snapshot_bytes).c_str());
      }
      if (ck.delta_cuts > 0 || ck.delta_folds > 0) {
        std::printf(
            "delta    : %llu cuts, %llu folds; chain %llu cuts / %s "
            "(total delta written %s)\n",
            static_cast<unsigned long long>(ck.delta_cuts),
            static_cast<unsigned long long>(ck.delta_folds),
            static_cast<unsigned long long>(ck.delta_chain_len),
            util::format_bytes(static_cast<std::size_t>(ck.delta_chain_bytes))
                .c_str(),
            property(*store, "smartstore.ckpt.delta-total-bytes").c_str());
      }
    }
  }

  if (opt.compact && !options.in_memory) {
    db::Status comp = store->Compact();
    if (!comp.ok()) die(comp, opt.crash_at);
    std::printf("compact  : delta chain folded into a fresh base image\n");
  }

  if (!opt.save_dir.empty()) {
    // Checkpoint() runs to completion: a delta cut onto the current base
    // (a no-op when nothing changed since the last checkpoint).
    db::Status cs = store->Checkpoint();
    if (!cs.ok()) die(cs, opt.crash_at);
    const db::CheckpointInfo fin = store->GetCheckpointInfo();
    std::printf(
        "snapshot : checkpoint in %s/ckpt (base %s + chain %llu cuts / %s, "
        "last cut %llu records)\n",
        opt.save_dir.c_str(),
        util::format_bytes(static_cast<std::size_t>(std::strtoull(
                               property(*store, "smartstore.snapshot.bytes")
                                   .c_str(),
                               nullptr, 10)))
            .c_str(),
        static_cast<unsigned long long>(fin.delta_chain_len),
        util::format_bytes(static_cast<std::size_t>(fin.delta_chain_bytes))
            .c_str(),
        static_cast<unsigned long long>(fin.last_delta_records));
  }

  std::printf(
      "deployment: %s storage units, %s index units, tree height %s, "
      "%s first-level groups, %s routing\n\n",
      property(*store, "smartstore.num-units").c_str(),
      property(*store, "smartstore.index-units").c_str(),
      property(*store, "smartstore.tree-height").c_str(),
      property(*store, "smartstore.tree-groups").c_str(),
      opt.routing == db::Routing::kOnline ? "on-line" : "off-line");

  trace::QueryGenerator gen(tr, opt.dist, opt.seed + 1);
  const auto dims = metadata::AttrSubset::all();

  if (opt.time_travel) {
    std::printf(
        "time travel: snapshot scans as-of commit seq %llu "
        "(latest %llu, gc watermark %s)\n",
        static_cast<unsigned long long>(opt.as_of_seq),
        static_cast<unsigned long long>(store->LatestSequence()),
        property(*store, "smartstore.mvcc.gc-watermark").c_str());
  }
  // Routed reads follow the paper's semantic routing at latest;
  // --query-as-of replaces them with exact snapshot scans at one seq.
  const db::ReadOptions as_of{opt.as_of_seq};
  const auto run_query = [&](db::QueryRequest&& req) {
    return opt.time_travel ? store->Query(req, as_of)
                           : store->Query(req);
  };

  BatchTotals point, range, topk;
  for (std::size_t i = 0; i < opt.point_queries; ++i) {
    auto r = run_query(db::QueryRequest::Point(gen.gen_point()));
    if (!r.ok()) die(r.status(), opt.crash_at);
    point.add(r->stats, r->count());
  }
  for (std::size_t i = 0; i < opt.range_queries; ++i) {
    auto r = run_query(db::QueryRequest::Range(gen.gen_range(dims)));
    if (!r.ok()) die(r.status(), opt.crash_at);
    range.add(r->stats, r->count());
  }
  for (std::size_t i = 0; i < opt.topk_queries; ++i) {
    auto r = run_query(db::QueryRequest::TopK(gen.gen_topk(dims, opt.k)));
    if (!r.ok()) die(r.status(), opt.crash_at);
    topk.add(r->stats, r->count());
  }

  std::printf("query batches (%s distribution%s):\n",
              trace::distribution_name(opt.dist),
              opt.time_travel ? ", as-of snapshot scans" : "");
  point.print("point");
  range.print("range");
  topk.print("top-k");

  const db::SpaceInfo space = store->GetSpaceInfo();
  std::printf(
      "\nper-unit space: metadata %zu B, hosted index %zu B, replicas %zu B, "
      "versions %zu B (total %zu B)\n",
      space.metadata_bytes, space.index_bytes, space.replica_bytes,
      space.version_bytes, space.total_bytes);

  db::Status closed = store->Close();
  if (!closed.ok()) die(closed, opt.crash_at);
  return 0;
}
