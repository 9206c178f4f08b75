#include "cli/cluster_mode.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "metadata/schema.h"
#include "rpc/socket.h"
#include "rpc/wire.h"
#include "smartstore/smartstore.h"
#include "svc/meta_service.h"
#include "svc/partition.h"
#include "svc/router.h"

namespace smartstore::cli {

namespace {

/// Workload names share app directories (the partition key) so the
/// cluster's semantic co-location is actually exercised: files of one app
/// land on one shard, different apps spread across shards.
std::string workload_name(std::uint64_t seed, std::uint64_t i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/cli/u%03u/app%03u/f%06u.dat",
                static_cast<unsigned>((seed + i) % 5),
                static_cast<unsigned>((seed + i) % 11),
                static_cast<unsigned>(i));
  return buf;
}

metadata::FileMetadata workload_file(std::uint64_t seed, std::uint64_t i) {
  metadata::FileMetadata f;
  f.id = seed * 1'000'000 + i;
  f.name = workload_name(seed, i);
  for (std::size_t a = 0; a < metadata::kNumAttrs; ++a) {
    f.attrs[a] = static_cast<double>((f.id * 31 + a * 7) % 1000);
  }
  return f;
}

/// Writes `port` to `path` atomically (tmp + rename) so a poller never
/// observes a half-written file.
bool write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int RunServe(const ServeOptions& opt) {
  db::Options options;
  options.num_units = opt.units;
  options.fanout = opt.fanout;
  options.seed = opt.seed + opt.shard_id;
  // Online routing: a remote client cannot compensate for offline
  // routing's point-query false negatives, so a serving shard always
  // answers exactly.
  options.routing = db::Routing::kOnline;
  options.in_memory = opt.dir.empty();
  options.create_if_missing = true;

  auto opened = db::Store::Open(options, opt.dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: shard store open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<db::Store> store = std::move(opened).value();
  if (store->recovery_info().recovered) {
    std::printf("restored : shard state recovered from %s\n",
                opt.dir.c_str());
  }

  svc::MetaServiceOptions service_options;
  service_options.shard_id = opt.shard_id;
  svc::MetaService service(
      store.get(),
      svc::PartitionMap::RoundRobin(opt.num_shards, /*version=*/1),
      service_options);

  rpc::SocketServer server;
  const db::Status started =
      server.Start("127.0.0.1", opt.port, service.handler());
  if (!started.ok()) {
    std::fprintf(stderr, "error: serve failed: %s\n",
                 started.ToString().c_str());
    (void)store->Close();
    return 1;
  }
  if (!opt.port_file.empty() &&
      !write_port_file(opt.port_file, server.port())) {
    std::fprintf(stderr, "error: cannot write port file %s\n",
                 opt.port_file.c_str());
    server.Stop();
    (void)store->Close();
    return 1;
  }
  std::printf("serving  : shard %u/%u on 127.0.0.1:%u (%s)\n", opt.shard_id,
              opt.num_shards, static_cast<unsigned>(server.port()),
              options.in_memory ? "in-memory" : opt.dir.c_str());
  std::fflush(stdout);

  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::seconds(opt.serve_seconds);
  while (opt.serve_seconds == 0 || clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server.Stop();
  const db::Status closed = store->Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "error: shard close failed: %s\n",
                 closed.ToString().c_str());
    return 1;
  }
  std::printf("stopped  : shard %u/%u\n", opt.shard_id, opt.num_shards);
  return 0;
}

int RunConnect(const ConnectOptions& opt) {
  // Parse "host:port[,host:port...]"; endpoint index = shard id.
  std::vector<std::shared_ptr<rpc::Channel>> channels;
  std::size_t begin = 0;
  while (begin <= opt.endpoints.size()) {
    std::size_t end = opt.endpoints.find(',', begin);
    if (end == std::string::npos) end = opt.endpoints.size();
    const std::string ep = opt.endpoints.substr(begin, end - begin);
    const std::size_t colon = ep.rfind(':');
    const unsigned long port =
        colon == std::string::npos
            ? 0
            : std::strtoul(ep.c_str() + colon + 1, nullptr, 10);
    if (colon == 0 || colon == std::string::npos || port == 0 ||
        port > 65535) {
      std::fprintf(stderr, "error: bad endpoint '%s' (want host:port)\n",
                   ep.c_str());
      return 2;
    }
    channels.push_back(std::make_shared<rpc::SocketChannel>(
        ep.substr(0, colon), static_cast<std::uint16_t>(port)));
    begin = end + 1;
  }

  svc::RouterOptions router_options;
  // A random client id keeps concurrent CLI clients' request ids from
  // colliding in the shards' dedup tables.
  router_options.client_id = std::random_device{}();
  router_options.max_attempts = 16;
  svc::Router router(
      channels,
      svc::PartitionMap::RoundRobin(
          static_cast<std::uint32_t>(channels.size()), /*version=*/1),
      router_options);

  const db::Status fetched = router.FetchMap();
  if (!fetched.ok()) {
    std::fprintf(stderr, "error: no shard answered GetMap: %s\n",
                 fetched.ToString().c_str());
    return 1;
  }
  const svc::PartitionMap map = router.map();
  if (map.num_shards != channels.size()) {
    std::fprintf(stderr,
                 "error: cluster has %u shards but %zu endpoints were "
                 "given — every shard needs its channel\n",
                 map.num_shards, channels.size());
    return 1;
  }
  std::printf("cluster  : %u shards, partition map v%llu\n", map.num_shards,
              static_cast<unsigned long long>(map.version));

  std::size_t acked = 0;
  std::vector<std::string> names;
  names.reserve(opt.puts);
  for (std::uint64_t i = 0; i < opt.puts; ++i) {
    const metadata::FileMetadata f = workload_file(opt.seed, i);
    const db::Status s = router.Put(f);
    if (!s.ok()) {
      std::fprintf(stderr, "error: put %s failed: %s\n", f.name.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    ++acked;
    names.push_back(f.name);
  }

  std::size_t found = 0;
  for (const std::string& name : names) {
    auto r = router.Point(name);
    if (!r.ok()) {
      std::fprintf(stderr, "error: point %s failed: %s\n", name.c_str(),
                   r.status().ToString().c_str());
      return 1;
    }
    if (r->count() > 0) ++found;
  }

  const db::Status flushed = router.Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "error: flush failed: %s\n",
                 flushed.ToString().c_str());
    return 1;
  }

  const svc::RouterStats rs = router.stats();
  std::printf(
      "workload : %zu puts acked, %zu/%zu points found "
      "(%llu sends, %llu retries, %llu redirects)\n",
      acked, found, names.size(),
      static_cast<unsigned long long>(rs.sends),
      static_cast<unsigned long long>(rs.retries),
      static_cast<unsigned long long>(rs.redirects));
  for (std::uint32_t shard = 0; shard < map.num_shards; ++shard) {
    auto stats = router.Stats(shard);
    if (!stats.ok()) {
      std::fprintf(stderr, "error: stats from shard %u failed: %s\n", shard,
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "shard %-3u: %llu files hosted, %llu puts applied, %llu dup hits, "
        "%llu wrong-shard rejects\n",
        shard, static_cast<unsigned long long>(stats->total_files),
        static_cast<unsigned long long>(stats->applied_puts),
        static_cast<unsigned long long>(stats->dup_hits),
        static_cast<unsigned long long>(stats->wrong_shard));
  }

  if (found != names.size()) {
    std::fprintf(stderr, "error: %zu acked puts were not found back\n",
                 names.size() - found);
    return 1;
  }
  return 0;
}

}  // namespace smartstore::cli
