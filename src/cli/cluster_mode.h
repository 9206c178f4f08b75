// The distributed modes of smartstore_cli: `--serve` runs ONE shard of a
// metadata-service cluster (a durable db::Store wrapped in
// svc::MetaService behind a TCP rpc::SocketServer); `--connect` is the
// matching client (rpc::SocketChannel per endpoint + svc::Router) that
// drives a put/point workload through the routing/retry contract and
// verifies every acknowledged write is findable.
//
// A 2-shard cluster on one machine is three invocations:
//
//   smartstore_cli --serve state/shard-0 --shard 0/2 --port-file p0
//   smartstore_cli --serve state/shard-1 --shard 1/2 --port-file p1
//   smartstore_cli --connect 127.0.0.1:$(cat p0),127.0.0.1:$(cat p1)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace smartstore::cli {

struct ServeOptions {
  std::string dir;  ///< this shard's data directory ("" = in-memory)
  std::uint32_t shard_id = 0;
  std::uint32_t num_shards = 1;
  std::uint16_t port = 0;       ///< 0 = ephemeral
  std::string port_file;        ///< write the bound port here (handshake)
  std::size_t serve_seconds = 0;  ///< 0 = serve until killed
  std::size_t units = 4;
  std::size_t fanout = 8;
  std::uint64_t seed = 42;
};

struct ConnectOptions {
  std::string endpoints;  ///< "host:port[,host:port...]", index = shard id
  std::size_t puts = 64;
  std::uint64_t seed = 42;
};

/// Serves one shard; returns a process exit code.
int RunServe(const ServeOptions& opt);

/// Runs the client workload; returns a process exit code (non-zero when
/// any put fails or any acked put is not found back).
int RunConnect(const ConnectOptions& opt);

}  // namespace smartstore::cli
