// Pluggable socket transport: the same Channel/Handler contract as the
// in-process registry, over TCP.
//
// One frame per request, one per response, on a persistent connection. The
// stream framing is the wire format itself: the receiver reads the fixed
// header, learns payload_len from it (peek_payload_len validates magic /
// version / bounds first), reads the payload, and hands the whole buffer
// to decode_frame — so a corrupted stream fails the CRC, not the process.
//
// SocketServer runs one accept thread plus one thread per connection
// (metadata frames are small and the shard store underneath is internally
// striped; connection counts in the hundreds are the design point, not
// tens of thousands). A connection's thread closes its fd when the client
// hangs up, and the accept loop joins finished threads on the next
// accept, so a long-running server holds only its live connections.
// SocketChannel serializes calls on its connection and
// reconnects lazily, so a restarted server looks like a few kUnavailable
// results followed by recovery — which is exactly what the router's
// bounded backoff expects.
//
// POSIX-only: on other platforms every entry point returns
// kFailedPrecondition (the in-process transport still works everywhere).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rpc/transport.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace smartstore::rpc {

class SocketServer {
 public:
  SocketServer() = default;
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds `host:port` (port 0 picks an ephemeral port — read the result
  /// from port()) and starts serving `handler`. Errors: kIOError (bind /
  /// listen failed), kFailedPrecondition (already started / no sockets on
  /// this platform).
  db::Status Start(const std::string& host, std::uint16_t port,
                   Handler handler);

  /// The bound port (valid after a successful Start).
  std::uint16_t port() const { return port_; }

  /// Stops accepting, closes every connection, joins every thread.
  /// Idempotent; the destructor calls it.
  void Stop();

 private:
  /// One accepted connection. Its fd is closed, and set to -1, under
  /// conns_mu_ by its own thread once the client hangs up (or Stop shuts
  /// it down), so Stop's shutdown() never reaches a closed — possibly
  /// reused — descriptor.
  struct Conn {
    int fd = -1;
    bool done = false;  ///< the thread has closed the fd and is exiting
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(Conn* conn);

  Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  util::Mutex conns_mu_{util::LockRank::kRpcChannel};
  std::vector<std::unique_ptr<Conn>> conns_ SS_GUARDED_BY(conns_mu_);
};

/// Client end. Thread-safe: calls are serialized on the connection.
class SocketChannel : public Channel {
 public:
  /// Does not connect yet — the first Call does (and any Call after a
  /// connection loss retries the connect once before failing
  /// kUnavailable).
  SocketChannel(std::string host, std::uint16_t port,
                std::uint32_t recv_timeout_ms = 5000);
  ~SocketChannel() override;

  db::Status Call(const Frame& req, Frame* resp) override;

 private:
  db::Status EnsureConnected() SS_REQUIRES(mu_);
  void Disconnect() SS_REQUIRES(mu_);

  const std::string host_;
  const std::uint16_t port_;
  const std::uint32_t recv_timeout_ms_;

  util::Mutex mu_{util::LockRank::kRpcChannel};
  int fd_ SS_GUARDED_BY(mu_) = -1;
};

}  // namespace smartstore::rpc
