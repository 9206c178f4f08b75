#include "rpc/socket.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "rpc/wire.h"

#if defined(__unix__) || defined(__APPLE__)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace smartstore::rpc {

namespace {

db::Status errno_status(const char* what) {
  return db::Status::IOError(std::string(what) + ": " +
                             std::strerror(errno));
}

/// Writes the whole buffer or fails. MSG_NOSIGNAL: a dead peer must come
/// back as EPIPE, not a process-wide SIGPIPE.
db::Status send_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return db::Status::Unavailable(std::string("send: ") +
                                     std::strerror(errno));
    }
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return db::Status();
}

/// Reads exactly `len` bytes. EOF mid-message is kUnavailable (the peer
/// went away); a receive timeout is kTimeout (delivery unknown — the
/// caller must treat the connection as desynchronized and drop it).
db::Status recv_all(int fd, std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return db::Status::Timeout("recv timed out");
      }
      return db::Status::Unavailable(std::string("recv: ") +
                                     std::strerror(errno));
    }
    if (n == 0) return db::Status::Unavailable("peer closed connection");
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return db::Status();
}

/// One frame off the stream: fixed header, then the payload length the
/// (validated) header announces.
db::Status recv_frame(int fd, Frame* out) {
  std::vector<std::uint8_t> buf(kFrameHeaderBytes);
  db::Status s = recv_all(fd, buf.data(), buf.size());
  if (!s.ok()) return s;
  std::uint32_t payload_len = 0;
  s = peek_payload_len(buf.data(), buf.size(), &payload_len);
  if (!s.ok()) return s;
  buf.resize(kFrameHeaderBytes + payload_len);
  s = recv_all(fd, buf.data() + kFrameHeaderBytes, payload_len);
  if (!s.ok()) return s;
  return decode_frame(buf, out);
}

db::Status send_frame(int fd, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  return send_all(fd, bytes.data(), bytes.size());
}

db::Status resolve(const std::string& host, std::uint16_t port,
                   sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return db::Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return db::Status();
}

}  // namespace

SocketServer::~SocketServer() { Stop(); }

db::Status SocketServer::Start(const std::string& host, std::uint16_t port,
                               Handler handler) {
  if (listen_fd_ >= 0) {
    return db::Status::FailedPrecondition("server already started");
  }
  sockaddr_in addr;
  db::Status s = resolve(host, port, &addr);
  if (!s.ok()) return s;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    s = errno_status("bind");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    s = errno_status("listen");
    ::close(fd);
    return s;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    s = errno_status("getsockname");
    ::close(fd);
    return s;
  }

  handler_ = std::move(handler);
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return db::Status();
}

void SocketServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down (Stop) or unrecoverable
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Reap the connections whose clients hung up since the last accept:
    // their fds are closed already, their threads are exiting.
    std::vector<std::unique_ptr<Conn>> finished;
    {
      const util::MutexLock lock(conns_mu_);
      const auto live = std::stable_partition(
          conns_.begin(), conns_.end(),
          [](const std::unique_ptr<Conn>& c) { return !c->done; });
      std::move(live, conns_.end(), std::back_inserter(finished));
      conns_.erase(live, conns_.end());
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->thread =
          std::thread([this, c = conn.get()] { ServeConnection(c); });
      conns_.push_back(std::move(conn));
    }
    for (const auto& c : finished) c->thread.join();
  }
}

void SocketServer::ServeConnection(Conn* conn) {
  const int fd = conn->fd;  // only this thread ever writes it
  for (;;) {
    Frame req;
    if (!recv_frame(fd, &req).ok()) break;  // EOF, damage, or shutdown
    const Frame resp = handler_(req);
    if (!send_frame(fd, resp).ok()) break;
  }
  // Closed under the lock Stop holds across its shutdown() calls, so the
  // two never meet on one descriptor.
  const util::MutexLock lock(conns_mu_);
  ::close(fd);
  conn->fd = -1;
  conn->done = true;
}

void SocketServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept()
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Accept thread is gone: the connection list is frozen now. Shut every
  // open connection down (unblocks recv in its thread, which then closes
  // the fd) and join.
  std::vector<std::unique_ptr<Conn>> conns;
  {
    const util::MutexLock lock(conns_mu_);
    for (const auto& c : conns_)
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
    conns.swap(conns_);
  }
  for (const auto& c : conns) c->thread.join();
}

SocketChannel::SocketChannel(std::string host, std::uint16_t port,
                             std::uint32_t recv_timeout_ms)
    : host_(std::move(host)), port_(port), recv_timeout_ms_(recv_timeout_ms) {}

SocketChannel::~SocketChannel() {
  const util::MutexLock lock(mu_);
  Disconnect();
}

db::Status SocketChannel::EnsureConnected() {
  if (fd_ >= 0) return db::Status();
  sockaddr_in addr;
  db::Status s = resolve(host_, port_, &addr);
  if (!s.ok()) return s;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    s = db::Status::Unavailable(std::string("connect ") + host_ + ":" +
                                std::to_string(port_) + ": " +
                                std::strerror(errno));
    ::close(fd);
    return s;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv;
  tv.tv_sec = recv_timeout_ms_ / 1000;
  tv.tv_usec = static_cast<long>(recv_timeout_ms_ % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  fd_ = fd;
  return db::Status();
}

void SocketChannel::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

db::Status SocketChannel::Call(const Frame& req, Frame* resp) {
  const util::MutexLock lock(mu_);
  // Reconnect-once: a connection that died since the last call (server
  // restart) costs one failed send, after which we retry on a fresh
  // connection before reporting kUnavailable to the router.
  for (int attempt = 0; attempt < 2; ++attempt) {
    db::Status s = EnsureConnected();
    if (!s.ok()) {
      Disconnect();
      if (attempt == 0) continue;
      return s;
    }
    s = send_frame(fd_, req);
    if (!s.ok()) {
      Disconnect();
      if (attempt == 0) continue;
      return s;
    }
    s = recv_frame(fd_, resp);
    if (!s.ok()) {
      // Whatever happened (timeout, EOF, corrupt frame), the stream can no
      // longer be trusted to be on a frame boundary: drop the connection.
      // No silent retry here — the request may have been applied, and only
      // the request-id dedup layer may safely resend it.
      Disconnect();
      return s;
    }
    return db::Status();
  }
  return db::Status::Unavailable("unreachable");
}

}  // namespace smartstore::rpc

#else  // !(__unix__ || __APPLE__)

namespace smartstore::rpc {

namespace {
db::Status no_sockets() {
  return db::Status::FailedPrecondition(
      "socket transport is not available on this platform");
}
}  // namespace

SocketServer::~SocketServer() = default;

db::Status SocketServer::Start(const std::string&, std::uint16_t, Handler) {
  return no_sockets();
}

void SocketServer::Stop() {}

void SocketServer::AcceptLoop() {}
void SocketServer::ServeConnection(Conn*) {}

SocketChannel::SocketChannel(std::string host, std::uint16_t port,
                             std::uint32_t recv_timeout_ms)
    : host_(std::move(host)), port_(port), recv_timeout_ms_(recv_timeout_ms) {}

SocketChannel::~SocketChannel() = default;

db::Status SocketChannel::EnsureConnected() { return no_sockets(); }
void SocketChannel::Disconnect() {}

db::Status SocketChannel::Call(const Frame&, Frame*) { return no_sockets(); }

}  // namespace smartstore::rpc

#endif
