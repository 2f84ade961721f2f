// Thin POSIX socket wrappers for the remote-estimation subsystem: listen /
// connect over loopback-or-real TCP and Unix-domain sockets, and the
// full-buffer send/recv loops the framed protocol needs.
//
// Setup failures (bind, listen, connect, bad address) throw NetError with
// the errno text; steady-state I/O (SendAll / RecvAll) reports peer
// disconnects as `false` instead, because a client going away is normal
// server life, not an exception.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace fj::net {

/// Thrown on socket setup failures (resolve/bind/listen/connect).
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what)
      : std::runtime_error("net: " + what) {}
};

/// Where a server listens or a client connects. `unix_path` non-empty
/// selects a Unix-domain socket and host/port are ignored; otherwise TCP on
/// host:port (port 0 lets the kernel pick — read it back via
/// ListenSocket::port()).
struct Endpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string unix_path;

  bool IsUnix() const { return !unix_path.empty(); }
  std::string ToString() const;
};

/// A bound, listening socket. Closes (and unlinks the Unix path) on
/// destruction.
class ListenSocket {
 public:
  /// Binds and listens; throws NetError on failure. For Unix endpoints a
  /// stale socket file at the path is removed first.
  explicit ListenSocket(const Endpoint& endpoint);
  ~ListenSocket();

  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Blocks for the next connection; returns the connected fd, or -1 once
  /// the socket was Close()d (the accept-loop shutdown signal). TCP
  /// connections get TCP_NODELAY (the protocol pipelines small frames).
  int Accept();

  /// Unblocks Accept() and closes the fd. Idempotent; thread-safe against a
  /// concurrent Accept().
  void Close();

  /// The actual bound port (resolves port 0); 0 for Unix endpoints.
  uint16_t port() const { return port_; }
  const Endpoint& endpoint() const { return endpoint_; }

 private:
  Endpoint endpoint_;
  // Atomic so a concurrent Close() (accept-loop shutdown) races cleanly
  // with the fd read in Accept().
  std::atomic<int> fd_{-1};
  uint16_t port_ = 0;
};

/// Connects to `endpoint` (with TCP_NODELAY for TCP); throws NetError on
/// failure. The caller owns the returned fd.
int ConnectSocket(const Endpoint& endpoint);

/// Writes exactly `n` bytes; false on any error or peer disconnect. Never
/// raises SIGPIPE, so the process's signal disposition is left alone.
bool SendAll(int fd, const void* data, size_t n);

/// Reads exactly `n` bytes; false on error, EOF, or short close.
bool RecvAll(int fd, void* data, size_t n);

/// shutdown(2) both directions — unblocks a thread parked in RecvAll.
void ShutdownSocket(int fd);

/// close(2), ignoring errors; -1 is a no-op.
void CloseSocket(int fd);

}  // namespace fj::net
