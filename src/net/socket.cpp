#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace fj::net {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_un UnixAddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw NetError("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in TcpAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("bad IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

std::string Endpoint::ToString() const {
  if (IsUnix()) return "unix:" + unix_path;
  return host + ":" + std::to_string(port);
}

ListenSocket::ListenSocket(const Endpoint& endpoint) : endpoint_(endpoint) {
  int fd = -1;
  if (endpoint_.IsUnix()) {
    sockaddr_un addr = UnixAddr(endpoint_.unix_path);
    ::unlink(endpoint_.unix_path.c_str());  // stale file from a dead server
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw NetError(Errno("socket"));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      CloseSocket(fd);
      throw NetError(Errno("bind " + endpoint_.ToString()));
    }
  } else {
    sockaddr_in addr = TcpAddr(endpoint_.host, endpoint_.port);
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw NetError(Errno("socket"));
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      CloseSocket(fd);
      throw NetError(Errno("bind " + endpoint_.ToString()));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(fd, 64) != 0) {
    CloseSocket(fd);
    throw NetError(Errno("listen " + endpoint_.ToString()));
  }
  fd_.store(fd);
}

ListenSocket::~ListenSocket() {
  Close();
  if (endpoint_.IsUnix()) ::unlink(endpoint_.unix_path.c_str());
}

int ListenSocket::Accept() {
  int fd = fd_.load();
  if (fd < 0) return -1;
  int client = ::accept(fd, nullptr, nullptr);
  if (client < 0) return -1;  // closed (or transient failure): stop/skip
  if (!endpoint_.IsUnix()) SetNoDelay(client);
  return client;
}

void ListenSocket::Close() {
  int fd = fd_.exchange(-1);
  if (fd < 0) return;
  // shutdown() wakes a blocked accept() on Linux; close() finishes the job.
  ::shutdown(fd, SHUT_RDWR);
  CloseSocket(fd);
}

int ConnectSocket(const Endpoint& endpoint) {
  int fd = -1;
  if (endpoint.IsUnix()) {
    sockaddr_un addr = UnixAddr(endpoint.unix_path);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw NetError(Errno("socket"));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      CloseSocket(fd);
      throw NetError(Errno("connect " + endpoint.ToString()));
    }
  } else {
    sockaddr_in addr = TcpAddr(endpoint.host, endpoint.port);
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw NetError(Errno("socket"));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      CloseSocket(fd);
      throw NetError(Errno("connect " + endpoint.ToString()));
    }
    SetNoDelay(fd);
  }
  return fd;
}

bool SendAll(int fd, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  while (n > 0) {
    // MSG_NOSIGNAL: a peer closing mid-write surfaces as EPIPE, not as a
    // SIGPIPE that would kill the embedding process.
    ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    p += sent;
    n -= static_cast<size_t>(sent);
  }
  return true;
}

bool RecvAll(int fd, void* data, size_t n) {
  auto* p = static_cast<uint8_t*>(data);
  while (n > 0) {
    ssize_t got = ::recv(fd, p, n, 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;
    }
    p += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

void ShutdownSocket(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void CloseSocket(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace fj::net
