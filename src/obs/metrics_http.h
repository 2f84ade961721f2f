// MetricsHttpServer: a minimal HTTP/1.0 endpoint exposing a MetricsRegistry.
//
//   GET /metrics       Prometheus text exposition (RenderPrometheus)
//   GET /metrics.json  MetricsRegistry::DumpJson()
//   GET <registered>   AddHandler() routes — fj_server registers
//                      /metrics/history, /healthz, /debug/traces
//   anything else      404
//
// Deliberately tiny: one accept thread handling connections serially,
// Connection: close on every response, request headers read and discarded.
// A connection gets one second to deliver its request and one second to
// take its response, so a peer that connects and stays silent delays the
// next scrape (and Stop()) by at most a second.
// A metrics scrape is a once-per-15s curl, not a serving path — anything
// fancier (keep-alive, pipelining, TLS) belongs in a real reverse proxy in
// front. The listener reuses net/socket.h, so `--metrics-port 0` binds an
// ephemeral port readable via port() (fj_server prints it for
// tools/net_smoke.sh).
//
// Lifetime: the registry (and everything its collectors reference) must
// outlive Stop(). Start() throws NetError when the port cannot be bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "net/socket.h"
#include "obs/metrics_registry.h"

namespace fj::obs {

struct MetricsHttpOptions {
  /// Bind address; port 0 picks an ephemeral port.
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// What a registered route handler returns; the server adds the HTTP
/// envelope. Any status the handler picks is honored (/healthz returns
/// 503 while overloaded).
struct HttpHandlerResult {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

class MetricsHttpServer {
 public:
  using Handler = std::function<HttpHandlerResult()>;

  MetricsHttpServer(const MetricsRegistry& registry,
                    MetricsHttpOptions options);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds and starts serving. Throws net::NetError on bind failure,
  /// std::logic_error when already started.
  void Start();

  /// Closes the listener and joins the serving thread. Idempotent.
  void Stop();

  /// Resolved port (valid after Start()).
  uint16_t port() const;

  /// Registers `handler` for exact-path GETs on `path` (e.g. "/healthz").
  /// Registered routes are consulted before the built-in /metrics routes,
  /// so "/metrics/history" is reachable. Call before Start(): the route
  /// table is not synchronized against the serving thread.
  void AddHandler(std::string path, Handler handler);

  /// Scrapes served so far (2xx responses). Thread-safe.
  uint64_t scrapes() const { return scrapes_.load(); }

 private:
  void ServeLoop();
  void HandleConnection(int fd);

  const MetricsRegistry& registry_;
  const MetricsHttpOptions options_;
  std::map<std::string, Handler> handlers_;
  std::unique_ptr<net::ListenSocket> listener_;
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> scrapes_{0};
};

}  // namespace fj::obs
