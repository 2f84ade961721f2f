// EstimatorServer: the remote front end of a ModelRegistry.
//
//   clients ──► accept loop ──► per-connection reader ──► ModelRegistry
//                                  │ decode, dispatch        │ model-id
//                                  │                         ▼ routing
//                                  │                  EstimatorService
//                                  ▼ Send                    │ completion
//                                socket ◄────── Send ────────┘ callback
//                                                  (async, on the worker)
//
// One TCP (or Unix-domain) listener, up to kMaxClients concurrent client
// connections, any number of named models: every request carries a
// model-id (protocol v2) that the dispatcher resolves through the registry
// — "" routes to the default model, an unknown name is a per-request kError
// (the connection survives). A client addresses one model, but routing is
// per request, so nothing ties a connection to a model. The single-service
// constructor keeps the one-model deployment trivial by wrapping the
// service in an internal registry.
//
// Each connection gets one reader thread (frame decode + dispatch). Every
// estimate is a sub-plans request, served (ServeSubplans) through the
// resolved service's callback API, so decoding the next request never
// blocks on estimating the previous one. Every frame goes to the socket
// from the thread that produced it, one whole frame at a time under the
// connection's send mutex: the reader writes the hello ack, errors and the
// NotifyUpdate / Stats responses, and the service worker that completes an
// estimate writes its response. Responses therefore leave in *completion*
// order with request-id correlation — a pipelined client keeps every
// service worker busy from a single connection.
//
// Back-pressure composes: the service's bounded queue blocks the reader
// thread when the pool is saturated (stalling that client's decode, not
// other connections), and a client that stops reading blocks the workers
// serving it once the kernel's socket buffer is full, until the connection
// is torn down.
//
// Failure containment: a malformed frame, or one longer than
// kMaxFrameBytes, terminates only the offending connection (after a
// best-effort connection-level kError); an estimator exception is returned
// as a per-request kError. Neither crashes the server or affects other
// clients.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "obs/latency_histogram.h"
#include "obs/metrics_registry.h"
#include "obs/request_trace.h"
#include "service/estimator_service.h"
#include "service/model_registry.h"

namespace fj::net {

/// Connections beyond this many open ones are accepted and closed at once.
inline constexpr size_t kMaxClients = 64;

struct EstimatorServerOptions {
  /// Listen address. TCP port 0 binds an ephemeral port — read it back via
  /// port() after Start(). Set endpoint.unix_path for a Unix-domain socket.
  Endpoint endpoint;
};

/// Monotonic counters; `connections_active` is a gauge.
struct ServerStats {
  /// MonotonicMicros at Start(); 0 before. Anchors uptime and the
  /// observability layer's time-series timestamps (fj_server_start_time).
  uint64_t start_micros = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;
  uint64_t connections_active = 0;
  uint64_t frames_received = 0;
  /// Frames written whole to a socket: responses, hello acks and errors.
  uint64_t responses_sent = 0;
  /// Payload bytes read off sockets (frame headers included).
  uint64_t bytes_received = 0;
  /// Frame bytes written to sockets.
  uint64_t bytes_sent = 0;
  /// Connections dropped for malformed frames / failed handshakes.
  uint64_t protocol_errors = 0;
  /// Per-request kError responses (estimator exceptions reported remotely).
  uint64_t request_errors = 0;
  /// Net-side stage histograms (microseconds): kDecode (request body
  /// decode), kEncode (response body encode), kSocketWrite (SendAll of a
  /// frame, on the thread that sends it: the service worker for an
  /// estimate's response). The serving stages live in the routed model's
  /// ServiceStats::stages. An estimate's kRespond span there contains its
  /// kEncode and kSocketWrite here, so the two arrays without kRespond
  /// cover a remote request's path once.
  std::array<obs::HistogramSnapshot, obs::kNumStages> stages;
};

/// One row of kServerCounters: a ServerStats counter or gauge with its
/// metric name, kind and help text.
struct ServerCounter {
  const char* name;
  obs::MetricKind kind;
  const char* help;
  uint64_t ServerStats::*field;

  /// The row's value in `stats` (const or mutable).
  template <typename Stats>
  auto& Of(Stats& stats) const {
    return stats.*field;
  }
};

/// Every counter and gauge of ServerStats, each exactly once. The exporter
/// (obs/metrics_export.h) and the monitor's per-second windows
/// (obs/time_series.h) walk it, so a new counter is one field plus one row.
inline constexpr ServerCounter kServerCounters[] = {
    {"fj_server_connections_accepted_total", obs::MetricKind::kCounter,
     "Client connections accepted.", &ServerStats::connections_accepted},
    {"fj_server_connections_rejected_total", obs::MetricKind::kCounter,
     "Connections rejected at the client cap.",
     &ServerStats::connections_rejected},
    {"fj_server_connections_active", obs::MetricKind::kGauge,
     "Currently open client connections.", &ServerStats::connections_active},
    {"fj_server_frames_received_total", obs::MetricKind::kCounter,
     "Request frames received.", &ServerStats::frames_received},
    {"fj_server_responses_sent_total", obs::MetricKind::kCounter,
     "Response frames written.", &ServerStats::responses_sent},
    {"fj_server_bytes_received_total", obs::MetricKind::kCounter,
     "Bytes read off client sockets.", &ServerStats::bytes_received},
    {"fj_server_bytes_sent_total", obs::MetricKind::kCounter,
     "Bytes written to client sockets.", &ServerStats::bytes_sent},
    {"fj_server_protocol_errors_total", obs::MetricKind::kCounter,
     "Connections dropped for protocol violations.",
     &ServerStats::protocol_errors},
    {"fj_server_request_errors_total", obs::MetricKind::kCounter,
     "Per-request error responses sent.", &ServerStats::request_errors},
};

class EstimatorServer {
 public:
  /// Multi-model front end: `registry` must outlive the server (models may
  /// still be registered after Start(), but never removed). Requests route
  /// by their model-id field; "" hits the registry's default model.
  explicit EstimatorServer(ModelRegistry& registry,
                           EstimatorServerOptions options = {});

  /// Single-model convenience: wraps `service` (which must outlive the
  /// server; the estimator stays owned by the caller — train first, then
  /// serve) in an internal one-entry registry under the name "default".
  explicit EstimatorServer(EstimatorService& service,
                           EstimatorServerOptions options = {});

  /// Stops and joins everything still running.
  ~EstimatorServer();

  EstimatorServer(const EstimatorServer&) = delete;
  EstimatorServer& operator=(const EstimatorServer&) = delete;

  /// Binds, listens, and starts the accept loop. Throws NetError when the
  /// endpoint cannot be bound; throws std::logic_error when already started.
  void Start();

  /// Closes the listener and every connection, joins all threads, and
  /// drains every registered service so no completion callback can outlive
  /// the server. In-flight requests already dispatched complete on their
  /// service; their responses are dropped, and a worker blocked sending to
  /// a client that stopped reading is released. Idempotent; must not be
  /// called from a service worker thread (it drains the pools).
  void Stop();

  /// The endpoint actually bound (TCP port 0 resolved). Valid after Start().
  Endpoint endpoint() const;
  uint16_t port() const;

  ServerStats Stats() const;

 private:
  // One client connection. Held by shared_ptr from the reader thread, the
  // connection list, and every in-flight completion callback. It owns its
  // socket and closes it on destruction, so a response completing after
  // the connection was torn down and reaped can never reach a reused fd.
  struct Connection {
    explicit Connection(int fd_in) : fd(fd_in) {}
    ~Connection() { CloseSocket(fd); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    const int fd;
    std::atomic<bool> done{false};  // reader exited; reapable
    std::mutex send_mu;             // held for one whole frame
    bool writable = true;           // guarded by send_mu
    std::thread reader;
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  void AcceptLoop();
  void ReaderLoop(ConnectionPtr conn);
  /// Writes one frame to the connection's socket from the calling thread
  /// and counts it; drops it once the connection is unwritable (reader
  /// exited, or an earlier send failed). A failed send marks the connection
  /// unwritable and shuts the socket down, which ends its reader.
  void Send(const ConnectionPtr& conn, MsgType type, uint64_t request_id,
            const std::vector<uint8_t>& body);
  /// Handles one decoded request frame; throws ProtocolError upward on
  /// malformed bodies.
  void Dispatch(const ConnectionPtr& conn, const Frame& frame);
  /// Decodes a sub-plans request and submits it to the routed service; the
  /// completion encodes the response and sends it from the worker.
  void ServeSubplans(const ConnectionPtr& conn, const Frame& frame);
  void SendError(const ConnectionPtr& conn, uint64_t request_id,
                 const std::string& message);
  /// Resolves a request's model id against the registry; on an unknown
  /// name sends a per-request kError and returns nullptr (the connection
  /// survives — a routing mistake is the client's bug, not a protocol
  /// violation).
  EstimatorService* Resolve(const ConnectionPtr& conn, uint64_t request_id,
                            const std::string& model);
  /// Joins and forgets connections whose reader has exited.
  void ReapFinished();

  ModelRegistry* registry_;  // not owned (may point at owned_registry_)
  // Backs the single-service constructor: a one-entry registry wrapping
  // the caller's EstimatorService.
  std::unique_ptr<ModelRegistry> owned_registry_;
  const EstimatorServerOptions options_;

  std::unique_ptr<ListenSocket> listener_;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex connections_mu_;
  std::vector<ConnectionPtr> connections_;

  std::atomic<uint64_t> start_micros_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> responses_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> request_errors_{0};
  // Decode / encode / socket-write spans across all connections; the other
  // stage slots stay empty (they belong to the services).
  std::array<obs::LatencyHistogram, obs::kNumStages> stage_hist_;
};

}  // namespace fj::net
