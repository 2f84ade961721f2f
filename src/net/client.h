// EstimatorClient: the optimizer-process side of remote estimation.
//
// Mirrors the EstimatorService API (EstimateSubplans, NotifyUpdate, Stats)
// over one framed socket connection, for one model:
// every request carries options.model, and a process that talks to several
// of a server's models holds one client per model. Plus the two things a
// remote client needs that an in-process service does not:
//
//  * Pipelining. Every request assigns an id, registers its completion
//    callback, and sends without waiting; any number of requests can be
//    outstanding on the one connection, and a background receiver thread
//    correlates responses (which the server sends in completion order) back
//    to their callbacks. The future overload sets a promise inside that
//    callback and the blocking calls are submit + get, so one pipelined
//    client can keep a whole server worker pool busy.
//
//  * Reconnect-on-failure. A lost connection fails every outstanding
//    request with NetError, and the next request (or an explicit Connect())
//    dials again — kDialAttempts dials, kDialBackoff apart — and re-runs
//    the protocol handshake. A failed dial or send fails that request the
//    same way (a future throws from get(); nothing throws from the *Async
//    call). Requests are never silently retried: a failed NotifyUpdate must
//    surface, not double-bump the epoch.
//
// Thread-safe: any number of threads may issue requests concurrently; sends
// are serialized on one mutex, receives happen on the receiver thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "net/protocol.h"
#include "net/socket.h"

namespace fj::net {

/// A per-request failure the *server* reported (estimator exception,
/// service shutdown); the connection itself is still healthy.
class RemoteError : public std::runtime_error {
 public:
  explicit RemoteError(const std::string& what)
      : std::runtime_error("remote: " + what) {}
};

/// Dials per (re)connect before the request fails with NetError, and the
/// pause between two of them.
inline constexpr int kDialAttempts = 3;
inline constexpr std::chrono::milliseconds kDialBackoff{50};

struct EstimatorClientOptions {
  Endpoint endpoint;
  /// The model every request addresses ("" = the server's default model).
  std::string model;
};

class EstimatorClient {
 public:
  /// Does not dial; the first request (or Connect()) does.
  explicit EstimatorClient(EstimatorClientOptions options);
  ~EstimatorClient();

  EstimatorClient(const EstimatorClient&) = delete;
  EstimatorClient& operator=(const EstimatorClient&) = delete;

  /// Dials and handshakes if not connected. Throws NetError after
  /// kDialAttempts failed dials and ProtocolError on a handshake the
  /// server rejects. Idempotent while connected.
  void Connect();

  /// Fails outstanding requests with NetError and closes. Idempotent.
  void Disconnect();

  bool IsConnected() const { return connected_.load(); }

  /// Completion hook for drivers that must observe each response the moment
  /// it lands (open-loop load generation): futures can only be harvested in
  /// submission order, which would smear completion times. `error` is
  /// nullptr on success, else RemoteError/NetError.
  using SubplansCallback = std::function<void(
      std::unordered_map<uint64_t, double> estimates,
      std::exception_ptr error)>;

  /// Pipelined batched sub-plan estimates (masks in Query::tables() bit
  /// order, exactly like EstimatorService::EstimateSubplans; one query's
  /// own estimate is the batch {query.AllAliases()}), delivered through
  /// `done`. `done` runs exactly once — on the receiver thread when a
  /// response or disconnect arrives, or on the calling thread when the dial
  /// fails or the send fails before the disconnect sweep sees it (the
  /// failure is delivered as the error argument; nothing is thrown). Keep
  /// it quick, non-blocking and non-throwing: it runs on the thread that
  /// drains the socket.
  void EstimateSubplansAsync(const Query& query,
                             const std::vector<uint64_t>& masks,
                             SubplansCallback done);
  /// The same request through a future, which throws RemoteError
  /// (server-side failure) or NetError (dial or send failed, or the
  /// connection was lost before the response).
  std::future<std::unordered_map<uint64_t, double>> EstimateSubplansAsync(
      const Query& query, const std::vector<uint64_t>& masks);
  std::unordered_map<uint64_t, double> EstimateSubplans(
      const Query& query, const std::vector<uint64_t>& masks);

  /// The same request with the protocol v3 want-trace flag set: the
  /// response carries the server-side stage breakdown (decode, queue wait,
  /// cache probe, estimate kernel, encode — respond and socket write happen
  /// after the response body is sealed and only feed the server's aggregate
  /// histograms). `trace` is empty (has_trace false) when the serving model
  /// runs with tracing disabled. This is what `fj_client --trace` prints.
  using TracedSubplans = SubplansResp;
  TracedSubplans EstimateSubplansTraced(const Query& query,
                                        const std::vector<uint64_t>& masks);

  /// Remote cache invalidation: bumps the model's statistics epoch for
  /// `table` and returns the new epoch (epochs are per model; the
  /// estimator mutation itself is server-local — see
  /// docs/ARCHITECTURE.md).
  uint64_t NotifyUpdate(const std::string& table);

  /// Snapshot of the model's service metrics.
  ServiceStats Stats();

 private:
  /// A request's single completion: the response frame (of the expected
  /// type) on success, else nullptr and the error — NetError (dial, send or
  /// connection failure), RemoteError (the server's kError) or
  /// ProtocolError (a response of the wrong type).
  using Done = std::function<void(const Frame*, std::exception_ptr)>;

  /// One outstanding request: the response type it expects and its
  /// completion. Whoever removes it from `pending_` — the receiver, the
  /// disconnect sweep, or Send() after a failed write — runs `done`, so
  /// it runs exactly once.
  struct Pending {
    MsgType expect;
    Done done;
  };

  /// Dials if needed, registers the request and writes its frame. Never
  /// throws: a failed dial or send is delivered through `done`.
  void Send(MsgType type, const std::vector<uint8_t>& body, MsgType expect,
            Done done);
  /// Future adapter over Send: `decode` turns the response body into the
  /// future's value.
  template <typename T>
  std::future<T> Call(MsgType type, const std::vector<uint8_t>& body,
                      MsgType expect,
                      T (*decode)(const std::vector<uint8_t>&));
  void ConnectLocked();
  void DisconnectLocked(const char* reason);
  void ReceiverLoop(int fd);
  void FailAllPending(const char* reason);

  const EstimatorClientOptions options_;

  // Guards fd_/receiver_ lifecycle and serializes frame writes so two
  // threads can't interleave the bytes of their frames.
  std::mutex mu_;
  int fd_ = -1;
  std::thread receiver_;
  std::atomic<bool> connected_{false};

  std::mutex pending_mu_;
  std::unordered_map<uint64_t, Pending> pending_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace fj::net
