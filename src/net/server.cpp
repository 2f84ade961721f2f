#include "net/server.h"

#include <stdexcept>
#include <utility>

namespace fj::net {
namespace {

std::string ExceptionMessage(std::exception_ptr e) {
  try {
    std::rethrow_exception(std::move(e));
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown error";
  }
}

/// Bytes the frame occupied on the wire: u32 length prefix + u8 type +
/// u64 request id + body.
uint64_t FrameWireBytes(const Frame& frame) {
  return 4 + 1 + 8 + frame.body.size();
}

}  // namespace

EstimatorServer::EstimatorServer(ModelRegistry& registry,
                                 EstimatorServerOptions options)
    : registry_(&registry), options_(std::move(options)) {}

EstimatorServer::EstimatorServer(EstimatorService& service,
                                 EstimatorServerOptions options)
    : owned_registry_(std::make_unique<ModelRegistry>()),
      options_(std::move(options)) {
  owned_registry_->AddExternal("default", service);
  registry_ = owned_registry_.get();
}

EstimatorServer::~EstimatorServer() { Stop(); }

void EstimatorServer::Start() {
  if (started_.exchange(true)) {
    throw std::logic_error("EstimatorServer: already started");
  }
  start_micros_.store(obs::MonotonicMicros());
  listener_ = std::make_unique<ListenSocket>(options_.endpoint);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void EstimatorServer::Stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // listener_ can be null if Start()'s bind threw after setting started_.
  if (listener_ != nullptr) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();

  std::vector<ConnectionPtr> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections.swap(connections_);
  }
  for (const ConnectionPtr& conn : connections) {
    // Wakes the reader out of RecvAll, and any worker blocked sending to a
    // client that stopped reading.
    ShutdownSocket(conn->fd);
  }
  for (const ConnectionPtr& conn : connections) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  // Completion callbacks still in flight capture `this` (for the counters)
  // and their connection. The connections are shared_ptr-kept alive by the
  // callbacks; the server must not be destroyed under them — wait for every
  // dispatched request to finish, on every registered model's service.
  // Their connections are unwritable, so their responses are dropped.
  registry_->DrainAll();
}

Endpoint EstimatorServer::endpoint() const {
  Endpoint ep = options_.endpoint;
  if (!ep.IsUnix() && listener_) ep.port = listener_->port();
  return ep;
}

uint16_t EstimatorServer::port() const {
  return listener_ ? listener_->port() : options_.endpoint.port;
}

ServerStats EstimatorServer::Stats() const {
  ServerStats stats;
  stats.start_micros = start_micros_.load();
  stats.connections_accepted = connections_accepted_.load();
  stats.connections_rejected = connections_rejected_.load();
  stats.frames_received = frames_received_.load();
  stats.responses_sent = responses_sent_.load();
  stats.bytes_received = bytes_received_.load();
  stats.bytes_sent = bytes_sent_.load();
  stats.protocol_errors = protocol_errors_.load();
  stats.request_errors = request_errors_.load();
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    stats.stages[i] = stage_hist_[i].Snapshot();
  }
  {
    // A closed connection stays listed until the next accept reaps it.
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (const ConnectionPtr& conn : connections_) {
      if (!conn->done.load()) ++stats.connections_active;
    }
  }
  return stats;
}

void EstimatorServer::ReapFinished() {
  std::vector<ConnectionPtr> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if ((*it)->done.load()) {
        finished.push_back(*it);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const ConnectionPtr& conn : finished) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

void EstimatorServer::AcceptLoop() {
  while (!stopping_.load()) {
    int fd = listener_->Accept();
    if (fd < 0) {
      if (stopping_.load()) break;
      continue;  // transient accept failure
    }
    ReapFinished();
    auto conn = std::make_shared<Connection>(fd);
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      if (connections_.size() >= kMaxClients) {
        connections_rejected_.fetch_add(1);
        continue;  // dropping `conn` closes the socket
      }
      connections_.push_back(conn);
    }
    connections_accepted_.fetch_add(1);
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void EstimatorServer::Send(const ConnectionPtr& conn, MsgType type,
                           uint64_t request_id,
                           const std::vector<uint8_t>& body) {
  std::vector<uint8_t> frame = EncodeFrame(type, request_id, body);
  std::lock_guard<std::mutex> lock(conn->send_mu);
  if (!conn->writable) return;
  obs::SpanTimer write_span;
  if (!SendAll(conn->fd, frame.data(), frame.size())) {
    // The peer is gone: drop every later frame, and wake the reader so the
    // connection tears down.
    conn->writable = false;
    ShutdownSocket(conn->fd);
    return;
  }
  stage_hist_[static_cast<size_t>(obs::Stage::kSocketWrite)].Record(
      write_span.ElapsedMicros());
  bytes_sent_.fetch_add(frame.size());
  responses_sent_.fetch_add(1);
}

void EstimatorServer::SendError(const ConnectionPtr& conn,
                                uint64_t request_id,
                                const std::string& message) {
  Send(conn, MsgType::kError, request_id, EncodeError(message));
}

void EstimatorServer::ReaderLoop(ConnectionPtr conn) {
  try {
    // Handshake: the first frame must be a kHello with our magic; answer
    // with kHelloAck. A version we don't speak gets a useful error.
    std::optional<Frame> first = ReadFrame(conn->fd);
    if (first.has_value()) {
      bytes_received_.fetch_add(FrameWireBytes(*first));
      if (first->type != MsgType::kHello) {
        throw ProtocolError("expected hello before requests");
      }
      Hello hello = DecodeHello(first->body);
      if (hello.version != kProtocolVersion) {
        throw ProtocolError(
            "unsupported protocol version " + std::to_string(hello.version) +
            " (server speaks " + std::to_string(kProtocolVersion) + ")");
      }
      Send(conn, MsgType::kHelloAck, first->request_id, EncodeHello({}));
      while (auto frame = ReadFrame(conn->fd)) {
        frames_received_.fetch_add(1);
        bytes_received_.fetch_add(FrameWireBytes(*frame));
        Dispatch(conn, *frame);
      }
    }
  } catch (const ProtocolError& e) {
    protocol_errors_.fetch_add(1);
    SendError(conn, 0, e.what());
  } catch (const std::exception& e) {
    // e.g. the service rejected a submit after Shutdown(): tell the client
    // and drop the connection; other connections are unaffected.
    SendError(conn, 0, e.what());
  }
  // Drop this connection: in-flight completions find it unwritable and
  // drop their responses, and the shutdown ends the connection, so the peer
  // sees EOF right after the last frame written (like the error above).
  {
    std::lock_guard<std::mutex> lock(conn->send_mu);
    conn->writable = false;
  }
  ShutdownSocket(conn->fd);
  conn->done.store(true);
}

EstimatorService* EstimatorServer::Resolve(const ConnectionPtr& conn,
                                           uint64_t request_id,
                                           const std::string& model) {
  EstimatorService* service = registry_->Find(model);
  if (service == nullptr) {
    request_errors_.fetch_add(1);
    SendError(conn, request_id,
              "unknown model '" + model + "' (this server serves: " +
                  registry_->JoinedModelNames() + ")");
  }
  return service;
}

void EstimatorServer::ServeSubplans(const ConnectionPtr& conn,
                                    const Frame& frame) {
  obs::SpanTimer decode_span;
  SubplansReq req = DecodeSubplansReq(frame.body);
  uint64_t decode_micros = decode_span.ElapsedMicros();
  stage_hist_[static_cast<size_t>(obs::Stage::kDecode)].Record(decode_micros);
  const uint64_t id = frame.request_id;
  EstimatorService* service = Resolve(conn, id, req.model);
  if (service == nullptr) return;
  // A trace-requesting client gets the sink pre-filled with the decode
  // span; the service's workers add their stages, and the completion adds
  // encode before sealing the response.
  std::shared_ptr<obs::RequestTrace> sink;
  if (req.want_trace) {
    sink = std::make_shared<obs::RequestTrace>();
    sink->Add(obs::Stage::kDecode, decode_micros);
  }
  auto done = [this, conn, id, sink](
                  std::unordered_map<uint64_t, double> values,
                  std::exception_ptr error) {
    if (error != nullptr) {
      request_errors_.fetch_add(1);
      SendError(conn, id, ExceptionMessage(std::move(error)));
      return;
    }
    obs::SpanTimer encode_span;
    std::vector<uint8_t> body = EncodeSubplansRespBody(values);
    uint64_t encode_micros = encode_span.ElapsedMicros();
    stage_hist_[static_cast<size_t>(obs::Stage::kEncode)].Record(
        encode_micros);
    if (sink != nullptr) sink->Add(obs::Stage::kEncode, encode_micros);
    AppendRespTrace(&body, sink.get());
    Send(conn, MsgType::kSubplansResp, id, body);
  };
  service->EstimateSubplansAsync(std::move(req.query), std::move(req.masks),
                                 std::move(done), std::move(sink));
}

void EstimatorServer::Dispatch(const ConnectionPtr& conn, const Frame& frame) {
  if (frame.request_id == 0) {
    throw ProtocolError("requests must carry a nonzero request id");
  }
  const uint64_t id = frame.request_id;
  switch (frame.type) {
    case MsgType::kSubplansReq:
      ServeSubplans(conn, frame);
      return;
    case MsgType::kNotifyUpdateReq: {
      // Remote NotifyUpdate covers the cache-invalidation half of the
      // update protocol; mutating the estimator itself stays a server-local
      // operation (see docs/ARCHITECTURE.md). Epochs are per model: the
      // notification only invalidates the named model's cache.
      NotifyUpdateReq req = DecodeNotifyUpdateReq(frame.body);
      EstimatorService* service = Resolve(conn, id, req.model);
      if (service == nullptr) return;
      uint64_t epoch = service->NotifyUpdate(req.table);
      Send(conn, MsgType::kNotifyUpdateResp, id,
           EncodeNotifyUpdateResp(epoch));
      return;
    }
    case MsgType::kStatsReq: {
      EstimatorService* service =
          Resolve(conn, id, DecodeStatsReq(frame.body));
      if (service == nullptr) return;
      Send(conn, MsgType::kStatsResp, id,
           EncodeServiceStats(service->Stats()));
      return;
    }
    default:
      throw ProtocolError("unexpected message type from client");
  }
}

}  // namespace fj::net
