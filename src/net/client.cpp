#include "net/client.h"

#include <utility>

namespace fj::net {
namespace {

// A request completion that decodes the response body with `decode` and
// hands the value, or the error (a decode failure included), to `done`.
template <typename T, typename TypedDone>
auto Decoded(T (*decode)(const std::vector<uint8_t>&), TypedDone done) {
  return [decode, done = std::move(done)](const Frame* frame,
                                          std::exception_ptr error) {
    T value{};
    if (frame != nullptr) {
      try {
        value = decode(frame->body);
      } catch (...) {
        error = std::current_exception();
      }
    }
    done(std::move(value), std::move(error));
  };
}

}  // namespace

EstimatorClient::EstimatorClient(EstimatorClientOptions options)
    : options_(std::move(options)) {}

EstimatorClient::~EstimatorClient() { Disconnect(); }

void EstimatorClient::Connect() {
  std::lock_guard<std::mutex> lock(mu_);
  ConnectLocked();
}

void EstimatorClient::Disconnect() {
  std::lock_guard<std::mutex> lock(mu_);
  DisconnectLocked("client disconnected");
}

void EstimatorClient::ConnectLocked() {
  if (connected_.load()) return;
  // A previous connection may have died: reap its receiver and fd first.
  if (fd_ >= 0) {
    ShutdownSocket(fd_);
    if (receiver_.joinable()) receiver_.join();
    CloseSocket(fd_);
    fd_ = -1;
  }

  int fd = -1;
  for (int attempt = 1;; ++attempt) {
    try {
      fd = ConnectSocket(options_.endpoint);
      break;
    } catch (const NetError&) {
      if (attempt >= kDialAttempts) throw;
      std::this_thread::sleep_for(kDialBackoff);
    }
  }

  // Handshake, synchronously, before the receiver takes over the socket.
  // Any failure closes the fresh socket before it propagates.
  try {
    if (!WriteFrame(fd, MsgType::kHello, 0, EncodeHello({}))) {
      throw NetError("connection closed during handshake");
    }
    std::optional<Frame> ack = ReadFrame(fd);
    if (!ack.has_value()) {
      throw NetError("connection closed during handshake");
    }
    if (ack->type == MsgType::kError) {
      throw ProtocolError("server rejected handshake: " +
                          DecodeError(ack->body));
    }
    if (ack->type != MsgType::kHelloAck) {
      throw ProtocolError("expected hello ack");
    }
    uint16_t version = DecodeHello(ack->body).version;
    if (version != kProtocolVersion) {
      throw ProtocolError("server speaks protocol version " +
                          std::to_string(version) + ", client speaks " +
                          std::to_string(kProtocolVersion));
    }
  } catch (...) {
    CloseSocket(fd);
    throw;
  }

  fd_ = fd;
  connected_.store(true);
  receiver_ = std::thread([this, fd] { ReceiverLoop(fd); });
}

void EstimatorClient::DisconnectLocked(const char* reason) {
  if (fd_ >= 0) {
    ShutdownSocket(fd_);
    if (receiver_.joinable()) receiver_.join();
    CloseSocket(fd_);
    fd_ = -1;
  }
  connected_.store(false);
  FailAllPending(reason);
}

void EstimatorClient::ReceiverLoop(int fd) {
  const char* reason = "connection lost";
  try {
    while (auto frame = ReadFrame(fd)) {
      if (frame->request_id == 0) {
        // Connection-level error: the server is about to drop us.
        reason = "connection closed by server";
        break;
      }
      decltype(pending_)::node_type node;
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        node = pending_.extract(frame->request_id);
      }
      // Responses for ids we no longer track (failed by an earlier
      // disconnect) are dropped.
      if (node.empty()) continue;
      Pending& pending = node.mapped();
      std::exception_ptr error;
      try {
        if (frame->type == MsgType::kError) {
          throw RemoteError(DecodeError(frame->body));
        }
        if (frame->type != pending.expect) {
          throw ProtocolError("response type does not match request");
        }
      } catch (...) {
        error = std::current_exception();
      }
      const Frame* response = error == nullptr ? &*frame : nullptr;
      pending.done(response, std::move(error));
    }
  } catch (const ProtocolError&) {
    reason = "malformed frame from server";
  }
  connected_.store(false);
  FailAllPending(reason);
}

void EstimatorClient::FailAllPending(const char* reason) {
  std::unordered_map<uint64_t, Pending> failed;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    failed.swap(pending_);
  }
  for (auto& [id, pending] : failed) {
    pending.done(nullptr, std::make_exception_ptr(NetError(reason)));
  }
}

void EstimatorClient::Send(MsgType type, const std::vector<uint8_t>& body,
                           MsgType expect, Done done) {
  uint64_t id = next_id_.fetch_add(1);
  bool sent = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Reconnect (if needed) BEFORE registering the op: ConnectLocked joins
    // a dying receiver, whose FailAllPending sweep must not be able to
    // swipe this not-yet-sent request. Registration still precedes the
    // write, so a response racing the send always finds its op. Lock order
    // mu_ -> pending_mu_; the receiver only ever takes pending_mu_.
    try {
      ConnectLocked();
    } catch (...) {
      lock.unlock();
      done(nullptr, std::current_exception());  // never registered
      return;
    }
    {
      std::lock_guard<std::mutex> pending_lock(pending_mu_);
      pending_.emplace(id, Pending{expect, std::move(done)});
    }
    sent = WriteFrame(fd_, type, id, body);
  }
  if (sent) return;
  connected_.store(false);  // the next request redials
  // The receiver may have noticed the same dead connection and failed the
  // op already; whoever extracts it runs its completion.
  decltype(pending_)::node_type node;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    node = pending_.extract(id);
  }
  if (!node.empty()) {
    node.mapped().done(nullptr, std::make_exception_ptr(NetError(
                                    "connection lost while sending request")));
  }
}

template <typename T>
std::future<T> EstimatorClient::Call(MsgType type,
                                     const std::vector<uint8_t>& body,
                                     MsgType expect,
                                     T (*decode)(const std::vector<uint8_t>&)) {
  auto promise = std::make_shared<std::promise<T>>();
  std::future<T> future = promise->get_future();
  Send(type, body, expect,
       Decoded(decode, [promise](T value, std::exception_ptr error) {
         if (error != nullptr) {
           promise->set_exception(std::move(error));
         } else {
           promise->set_value(std::move(value));
         }
       }));
  return future;
}

void EstimatorClient::EstimateSubplansAsync(
    const Query& query, const std::vector<uint64_t>& masks,
    SubplansCallback done) {
  Send(MsgType::kSubplansReq, EncodeSubplansReq(options_.model, query, masks),
       MsgType::kSubplansResp, Decoded(&DecodeSubplansResp, std::move(done)));
}

std::future<std::unordered_map<uint64_t, double>>
EstimatorClient::EstimateSubplansAsync(const Query& query,
                                       const std::vector<uint64_t>& masks) {
  return Call(MsgType::kSubplansReq,
              EncodeSubplansReq(options_.model, query, masks),
              MsgType::kSubplansResp, &DecodeSubplansResp);
}

std::unordered_map<uint64_t, double> EstimatorClient::EstimateSubplans(
    const Query& query, const std::vector<uint64_t>& masks) {
  return EstimateSubplansAsync(query, masks).get();
}

EstimatorClient::TracedSubplans EstimatorClient::EstimateSubplansTraced(
    const Query& query, const std::vector<uint64_t>& masks) {
  return Call(MsgType::kSubplansReq,
              EncodeSubplansReq(options_.model, query, masks,
                                /*want_trace=*/true),
              MsgType::kSubplansResp, &DecodeSubplansRespFull)
      .get();
}

uint64_t EstimatorClient::NotifyUpdate(const std::string& table) {
  return Call(MsgType::kNotifyUpdateReq,
              EncodeNotifyUpdateReq(options_.model, table),
              MsgType::kNotifyUpdateResp, &DecodeNotifyUpdateResp)
      .get();
}

ServiceStats EstimatorClient::Stats() {
  return Call(MsgType::kStatsReq, EncodeStatsReq(options_.model),
              MsgType::kStatsResp, &DecodeServiceStats)
      .get();
}

}  // namespace fj::net
