#include "obs/metrics_http.h"

#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <stdexcept>
#include <utility>

namespace fj::obs {
namespace {

using Clock = std::chrono::steady_clock;

/// How long one connection may take to deliver its request, and then to
/// take its response. The endpoint serves connections one at a time, so
/// without a bound a peer that connects and stays silent would hold back
/// every other scrape and Stop().
constexpr std::chrono::seconds kIoDeadline{1};

/// Waits until `fd` is ready for `events`; false once `deadline` passes or
/// the poll fails.
bool WaitReady(int fd, short events, Clock::time_point deadline) {
  auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
  pollfd p{fd, events, 0};
  return left.count() > 0 &&
         ::poll(&p, 1, static_cast<int>(left.count())) > 0;
}

/// Writes as much of `data` as the peer takes before `deadline`.
void SendBefore(int fd, const std::string& data, Clock::time_point deadline) {
  size_t sent = 0;
  while (sent < data.size() && WaitReady(fd, POLLOUT, deadline)) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

std::string HttpResponse(const char* status, const char* content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

const char* StatusText(int status) {
  switch (status) {
    case 200: return "200 OK";
    case 404: return "404 Not Found";
    case 500: return "500 Internal Server Error";
    case 503: return "503 Service Unavailable";
    default: return "200 OK";
  }
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(const MetricsRegistry& registry,
                                     MetricsHttpOptions options)
    : registry_(registry), options_(std::move(options)) {}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

void MetricsHttpServer::Start() {
  if (started_.exchange(true)) {
    throw std::logic_error("MetricsHttpServer: already started");
  }
  net::Endpoint endpoint;
  endpoint.host = options_.host;
  endpoint.port = options_.port;
  listener_ = std::make_unique<net::ListenSocket>(endpoint);
  thread_ = std::thread([this] { ServeLoop(); });
}

void MetricsHttpServer::Stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  if (listener_ != nullptr) listener_->Close();
  if (thread_.joinable()) thread_.join();
}

void MetricsHttpServer::AddHandler(std::string path, Handler handler) {
  if (started_.load()) {
    throw std::logic_error("MetricsHttpServer: AddHandler after Start");
  }
  handlers_[std::move(path)] = std::move(handler);
}

uint16_t MetricsHttpServer::port() const {
  return listener_ ? listener_->port() : options_.port;
}

void MetricsHttpServer::ServeLoop() {
  while (!stopping_.load()) {
    int fd = listener_->Accept();
    if (fd < 0) {
      if (stopping_.load()) break;
      continue;
    }
    HandleConnection(fd);
    net::CloseSocket(fd);
  }
}

void MetricsHttpServer::HandleConnection(int fd) {
  // Read until the end of the request headers (or 8 KB / EOF / the
  // deadline — a scraper that sends more, or slower, is not one we serve).
  // Only the request line matters; headers are discarded.
  const Clock::time_point read_deadline = Clock::now() + kIoDeadline;
  std::string request;
  char buf[1024];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos &&
         WaitReady(fd, POLLIN, read_deadline)) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;
  std::string line = request.substr(0, line_end);

  // Exact path of a GET request line ("GET /path HTTP/1.x"); empty for
  // non-GETs or malformed lines.
  std::string path;
  if (line.rfind("GET ", 0) == 0) {
    size_t path_end = line.find(' ', 4);
    path = line.substr(4, path_end == std::string::npos ? std::string::npos
                                                        : path_end - 4);
  }

  std::string response;
  auto it = handlers_.find(path);
  if (it != handlers_.end()) {
    // Registered routes win over the built-ins so /metrics/history is not
    // swallowed by the /metrics prefix match below.
    HttpHandlerResult result = it->second();
    response = HttpResponse(StatusText(result.status),
                            result.content_type.c_str(), result.body);
    if (result.status < 300) scrapes_.fetch_add(1);
  } else if (line.rfind("GET /metrics.json ", 0) == 0) {
    response = HttpResponse("200 OK", "application/json",
                            registry_.DumpJson());
    scrapes_.fetch_add(1);
  } else if (line.rfind("GET /metrics ", 0) == 0) {
    response = HttpResponse(
        "200 OK", "text/plain; version=0.0.4; charset=utf-8",
        registry_.RenderPrometheus());
    scrapes_.fetch_add(1);
  } else if (line.rfind("GET ", 0) == 0) {
    response = HttpResponse("404 Not Found", "text/plain",
                            "try /metrics or /metrics.json\n");
  } else {
    response = HttpResponse("405 Method Not Allowed", "text/plain",
                            "GET only\n");
  }
  SendBefore(fd, response, Clock::now() + kIoDeadline);
}

}  // namespace fj::obs
