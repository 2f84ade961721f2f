#include "obs/monitor.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <stop_token>
#include <utility>

#include "obs/metrics_registry.h"

namespace fj::obs {
namespace {

constexpr size_t kQueueDepthRow = ServiceCounterRow("fj_queue_depth");

uint64_t Delta(uint64_t now, uint64_t then) {
  return now > then ? now - then : 0;
}

/// One window value per row of `table`: the delta since `then` for a
/// counter, the value at `now` for a gauge.
template <typename Table, typename Stats, size_t N>
void DiffRows(const Table& table, const Stats& now, const Stats& then,
              std::array<uint64_t, N>* out) {
  for (size_t i = 0; i < N; ++i) {
    uint64_t value = table[i].Of(now);
    (*out)[i] = table[i].kind == MetricKind::kGauge
                    ? value
                    : Delta(value, table[i].Of(then));
  }
}

}  // namespace

ServingMonitor::ServingMonitor(MonitorOptions options,
                               std::function<MonitorInput()> source)
    : options_(std::move(options)),
      source_(std::move(source)),
      history_(options_.slo.Empty()
                   ? options_.retention_seconds
                   : std::max(options_.retention_seconds,
                              kSloSlowWindowSeconds)),
      // Validates the spec and names every objective before the first tick.
      slo_status_(BurnRates(options_.slo, history_)) {}

ServingMonitor::~ServingMonitor() { Stop(); }

void ServingMonitor::Start() {
  if (thread_.joinable()) return;
  thread_ = std::jthread([this](std::stop_token stop) {
    // Establish the baseline immediately so the first real window starts
    // at thread start, not one tick after. Stop() cuts a wait short.
    std::mutex mu;
    std::condition_variable_any cv;
    std::unique_lock<std::mutex> lock(mu);
    do {
      Tick();
    } while (!cv.wait_for(lock, stop,
                          std::chrono::microseconds(kMonitorTickMicros),
                          [&stop] { return stop.stop_requested(); }));
  });
}

void ServingMonitor::Stop() {
  if (!thread_.joinable()) return;
  thread_.request_stop();
  thread_.join();
}

void ServingMonitor::Tick() {
  if (source_) TickWith(source_());
}

void ServingMonitor::TickWith(const MonitorInput& input) {
  std::lock_guard<std::mutex> lock(tick_mu_);
  if (!has_baseline_) {
    last_ = input;
    has_baseline_ = true;
    return;
  }

  WindowSample w;
  w.end_micros = input.now_micros;
  double seconds =
      static_cast<double>(Delta(input.now_micros, last_.now_micros)) / 1e6;
  w.seconds = seconds > 0.0 ? seconds : 1.0;
  DiffRows(kServiceCounters, input.service, last_.service, &w.service);
  DiffRows(net::kServerCounters, input.server, last_.server, &w.server);

  HistogramSnapshot latency_delta =
      input.service.latency.DeltaSince(last_.service.latency);
  w.latency_count = latency_delta.count;
  w.mean_micros = latency_delta.Mean();
  w.p50_micros = latency_delta.ValueAtQuantile(0.50);
  w.p99_micros = latency_delta.ValueAtQuantile(0.99);
  w.p999_micros = latency_delta.ValueAtQuantile(0.999);
  for (size_t i = 0; i < options_.slo.latency.size(); ++i) {
    w.over_threshold[i] =
        latency_delta.CountOver(options_.slo.latency[i].threshold_micros);
  }

  for (size_t s = 0; s < kNumStages; ++s) {
    HistogramSnapshot d =
        input.service.stages[s].DeltaSince(last_.service.stages[s]);
    w.stage_count[s] = d.count;
    w.stage_sum_micros[s] = d.sum;
    if (s == static_cast<size_t>(Stage::kQueueWait)) {
      w.queue_wait_p99_micros = d.ValueAtQuantile(0.99);
    }
  }
  history_.Push(w);

  std::vector<SloBurn> slo = BurnRates(options_.slo, history_);
  {
    std::lock_guard<std::mutex> slo_lock(slo_mu_);
    slo_status_ = std::move(slo);
  }

  HealthInput health_input;
  health_input.queue_frac =
      input.queue_capacity > 0
          ? static_cast<double>(w.service[kQueueDepthRow]) /
                static_cast<double>(input.queue_capacity)
          : 0.0;
  health_input.queue_wait_p99_micros = w.queue_wait_p99_micros;
  HealthState before = health_.state();
  HealthState after = health_.Tick(health_input);
  if (after != before && options_.on_transition) {
    options_.on_transition(before, after);
  }

  last_ = input;
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SloBurn> ServingMonitor::slo_status() const {
  std::lock_guard<std::mutex> lock(slo_mu_);
  return slo_status_;
}

std::string ServingMonitor::HealthJson(int* http_status) const {
  HealthState state = health_.state();
  if (http_status != nullptr) {
    *http_status = state == HealthState::kOverloaded ? 503 : 200;
  }
  std::string out;
  AppendF(&out, "{\"state\":\"%s\",\"ticks_in_state\":%" PRIu64
                ",\"transitions\":%" PRIu64,
          HealthStateName(state), health_.ticks_in_state(),
          health_.transitions());
  history_.ForEachNewest(1, [&out](const WindowSample& w) {
    AppendF(&out,
            ",\"qps\":%.1f,\"p99_us\":%.1f,\"queue_depth\":%" PRIu64
            ",\"queue_wait_p99_us\":%.1f",
            w.Qps(), w.p99_micros, w.service[kQueueDepthRow],
            w.queue_wait_p99_micros);
  });
  out += ",\"slo\":[";
  std::vector<SloBurn> slo = slo_status();
  for (size_t i = 0; i < slo.size(); ++i) {
    const SloBurn& b = slo[i];
    if (i > 0) out += ',';
    AppendF(&out,
            "{\"name\":\"%s\",\"fast_burn\":%.3f,\"slow_burn\":%.3f,"
            "\"burning\":%s}",
            b.name.c_str(), b.fast_burn, b.slow_burn,
            b.Burning() ? "true" : "false");
  }
  out += "]}";
  return out;
}

std::string ServingMonitor::HistoryJson(size_t last_n) const {
  return RenderHistoryJson(
      history_.Window(std::min(last_n, options_.retention_seconds)),
      options_.retention_seconds);
}

}  // namespace fj::obs
