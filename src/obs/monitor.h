// ServingMonitor: the 1 Hz sampling loop that turns cumulative serving
// counters into the retained observability layer — per-second WindowSamples
// in one TimeSeriesRing (served at /metrics/history), SLO burn rates
// computed from that ring (obs/slo.h, exported as fj_slo_* gauges), and
// the health/overload state machine (obs/health.h, served at /healthz)
// fed from the window just pushed.
//
// The monitor is deliberately decoupled from EstimatorService and
// EstimatorServer: it pulls a MonitorInput — one merged ServiceStats, one
// ServerStats, the queue capacity — from an injected source callback,
// diffs every row of the two counter tables against the previous tick, and
// pushes the derived window. fj_server's source merges every registry
// model's stats (ServiceStats::Merge); tests feed synthetic inputs through
// TickWith() and never start the thread, so burn math, wraparound, and
// hysteresis are all testable without a running server.
//
// The first input only establishes the baseline (there is no window to
// diff yet). Each subsequent tick costs a few histogram subtractions and
// quantile scans plus one walk over the newest 1800 windows for the burn
// rates — microseconds, once per second, on a thread that never touches
// the serving path.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/server.h"
#include "obs/health.h"
#include "obs/slo.h"
#include "obs/time_series.h"
#include "service/service_stats.h"

namespace fj::obs {

/// The background thread's tick interval: one window per second.
inline constexpr uint64_t kMonitorTickMicros = 1'000'000;

/// One sampling instant: cumulative counters and histograms plus gauges.
/// The source callback fills it from whatever it fronts (one service, a
/// whole registry, a loadgen harness).
struct MonitorInput {
  uint64_t now_micros = 0;  // MonotonicMicros at sampling
  ServiceStats service;     // merged over every model served
  net::ServerStats server;  // zero for an in-process source
  uint64_t queue_capacity = 0;  // 0 = unbounded (queue_frac reads 0)
};

struct MonitorOptions {
  /// /metrics/history retention at one window per tick (default five
  /// minutes). With SLO objectives the ring holds at least
  /// kSloSlowWindowSeconds windows for the slow burn window.
  size_t retention_seconds = 300;
  /// SLO objectives; empty spec → no burn rates.
  SloSpec slo;
  /// Fired from the monitor thread on every published health transition
  /// (fj_server dumps the flight recorder when `to` is overloaded).
  std::function<void(HealthState from, HealthState to)> on_transition;
};

class ServingMonitor {
 public:
  ServingMonitor(MonitorOptions options, std::function<MonitorInput()> source);
  ~ServingMonitor();

  ServingMonitor(const ServingMonitor&) = delete;
  ServingMonitor& operator=(const ServingMonitor&) = delete;

  /// Starts the background sampling thread (idempotent; Start and Stop
  /// are called from one thread).
  void Start();
  /// Stops and joins it (idempotent; the destructor calls this).
  void Stop();

  /// Samples the source and processes one tick now — the background
  /// thread's body, exposed for benches that want deterministic sampling.
  void Tick();
  /// Processes one externally supplied input (tests).
  void TickWith(const MonitorInput& input);

  const TimeSeriesRing& history() const { return history_; }
  /// Burn rates as of the last tick. Thread-safe.
  std::vector<SloBurn> slo_status() const;
  HealthState health_state() const { return health_.state(); }
  const HealthTracker& health() const { return health_; }
  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  /// The /healthz body: state, queue signals from the newest window, and
  /// per-objective burn rates. `http_status` (when non-null) gets 200 for
  /// ok/degraded and 503 for overloaded — degraded still serves, so a
  /// router should keep sending (reduced) traffic.
  std::string HealthJson(int* http_status = nullptr) const;

  /// /metrics/history body for the last `last_n` windows, at most
  /// `retention_seconds` of them.
  std::string HistoryJson(size_t last_n = SIZE_MAX) const;

 private:
  const MonitorOptions options_;
  const std::function<MonitorInput()> source_;

  TimeSeriesRing history_;
  HealthTracker health_;
  mutable std::mutex slo_mu_;
  std::vector<SloBurn> slo_status_;  // guarded by slo_mu_

  std::mutex tick_mu_;  // serializes TickWith (thread + manual calls)
  bool has_baseline_ = false;
  MonitorInput last_;
  std::atomic<uint64_t> ticks_{0};

  std::jthread thread_;  // last: joined before the state it ticks dies
};

}  // namespace fj::obs
