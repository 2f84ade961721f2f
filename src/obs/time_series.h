// Metrics time-series: a fixed-memory ring of per-second windows over the
// serving counters and latency histograms — the retained half of the
// observability layer and its only per-second store. A scrape of /metrics
// shows the instant; the ring shows the last ~5 minutes, and the SLO burn
// rates and health state machine built on it (obs/slo.h / obs/health.h)
// read their signals from the same windows.
//
// Each WindowSample is a *derived* per-window record — one value per row of
// the counter tables (kServiceCounters, net::kServerCounters), plus
// exact-bucket quantiles computed from the window's histogram DeltaSince at
// sampling time — not a retained histogram. That keeps a slot at a few
// hundred bytes regardless of traffic (docs/OBSERVABILITY.md gives the
// size), and pushing one sample per second costs nothing on the serving
// path (the sampler thread in obs/monitor.h does the snapshot/delta work).
//
// The ring is mutex-protected: one writer at 1 Hz and occasional readers
// (scrapes of /metrics/history, the once-per-tick burn-rate walk) make
// lock-freedom pointless here.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>
#include <vector>

#include "net/server.h"
#include "obs/request_trace.h"
#include "obs/slo.h"
#include "service/service_stats.h"

namespace fj::obs {

/// One window (nominally one second) of serving activity. Plain data,
/// copyable.
struct WindowSample {
  /// Monotonic timestamp (MonotonicMicros) at the window's end.
  uint64_t end_micros = 0;
  /// Window length in seconds (the divisor for all rates below).
  double seconds = 1.0;

  /// One value per row of kServiceCounters / net::kServerCounters: the
  /// delta over the window for a counter, the end value for a gauge.
  std::array<uint64_t, std::size(kServiceCounters)> service{};
  std::array<uint64_t, std::size(net::kServerCounters)> server{};

  // Latency of requests completed inside the window, errored ones included:
  // exact-bucket quantiles of the end-to-end histogram's DeltaSince.
  uint64_t latency_count = 0;
  double mean_micros = 0.0;
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  double p999_micros = 0.0;

  // Per-stage totals over the window (count + summed micros → mean), plus
  // the queue-wait p99, the health state machine's main input.
  std::array<uint64_t, kNumStages> stage_count{};
  std::array<uint64_t, kNumStages> stage_sum_micros{};
  double queue_wait_p99_micros = 0.0;

  /// Requests over each latency objective's threshold in this window,
  /// parallel to SloSpec::latency (CountOver on the latency delta).
  std::array<uint64_t, kMaxLatencyObjectives> over_threshold{};

  /// Completed requests per second, errored ones included.
  double Qps() const { return seconds > 0.0 ? latency_count / seconds : 0.0; }
  double HitRate() const {
    uint64_t hits = service[ServiceCounterRow("fj_cache_hits_total")];
    uint64_t lookups =
        hits + service[ServiceCounterRow("fj_cache_misses_total")];
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Fixed-capacity ring of WindowSamples, newest overwriting oldest.
class TimeSeriesRing {
 public:
  /// `capacity` slots (>=1 enforced); at one push per second this is the
  /// retention in seconds.
  explicit TimeSeriesRing(size_t capacity);

  TimeSeriesRing(const TimeSeriesRing&) = delete;
  TimeSeriesRing& operator=(const TimeSeriesRing&) = delete;

  void Push(const WindowSample& sample);

  /// The retained windows, oldest first, at most `last_n` of them (counted
  /// from the newest). Thread-safe.
  std::vector<WindowSample> Window(size_t last_n = SIZE_MAX) const;

  /// Calls `fn(const WindowSample&)` on the newest `last_n` windows in
  /// place, newest first, holding the ring's lock (`fn` must not touch the
  /// ring).
  template <typename Fn>
  void ForEachNewest(size_t last_n, Fn fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 1; i <= last_n && i <= pushed_ && i <= slots_.size();
         ++i) {
      fn(slots_[(next_ + slots_.size() - i) % slots_.size()]);
    }
  }

  size_t capacity() const { return slots_.size(); }
  /// Retained windows right now (<= capacity). Thread-safe.
  size_t size() const;
  /// Windows pushed since construction (keeps counting after wraparound).
  uint64_t total_pushed() const;

 private:
  mutable std::mutex mu_;
  std::vector<WindowSample> slots_;
  size_t next_ = 0;    // slot the next push writes
  uint64_t pushed_ = 0;
};

/// Renders windows as the /metrics/history JSON body:
///   {"retention_seconds":N,"window_count":M,"windows":[{"t_us":...,
///    "seconds":...,"qps":...,"latency_count":...,"mean_us":...,
///    "p50_us":...,"p99_us":...,"p999_us":...,"hit_rate":...,
///    "queue_wait_p99_us":...,"counters":{"fj_subplan_requests_total":...,...},
///    "stages":{"queue_wait":{"count":..,"mean_us":..}}}]}
/// `counters` holds every row of both counter tables, keyed by metric name.
/// Timestamps are monotonic microseconds (the subsystem's shared clock);
/// consumers correlate windows by relative age, not wall time. Stages with
/// zero samples are elided, exactly as on the Prometheus scrape.
std::string RenderHistoryJson(const std::vector<WindowSample>& windows,
                              size_t retention_seconds);

}  // namespace fj::obs
