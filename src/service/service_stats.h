// Point-in-time metrics snapshot of an EstimatorService. Latencies are
// end-to-end (queue wait + compute), the number an optimizer integrating
// the service actually experiences, recorded into log-bucketed histograms
// (obs/latency_histogram.h) — lock-free on the worker path, exact-bucket
// p50/p90/p99/p999 at snapshot time, mergeable and wire-encodable (the
// stats RPC ships the full histograms, not just pre-computed quantiles).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "obs/latency_histogram.h"
#include "obs/metrics_registry.h"
#include "obs/request_trace.h"
#include "service/sharded_cache.h"

namespace fj {

struct ServiceStats {
  /// Requests completed: every request is one sub-plan batch.
  uint64_t subplan_requests = 0;
  /// Individual sub-plan estimates produced inside batched requests.
  uint64_t subplans_estimated = 0;
  /// Requests completed with an error.
  uint64_t errors = 0;
  /// Always 0: the service no longer splits batches. Kept only for
  /// readers that still report them; no counter row exports them.
  uint64_t batches_split = 0;
  uint64_t split_chunks = 0;
  /// Statistics epoch at snapshot time, which is also the number of
  /// NotifyUpdate calls received: each call bumps it exactly once. Cache
  /// entries older than a touched table's epoch are lazily invalidated;
  /// see CacheStats::invalidations.
  uint64_t epoch = 0;
  /// Gauge: client requests accepted but not yet served at snapshot time
  /// (queued plus in-flight on workers) — what Drain() waits to reach zero.
  uint64_t pending_requests = 0;
  /// Gauge: requests sitting in the queue, not yet picked up by a worker.
  /// pending_requests - queue_depth approximates in-flight work.
  uint64_t queue_depth = 0;
  /// Slow-request log lines emitted (see
  /// EstimatorServiceOptions::slow_request_micros; 0 while disabled).
  uint64_t slow_requests = 0;
  /// Offenders the slow-log rate limiter swallowed (token bucket,
  /// obs::kSlowLogLinesPerSecond). Each is acknowledged in the log by a
  /// `suppressed=N` summary line when emission resumes.
  uint64_t slow_suppressed = 0;
  /// Requests kept by the service's flight recorder (every
  /// obs::kFlightSampleEvery-th completed request plus every offender).
  uint64_t flight_records = 0;

  CacheStats cache;

  /// End-to-end request latency histogram (microseconds, every completed
  /// request since service start). The quantile fields below are derived
  /// from it by RefreshQuantiles().
  obs::HistogramSnapshot latency;
  /// Per-stage latency histograms, indexed by obs::Stage. Filled while
  /// EstimatorServiceOptions::enable_tracing is on; the net front end
  /// (net/server.h) keeps its own decode/encode/socket-write histograms, so
  /// those stages stay empty on in-process services.
  std::array<obs::HistogramSnapshot, obs::kNumStages> stages;

  /// Exact-bucket latency quantiles (microseconds; at most +6.25% above the
  /// true sample — see obs/latency_histogram.h). Zero until the first
  /// request completes. `max_micros` is exact.
  double p50_micros = 0.0;
  double p90_micros = 0.0;
  double p99_micros = 0.0;
  double p999_micros = 0.0;
  double max_micros = 0.0;

  /// Recomputes the quantile fields from `latency`. Called by
  /// EstimatorService::Stats() and by the wire decoder (the stats RPC ships
  /// histograms; quantiles are derived, never trusted from the peer).
  void RefreshQuantiles() {
    p50_micros = latency.ValueAtQuantile(0.50);
    p90_micros = latency.ValueAtQuantile(0.90);
    p99_micros = latency.ValueAtQuantile(0.99);
    p999_micros = latency.ValueAtQuantile(0.999);
    max_micros = static_cast<double>(latency.max);
  }

  /// Adds `other` into this snapshot: every kServiceCounters row (the
  /// gauges sum too, so a merge over models reads their total queue depth)
  /// and every histogram; then refreshes the quantiles.
  void Merge(const ServiceStats& other);
};

/// One row of kServiceCounters: a ServiceStats counter or gauge with its
/// metric name (also its key in the stats wire body), kind and help text.
/// The value lives in `field`, or in `cache_field` of ServiceStats::cache.
struct ServiceCounter {
  const char* name;
  obs::MetricKind kind;
  const char* help;
  uint64_t ServiceStats::*field = nullptr;
  uint64_t CacheStats::*cache_field = nullptr;

  /// The row's value in `stats` (const or mutable).
  template <typename Stats>
  auto& Of(Stats& stats) const {
    return field != nullptr ? stats.*field : stats.cache.*cache_field;
  }
};

/// Every counter and gauge of ServiceStats, each exactly once. The stats
/// wire codec (net/protocol.h) and the Prometheus exporter
/// (obs/metrics_export.h) both walk this table, so a new counter is one
/// field plus one row.
inline constexpr ServiceCounter kServiceCounters[] = {
    {"fj_subplan_requests_total", obs::MetricKind::kCounter,
     "Batched sub-plan requests completed.", &ServiceStats::subplan_requests},
    {"fj_subplans_estimated_total", obs::MetricKind::kCounter,
     "Sub-plan estimates produced inside batches.",
     &ServiceStats::subplans_estimated},
    {"fj_errors_total", obs::MetricKind::kCounter,
     "Requests completed with an error.", &ServiceStats::errors},
    {"fj_epoch", obs::MetricKind::kGauge, "Current statistics epoch.",
     &ServiceStats::epoch},
    {"fj_pending_requests", obs::MetricKind::kGauge,
     "Requests accepted but not yet served.", &ServiceStats::pending_requests},
    {"fj_queue_depth", obs::MetricKind::kGauge,
     "Requests waiting in the queue.", &ServiceStats::queue_depth},
    {"fj_slow_requests_total", obs::MetricKind::kCounter,
     "Slow-request log lines emitted.", &ServiceStats::slow_requests},
    {"fj_slow_suppressed_total", obs::MetricKind::kCounter,
     "Slow-request offenders swallowed by the log rate limiter.",
     &ServiceStats::slow_suppressed},
    {"fj_flight_records_appended_total", obs::MetricKind::kCounter,
     "Requests captured by the flight recorder.",
     &ServiceStats::flight_records},
    {"fj_cache_hits_total", obs::MetricKind::kCounter, "Estimate-cache hits.",
     nullptr, &CacheStats::hits},
    {"fj_cache_misses_total", obs::MetricKind::kCounter,
     "Estimate-cache misses.", nullptr, &CacheStats::misses},
    {"fj_cache_evictions_total", obs::MetricKind::kCounter,
     "Estimate-cache evictions.", nullptr, &CacheStats::evictions},
    {"fj_cache_invalidations_total", obs::MetricKind::kCounter,
     "Epoch-based cache invalidations.", nullptr, &CacheStats::invalidations},
    {"fj_cache_entries", obs::MetricKind::kGauge,
     "Live estimate-cache entries.", nullptr, &CacheStats::entries},
};

/// Index of the kServiceCounters row named `name`, resolved at compile
/// time: an unknown name does not compile.
consteval size_t ServiceCounterRow(std::string_view name) {
  for (size_t i = 0; i < std::size(kServiceCounters); ++i) {
    if (name == kServiceCounters[i].name) return i;
  }
  throw std::invalid_argument("no such service counter");
}

inline void ServiceStats::Merge(const ServiceStats& other) {
  for (const ServiceCounter& row : kServiceCounters) {
    row.Of(*this) += row.Of(other);
  }
  latency.Merge(other.latency);
  for (size_t i = 0; i < obs::kNumStages; ++i) stages[i].Merge(other.stages[i]);
  RefreshQuantiles();
}

}  // namespace fj
