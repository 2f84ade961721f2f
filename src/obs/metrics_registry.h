// MetricsRegistry: named counters / gauges / histograms, rendered on demand
// in Prometheus exposition format (text/plain version 0.0.4) or as JSON.
//
// The registry is pull-based: components register a *collector* — a
// callback producing Samples — and every scrape evaluates the collectors
// against live state. Nothing is double-counted, no background thread, and
// a component's whole metric family costs one Stats() snapshot per scrape
// instead of one per metric. Collectors build their samples with the
// Counter / Gauge / Histogram helpers below.
//
// Who registers what (see obs/metrics_export.h for the canonical sets):
//   EstimatorService / ModelRegistry  per-model request, error, cache, and
//                                     latency-histogram metrics
//   net::EstimatorServer              connection / frame / byte counters and
//                                     net-stage histograms
//
// Histogram rendering: the fine 432-bucket snapshots (latency_histogram.h)
// are folded into a fixed coarse power-of-4 microsecond `le` grid — 13
// lines per histogram instead of 432 — computed cumulatively, so any
// Prometheus/OpenMetrics scraper can derive quantiles with
// histogram_quantile(). DumpJson() instead reports exact-bucket
// p50/p90/p99/p999 directly (compact; used by benches and /metrics.json).
//
// Thread-safety: registration and scraping may race freely (one mutex);
// collector callbacks must themselves be thread-safe (they read atomics /
// call Stats()).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/latency_histogram.h"

namespace fj::obs {

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

struct MetricLabel {
  std::string key;
  std::string value;
};

/// One evaluated metric sample. `value` is meaningful for counters and
/// gauges, `hist` for histograms.
struct MetricSample {
  std::string name;  // full Prometheus name, e.g. "fj_errors_total"
  MetricKind kind = MetricKind::kCounter;
  std::string help;
  std::vector<MetricLabel> labels;
  double value = 0.0;
  HistogramSnapshot hist{};
};

inline MetricSample Counter(std::string name, std::string help,
                            std::vector<MetricLabel> labels, uint64_t value) {
  return {std::move(name), MetricKind::kCounter, std::move(help),
          std::move(labels), static_cast<double>(value)};
}

inline MetricSample Gauge(std::string name, std::string help,
                          std::vector<MetricLabel> labels, double value) {
  return {std::move(name), MetricKind::kGauge, std::move(help),
          std::move(labels), value};
}

inline MetricSample Histogram(std::string name, std::string help,
                              std::vector<MetricLabel> labels,
                              HistogramSnapshot hist) {
  return {std::move(name), MetricKind::kHistogram, std::move(help),
          std::move(labels), 0.0, std::move(hist)};
}

/// Appends printf-style text to `out`, truncated at 255 bytes per call —
/// the formatter of the obs JSON bodies (/healthz, /metrics/history,
/// /debug/traces).
void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Prometheus label-value / JSON string escaping (backslash, quote, LF).
std::string Escape(const std::string& s);

class MetricsRegistry {
 public:
  using Collector = std::function<void(std::vector<MetricSample>*)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a collector evaluated on every scrape. Captured references
  /// must outlive the registry's last scrape.
  void AddCollector(Collector collector);

  /// Evaluates every collector and renders the Prometheus text exposition.
  std::string RenderPrometheus() const;

  /// Evaluates every collector and renders a JSON object
  /// {"metrics":[{name, labels, type, ...}]}; histograms carry
  /// count/sum/max/mean and exact-bucket p50/p90/p99/p999.
  std::string DumpJson() const;

  /// The coarse `le` boundaries (microseconds) histogram samples are folded
  /// into for Prometheus rendering; exposed for tests.
  static const std::vector<uint64_t>& PrometheusLeBoundaries();

 private:
  std::vector<MetricSample> Collect() const;

  mutable std::mutex mu_;
  std::vector<Collector> collectors_;
};

}  // namespace fj::obs
