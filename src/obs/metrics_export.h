// Canonical metric registrations: wires the serving components into a
// MetricsRegistry under the stable `fj_*` metric names listed in
// docs/OBSERVABILITY.md, and renders every model's flight recorder as one
// JSON dump. Each Export* call installs ONE collector that snapshots the
// component's Stats() per scrape and fans it out into samples, so a scrape
// costs one snapshot per component regardless of how many metric families
// it feeds.
//
// Per-model metrics carry a `model` label; ExportRegistryModels re-resolves
// the ModelRegistry's name list on every scrape, so models registered after
// the metrics endpoint came up appear without re-wiring.
#pragma once

#include <string>

#include "obs/metrics_registry.h"

namespace fj {
class EstimatorService;
class ModelRegistry;
namespace net {
class EstimatorServer;
}  // namespace net
}  // namespace fj

namespace fj::obs {

/// Registers one model's service metrics (every kServiceCounters row,
/// latency + stage histograms) labeled model=`model`. `service` must
/// outlive the registry's last scrape.
void ExportService(MetricsRegistry* registry, std::string model,
                   const EstimatorService& service);

/// Registers every model of `models` (resolved per scrape, so late
/// registrations show up) under its registered name.
void ExportRegistryModels(MetricsRegistry* registry,
                          const ModelRegistry& models);

/// Registers every row of net::kServerCounters (connection, frame and byte
/// counters) and the decode/encode/socket-write stage histograms.
void ExportServer(MetricsRegistry* registry,
                  const net::EstimatorServer& server);

class ServingMonitor;

/// Registers the monitor's derived signals: per-objective fj_slo_fast_burn /
/// fj_slo_slow_burn / fj_slo_burning gauges, the fj_health_state gauge
/// (0=ok 1=degraded 2=overloaded), fj_health_transitions_total, and
/// fj_monitor_ticks_total.
void ExportMonitor(MetricsRegistry* registry, const ServingMonitor& monitor);

/// Registers process-level gauges needed to interpret any time-series:
/// fj_server_start_time (monotonic micros captured at server start),
/// fj_process_uptime_seconds, and fj_process_rss_bytes
/// (/proc/self/statm; 0 where procfs is unavailable).
void ExportProcess(MetricsRegistry* registry, uint64_t start_micros);

/// Every model's flight recorder (FlightRecorder::DumpJson, at most
/// `max_recent` recent records each), in registration order:
/// {"models":[{"model":M,"appended":N,"recent":[...],"slowest":[...]},...]}.
/// Resolved per call, like ExportRegistryModels.
std::string FlightDumpJson(const ModelRegistry& models,
                           size_t max_recent = 64);

}  // namespace fj::obs
