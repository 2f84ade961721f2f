#include "obs/metrics_export.h"

#include <utility>
#include <vector>

#include <unistd.h>

#include <cstdio>

#include "net/server.h"
#include "obs/monitor.h"
#include "obs/request_trace.h"
#include "service/estimator_service.h"
#include "service/model_registry.h"

namespace fj::obs {
namespace {

void AppendServiceSamples(const std::string& model,
                          const EstimatorService& service,
                          std::vector<MetricSample>* out) {
  ServiceStats stats = service.Stats();
  std::vector<MetricLabel> m = {{"model", model}};
  for (const ServiceCounter& row : kServiceCounters) {
    out->push_back({row.name, row.kind, row.help, m,
                    static_cast<double>(row.Of(stats))});
  }
  // NotifyUpdate bumps the epoch once per call, so the epoch is also the
  // notification count; this counter name stays for scrape consumers.
  out->push_back(Counter("fj_updates_notified_total",
                         "Data-update notifications received.", m,
                         stats.epoch));
  out->push_back(Histogram("fj_request_latency_micros",
                           "End-to-end request latency (microseconds).", m,
                           stats.latency));
  for (size_t i = 0; i < kNumStages; ++i) {
    // Empty stages stay off the scrape: an in-process service never fills
    // the net stages, and a tracing-disabled one fills none.
    if (stats.stages[i].count == 0) continue;
    std::vector<MetricLabel> labels = m;
    labels.push_back({"stage", StageName(static_cast<Stage>(i))});
    out->push_back(Histogram("fj_stage_latency_micros",
                             "Per-stage request latency (microseconds).",
                             std::move(labels), stats.stages[i]));
  }
}

}  // namespace

void ExportService(MetricsRegistry* registry, std::string model,
                   const EstimatorService& service) {
  registry->AddCollector(
      [model = std::move(model), &service](std::vector<MetricSample>* out) {
        AppendServiceSamples(model, service, out);
      });
}

void ExportRegistryModels(MetricsRegistry* registry,
                          const ModelRegistry& models) {
  registry->AddCollector([&models](std::vector<MetricSample>* out) {
    // Names re-resolved per scrape: models registered after the endpoint
    // came up start scraping without re-wiring. Services are never removed
    // from a registry, so the Find() result stays valid.
    for (const std::string& name : models.ModelNames()) {
      const EstimatorService* service = models.Find(name);
      if (service != nullptr) AppendServiceSamples(name, *service, out);
    }
  });
}

void ExportServer(MetricsRegistry* registry,
                  const net::EstimatorServer& server) {
  registry->AddCollector([&server](std::vector<MetricSample>* out) {
    net::ServerStats stats = server.Stats();
    for (const net::ServerCounter& row : net::kServerCounters) {
      out->push_back({row.name, row.kind, row.help, {},
                      static_cast<double>(row.Of(stats))});
    }
    for (size_t i = 0; i < kNumStages; ++i) {
      if (stats.stages[i].count == 0) continue;
      out->push_back(Histogram(
          "fj_server_stage_latency_micros",
          "Net-side per-stage latency (microseconds).",
          {{"stage", StageName(static_cast<Stage>(i))}}, stats.stages[i]));
    }
  });
}

void ExportMonitor(MetricsRegistry* registry, const ServingMonitor& monitor) {
  registry->AddCollector([&monitor](std::vector<MetricSample>* out) {
    for (const SloBurn& b : monitor.slo_status()) {
      std::vector<MetricLabel> labels = {{"objective", b.name}};
      out->push_back(Gauge("fj_slo_fast_burn",
                           "Error-budget burn rate over the fast window.",
                           labels, b.fast_burn));
      out->push_back(Gauge("fj_slo_slow_burn",
                           "Error-budget burn rate over the slow window.",
                           labels, b.slow_burn));
      out->push_back(Gauge("fj_slo_burning",
                           "1 while both burn windows exceed 1.", labels,
                           b.Burning() ? 1.0 : 0.0));
    }
    out->push_back(Gauge("fj_health_state",
                         "Serving health: 0=ok 1=degraded 2=overloaded.", {},
                         static_cast<double>(static_cast<uint8_t>(
                             monitor.health_state()))));
    out->push_back(Counter("fj_health_transitions_total",
                           "Published health-state transitions.", {},
                           monitor.health().transitions()));
    out->push_back(Counter("fj_monitor_ticks_total",
                           "Monitor sampling ticks processed.", {},
                           monitor.ticks()));
  });
}

namespace {

/// Resident set size from /proc/self/statm (second field, pages); 0 when
/// procfs is unavailable — a missing gauge beats a wrong one.
uint64_t ReadRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0, rss_pages = 0;
  int matched = std::fscanf(f, "%llu %llu", &size_pages, &rss_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  long page = ::sysconf(_SC_PAGESIZE);
  return rss_pages * static_cast<uint64_t>(page > 0 ? page : 4096);
}

}  // namespace

void ExportProcess(MetricsRegistry* registry, uint64_t start_micros) {
  registry->AddCollector([start_micros](std::vector<MetricSample>* out) {
    out->push_back(Gauge("fj_server_start_time",
                         "Monotonic micros at server start; with "
                         "fj_process_uptime_seconds it anchors every "
                         "time-series t_us to a scrape instant.",
                         {}, static_cast<double>(start_micros)));
    uint64_t now = MonotonicMicros();
    double uptime =
        now > start_micros ? static_cast<double>(now - start_micros) / 1e6
                           : 0.0;
    out->push_back(Gauge("fj_process_uptime_seconds",
                         "Seconds since server start.", {}, uptime));
    out->push_back(Gauge("fj_process_rss_bytes",
                         "Resident set size (/proc/self/statm).", {},
                         static_cast<double>(ReadRssBytes())));
  });
}

std::string FlightDumpJson(const ModelRegistry& models, size_t max_recent) {
  std::string out = "{\"models\":[";
  for (const std::string& name : models.ModelNames()) {
    const EstimatorService* service = models.Find(name);
    if (service == nullptr) continue;
    if (out.back() != '[') out += ',';
    out += service->flight_recorder().DumpJson(max_recent);
  }
  out += "]}";
  return out;
}

}  // namespace fj::obs
