// EstimatorService throughput: aggregate QPS and tail latency of the
// thread-pooled, cache-sharded serving layer vs. worker count, single-client
// vs. 64-client, on the STATS-CEB workload.
//
// Each request is what an optimizer actually issues: one batched
// EstimateSubplans over every connected sub-plan of a query. The cache is
// warmed first, so the measured regime is the serving hot path (fingerprint
// + sharded lookup per sub-plan) rather than first-touch model evaluation.
//
// A second section measures COLD multi-join sub-plan batches (cache
// disabled): raw estimator batch throughput through the service — the
// number the arena/kernel hot-path work moves.
//
// A third section measures COLD START: training a model from scratch vs
// restoring it from a snapshot (stats/snapshot.h — the fj_server
// --load-model path), plus the snapshot's exact serialized size. A fourth
// drives a multi-model ModelRegistry (clients round-robin across models)
// to show per-model serving throughput under shared hardware.
//
// Environment knobs: FJ_BENCH_SCALE, FJ_BENCH_QUERIES (see bench_util.h),
// FJ_BENCH_REQUESTS (total requests per measured point, default 512).
// `--json out.json` writes the headline metrics machine-readably.
//
//   $ ./bench_service_throughput [--json service.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "factorjoin/estimator.h"
#include "obs/latency_histogram.h"
#include "obs/metrics_export.h"
#include "obs/metrics_registry.h"
#include "obs/request_trace.h"
#include "service/estimator_service.h"
#include "service/model_registry.h"
#include "stats/snapshot.h"

namespace fj::bench {
namespace {

struct LoadPoint {
  size_t workers = 0;
  size_t clients = 0;
  double qps = 0.0;
  /// Service-side per-request latency over exactly this run's interval.
  obs::HistogramSnapshot latency;
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  double p999_micros = 0.0;
  double hit_rate = 0.0;
  /// Peak of the pending-requests gauge (queued + in-flight) sampled
  /// during the run — how deep the service's backlog actually got.
  uint64_t max_pending = 0;
};

size_t EnvRequests(size_t fallback = 512) {
  const char* s = std::getenv("FJ_BENCH_REQUESTS");
  return s != nullptr ? static_cast<size_t>(std::atoll(s)) : fallback;
}


/// Drives `total_requests` blocking sub-plan batches from `clients` threads
/// round-robin over the workload and returns the aggregate numbers.
LoadPoint RunLoad(EstimatorService& service, const std::vector<Query>& queries,
                  const std::vector<std::vector<uint64_t>>& masks,
                  size_t clients, size_t total_requests) {
  size_t per_client = total_requests / clients;
  if (per_client == 0) per_client = 1;
  ServiceStats before = service.Stats();
  WallTimer timer;
  std::atomic<size_t> finished{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t r = 0; r < per_client; ++r) {
        size_t i = (c + r) % queries.size();
        service.EstimateSubplans(queries[i], masks[i]);
      }
      finished.fetch_add(1);
    });
  }
  // Sample the backlog gauge while the clients run.
  uint64_t max_pending = 0;
  while (finished.load() < clients) {
    max_pending = std::max(max_pending, service.Stats().pending_requests);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& t : threads) t.join();
  double seconds = timer.Seconds();

  ServiceStats after = service.Stats();
  LoadPoint point;
  point.workers = service.options().num_threads;
  point.clients = clients;
  point.qps = static_cast<double>(per_client * clients) / seconds;
  // Quantiles over exactly this run's requests: the service's latency
  // histograms subtract (obs::HistogramSnapshot::DeltaSince), so earlier
  // warmup/points on the same service don't pollute the tail.
  point.latency = after.latency.DeltaSince(before.latency);
  point.p50_micros = point.latency.ValueAtQuantile(0.50);
  point.p99_micros = point.latency.ValueAtQuantile(0.99);
  point.p999_micros = point.latency.ValueAtQuantile(0.999);
  uint64_t hits = after.cache.hits - before.cache.hits;
  uint64_t misses = after.cache.misses - before.cache.misses;
  point.hit_rate = hits + misses == 0
                       ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(hits + misses);
  point.max_pending = max_pending;
  return point;
}

}  // namespace
}  // namespace fj::bench

int main(int argc, char** argv) {
  using namespace fj;
  using namespace fj::bench;
  JsonReport report = JsonReport::FromArgs(argc, argv, "service_throughput");

  auto workload = StatsWorkload(EnvQueries(32));
  FactorJoinConfig config;
  FactorJoinEstimator estimator(workload->db, config);
  std::printf("trained factorjoin in %.1f ms on %s (%zu queries), "
              "hardware_concurrency=%u\n",
              estimator.TrainSeconds() * 1e3, workload->name.c_str(),
              workload->queries.size(), std::thread::hardware_concurrency());

  std::vector<std::vector<uint64_t>> masks;
  size_t total_subplans = 0;
  for (const Query& q : workload->queries) {
    masks.push_back(EnumerateConnectedSubsets(q, 1));
    total_subplans += masks.back().size();
  }
  std::printf("%zu sub-plans across the workload (avg %.1f per query)\n\n",
              total_subplans,
              static_cast<double>(total_subplans) /
                  static_cast<double>(workload->queries.size()));

  size_t requests = EnvRequests();
  TablePrinter tp({"Workers", "Clients", "QPS", "p50 (us)", "p99 (us)",
                   "p999 (us)", "Hit rate", "Peak pending"});
  double qps_1worker = 0.0;
  double qps_8worker = 0.0;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    EstimatorServiceOptions options;
    options.num_threads = workers;
    options.queue_capacity = 256;
    options.cache_capacity = 1 << 18;
    EstimatorService service(estimator, options);

    // Warm: every sub-plan of every query enters the cache once.
    for (size_t i = 0; i < workload->queries.size(); ++i) {
      service.EstimateSubplans(workload->queries[i], masks[i]);
    }

    for (size_t clients : {size_t{1}, size_t{64}}) {
      LoadPoint p =
          RunLoad(service, workload->queries, masks, clients, requests);
      tp.AddRow({std::to_string(p.workers), std::to_string(p.clients),
                 Fmt(p.qps, 0),
                 Fmt(p.p50_micros, 1),
                 Fmt(p.p99_micros, 1),
                 Fmt(p.p999_micros, 1),
                 TablePrinter::FormatPercent(p.hit_rate),
                 std::to_string(p.max_pending)});
      if (clients == 64 && workers == 1) qps_1worker = p.qps;
      if (clients == 64 && workers == 8) qps_8worker = p.qps;
      report.Add("warm_qps_w" + std::to_string(workers) + "_c" +
                     std::to_string(clients),
                 p.qps, "1/s");
    }
  }
  tp.Print();

  double speedup = qps_1worker > 0.0 ? qps_8worker / qps_1worker : 0.0;
  std::printf("\n64-client aggregate speedup, 8 workers vs 1: %.2fx\n",
              speedup);
  if (std::thread::hardware_concurrency() < 8) {
    std::printf("(note: only %u hardware threads available; worker scaling "
                "is core-bound on this machine)\n",
                std::thread::hardware_concurrency());
  }

  // ---- Cold multi-join sub-plan batches (cache disabled): the estimator
  // hot path behind the serving layer, the regime the arena/kernel work
  // targets.
  std::printf("\ncold multi-join batches (cache disabled, %zu requests):\n",
              requests / 4);
  {
    EstimatorServiceOptions options;
    options.num_threads = 4;
    options.cache_enabled = false;
    EstimatorService service(estimator, options);
    LoadPoint p = RunLoad(service, workload->queries, masks, 8, requests / 4);
    double subplans_per_sec =
        p.qps * static_cast<double>(total_subplans) /
        static_cast<double>(workload->queries.size());
    TablePrinter cold_tp({"Batches/s", "Sub-plans/s", "p99 (us)"});
    cold_tp.AddRow({Fmt(p.qps, 0), Fmt(subplans_per_sec, 0),
                    Fmt(p.p99_micros, 1)});
    cold_tp.Print();
    report.Add("cold_batches_per_sec", p.qps, "1/s");
    report.Add("cold_subplans_per_sec", subplans_per_sec, "1/s");
  }

  // ---- Tracing overhead: the identical warm load with per-stage tracing
  // on vs off (EstimatorServiceOptions::enable_tracing). Tracing adds a
  // handful of steady-clock reads per request; the acceptance target is
  // <2% throughput cost. Both services live side by side and trials
  // alternate off/on (best-of-4 each), so scheduler drift across the run
  // hits both modes alike instead of masquerading as overhead.
  std::printf("\ntracing overhead (warm, 4 workers, 64 clients):\n");
  {
    auto make_service = [&](bool tracing) {
      EstimatorServiceOptions options;
      options.num_threads = 4;
      options.queue_capacity = 256;
      options.cache_capacity = 1 << 18;
      options.enable_tracing = tracing;
      auto service = std::make_unique<EstimatorService>(estimator, options);
      for (size_t i = 0; i < workload->queries.size(); ++i) {
        service->EstimateSubplans(workload->queries[i], masks[i]);
      }
      // One throwaway pass per service so neither mode pays first-run
      // cache/allocator warmup inside a measured trial.
      RunLoad(*service, workload->queries, masks, 64, requests);
      return service;
    };
    auto off = make_service(false);
    auto on = make_service(true);
    double qps_off = 0.0;
    double qps_on = 0.0;
    for (int run = 0; run < 4; ++run) {
      LoadPoint p_off = RunLoad(*off, workload->queries, masks, 64, requests);
      qps_off = std::max(qps_off, p_off.qps);
      LoadPoint p_on = RunLoad(*on, workload->queries, masks, 64, requests);
      qps_on = std::max(qps_on, p_on.qps);
    }
    ServiceStats traced_stats = on->Stats();
    // Exercise the metrics pipeline against the live traced service: one
    // collector snapshot rendered both ways, as a scraper and a bench
    // harness would consume it.
    obs::MetricsRegistry metrics;
    obs::ExportService(&metrics, "bench", *on);
    std::printf("  metrics scrape: %zu bytes prometheus, %zu bytes json\n",
                metrics.RenderPrometheus().size(),
                metrics.DumpJson().size());
    TablePrinter st_tp(
        {"Stage", "Count", "p50 (us)", "p99 (us)", "p999 (us)"});
    for (size_t i = 0; i < obs::kNumStages; ++i) {
      const obs::HistogramSnapshot& h = traced_stats.stages[i];
      if (h.count == 0) continue;
      st_tp.AddRow({obs::StageName(static_cast<obs::Stage>(i)),
                    std::to_string(h.count), Fmt(h.ValueAtQuantile(0.50), 1),
                    Fmt(h.ValueAtQuantile(0.99), 1),
                    Fmt(h.ValueAtQuantile(0.999), 1)});
    }
    st_tp.Print();
    double overhead_pct =
        qps_off > 0.0 ? (qps_off - qps_on) / qps_off * 100.0 : 0.0;
    std::printf("  tracing on: %.0f QPS, off: %.0f QPS -> overhead %.2f%% "
                "(target <2%%)\n",
                qps_on, qps_off, overhead_pct);
    report.Add("tracing_overhead_pct", overhead_pct, "%");
    report.Add("traced_qps", qps_on, "1/s");
    report.Add("untraced_qps", qps_off, "1/s");
    AddLatencyQuantiles(&report, "traced", traced_stats.latency);
  }

  // ---- Cold start: train from scratch vs restore a snapshot (the
  // fj_server --load-model path). Load skips binning, scans, and model
  // training entirely — it only decodes and re-wires state — so serving
  // can restart in milliseconds on models that took seconds to train.
  std::printf("\ncold start (train vs snapshot load):\n");
  {
    WallTimer train_timer;
    FactorJoinEstimator fresh(workload->db, config);
    double train_ms = train_timer.Seconds() * 1e3;

    WallTimer serialize_timer;
    std::vector<uint8_t> snapshot = SerializeEstimator(estimator);
    double serialize_ms = serialize_timer.Seconds() * 1e3;

    WallTimer load_timer;
    std::unique_ptr<CardinalityEstimator> loaded =
        DeserializeEstimator(workload->db, snapshot);
    double load_ms = load_timer.Seconds() * 1e3;

    TablePrinter cs_tp({"Path", "ms"});
    cs_tp.AddRow({"train from scratch", Fmt(train_ms, 1)});
    cs_tp.AddRow({"serialize (save)", Fmt(serialize_ms, 1)});
    cs_tp.AddRow({"deserialize (load)", Fmt(load_ms, 1)});
    cs_tp.Print();
    std::printf("  snapshot: %zu bytes (exact model size %zu bytes); "
                "load is %.1fx faster than retraining\n",
                snapshot.size(), estimator.ModelSizeBytes(),
                load_ms > 0.0 ? train_ms / load_ms : 0.0);
    report.Add("coldstart_train_ms", train_ms, "ms");
    report.Add("coldstart_load_ms", load_ms, "ms");
    report.Add("coldstart_train_over_load",
               load_ms > 0.0 ? train_ms / load_ms : 0.0);
    report.Add("snapshot_bytes", static_cast<double>(snapshot.size()), "B");
  }

  // ---- Multi-model serving: one ModelRegistry fronting N copies of the
  // model (each its own service, cache, and epochs — the fj_server
  // --load-model deployment), 64 clients round-robin across models. Warm
  // caches, 2 workers per model: how much aggregate throughput costs as
  // one server fans out over more models on fixed hardware.
  std::printf("\nmulti-model serving (64 clients round-robin, warm):\n");
  {
    std::vector<uint8_t> snapshot = SerializeEstimator(estimator);
    TablePrinter mm_tp({"Models", "Aggregate QPS", "Per-model QPS"});
    for (size_t num_models : {size_t{1}, size_t{2}, size_t{4}}) {
      ModelRegistry registry;
      std::vector<EstimatorService*> services;
      for (size_t m = 0; m < num_models; ++m) {
        EstimatorServiceOptions options;
        options.num_threads = 2;
        options.queue_capacity = 256;
        options.cache_capacity = 1 << 18;
        std::string name = "m";
        name += std::to_string(m);
        services.push_back(&registry.AddModel(
            name, DeserializeEstimator(workload->db, snapshot), options));
      }
      for (EstimatorService* service : services) {
        for (size_t i = 0; i < workload->queries.size(); ++i) {
          service->EstimateSubplans(workload->queries[i], masks[i]);
        }
      }
      size_t clients = 64;
      size_t per_client = std::max<size_t>(requests / clients, 1);
      WallTimer timer;
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (size_t r = 0; r < per_client; ++r) {
            size_t i = (c + r) % workload->queries.size();
            services[(c + r) % services.size()]->EstimateSubplans(
                workload->queries[i], masks[i]);
          }
        });
      }
      for (auto& t : threads) t.join();
      double qps =
          static_cast<double>(per_client * clients) / timer.Seconds();
      mm_tp.AddRow({std::to_string(num_models), Fmt(qps, 0),
                    Fmt(qps / static_cast<double>(num_models), 0)});
      std::string metric = "multimodel_qps_m";
      metric += std::to_string(num_models);
      report.Add(metric, qps, "1/s");
    }
    mm_tp.Print();
  }

  report.Add("warm_speedup_8v1_workers", speedup);
  report.Write();
  return 0;
}
