// fj_server: serve cardinality estimates to remote optimizer processes
// over the wire protocol (src/net/), from one or many trained models.
//
// Two ways to obtain a model:
//
//   * train it (default): the deterministic synthetic workload selected by
//     the shared flags is built and a FactorJoin model trained on it —
//     optionally persisted with --save-model PATH (add --save-only to exit
//     right after saving, the "trainer job" mode);
//
//   * load it: --load-model NAME=PATH (repeatable) skips retraining and
//     restores named snapshots (stats/snapshot.h) against the same
//     deterministic workload database. One server then fronts several
//     models; clients route per request with fj_client --model NAME.
//
//   $ ./fj_server --workload stats --bins 32 --save-model m32.fjsnap --save-only
//   $ ./fj_server --workload stats --bins 48 --save-model m48.fjsnap --save-only
//   $ ./fj_server --workload stats --load-model a=m32.fjsnap --load-model b=m48.fjsnap
//   fj_server: listening on 127.0.0.1:9977
//
// Because the workload generators are deterministic per seed, a client
// started with matching flags (tools/workload_flags.h) can rebuild the
// identical database, train the identical model locally, and verify remote
// estimates bit-for-bit (fj_client --model NAME --verify) — including
// against models that went through a snapshot save/load round trip.
//
// Runs until SIGINT/SIGTERM, then prints per-model service + server stats.
#include <csignal>
#include <cstdio>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "factorjoin/estimator.h"
#include "net/server.h"
#include "obs/metrics_export.h"
#include "obs/metrics_http.h"
#include "obs/metrics_registry.h"
#include "obs/monitor.h"
#include "obs/slo.h"
#include "service/estimator_service.h"
#include "service/model_registry.h"
#include "stats/snapshot.h"
#include "util/timer.h"
#include "workload_flags.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

struct Args {
  fj::tools::WorkloadFlags common;
  size_t threads = 4;
  std::string save_model;  // non-empty: persist the trained model here
  bool save_only = false;  // exit after training/saving (no serving)
  // --load-model NAME=PATH entries; non-empty skips training entirely.
  std::vector<std::pair<std::string, std::string>> load_models;
  // --metrics-port: expose /metrics (+ /metrics.json); unset = disabled,
  // 0 = ephemeral (the resolved port is printed).
  std::optional<uint16_t> metrics_port;
  // --slow-log-micros: slow-request log threshold; 0 = disabled.
  uint64_t slow_log_micros = 0;
  // --slo: objective spec ("p99=5ms,avail=99.9"); parsed in main so a typo
  // fails startup with the parser's message.
  std::string slo_spec;
  // --history-seconds: /metrics/history retention (one window per second).
  size_t history_seconds = 300;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n%s"
      "  --threads N             service worker threads per model (default 4)\n"
      "  --save-model PATH       save the trained model snapshot to PATH\n"
      "  --save-only             exit after training (and saving); don't serve\n"
      "  --load-model NAME=PATH  serve a saved snapshot as model NAME\n"
      "                          (repeatable; skips retraining)\n"
      "  --metrics-port N        serve Prometheus metrics on 127.0.0.1:N\n"
      "                          (0 = ephemeral; the resolved URL is printed)\n"
      "  --slow-log-micros N     log requests slower than N us to stderr\n"
      "  --slo SPEC              SLO objectives, e.g. p99=5ms,avail=99.9\n"
      "                          (burn-rate gauges + /healthz; needs\n"
      "                          --metrics-port)\n"
      "  --history-seconds N     /metrics/history retention (default 300)\n",
      argv0, fj::tools::kWorkloadFlagsUsage);
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    int consumed = fj::tools::TryParseWorkloadFlag(argc, argv, &i,
                                                   &args->common);
    if (consumed == 1) continue;
    if (consumed == -1) {
      Usage(argv[0]);
      return false;
    }
    std::string flag = argv[i];
    bool ok = true;
    if (flag == "--threads") {
      ok = fj::tools::ParseIntFlag(argc, argv, &i, &args->threads);
    } else if (flag == "--save-model" && i + 1 < argc) {
      args->save_model = argv[++i];
    } else if (flag == "--save-only") {
      args->save_only = true;
    } else if (flag == "--metrics-port") {
      ok = fj::tools::ParseIntFlag(argc, argv, &i,
                                   &args->metrics_port.emplace());
    } else if (flag == "--slow-log-micros") {
      ok = fj::tools::ParseIntFlag(argc, argv, &i, &args->slow_log_micros);
    } else if (flag == "--slo" && i + 1 < argc) {
      args->slo_spec = argv[++i];
    } else if (flag == "--history-seconds") {
      ok = fj::tools::ParseIntFlag(argc, argv, &i, &args->history_seconds);
    } else if (flag == "--load-model" && i + 1 < argc) {
      std::string spec = argv[++i];
      size_t eq = spec.find('=');
      if (eq == 0 || eq == std::string::npos || eq + 1 >= spec.size()) {
        std::fprintf(stderr, "fj_server: --load-model wants NAME=PATH, got '%s'\n",
                     spec.c_str());
        return false;
      }
      args->load_models.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else {
      ok = false;
    }
    if (!ok) {
      Usage(argv[0]);
      return false;
    }
  }
  if (!args->load_models.empty() && !args->save_model.empty()) {
    std::fprintf(stderr,
                 "fj_server: --save-model only applies to a trained model; "
                 "drop it or drop --load-model\n");
    return false;
  }
  if (args->save_only && !args->load_models.empty()) {
    std::fprintf(stderr, "fj_server: --save-only requires training, not "
                         "--load-model\n");
    return false;
  }
  if (args->save_only && args->save_model.empty()) {
    std::fprintf(stderr, "fj_server: --save-only without --save-model would "
                         "train and then discard the model; add "
                         "--save-model PATH\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) return 2;

  // Parsed up front so a malformed spec fails before minutes of training.
  fj::obs::SloSpec slo;
  try {
    slo = fj::obs::SloSpec::Parse(args.slo_spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fj_server: %s\n", e.what());
    return 2;
  }

  auto workload = fj::tools::MakeFlaggedWorkload(args.common);
  fj::EstimatorServiceOptions service_options;
  service_options.num_threads = args.threads;
  service_options.slow_request_micros = args.slow_log_micros;

  fj::ModelRegistry registry;
  if (args.load_models.empty()) {
    // Train the default model from the flagged workload.
    fj::FactorJoinConfig config;
    config.num_bins = args.common.bins;
    auto estimator =
        std::make_unique<fj::FactorJoinEstimator>(workload->db, config);
    std::printf("fj_server: trained factorjoin on %s in %.1f ms (%zu bytes)\n",
                workload->name.c_str(), estimator->TrainSeconds() * 1e3,
                estimator->ModelSizeBytes());
    if (!args.save_model.empty()) {
      try {
        fj::SaveEstimatorSnapshot(*estimator, args.save_model);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fj_server: save failed: %s\n", e.what());
        return 1;
      }
      std::printf("fj_server: saved model snapshot to %s\n",
                  args.save_model.c_str());
    }
    if (args.save_only) return 0;
    registry.AddModel("default", std::move(estimator), service_options);
  } else {
    // Serve snapshots: no training, one service per named model.
    for (const auto& [name, path] : args.load_models) {
      fj::WallTimer timer;
      std::unique_ptr<fj::CardinalityEstimator> estimator;
      try {
        estimator = fj::LoadEstimatorSnapshot(workload->db, path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fj_server: loading %s from %s failed: %s\n",
                     name.c_str(), path.c_str(), e.what());
        return 1;
      }
      std::printf(
          "fj_server: loaded model %s (%s, %zu bytes) from %s in %.1f ms\n",
          name.c_str(), estimator->Name().c_str(),
          estimator->ModelSizeBytes(), path.c_str(), timer.Seconds() * 1e3);
      registry.AddModel(name, std::move(estimator), service_options);
    }
  }

  fj::net::EstimatorServerOptions server_options;
  server_options.endpoint = fj::tools::EndpointFromFlags(args.common);
  fj::net::EstimatorServer server(registry, server_options);
  try {
    server.Start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fj_server: %s\n", e.what());
    return 1;
  }
  std::printf("fj_server: serving models: %s\n",
              registry.JoinedModelNames().c_str());
  // The "listening on" line is the startup contract scripts wait for
  // (tools/net_smoke.sh greps it for the resolved ephemeral port).
  std::printf("fj_server: listening on %s\n",
              server.endpoint().ToString().c_str());

  // Metrics endpoint: one registry scraping every model's service plus the
  // net front end, served over minimal HTTP. Wired after server.Start() so
  // a scrape can never observe a half-started server.
  fj::obs::MetricsRegistry metrics;
  std::unique_ptr<fj::obs::MetricsHttpServer> metrics_http;
  std::unique_ptr<fj::obs::ServingMonitor> monitor;
  if (args.metrics_port.has_value()) {
    fj::obs::ExportRegistryModels(&metrics, registry);
    fj::obs::ExportServer(&metrics, server);
    fj::obs::ExportProcess(&metrics, server.Stats().start_micros);

    // Monitor: samples every model's service plus the net front end once
    // per second into the time-series ring that feeds history, SLO burn
    // rates and the health state machine.
    fj::obs::MonitorOptions monitor_options;
    monitor_options.retention_seconds = args.history_seconds;
    monitor_options.slo = slo;
    monitor_options.on_transition = [&registry](fj::obs::HealthState from,
                                                fj::obs::HealthState to) {
      std::fprintf(stderr, "fj_server: health %s -> %s\n",
                   fj::obs::HealthStateName(from),
                   fj::obs::HealthStateName(to));
      if (to == fj::obs::HealthState::kOverloaded) {
        // The post-hoc record of what was on the floor at overload entry,
        // captured before the episode scrolls it out of the rings.
        std::fprintf(stderr, "fj_server: flight dump on overload: %s\n",
                     fj::obs::FlightDumpJson(registry, 16).c_str());
      }
    };
    size_t queue_capacity_per_model = service_options.queue_capacity;
    monitor = std::make_unique<fj::obs::ServingMonitor>(
        monitor_options,
        [&registry, &server, queue_capacity_per_model] {
          fj::obs::MonitorInput in;
          in.now_micros = fj::obs::MonotonicMicros();
          std::vector<std::string> names = registry.ModelNames();
          for (const std::string& name : names) {
            in.service.Merge(registry.Find(name)->Stats());
          }
          in.server = server.Stats();
          in.queue_capacity = queue_capacity_per_model * names.size();
          return in;
        });
    fj::obs::ExportMonitor(&metrics, *monitor);

    fj::obs::MetricsHttpOptions http_options;
    http_options.port = *args.metrics_port;
    metrics_http =
        std::make_unique<fj::obs::MetricsHttpServer>(metrics, http_options);
    fj::obs::ServingMonitor* mon = monitor.get();
    metrics_http->AddHandler("/metrics/history", [mon] {
      return fj::obs::HttpHandlerResult{200, "application/json",
                                        mon->HistoryJson()};
    });
    metrics_http->AddHandler("/healthz", [mon] {
      fj::obs::HttpHandlerResult result;
      result.body = mon->HealthJson(&result.status);
      return result;
    });
    metrics_http->AddHandler("/debug/traces", [&registry] {
      return fj::obs::HttpHandlerResult{200, "application/json",
                                        fj::obs::FlightDumpJson(registry)};
    });
    try {
      metrics_http->Start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fj_server: metrics endpoint: %s\n", e.what());
      server.Stop();
      return 1;
    }
    monitor->Start();
    std::printf("fj_server: metrics on http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(metrics_http->port()));
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  while (g_stop == 0) {
    // Sleep in 200ms slices so a signal is noticed promptly even on
    // platforms where it doesn't interrupt the sleep.
    struct timespec ts = {0, 200 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }

  // Scrapers stop first: collectors reference the server and services,
  // and the monitor's source callback samples both.
  if (metrics_http != nullptr) metrics_http->Stop();
  if (monitor != nullptr) monitor->Stop();
  server.Stop();
  // Final counters: every row of the counter tables, one line per model
  // and one for the net front end.
  auto print_rows = [](std::string line, const auto& table,
                       const auto& stats) {
    for (const auto& row : table) {
      line.append(" ").append(row.name).append("=").append(
          std::to_string(row.Of(stats)));
    }
    std::printf("%s\n", line.c_str());
  };
  for (const std::string& name : registry.ModelNames()) {
    print_rows("fj_server: model " + name, fj::kServiceCounters,
               registry.Find(name)->Stats());
  }
  print_rows("fj_server: server", fj::net::kServerCounters, server.Stats());
  return 0;
}
