// Open-loop latency under load: offered-load sweeps against the serving
// tier with coordinated omission avoided (workload/openloop.h) — the SLO
// curves the closed-loop benches structurally cannot show. A closed-loop
// driver's next request waits for the last, so queueing delay vanishes
// from its numbers; here every request is timestamped at its *scheduled*
// arrival and a service running behind the schedule pays the lateness in
// recorded latency.
//
// Four sections:
//   1. In-process sweep: saturation probe measures capacity C, then
//      constant-rate points at {25, 50, 75, 100, 125}% of C against the
//      in-process EstimatorService. Past 100% the p99/p999 blow up — that
//      knee is the headline. An SLO section then pushes each point's
//      histogram as one window through obs::BurnRates and checks the burn
//      rate crosses 1 exactly where the offered load crosses C.
//   2. Remote sweep: the same service behind EstimatorServer/Client over
//      loopback TCP, driven through the client's completion-callback hook.
//   3. Mixed poisson traffic: poisson arrivals at 10% of C with a 2%
//      update mix (ApplyInsert/ApplyDelete + NotifyUpdate through the full
//      versioned-statistics protocol) — tail latency when reads share the
//      service with cache-invalidating writes. Each update quiesces the
//      service (~ms), so read capacity under a write mix is far below C;
//      the tail shows the stalls. Runs last: it mutates the tables.
//
// Environment knobs: FJ_BENCH_SCALE, FJ_BENCH_QUERIES (bench_util.h),
// FJ_OPENLOOP_SECONDS (seconds per sweep point, default 0.4),
// FJ_OPENLOOP_PROBE_OPS (saturation-probe requests, default 4000).
// `--json out.json` writes offered/achieved QPS and p50/p99/p999 per
// point via the shared latency-curve helpers.
//
//   $ ./bench_openloop [--json openloop.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "factorjoin/estimator.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/slo.h"
#include "obs/time_series.h"
#include "service/estimator_service.h"
#include "workload/loadgen.h"
#include "workload/openloop.h"

namespace fj::bench {
namespace {

double EnvSeconds(const char* name, double fallback) {
  const char* s = std::getenv(name);
  return s != nullptr ? std::atof(s) : fallback;
}

size_t EnvOps(const char* name, size_t fallback) {
  const char* s = std::getenv(name);
  return s != nullptr ? static_cast<size_t>(std::atoll(s)) : fallback;
}

/// Offered rate far past any plausible capacity: every arrival is
/// immediately due, so the dispatcher submits as fast as the service
/// accepts (the bounded queue backpressures) and achieved QPS is the
/// service's capacity.
constexpr double kProbeRate = 2e6;

OpenLoopResult RunPoint(const Workload& workload, LoadTarget* target,
                        const ArrivalSchedule& schedule, size_t num_ops,
                        uint64_t seed) {
  LoadGenOptions options;
  options.seed = seed;
  options.schedule = schedule;
  options.num_ops = num_ops;
  Trace trace = GenerateTrace(workload, options);
  return RunOpenLoop(trace, workload.queries, target);
}

/// Saturation probe + constant-rate sweep at fractions of the probed
/// capacity; prints one table section and emits one load point per sweep
/// entry under `<prefix>_p<i>`. Returns the per-fraction results (indexed
/// like `fractions` below — [2] is 75%, [4] is 125%) so the SLO section
/// can evaluate burn rates without re-running the points.
std::vector<OpenLoopResult> Sweep(const Workload& workload, LoadTarget* target,
                                  const std::string& mode,
                                  const std::string& prefix,
                                  double point_seconds, size_t probe_ops,
                                  JsonReport* report) {
  OpenLoopResult probe = RunPoint(workload, target,
                                  ArrivalSchedule::Constant(kProbeRate),
                                  probe_ops, /*seed=*/7);
  double capacity = probe.achieved_qps;
  std::printf("%s capacity (saturation probe, %zu reqs): %.0f req/s\n",
              mode.c_str(), probe_ops, capacity);
  report->Add(prefix + "_capacity_qps", capacity, "1/s");

  TablePrinter tp({"Offered/cap", "Offered QPS", "Achieved QPS", "p50 (us)",
                   "p99 (us)", "p999 (us)", "Errors"});
  const double fractions[] = {0.25, 0.5, 0.75, 1.0, 1.25};
  std::vector<OpenLoopResult> results;
  int i = 0;
  for (double fraction : fractions) {
    double rate = std::max(fraction * capacity, 1.0);
    size_t ops = std::max<size_t>(static_cast<size_t>(rate * point_seconds),
                                  200);
    OpenLoopResult r = RunPoint(workload, target,
                                ArrivalSchedule::Constant(rate), ops,
                                /*seed=*/42 + static_cast<uint64_t>(i));
    tp.AddRow({Fmt(fraction, 2), Fmt(r.offered_qps, 0),
               Fmt(r.achieved_qps, 0), Fmt(r.latency.ValueAtQuantile(0.50), 1),
               Fmt(r.latency.ValueAtQuantile(0.99), 1),
               Fmt(r.latency.ValueAtQuantile(0.999), 1),
               std::to_string(r.errors)});
    AddLoadPoint(report, prefix + "_p" + std::to_string(i), r.offered_qps,
                 r.achieved_qps, r.latency);
    results.push_back(std::move(r));
    ++i;
  }
  tp.Print();
  return results;
}

/// SLO burn-rate validation against the measured knee: derive a p99
/// latency objective from the healthy 75% point (threshold = 2x its p999,
/// so boundary noise cannot trip it), then push each sweep point's
/// histogram as the one window of a ring and read its burn rate — the
/// objective's error budget is 1% over threshold, CountOver is the
/// bad-event counter, exactly the math the live monitor runs per second.
/// Below the knee the burn must sit under 1; past it the open-loop backlog
/// puts nearly every request over any fixed threshold and the burn
/// explodes. This pins the tentpole's core promise: burn-rate fires
/// exactly when offered load crosses capacity, not before.
void SloSection(const std::vector<OpenLoopResult>& sweep,
                JsonReport* report) {
  const OpenLoopResult& healthy = sweep[2];  // 75% of capacity
  uint64_t threshold = std::max<uint64_t>(
      static_cast<uint64_t>(2.0 * healthy.latency.ValueAtQuantile(0.999)),
      100);

  obs::SloSpec spec;
  spec.latency.push_back(obs::SloObjective{0.99, threshold});
  std::printf("\n-- slo burn-rate at the knee (objective %s) --\n",
              spec.latency[0].Name().c_str());
  const double fractions[] = {0.25, 0.5, 0.75, 1.0, 1.25};
  std::vector<double> burns;
  for (size_t i = 0; i < sweep.size(); ++i) {
    obs::WindowSample w;
    w.latency_count = sweep[i].latency.count;
    w.over_threshold[0] = sweep[i].latency.CountOver(threshold);
    obs::TimeSeriesRing ring(1);
    ring.Push(w);
    double burn = obs::BurnRates(spec, ring)[0].fast_burn;
    std::printf("  %4.0f%% of capacity: %8llu reqs, %6llu over %llu us "
                "-> burn %.2f %s\n",
                fractions[i] * 100.0,
                static_cast<unsigned long long>(w.latency_count),
                static_cast<unsigned long long>(w.over_threshold[0]),
                static_cast<unsigned long long>(threshold), burn,
                burn > 1.0 ? "(budget burning)" : "");
    report->Add("openloop_slo_burn_p" + std::to_string(i), burn);
    burns.push_back(burn);
  }
  report->Add("openloop_slo_threshold_us", static_cast<double>(threshold),
              "us");
  // The two points the acceptance bar names: comfortably under budget
  // below the knee, clearly burning past it.
  std::printf("  verdict: burn@75%%=%.2f (<1 %s), burn@125%%=%.2f (>1 %s)\n",
              burns[2], burns[2] < 1.0 ? "ok" : "VIOLATION",
              burns[4], burns[4] > 1.0 ? "ok" : "VIOLATION");
}

}  // namespace
}  // namespace fj::bench

int main(int argc, char** argv) {
  using namespace fj;
  using namespace fj::bench;
  JsonReport report = JsonReport::FromArgs(argc, argv, "openloop");

  double point_seconds = EnvSeconds("FJ_OPENLOOP_SECONDS", 0.4);
  size_t probe_ops = EnvOps("FJ_OPENLOOP_PROBE_OPS", 4000);

  auto workload = StatsWorkload(EnvQueries(16));
  FactorJoinConfig config;
  FactorJoinEstimator estimator(workload->db, config);
  std::printf("trained factorjoin in %.1f ms on %s (%zu queries)\n",
              estimator.TrainSeconds() * 1e3, workload->name.c_str(),
              workload->queries.size());

  EstimatorServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.cache_capacity = 1 << 18;
  EstimatorService service(estimator, service_options);
  // Warm what a read asks for (each query's full alias mask): the sweeps
  // measure the serving regime, not first-touch model evaluation.
  for (const Query& q : workload->queries) {
    service.EstimateSubplans(q, {q.AllAliases()});
  }

  std::printf("\n-- in-process open-loop sweep (%.1fs per point) --\n",
              point_seconds);
  InProcessTarget inproc(&workload->db, &estimator, &service);
  std::vector<OpenLoopResult> sweep =
      Sweep(*workload, &inproc, "in-process", "openloop_inproc", point_seconds,
            probe_ops, &report);
  SloSection(sweep, &report);

  std::printf("\n-- loopback tcp open-loop sweep --\n");
  {
    net::EstimatorServerOptions server_options;
    server_options.endpoint.port = 0;  // ephemeral
    net::EstimatorServer server(service, server_options);
    server.Start();
    net::EstimatorClientOptions client_options;
    client_options.endpoint = server.endpoint();
    net::EstimatorClient client(client_options);
    client.Connect();
    RemoteTarget remote(&client, workload->db.TableNames());
    Sweep(*workload, &remote, "loopback tcp", "openloop_tcp", point_seconds,
          probe_ops, &report);
  }

  // Mixed read/update traffic, last: update ops mutate the tables, which
  // would skew any sweep run after them.
  std::printf("\n-- poisson arrivals, 2%% update mix (in-process) --\n");
  {
    ServiceStats before = service.Stats();
    double capacity = 1.0;
    // Re-probe cheaply: capacity may differ slightly from the sweep's by
    // now (cache contents), and the sweep's local is out of scope here.
    OpenLoopResult probe =
        RunPoint(*workload, &inproc, ArrivalSchedule::Constant(kProbeRate),
                 probe_ops / 2, /*seed=*/7);
    capacity = std::max(probe.achieved_qps, 1.0);

    // 10% of read capacity: every update op stalls the whole service for
    // a Drain + ApplyInsert/ApplyDelete (~ms), so a 2% update mix cuts
    // sustainable throughput by an order of magnitude — offering near C
    // would just saturate every quantile at the backlog size.
    LoadGenOptions options;
    options.seed = 99;
    options.schedule = ArrivalSchedule::Poisson(0.1 * capacity);
    options.num_ops = std::max<size_t>(
        static_cast<size_t>(0.1 * capacity * point_seconds), 200);
    options.update_fraction = 0.02;
    options.update_rows = 64;
    Trace trace = GenerateTrace(*workload, options);
    OpenLoopResult r = RunOpenLoop(trace, workload->queries, &inproc);
    ServiceStats after = service.Stats();
    std::printf("  %llu reads + %llu updates: offered %.0f/s, achieved "
                "%.0f/s, p50 %.1f us, p99 %.1f us, p999 %.1f us, "
                "%llu errors, %llu update notifications\n",
                static_cast<unsigned long long>(r.reads),
                static_cast<unsigned long long>(r.updates), r.offered_qps,
                r.achieved_qps, r.latency.ValueAtQuantile(0.50),
                r.latency.ValueAtQuantile(0.99),
                r.latency.ValueAtQuantile(0.999),
                static_cast<unsigned long long>(r.errors),
                static_cast<unsigned long long>(after.epoch - before.epoch));
    AddLoadPoint(&report, "openloop_mixed", r.offered_qps, r.achieved_qps,
                 r.latency);
    report.Add("openloop_mixed_updates", static_cast<double>(r.updates));
    report.Add("openloop_mixed_errors", static_cast<double>(r.errors));
  }

  report.Write();
  return 0;
}
