// fj_loadgen: open-loop load generator for the estimator serving tier.
//
// Generates a deterministic zipf-skewed trace over the shared flagged
// workload (tools/workload_flags.h — the same flags fj_server uses, so
// both sides derive the identical query templates) and replays it at its
// scheduled arrival times (workload/openloop.h: latency is measured from
// the *scheduled* arrival, so queueing delay behind a slow server is in
// the numbers, not hidden by the driver).
//
// Two targets:
//   * --remote: drive a live fj_server at --host/--port (or --unix),
//     through one pipelined connection;
//   * default: in-process — train the model locally and drive an
//     EstimatorService directly (no server needed; the wire is excluded).
//
// Traces can be persisted and replayed as regression fixtures:
//
//   $ ./fj_loadgen --schedule poisson:2000 --ops 20000 --record run.fjtrace
//   $ ./fj_loadgen --replay run.fjtrace --remote --port 9977
//
// A recorded trace replays bit-identically: the file stores the concrete
// op sequence (template indices + arrival times), not the generator
// parameters alone.
//
//   $ ./fj_server --workload stats --queries 64 &
//   $ ./fj_loadgen --remote --workload stats --queries 64
//       --schedule const:5000 --ops 25000 --json loadgen.json
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "factorjoin/estimator.h"
#include "net/client.h"
#include "service/estimator_service.h"
#include "workload/loadgen.h"
#include "workload/openloop.h"
#include "workload_flags.h"

namespace {

struct Args {
  fj::tools::WorkloadFlags common;
  std::string schedule = "const:2000";
  size_t ops = 10000;
  double theta = 0.99;
  double update_fraction = 0.0;
  uint32_t update_rows = 256;
  uint64_t gen_seed = 42;
  size_t threads = 4;       // in-process service workers
  std::string model;        // --remote: model name ("" = server default)
  bool remote = false;
  std::string record;       // save the generated trace here before running
  bool record_only = false; // save and exit without running
  std::string replay;       // load this trace instead of generating
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags] [--json out.json]\n%s"
      "  --schedule SPEC         arrival schedule (default const:2000):\n"
      "                          const:R | step:R1..R2@T | ramp:R1..R2@T |\n"
      "                          poisson:R   (R in req/s, T in seconds)\n"
      "  --ops N                 operations to generate (default 10000)\n"
      "  --theta T               zipf skew over query templates (default 0.99)\n"
      "  --update-fraction F     fraction of ops that are data updates\n"
      "                          (default 0; in-process only — remote updates\n"
      "                          degrade to cache invalidation)\n"
      "  --update-rows N         rows per update op (default 256)\n"
      "  --gen-seed N            trace generation seed (default 42)\n"
      "  --threads N             in-process service workers (default 4)\n"
      "  --remote                drive a live fj_server at --host/--port\n"
      "  --model NAME            remote model to address (default: server's)\n"
      "  --record PATH           save the generated trace to PATH\n"
      "  --record-only PATH      save the trace and exit (no run)\n"
      "  --replay PATH           replay a recorded trace instead of generating\n"
      "  --json PATH             write metrics as a flat JSON report,\n"
      "                          including per-second loadgen_w<i>_* series\n",
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
    if (flag == "--schedule" && i + 1 < argc) {
      args->schedule = argv[++i];
    } else if (flag == "--ops") {
      ok = fj::tools::ParseIntFlag(argc, argv, &i, &args->ops);
    } else if (flag == "--theta" && i + 1 < argc) {
      args->theta = std::atof(argv[++i]);
    } else if (flag == "--update-fraction" && i + 1 < argc) {
      args->update_fraction = std::atof(argv[++i]);
    } else if (flag == "--update-rows") {
      ok = fj::tools::ParseIntFlag(argc, argv, &i, &args->update_rows);
    } else if (flag == "--gen-seed") {
      ok = fj::tools::ParseIntFlag(argc, argv, &i, &args->gen_seed);
    } else if (flag == "--threads") {
      ok = fj::tools::ParseIntFlag(argc, argv, &i, &args->threads);
    } else if (flag == "--remote") {
      args->remote = true;
    } else if (flag == "--model" && i + 1 < argc) {
      args->model = argv[++i];
    } else if (flag == "--record" && i + 1 < argc) {
      args->record = argv[++i];
    } else if (flag == "--record-only" && i + 1 < argc) {
      args->record = argv[++i];
      args->record_only = true;
    } else if (flag == "--replay" && i + 1 < argc) {
      args->replay = argv[++i];
    } else if (flag == "--json" && i + 1 < argc) {
      ++i;  // consumed by JsonReport::FromArgs
    } else if (flag.rfind("--json=", 0) == 0) {
      // consumed by JsonReport::FromArgs
    } else {
      ok = false;
    }
    if (!ok) {
      Usage(argv[0]);
      return false;
    }
  }
  if (!args->replay.empty() && !args->record.empty()) {
    std::fprintf(stderr, "fj_loadgen: --replay already has a trace file; "
                         "drop --record/--record-only\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) return 2;
  fj::bench::JsonReport report =
      fj::bench::JsonReport::FromArgs(argc, argv, "fj_loadgen");

  auto workload = fj::tools::MakeFlaggedWorkload(args.common);

  fj::Trace trace;
  try {
    if (!args.replay.empty()) {
      trace = fj::LoadTrace(args.replay);
      std::printf("fj_loadgen: replaying %s: %zu ops, workload %s, "
                  "schedule %s, seed %llu\n",
                  args.replay.c_str(), trace.ops.size(),
                  trace.workload.c_str(), trace.schedule.c_str(),
                  static_cast<unsigned long long>(trace.seed));
      if (trace.workload != workload->name) {
        std::fprintf(stderr,
                     "fj_loadgen: warning: trace was generated over workload "
                     "'%s' but flags build '%s'; template indices will land "
                     "on different queries\n",
                     trace.workload.c_str(), workload->name.c_str());
      }
    } else {
      fj::LoadGenOptions gen;
      gen.seed = args.gen_seed;
      gen.zipf_theta = args.theta;
      gen.update_fraction = args.update_fraction;
      gen.update_rows = args.update_rows;
      gen.schedule = fj::ArrivalSchedule::Parse(args.schedule);
      gen.num_ops = args.ops;
      trace = fj::GenerateTrace(*workload, gen);
      std::printf("fj_loadgen: generated %zu ops over %s (%zu templates, "
                  "theta %.2f, schedule %s)\n",
                  trace.ops.size(), workload->name.c_str(),
                  workload->queries.size(), args.theta,
                  trace.schedule.c_str());
    }
    if (!args.record.empty()) {
      fj::SaveTrace(trace, args.record);
      std::printf("fj_loadgen: recorded trace to %s\n", args.record.c_str());
      if (args.record_only) return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fj_loadgen: %s\n", e.what());
    return 1;
  }

  fj::OpenLoopResult result;
  try {
    if (args.remote) {
      fj::net::EstimatorClientOptions client_options;
      client_options.endpoint = fj::tools::EndpointFromFlags(args.common);
      client_options.model = args.model;
      fj::net::EstimatorClient client(client_options);
      client.Connect();
      std::printf("fj_loadgen: connected to %s\n",
                  client_options.endpoint.ToString().c_str());
      fj::RemoteTarget target(&client, workload->db.TableNames());
      result = fj::RunOpenLoop(trace, workload->queries, &target);
    } else {
      fj::FactorJoinConfig config;
      config.num_bins = args.common.bins;
      fj::FactorJoinEstimator estimator(workload->db, config);
      std::printf("fj_loadgen: trained factorjoin in %.1f ms (in-process)\n",
                  estimator.TrainSeconds() * 1e3);
      fj::EstimatorServiceOptions service_options;
      service_options.num_threads = args.threads;
      service_options.cache_capacity = 1 << 18;
      fj::EstimatorService service(estimator, service_options);
      fj::InProcessTarget target(&workload->db, &estimator, &service);
      result = fj::RunOpenLoop(trace, workload->queries, &target);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fj_loadgen: %s\n", e.what());
    return 1;
  }

  std::printf(
      "fj_loadgen: %llu reads, %llu updates, %llu errors in %.2fs\n"
      "  offered %.0f req/s, achieved %.0f req/s\n"
      "  latency from scheduled arrival: p50 %.1f us, p99 %.1f us, "
      "p999 %.1f us, max %.0f us\n",
      static_cast<unsigned long long>(result.reads),
      static_cast<unsigned long long>(result.updates),
      static_cast<unsigned long long>(result.errors), result.wall_seconds,
      result.offered_qps, result.achieved_qps,
      result.latency.ValueAtQuantile(0.50),
      result.latency.ValueAtQuantile(0.99),
      result.latency.ValueAtQuantile(0.999),
      static_cast<double>(result.latency.max));

  fj::bench::AddLoadPoint(&report, "loadgen", result.offered_qps,
                          result.achieved_qps, result.latency);
  report.Add("loadgen_reads", static_cast<double>(result.reads));
  report.Add("loadgen_updates", static_cast<double>(result.updates));
  report.Add("loadgen_errors", static_cast<double>(result.errors));

  // Per-second series in the WindowSample shape of the server's
  // /metrics/history, so harness-side and server-side windows line up
  // one-to-one (both key on 1s windows; the harness keys on *scheduled*
  // arrival, charging queueing delay to the second that offered the load).
  report.Add("loadgen_windows", static_cast<double>(result.windows.size()));
  for (size_t i = 0; i < result.windows.size(); ++i) {
    const fj::obs::WindowSample& w = result.windows[i];
    std::string prefix = "loadgen_w" + std::to_string(i);
    report.Add(prefix + "_qps", w.Qps(), "1/s");
    report.Add(prefix + "_p50_us", w.p50_micros, "us");
    report.Add(prefix + "_p99_us", w.p99_micros, "us");
    report.Add(prefix + "_p999_us", w.p999_micros, "us");
  }
  report.Write();
  return result.errors == 0 ? 0 : 1;
}
