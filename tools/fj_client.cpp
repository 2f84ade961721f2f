// fj_client: a second-process client for a running fj_server.
//
//   $ ./fj_client --port 9977 --workload imdb --verify
//   $ ./fj_client --port 9977 --model a --bins 32 --verify
//
// Rebuilds the server's (deterministic) workload locally, connects, and
// issues one pipelined EstimateSubplans batch per query — routed to
// --model NAME when given (a protocol-v2 model id; "" = the server's
// default model). With --verify it also trains the identical FactorJoin
// model locally, wraps it in an in-process EstimatorService, and asserts
// the remote values are bit-identical to the in-process ones — the
// cross-process acceptance check of the remote-estimation subsystem, and
// (run once per --load-model entry) of the snapshot save/load round trip.
// Exit code 0 only if every comparison matches.
//
// The workload/scale/queries/bins/seed flags (tools/workload_flags.h, the
// same parser fj_server uses) must match the addressed model's training
// flags.
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "factorjoin/estimator.h"
#include "net/client.h"
#include "obs/request_trace.h"
#include "query/subplan.h"
#include "service/estimator_service.h"
#include "util/timer.h"
#include "workload_flags.h"

namespace {

struct Args {
  fj::tools::WorkloadFlags common;
  bool verify = false;
  bool trace = false;        // issue one traced request, print the breakdown
  std::string model;         // routes every request to this server model
  std::string update_table;  // non-empty: also exercise NotifyUpdate
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [flags]\n%s"
               "  --model NAME            route requests to this server model\n"
               "                          (default: the server's default model)\n"
               "  --verify                train locally, require bit-identical estimates\n"
               "  --trace                 request a per-stage server trace and print it\n"
               "  --update TABLE          also issue a NotifyUpdate RPC\n",
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
    if (flag == "--verify") {
      args->verify = true;
    } else if (flag == "--trace") {
      args->trace = true;
    } else if (flag == "--model" && i + 1 < argc) {
      args->model = argv[++i];
    } else if (flag == "--update" && i + 1 < argc) {
      args->update_table = argv[++i];
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) return 2;

  auto workload = fj::tools::MakeFlaggedWorkload(args.common);
  std::vector<std::vector<uint64_t>> masks;
  size_t total_subplans = 0;
  for (const fj::Query& q : workload->queries) {
    masks.push_back(fj::EnumerateConnectedSubsets(q, 1));
    total_subplans += masks.back().size();
  }

  fj::net::EstimatorClientOptions options;
  options.endpoint = fj::tools::EndpointFromFlags(args.common);
  options.model = args.model;
  fj::net::EstimatorClient client(options);
  try {
    client.Connect();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fj_client: %s\n", e.what());
    return 1;
  }
  std::printf("fj_client: connected to %s (model: %s)\n",
              options.endpoint.ToString().c_str(),
              args.model.empty() ? "<default>" : args.model.c_str());

  // Pipeline: every batch in flight before the first response is awaited.
  fj::WallTimer timer;
  std::vector<std::future<std::unordered_map<uint64_t, double>>> futures;
  futures.reserve(workload->queries.size());
  for (size_t i = 0; i < workload->queries.size(); ++i) {
    futures.push_back(
        client.EstimateSubplansAsync(workload->queries[i], masks[i]));
  }
  std::vector<std::unordered_map<uint64_t, double>> remote;
  remote.reserve(futures.size());
  try {
    for (auto& f : futures) remote.push_back(f.get());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fj_client: request failed: %s\n", e.what());
    return 1;
  }
  double seconds = timer.Seconds();
  std::printf(
      "fj_client: %zu queries / %zu sub-plan estimates in %.1f ms "
      "(%.0f estimates/s, pipelined)\n",
      workload->queries.size(), total_subplans, seconds * 1e3,
      static_cast<double>(total_subplans) / seconds);
  if (!remote.empty() && !remote.front().empty()) {
    uint64_t full_mask = 0;
    for (uint64_t m : masks.front()) full_mask |= m;
    auto it = remote.front().find(full_mask);
    if (it != remote.front().end()) {
      std::printf("fj_client: first query full-join estimate: %.1f rows\n",
                  it->second);
    }
  }

  if (args.trace && !workload->queries.empty()) {
    // One traced request (protocol v3 want-trace flag): the response comes
    // back with the server-side stage breakdown attached.
    fj::net::EstimatorClient::TracedSubplans traced =
        client.EstimateSubplansTraced(workload->queries.front(),
                                      masks.front());
    if (!traced.has_trace) {
      std::printf(
          "fj_client: trace: server returned no trace (tracing disabled "
          "on the serving model)\n");
    } else {
      std::printf("fj_client: trace: remote request total=%lluus\n",
                  static_cast<unsigned long long>(traced.trace.total_micros));
      for (size_t i = 0; i < fj::obs::kNumStages; ++i) {
        uint64_t micros = traced.trace.stage_micros[i];
        if (micros == 0) continue;
        std::printf("fj_client: trace:   %-12s %8lluus\n",
                    fj::obs::StageName(static_cast<fj::obs::Stage>(i)),
                    static_cast<unsigned long long>(micros));
      }
    }
  }

  if (!args.update_table.empty()) {
    uint64_t epoch = client.NotifyUpdate(args.update_table);
    std::printf("fj_client: NotifyUpdate(%s) -> epoch %llu\n",
                args.update_table.c_str(),
                static_cast<unsigned long long>(epoch));
  }

  fj::ServiceStats stats = client.Stats();
  std::printf(
      "fj_client: server stats: subplan_requests=%llu "
      "subplans_estimated=%llu hit_rate=%.0f%% p50=%.1fus p99=%.1fus "
      "p999=%.1fus pending=%llu\n",
      static_cast<unsigned long long>(stats.subplan_requests),
      static_cast<unsigned long long>(stats.subplans_estimated),
      stats.cache.HitRate() * 100.0, stats.p50_micros, stats.p99_micros,
      stats.p999_micros,
      static_cast<unsigned long long>(stats.pending_requests));

  if (!args.verify) return 0;

  // --verify: train the same model locally (the generators and trainer are
  // deterministic) and demand bit-identical values from the remote path.
  std::printf("fj_client: verify: training local model...\n");
  fj::FactorJoinConfig config;
  config.num_bins = args.common.bins;
  fj::FactorJoinEstimator estimator(workload->db, config);
  fj::EstimatorService service(estimator, {});
  size_t mismatches = 0;
  size_t compared = 0;
  for (size_t i = 0; i < workload->queries.size(); ++i) {
    auto local = service.EstimateSubplans(workload->queries[i], masks[i]);
    for (uint64_t mask : masks[i]) {
      auto r = remote[i].find(mask);
      auto l = local.find(mask);
      if ((r == remote[i].end()) != (l == local.end())) {
        ++mismatches;
        continue;
      }
      if (r == remote[i].end()) continue;
      ++compared;
      if (r->second != l->second) {
        if (++mismatches <= 5) {
          std::fprintf(stderr,
                       "fj_client: MISMATCH query %zu mask %llx: "
                       "remote %.17g local %.17g\n",
                       i, static_cast<unsigned long long>(mask), r->second,
                       l->second);
        }
      }
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "fj_client: VERIFY FAILED: %zu mismatches\n",
                 mismatches);
    return 1;
  }
  std::printf(
      "fj_client: VERIFY OK: %zu remote sub-plan estimates bit-identical "
      "to in-process service\n",
      compared);
  return 0;
}
