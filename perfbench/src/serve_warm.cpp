// serve-warm: the IMDB-JOB stand-in of plan-cold (same queries and model)
// served over loopback TCP by an in-process EstimatorServer. The cache is
// filled during set-up and holds every sub-plan, so a request's work is
// fingerprinting, cache lookups, the queue, the frame codec and sockets.
// One closed-loop caller on one EstimatorClient connection draws query
// templates from a seeded zipf stream (template 0 hottest).
#include <atomic>
#include <mutex>

#include "bench.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/request_trace.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.3;
constexpr double kTheta = 0.99;
// One connection and one worker: a request crosses five threads (caller,
// server reader, worker, writer, client receiver), one at a time, so the
// path never needs more than one of the host's cores. With two of each,
// ten threads shared four cores, and the peak RSS depended on whether two
// large requests overlapped (52.8 or 59.8 MiB).
constexpr size_t kConnections = 1;
constexpr size_t kWorkers = 1;
constexpr size_t kSetups = 9;
constexpr size_t kSlices = 8;
constexpr size_t kStreamBlocks = 200;
constexpr size_t kReplayRequests = 96;
constexpr size_t kQueueHops = 2000;

using Estimates = std::unordered_map<uint64_t, double>;

/// Service, server and connected clients: what a set-up builds.
struct Stack {
  std::unique_ptr<fj::FactorJoinEstimator> owned_est;
  fj::FactorJoinEstimator* est = nullptr;
  std::unique_ptr<fj::EstimatorService> svc;
  std::unique_ptr<fj::net::EstimatorServer> server;
  std::vector<std::unique_ptr<fj::net::EstimatorClient>> clients;

  ~Stack() {
    clients.clear();
    if (server) server->Stop();
  }
};

/// Trains a model unless `shared` is given, then starts the service, the
/// server and the client connections, and warms the cache.
std::unique_ptr<Stack> BuildStack(const fj::Workload& w,
                                  const std::vector<std::vector<uint64_t>>& masks,
                                  bool tracing,
                                  fj::FactorJoinEstimator* shared) {
  auto stack = std::make_unique<Stack>();
  if (shared == nullptr) {
    stack->owned_est =
        std::make_unique<fj::FactorJoinEstimator>(w.db, ImdbModelConfig(w.db));
    shared = stack->owned_est.get();
  }
  stack->est = shared;
  fj::EstimatorServiceOptions so;
  so.num_threads = kWorkers;
  so.cache_enabled = true;
  so.enable_tracing = tracing;
  stack->svc = std::make_unique<fj::EstimatorService>(*stack->est, so);
  fj::net::EstimatorServerOptions no;
  no.endpoint.host = "127.0.0.1";
  no.endpoint.port = 0;
  stack->server = std::make_unique<fj::net::EstimatorServer>(*stack->svc, no);
  stack->server->Start();
  for (size_t c = 0; c < kConnections; ++c) {
    fj::net::EstimatorClientOptions co;
    co.endpoint.host = "127.0.0.1";
    co.endpoint.port = stack->server->port();
    stack->clients.push_back(std::make_unique<fj::net::EstimatorClient>(co));
    stack->clients.back()->Connect();
  }
  WarmCache(*stack->svc, w, masks);
  return stack;
}

struct Phase {
  LoopResult loop;
  fj::ServiceStats before, after;
  fj::net::ServerStats server_before, server_after;
  std::vector<double> round_trip_us;  // traced: client time - server time
};

Phase RunPhase(Stack& stack, const fj::Workload& w,
               const std::vector<std::vector<uint64_t>>& masks,
               const std::vector<uint32_t>& stream,
               const std::vector<Estimates>& reference, double seconds,
               SpanLog* spans, Report* report) {
  Phase p;
  p.before = stack.svc->Stats();
  p.server_before = stack.server->Stats();
  std::vector<std::vector<double>> round_trip(kConnections);
  std::atomic<uint64_t> mismatched{0};
  std::mutex fail_mu;
  std::string first_failure;
  p.loop = RunClosedLoop(
      kConnections, seconds, stream, masks,
      [&](size_t caller, uint64_t, uint32_t qi) {
        fj::net::EstimatorClient& client = *stack.clients[caller];
        const fj::Query& q = w.queries[qi];
        Estimates values;
        int64_t start = NowNs();
        if (spans == nullptr) {
          values = client.EstimateSubplans(q, masks[qi]);
        } else {
          auto traced = client.EstimateSubplansTraced(q, masks[qi]);
          values = std::move(traced.estimates);
          int64_t end = NowNs();
          using fj::obs::Stage;
          const fj::obs::RequestTrace& tr = traced.trace;
          double decode = tr.Get(Stage::kDecode);
          double encode = tr.Get(Stage::kEncode);
          double server_us = static_cast<double>(tr.total_micros) + decode + encode;
          double rt = UsBetween(start, end) - server_us;
          round_trip[caller].push_back(rt);
          uint64_t root = spans->Root("request", start, end);
          double queued = tr.Get(Stage::kQueueWait);
          double probe = tr.Get(Stage::kCacheProbe);
          double estimate = tr.Get(Stage::kEstimate);
          // Service time the stages do not cover (dispatch to callback).
          double service_rest = static_cast<double>(tr.total_micros) - queued -
                                probe - estimate;
          spans->StageChildren(root, start,
                               {{"net.decode", decode},
                                {"service.queue_wait", queued},
                                {"service.cache_probe", probe},
                                {"service.estimate", estimate},
                                {"service.unstaged", std::max(service_rest, 0.0)},
                                {"net.encode", encode},
                                {"net.round_trip", std::max(rt, 0.0)}});
        }
        int64_t end = NowNs();
        size_t bad = EstimateMismatches(values, reference[qi]);
        if (bad != 0) {
          mismatched.fetch_add(1);
          std::lock_guard<std::mutex> lock(fail_mu);
          if (first_failure.empty()) {
            first_failure = "serve-warm: query " + std::to_string(qi) + ": " +
                            std::to_string(bad) +
                            " TCP estimates differ from the in-process service";
          }
        }
        return CallOutcome{bad == 0, UsBetween(start, end)};
      });
  p.after = stack.svc->Stats();
  p.server_after = stack.server->Stats();
  for (const auto& r : round_trip) {
    p.round_trip_us.insert(p.round_trip_us.end(), r.begin(), r.end());
  }
  if (mismatched.load() != 0) {
    report->Fail(first_failure + " (" + std::to_string(mismatched.load()) +
                 " responses in all)");
  }
  return p;
}

/// Folds one slice of the timed window into its side (untraced or
/// traced). Each stack is idle while the other runs, so the first slice's
/// "before" and the last slice's "after" snapshots bound exactly that
/// side's slices.
void MergeSlice(Phase* side, const Phase& slice, bool first) {
  if (first) {
    side->before = slice.before;
    side->server_before = slice.server_before;
  }
  side->after = slice.after;
  side->server_after = slice.server_after;
  side->loop.Append(slice.loop);
  side->round_trip_us.insert(side->round_trip_us.end(),
                             slice.round_trip_us.begin(),
                             slice.round_trip_us.end());
}

}  // namespace

int RunServeWarm(const Args& args) {
  Report report(args, "serve-warm");
  HostProbe host;
  auto w = MakeImdbInputs();
  auto masks = AllSubplanMasks(w->queries);
  std::vector<uint32_t> stream =
      ZipfStream(args.seed, w->queries.size(), kTheta, kStreamBlocks);
  RecordInputs(*w, masks, kScale, &report);
  report.Str("inputs.stream",
             "zipf over query templates, template 0 hottest, in shuffled "
             "blocks of 250 with a fixed mix");
  report.Num("inputs.theta", kTheta);
  report.Str("config.model", "factorjoin sampling (IMDB-JOB config)");
  report.Num("config.connections", kConnections);
  report.Num("config.callers", kConnections);
  report.Num("config.workers", kWorkers);
  report.Str("config.cache", "on, filled during set-up (65536 entries)");
  report.Str("config.loop", "closed, loopback TCP");
  // Built before the peak-RSS reset, so only its steady footprint counts.
  UpdateProbe probe;
  bool rss_reset = ResetPeakRss();

  // Set-up: train, start service and server, connect, fill the cache. The
  // one that serves runs first, right after the peak-RSS reset; the repeats
  // that give setup_s its median run after the peak is read, so their
  // leftovers stay out of it.
  std::vector<double> setup_s, train_s;
  auto set_up = [&] {
    int64_t start = NowNs();
    std::unique_ptr<Stack> built =
        BuildStack(*w, masks, /*tracing=*/false, nullptr);
    setup_s.push_back(UsBetween(start, NowNs()) / 1e6);
    train_s.push_back(built->est->TrainSeconds());
    return built;
  };
  std::unique_ptr<Stack> stack = set_up();
  double model_bytes = static_cast<double>(stack->est->ModelSizeBytes());
  report.Num("outcome.cache_entries", static_cast<double>(stack->svc->Stats().cache.entries));

  // What the in-process service answers for each request: the values the
  // TCP responses must carry, bit for bit.
  std::vector<Estimates> reference;
  for (size_t qi = 0; qi < w->queries.size(); ++qi) {
    reference.push_back(stack->svc->EstimateSubplans(w->queries[qi], masks[qi]));
  }

  SpanLog spans;
  Phase measured, traced;
  std::unique_ptr<Stack> traced_stack;
  // The timed window runs in slices, each followed by a block of the update
  // probe. A traced run uses a second stack with tracing on, over the same
  // trained model, and alternates untraced and traced quarters so host
  // drift falls on both sides.
  if (args.trace) {
    traced_stack = BuildStack(*w, masks, /*tracing=*/true, stack->est);
  }
  const size_t slices = args.trace ? 4 : kSlices;
  for (size_t slice = 0; slice < slices; ++slice) {
    bool on = args.trace && slice % 2 == 1;
    Phase p = RunPhase(on ? *traced_stack : *stack, *w, masks,
                       StreamFrom(stream, measured.loop.attempted +
                                              traced.loop.attempted),
                       reference, args.seconds / static_cast<double>(slices),
                       on ? &spans : nullptr, &report);
    probe.Run(kProbeRounds / slices, args.trace ? &spans : nullptr);
    MergeSlice(on ? &traced : &measured, p, slice == (on ? 1u : 0u));
  }
  uint64_t attempted = measured.loop.attempted + traced.loop.attempted;
  uint64_t failed = measured.loop.failed + traced.loop.failed;
  fj::FactorJoinEstimator* est = stack->est;
  if (failed != 0) report.Fail("serve-warm: requests failed or mismatched");
  double hits = static_cast<double>(measured.after.cache.hits - measured.before.cache.hits);
  double lookups = hits + static_cast<double>(measured.after.cache.misses -
                                              measured.before.cache.misses);
  report.Num("outcome.cache_hit_frac", lookups > 0 ? hits / lookups : 0.0);
  double peak_rss = PeakRssMb();
  for (size_t i = 1; i < kSetups; ++i) set_up();

  if (!args.trace) {
    AddSetupMetric(setup_s, &report);
    report.Metric("throughput_qps", measured.loop.Throughput(), "1/s");
    measured.loop.RecordSeries(&report);
    AddLatencyMetrics(measured.loop.latency_us,
                      "whole-query request over TCP, client call to reply",
                      &report);
    AddAccuracyMetrics(w->db, w->queries, est, &report);
  }
  UpdateSummary updates = probe.Finish(&report);
  attempted += updates.ops;

  if (!args.trace) {
    report.Metric("update_p50_us", updates.p50_us, "us");
    report.Metric("model_bytes", model_bytes, "bytes");
    report.Metric("peak_rss_mb", peak_rss, "MiB");
    report.Num("peak_rss.reset_ok", rss_reset ? 1 : 0);
    host.Finish(&report, false);
    return report.Finish(attempted, failed);
  }

  std::vector<uint32_t> replay_queries(stream.begin(),
                                       stream.begin() + kReplayRequests);
  ReplayResult replay = ReplayLayers(w->db, w->queries, masks, replay_queries,
                                     *est, &spans);
  report.Num("replay.requests", static_cast<double>(replay.requests));
  ReplayQueueHops(kQueueHops, &spans);
  auto layers = SummarizeLayers(spans.Snapshot());
  RecordLayerTable(layers, &report);

  const LoopResult& t = traced.loop;
  double masks_per_request = t.MasksPerRequest();

  LayerMetrics lm;
  lm.FillFromSpans(layers);
  lm.FillFromUpdates(updates);
  lm.FillFromService(traced.before, traced.after, t.attempted);
  lm.masks_per_request = masks_per_request;
  lm.train_s = Quantile(train_s, 0.5);
  using fj::obs::Stage;
  auto server_stage = [&](Stage s) {
    size_t i = static_cast<size_t>(s);
    return StageUsPerRequest(traced.server_before.stages[i],
                             traced.server_after.stages[i], t.attempted);
  };
  lm.net_decode_us = server_stage(Stage::kDecode);
  lm.net_encode_us = server_stage(Stage::kEncode);
  lm.net_socket_write_us = server_stage(Stage::kSocketWrite);
  double bytes = static_cast<double>(
      (traced.server_after.bytes_received - traced.server_before.bytes_received) +
      (traced.server_after.bytes_sent - traced.server_before.bytes_sent));
  lm.net_bytes_per_request =
      t.attempted == 0 ? 0.0 : bytes / static_cast<double>(t.attempted);
  lm.net_round_trip_us = Mean(traced.round_trip_us);
  lm.tracing_overhead_frac =
      Mean(t.latency_us) / Mean(measured.loop.latency_us) - 1.0;
  lm.unattributed_frac = Reconcile(
      layers, Mean(t.latency_us),
      {{"net.round_trip", 1.0},
       {"net.decode", 1.0},
       {"service.queue_wait", 1.0},
       {"query.fingerprint", masks_per_request},
       {"service.cache_lookup", masks_per_request},
       {"service.estimate", 1.0},
       {"service.unstaged", 1.0},
       {"net.encode", 1.0}},
      {{"service.cache_probe", LayerUs(layers, "service.cache_probe"),
        {"query.fingerprint", "service.cache_lookup"}}},
      &report);
  lm.Emit(&report);
  host.Finish(&report, true);
  spans.WriteCsv(args.out_dir + "/serve-warm-seed" + std::to_string(args.seed) +
                 "-spans.csv");
  return report.Finish(attempted, failed);
}

}  // namespace perfbench
