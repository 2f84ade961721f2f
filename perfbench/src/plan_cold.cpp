// plan-cold: every request goes to the estimator. IMDB-JOB stand-in with
// queries of up to 16 aliases, the sampling single-table model, an
// in-process service with its cache off, and closed-loop callers that each
// request every connected sub-plan of queries drawn in seeded shuffled
// rounds (each query once per round, so every run covers the same mix).
#include <bit>
#include <future>

#include "bench.h"
#include "obs/request_trace.h"
#include "util/hash.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.3;
constexpr size_t kCallers = 2;
constexpr size_t kWorkers = 2;
constexpr size_t kSetups = 31;
constexpr size_t kSlices = 8;
constexpr size_t kRounds = 400;
constexpr size_t kReplayRequests = 96;
constexpr size_t kQueueHops = 2000;
// Correctness sample: about one served request in 16, at most 48 per caller.
constexpr uint64_t kSampleEvery = 16;
constexpr size_t kSamplesPerCaller = 48;

using Estimates = std::unordered_map<uint64_t, double>;

fj::EstimatorServiceOptions ServiceOptions(bool tracing) {
  fj::EstimatorServiceOptions o;
  o.num_threads = kWorkers;
  o.cache_enabled = false;
  o.enable_tracing = tracing;
  return o;
}

/// One whole-query request through the callback API (the only one that
/// takes a trace sink), timed from submission to the caller's wake-up.
Estimates Request(fj::EstimatorService& svc, const fj::Query& q,
                  const std::vector<uint64_t>& masks,
                  std::shared_ptr<fj::obs::RequestTrace> sink,
                  int64_t* start_ns, int64_t* end_ns) {
  auto done = std::make_shared<std::promise<Estimates>>();
  std::future<Estimates> result = done->get_future();
  *start_ns = NowNs();
  svc.EstimateSubplansAsync(
      q, masks,
      [done](Estimates values, std::exception_ptr error) {
        if (error != nullptr) {
          done->set_exception(error);
        } else {
          done->set_value(std::move(values));
        }
      },
      std::move(sink));
  Estimates values = result.get();
  *end_ns = NowNs();
  return values;
}

struct Phase {
  LoopResult loop;
  fj::ServiceStats before, after;
};

/// Order-independent digest of a served batch: its size and the sum of a
/// hash of every (mask, value bits) pair. A correctness sample keeps only
/// this: holding the sampled batches themselves added about 2 MiB to the
/// measured peak RSS, a share that varied with the seed.
struct Digest {
  size_t size = 0;
  uint64_t sum = 0;
  bool operator==(const Digest&) const = default;
};

Digest DigestOf(const Estimates& values) {
  Digest d;
  d.size = values.size();
  for (const auto& [mask, value] : values) {
    d.sum += fj::Mix64(mask ^ fj::Mix64(std::bit_cast<uint64_t>(value)));
  }
  return d;
}

using Samples = std::vector<std::vector<std::pair<uint32_t, Digest>>>;

Phase RunPhase(fj::EstimatorService& svc, const fj::Workload& w,
               const std::vector<std::vector<uint64_t>>& masks,
               const std::vector<uint32_t>& stream, double seconds,
               uint64_t seed, SpanLog* spans, Samples* samples) {
  Phase p;
  p.before = svc.Stats();
  p.loop = RunClosedLoop(
      kCallers, seconds, stream, masks,
      [&](size_t caller, uint64_t ticket, uint32_t qi) {
        auto sink = spans != nullptr ? std::make_shared<fj::obs::RequestTrace>()
                                     : nullptr;
        int64_t start = 0, end = 0;
        Estimates values = Request(svc, w.queries[qi], masks[qi], sink, &start, &end);
        if (spans != nullptr) {
          using fj::obs::Stage;
          uint64_t root = spans->Root("request", start, end);
          spans->StageChildren(
              root, start,
              {{"service.queue_wait", sink->Get(Stage::kQueueWait)},
               {"service.cache_probe", sink->Get(Stage::kCacheProbe)},
               {"service.estimate", sink->Get(Stage::kEstimate)}});
        }
        CallOutcome out{values.size() == masks[qi].size(), UsBetween(start, end)};
        if (samples != nullptr &&
            (*samples)[caller].size() < kSamplesPerCaller &&
            fj::Mix64(seed ^ (ticket * 0x9E3779B97F4A7C15ULL)) % kSampleEvery == 0) {
          (*samples)[caller].emplace_back(qi, DigestOf(values));
        }
        return out;
      });
  p.after = svc.Stats();
  return p;
}

/// Served batches must be bit-identical to direct EstimateSubplans calls.
void CheckSamples(const Samples& samples, const fj::Workload& w,
                  const std::vector<std::vector<uint64_t>>& masks,
                  const fj::FactorJoinEstimator& est, Report* report,
                  uint64_t* failed) {
  std::unordered_map<uint32_t, Digest> direct;
  size_t checked = 0;
  for (const auto& per_caller : samples) {
    for (const auto& [qi, served] : per_caller) {
      auto it = direct.find(qi);
      if (it == direct.end()) {
        it = direct.emplace(qi, DigestOf(est.EstimateSubplans(w.queries[qi],
                                                             masks[qi])))
                 .first;
      }
      ++checked;
      if (!(served == it->second)) {
        ++*failed;
        report->Fail("plan-cold: query " + std::to_string(qi) +
                     ": served batch differs from direct EstimateSubplans (" +
                     std::to_string(served.size) + " vs " +
                     std::to_string(it->second.size) + " masks)");
      }
    }
  }
  report->Num("check.sampled_requests", static_cast<double>(checked));
  if (checked == 0) report->Fail("plan-cold: no served request was sampled");
}

}  // namespace

int RunPlanCold(const Args& args) {
  Report report(args, "plan-cold");
  HostProbe host;
  auto w = MakeImdbInputs();
  auto masks = AllSubplanMasks(w->queries);
  std::vector<uint32_t> stream =
      ShuffledRounds(args.seed, w->queries.size(), kRounds);
  RecordInputs(*w, masks, kScale, &report);
  report.Str("inputs.stream", "uniform: seeded shuffled rounds of all queries");
  report.Str("config.model", "factorjoin sampling (IMDB-JOB config)");
  report.Num("config.callers", kCallers);
  report.Num("config.workers", kWorkers);
  report.Str("config.cache", "off");
  report.Str("config.loop", "closed");
  // Built before the peak-RSS reset, so only its steady footprint counts.
  UpdateProbe probe;
  bool rss_reset = ResetPeakRss();

  // Set-up: train the model and start the service. The one that serves runs
  // first, right after the peak-RSS reset; the repeats that give setup_s
  // its median run after the peak is read, so their leftovers stay out of
  // it.
  std::vector<double> setup_s, train_s;
  auto set_up = [&] {
    int64_t start = NowNs();
    auto e = std::make_unique<fj::FactorJoinEstimator>(w->db, ImdbModelConfig(w->db));
    auto s = std::make_unique<fj::EstimatorService>(*e, ServiceOptions(false));
    setup_s.push_back(UsBetween(start, NowNs()) / 1e6);
    train_s.push_back(e->TrainSeconds());
    return std::make_pair(std::move(e), std::move(s));
  };
  auto [est, svc] = set_up();
  double model_bytes = static_cast<double>(est->ModelSizeBytes());

  // Untimed warm-up round: the sampling model memoizes per-sample bin codes
  // on first use.
  for (size_t qi = 0; qi < w->queries.size(); ++qi) {
    int64_t s = 0, e = 0;
    Request(*svc, w->queries[qi], masks[qi], nullptr, &s, &e);
  }

  Samples samples(kCallers);
  SpanLog spans;
  uint64_t attempted = 0, failed = 0;
  LoopResult measured;
  Phase traced_phase;
  double overhead = 0.0;
  // The timed window runs in slices, each followed by a block of the update
  // probe. A traced run alternates untraced and traced quarters on two
  // services over the one model, so host drift falls on both sides; the
  // traced service is idle between its quarters, so one Stats() delta
  // covers them.
  std::unique_ptr<fj::EstimatorService> traced;
  if (args.trace) {
    traced = std::make_unique<fj::EstimatorService>(*est, ServiceOptions(true));
  }
  const size_t slices = args.trace ? 4 : kSlices;
  for (size_t slice = 0; slice < slices; ++slice) {
    bool on = args.trace && slice % 2 == 1;
    Phase p = RunPhase(on ? *traced : *svc, *w, masks,
                       StreamFrom(stream, measured.attempted +
                                              traced_phase.loop.attempted),
                       args.seconds / static_cast<double>(slices), args.seed,
                       on ? &spans : nullptr, on ? nullptr : &samples);
    probe.Run(kProbeRounds / slices, args.trace ? &spans : nullptr);
    if (!on) {
      measured.Append(p.loop);
      continue;
    }
    if (slice == 1) traced_phase.before = p.before;
    traced_phase.after = p.after;
    traced_phase.loop.Append(p.loop);
  }
  if (args.trace) {
    attempted += traced_phase.loop.attempted;
    failed += traced_phase.loop.failed;
    overhead = Mean(traced_phase.loop.latency_us) / Mean(measured.latency_us) - 1.0;
  }
  attempted += measured.attempted;
  failed += measured.failed;
  if (failed != 0) report.Fail("plan-cold: requests failed");
  // The peak is read before the checks: their direct EstimateSubplans
  // calls allocate on this thread, and seed-chosen samples put the peak on
  // 65 or 81 MiB instead of the serving path's 54 MiB.
  double peak_rss = PeakRssMb();
  CheckSamples(samples, *w, masks, *est, &report, &failed);
  for (size_t i = 1; i < kSetups; ++i) set_up();

  if (!args.trace) {
    AddSetupMetric(setup_s, &report);
    report.Metric("throughput_qps", measured.Throughput(), "1/s");
    measured.RecordSeries(&report);
    AddLatencyMetrics(measured.latency_us, "whole-query request, submit to reply",
                      &report);
    AddAccuracyMetrics(w->db, w->queries, est.get(), &report);
  }
  UpdateSummary updates = probe.Finish(&report);
  attempted += updates.ops;

  if (!args.trace) {
    report.Metric("update_p50_us", updates.p50_us, "us");
    report.Metric("model_bytes", model_bytes, "bytes");
    report.Metric("peak_rss_mb", peak_rss, "MiB");
    report.Num("peak_rss.reset_ok", rss_reset ? 1 : 0);
    report.Num("outcome.cache_hit_frac", 0.0);
    host.Finish(&report, false);
    return report.Finish(attempted, failed);
  }

  // Traced run: layer replays on the stream's first requests, queue hops,
  // then the layer table and the reconciliation.
  std::vector<uint32_t> replay_queries(stream.begin(),
                                       stream.begin() + kReplayRequests);
  ReplayResult replay = ReplayLayers(w->db, w->queries, masks, replay_queries,
                                     *est, &spans);
  ReplayQueueHops(kQueueHops, &spans);
  auto layers = SummarizeLayers(spans.Snapshot());
  RecordLayerTable(layers, &report);

  const LoopResult& t = traced_phase.loop;
  double masks_per_request = t.MasksPerRequest();

  LayerMetrics lm;
  lm.FillFromSpans(layers);
  lm.FillFromUpdates(updates);
  lm.FillFromService(traced_phase.before, traced_phase.after, t.attempted);
  lm.masks_per_request = masks_per_request;
  lm.train_s = Quantile(train_s, 0.5);
  lm.net_bytes_per_request = replay.codec_bytes_per_request;
  lm.tracing_overhead_frac = overhead;
  lm.unattributed_frac = Reconcile(
      layers, Mean(t.latency_us),
      {{"service.queue_wait", 1.0},
       {"service.cache_probe", 1.0},
       {"factorjoin.leaves", 1.0},
       {"factorjoin.decompose", masks_per_request}},
      {{"service.estimate", LayerUs(layers, "service.estimate"),
        {"factorjoin.leaves", "factorjoin.decompose"}}},
      &report);
  lm.Emit(&report);
  host.Finish(&report, true);
  spans.WriteCsv(args.out_dir + "/plan-cold-seed" + std::to_string(args.seed) +
                 "-spans.csv");
  return report.Finish(attempted, failed);
}

}  // namespace perfbench
