#include "service/estimator_service.h"

#include <bit>
#include <stdexcept>
#include <utility>

#include "query/fingerprint.h"

namespace fj {
namespace {

// The table bitmap a cache entry covering `alias_mask` is tagged with: the
// OR of TableEpochRegistry::AliasBits over its aliases. Bits past the
// query's aliases select no table, as they select no alias.
uint64_t TableBitsOf(const std::vector<uint64_t>& alias_bits,
                     uint64_t alias_mask) {
  uint64_t bits = 0;
  for (uint64_t m = alias_mask; m != 0; m &= m - 1) {
    size_t i = static_cast<size_t>(std::countr_zero(m));
    if (i >= alias_bits.size()) break;
    bits |= alias_bits[i];
  }
  return bits;
}

}  // namespace

EstimatorService::EstimatorService(const CardinalityEstimator& estimator,
                                   EstimatorServiceOptions options)
    : estimator_(estimator),
      options_(options),
      cache_(options.cache_capacity, kCacheShards, &epochs_),
      queue_(options.queue_capacity),
      flight_(options.model_name, options.slow_request_micros) {
  size_t threads = options_.num_threads == 0 ? 1 : options_.num_threads;
  workers_.reserve(threads);
  worker_ids_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
    worker_ids_.push_back(workers_.back().get_id());
  }
}

EstimatorService::~EstimatorService() { Shutdown(); }

void EstimatorService::Shutdown() {
  queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void EstimatorService::Submit(std::unique_ptr<Request> req) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  if (!queue_.Push(std::move(req))) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    throw std::runtime_error("EstimatorService: submit after shutdown");
  }
}

void EstimatorService::ThrowIfWorkerThread(const char* what) const {
  std::thread::id self = std::this_thread::get_id();
  for (std::thread::id id : worker_ids_) {
    if (id == self) {
      throw std::logic_error(
          std::string("EstimatorService::") + what +
          " called from a service worker thread (e.g. inside a completion "
          "callback or a re-entrant estimator): the call would wait on the "
          "pool it is running on and deadlock a single-thread pool. Use the "
          "Async variants from workers, or move the blocking call off the "
          "service's threads.");
    }
  }
}

void EstimatorService::EstimateSubplansAsync(
    Query query, std::vector<uint64_t> masks, SubplansCallback done,
    std::shared_ptr<obs::RequestTrace> trace_sink) {
  auto req = std::make_unique<Request>();
  req->query = std::move(query);
  req->masks = std::move(masks);
  req->done = std::move(done);
  req->trace_sink = std::move(trace_sink);
  Submit(std::move(req));
}

std::future<std::unordered_map<uint64_t, double>>
EstimatorService::EstimateSubplansAsync(Query query,
                                        std::vector<uint64_t> masks) {
  auto promise =
      std::make_shared<std::promise<std::unordered_map<uint64_t, double>>>();
  auto result = promise->get_future();
  EstimateSubplansAsync(
      std::move(query), std::move(masks),
      [promise](std::unordered_map<uint64_t, double> values,
                std::exception_ptr error) {
        if (error != nullptr) {
          promise->set_exception(std::move(error));
        } else {
          promise->set_value(std::move(values));
        }
      });
  return result;
}

std::unordered_map<uint64_t, double> EstimatorService::EstimateSubplans(
    const Query& query, const std::vector<uint64_t>& masks) {
  ThrowIfWorkerThread("EstimateSubplans");
  return EstimateSubplansAsync(query, masks).get();
}

void EstimatorService::WorkerLoop() {
  while (auto req = queue_.Pop()) {
    Serve(**req);
    // The request counts as pending until after its completion ran, so
    // Drain() returning means every accepted future is ready.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(drain_mu_);
      drained_.notify_all();
    }
  }
}

void EstimatorService::Drain() {
  ThrowIfWorkerThread("Drain");
  std::unique_lock<std::mutex> lock(drain_mu_);
  drained_.wait(lock, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

std::unordered_map<uint64_t, double> EstimatorService::EstimateMisses(
    const Query& query, const std::vector<uint64_t>& miss_masks,
    obs::RequestTrace* trace) {
  // The estimate span covers the session's shared work (FactorJoin's leaf
  // factors) as well as the masks: from the request's perspective, all of
  // it is estimation.
  obs::SpanTimer span;
  std::unordered_map<uint64_t, double> out =
      estimator_.PrepareSubplans(query)->EstimateSubplans(miss_masks);
  span.Record(trace, obs::Stage::kEstimate);
  return out;
}

void EstimatorService::Serve(Request& req) {
  const bool tracing = options_.enable_tracing;
  // Spans are recorded straight into the request's sink (so pre-filled
  // stages like the net server's decode span survive) or a stack-local
  // trace when the caller didn't ask for one.
  obs::RequestTrace local_trace;
  obs::RequestTrace& trace =
      req.trace_sink != nullptr ? *req.trace_sink : local_trace;
  // Queue wait = time since submission, read as the worker picks the
  // request up (Serve runs right after the pop).
  trace.Add(obs::Stage::kQueueWait,
            static_cast<uint64_t>(req.submitted.Micros()));

  // Counters and latency are recorded BEFORE the completion runs so a
  // client that just resolved its future observes its own request in Stats().
  // The completion runs OUTSIDE the try block: estimation errors must flow
  // through the error argument, and a throwing callback must not re-enter
  // the error path and be invoked twice.
  std::unordered_map<uint64_t, double> result;
  std::exception_ptr error;
  try {
    result = ServeBatch(req.query, req.masks, tracing ? &trace : nullptr);
    subplan_requests_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    error = std::current_exception();
  }

  trace.total_micros = static_cast<uint64_t>(req.submitted.Micros());
  latency_.Record(trace.total_micros);
  if (tracing) {
    // Only the service-owned stages: a net-path sink arrives with decode
    // pre-filled, which belongs to the server's histograms, not ours.
    for (obs::Stage stage :
         {obs::Stage::kQueueWait, obs::Stage::kCacheProbe,
          obs::Stage::kEstimate}) {
      uint64_t micros = trace.Get(stage);
      if (micros != 0) {
        stage_hist_[static_cast<size_t>(stage)].Record(micros);
      }
    }
  }
  // The respond span (the completion callback) cannot be part of the
  // request's own trace/latency — it runs after both are sealed — so it
  // feeds only the aggregate stage histogram.
  if (tracing) {
    obs::SpanTimer respond;
    req.done(std::move(result), error);
    stage_hist_[static_cast<size_t>(obs::Stage::kRespond)].Record(
        respond.ElapsedMicros());
  } else {
    req.done(std::move(result), error);
  }
  // After the response went out: the recorder keeps every Nth request
  // plus every offender, and fingerprints only what it keeps.
  flight_.Record(req.query, req.masks.size(), trace);
}

uint64_t EstimatorService::NotifyUpdate(const std::string& table_name) {
  // The epoch registry bumps its global epoch exactly once per call, so the
  // epoch IS the notification count — no second counter that could drift
  // from it when a Stats() snapshot races a notification.
  return epochs_.NotifyUpdate(table_name);
}

void EstimatorService::InvalidateAll() { cache_.Clear(); }

std::unordered_map<uint64_t, double> EstimatorService::ServeBatch(
    const Query& query, const std::vector<uint64_t>& masks,
    obs::RequestTrace* trace) {
  if (!options_.cache_enabled) {
    std::unordered_map<uint64_t, double> out =
        EstimateMisses(query, masks, trace);
    subplans_estimated_.fetch_add(masks.size(), std::memory_order_relaxed);
    return out;
  }
  std::unordered_map<uint64_t, double> out;
  out.reserve(masks.size());

  // Resolve each sub-plan against the cache by its canonical fingerprint;
  // a sub-plan estimated under a *different* parent query still hits. The
  // cached value is canonical per fingerprint (first writer wins): because
  // the estimator's join-order tie-breaking follows the parent's alias bit
  // order, a hit from another parent can differ from what recomputing under
  // *this* parent would give — but every cached value is a valid bound
  // produced by the same trained model.
  // Snapshot the epoch BEFORE estimating: if an update lands while the
  // estimator runs, the entries inserted below are tagged with the
  // pre-update epoch and die on their next lookup instead of serving a
  // stale estimate forever.
  uint64_t epoch = epochs_.Epoch();
  // The cache-probe span covers the whole resolve loop: digesting the
  // query's parts once, then per mask summing them into its key (the
  // induced sub-query's Fingerprint(), without building that sub-query)
  // plus the sharded lookup.
  obs::SpanTimer probe_span;
  SubplanFingerprinter keys(query);
  std::vector<uint64_t> miss_masks;
  std::vector<QueryFingerprint> miss_fps;
  for (uint64_t mask : masks) {
    QueryFingerprint fp = keys.Of(mask);
    if (auto cached = cache_.Lookup(fp)) {
      out.emplace(mask, *cached);
    } else {
      miss_masks.push_back(mask);
      miss_fps.push_back(fp);
    }
  }
  probe_span.Record(trace, obs::Stage::kCacheProbe);

  // The misses go to the estimator together, in one session, so its shared
  // computation is preserved (FactorJoin estimates each leaf factor once for
  // the whole batch and each ancestor factor once for every mask that
  // needs it).
  if (!miss_masks.empty()) {
    std::unordered_map<uint64_t, double> fresh =
        EstimateMisses(query, miss_masks, trace);
    // Table bits per alias, resolved once per batch: the per-entry loop
    // below must stay free of registry locks and allocations (a batch can
    // carry ~10k masks).
    std::vector<uint64_t> alias_bits = epochs_.AliasBits(query);
    // Cache insertion is probe-side bookkeeping, not estimation: it counts
    // into the cache-probe stage together with the lookup loop above.
    obs::SpanTimer insert_span;
    uint64_t produced = 0;
    for (size_t i = 0; i < miss_masks.size(); ++i) {
      auto it = fresh.find(miss_masks[i]);
      if (it == fresh.end()) continue;  // estimator skipped the mask
      out.emplace(miss_masks[i], it->second);
      cache_.Insert(miss_fps[i], it->second,
                    TableBitsOf(alias_bits, miss_masks[i]), epoch);
      ++produced;
    }
    insert_span.Record(trace, obs::Stage::kCacheProbe);
    subplans_estimated_.fetch_add(produced, std::memory_order_relaxed);
  }
  return out;
}

ServiceStats EstimatorService::Stats() const {
  ServiceStats stats;
  stats.subplan_requests = subplan_requests_.load(std::memory_order_relaxed);
  stats.subplans_estimated =
      subplans_estimated_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.epoch = epochs_.Epoch();
  stats.pending_requests = pending_.load(std::memory_order_acquire);
  stats.queue_depth = queue_.Size();
  stats.slow_requests = flight_.logged();
  stats.slow_suppressed = flight_.suppressed();
  stats.flight_records = flight_.appended();
  stats.cache = cache_.Stats();
  stats.latency = latency_.Snapshot();
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    stats.stages[i] = stage_hist_[i].Snapshot();
  }
  stats.RefreshQuantiles();
  return stats;
}

}  // namespace fj
