#include "service/estimator_service.h"

#include <bit>
#include <stdexcept>
#include <utility>

#include "query/fingerprint.h"

namespace fj {
namespace {

// Single-query and batched estimates live in separate cache namespaces:
// FactorJoin's Estimate (greedy smallest-leaf order) and EstimateSubplans
// (progressive split-off order) are both valid bounds but can differ for the
// same sub-plan, so sharing one namespace would make a served value depend
// on which API populated it first.
QueryFingerprint BatchKey(const QueryFingerprint& fp) {
  return {Mix64(fp.lo ^ 0xb4793d1a2c5e6f07ULL),
          Mix64(fp.hi ^ 0x167f3ac2d4b59e81ULL)};
}

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

// The completion that adapts a callback overload to a future: it sets the
// promise the caller's future reads.
template <typename T>
auto Fulfill(std::shared_ptr<std::promise<T>> promise) {
  return [promise = std::move(promise)](T value, std::exception_ptr error) {
    if (error != nullptr) {
      promise->set_exception(std::move(error));
    } else {
      promise->set_value(std::move(value));
    }
  };
}

}  // namespace

EstimatorService::EstimatorService(const CardinalityEstimator& estimator,
                                   EstimatorServiceOptions options)
    : estimator_(estimator),
      options_(options),
      cache_(options.cache_capacity, options.cache_shards, &epochs_),
      queue_(options.queue_capacity),
      slow_log_(options.slow_request_micros, options.slow_log_sink,
                options.model_name) {
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

void EstimatorService::EstimateAsync(
    Query query, EstimateCallback done,
    std::shared_ptr<obs::RequestTrace> trace_sink) {
  auto req = std::make_unique<Request>();
  req->query = std::move(query);
  req->single_cb = std::move(done);
  req->trace_sink = std::move(trace_sink);
  Submit(std::move(req));
}

std::future<double> EstimatorService::EstimateAsync(Query query) {
  auto promise = std::make_shared<std::promise<double>>();
  std::future<double> result = promise->get_future();
  EstimateAsync(std::move(query), Fulfill(std::move(promise)));
  return result;
}

double EstimatorService::Estimate(const Query& query) {
  ThrowIfWorkerThread("Estimate");
  return EstimateAsync(query).get();
}

void EstimatorService::EstimateSubplansAsync(
    Query query, std::vector<uint64_t> masks, SubplansCallback done,
    std::shared_ptr<obs::RequestTrace> trace_sink) {
  auto req = std::make_unique<Request>();
  req->query = std::move(query);
  req->masks = std::move(masks);
  req->batched = true;
  req->batch_cb = std::move(done);
  req->trace_sink = std::move(trace_sink);
  Submit(std::move(req));
}

std::future<std::unordered_map<uint64_t, double>>
EstimatorService::EstimateSubplansAsync(Query query,
                                        std::vector<uint64_t> masks) {
  auto promise =
      std::make_shared<std::promise<std::unordered_map<uint64_t, double>>>();
  auto result = promise->get_future();
  EstimateSubplansAsync(std::move(query), std::move(masks),
                        Fulfill(std::move(promise)));
  return result;
}

std::unordered_map<uint64_t, double> EstimatorService::EstimateSubplans(
    const Query& query, const std::vector<uint64_t>& masks) {
  ThrowIfWorkerThread("EstimateSubplans");
  return EstimateSubplansAsync(query, masks).get();
}

void EstimatorService::WorkerLoop() {
  while (auto req = queue_.Pop()) {
    // Internal split helpers are not client requests: they never counted
    // into pending_, so they must not decrement it either.
    bool helper = (*req)->split != nullptr;
    Serve(**req);
    // The request counts as pending until after its completion ran, so
    // Drain() returning means every accepted future is ready.
    if (!helper &&
        pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
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

void EstimatorService::SplitJob::RunChunks() {
  for (;;) {
    size_t i = next.fetch_add(1, std::memory_order_acq_rel);
    if (i >= chunks.size()) return;
    try {
      results[i] = session->EstimateSubplans(chunks[i]);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks.size()) {
      std::lock_guard<std::mutex> lock(mu);
      finished.notify_all();
    }
  }
}

void EstimatorService::SplitJob::Wait() {
  std::unique_lock<std::mutex> lock(mu);
  finished.wait(lock, [&] {
    return done.load(std::memory_order_acquire) == chunks.size();
  });
}

std::unordered_map<uint64_t, double> EstimatorService::EstimateMisses(
    const Query& query, const std::vector<uint64_t>& miss_masks,
    obs::RequestTrace* trace) {
  // A miss set at the threshold is split into up to one chunk per worker,
  // sized from half the threshold up; a smaller set, or a single-worker
  // pool, runs as one chunk.
  size_t threshold = options_.split_batch_min_masks;
  size_t num_chunks = 1;
  if (threshold != 0 && miss_masks.size() >= threshold) {
    size_t chunk_target = std::max<size_t>(threshold / 2, 1);
    num_chunks = std::min(workers_.size(), miss_masks.size() / chunk_target);
  }
  // The estimate span covers the session's shared work (FactorJoin's leaf
  // factors) and every chunk, including time spent waiting for helper
  // chunks — from the request's perspective, all of it is estimation.
  obs::SpanTimer span;
  std::unique_ptr<CardinalityEstimator::SubplanSession> session =
      estimator_.PrepareSubplans(query);
  std::unordered_map<uint64_t, double> out =
      num_chunks < 2 ? session->EstimateSubplans(miss_masks)
                     : EstimateSplit(*session, miss_masks, num_chunks);
  span.Record(trace, obs::Stage::kEstimate);
  return out;
}

std::unordered_map<uint64_t, double> EstimatorService::EstimateSplit(
    const CardinalityEstimator::SubplanSession& session,
    const std::vector<uint64_t>& miss_masks, size_t num_chunks) {
  auto job = std::make_shared<SplitJob>();
  job->session = &session;
  job->chunks.resize(num_chunks);
  job->results.resize(num_chunks);
  job->errors.resize(num_chunks);
  size_t per_chunk = (miss_masks.size() + num_chunks - 1) / num_chunks;
  for (size_t c = 0; c < num_chunks; ++c) {
    // Clamp both ends: with ceil-divided chunk sizes the last chunks can
    // start past the end (e.g. 5 miss_masks over 4 chunks of 2) and simply come
    // out empty.
    size_t begin = std::min(c * per_chunk, miss_masks.size());
    size_t end = std::min(begin + per_chunk, miss_masks.size());
    job->chunks[c].assign(miss_masks.begin() + static_cast<long>(begin),
                          miss_masks.begin() + static_cast<long>(end));
  }
  batches_split_.fetch_add(1, std::memory_order_relaxed);
  split_chunks_.fetch_add(num_chunks, std::memory_order_relaxed);

  // Offer helper tasks to idle workers — best effort (TryPush): if the
  // queue is full or closed, the serving worker simply runs those chunks
  // itself, so splitting can never block or deadlock. Helpers are NOT
  // counted in pending_: the gauge (and Drain) tracks client requests, and
  // the parent request stays pending until every chunk finished — once all
  // parents are served, leftover helpers are claim-nothing no-ops.
  for (size_t h = 0; h + 1 < num_chunks; ++h) {
    auto helper = std::make_unique<Request>();
    helper->split = job;
    if (!queue_.TryPush(std::move(helper))) break;
  }
  job->RunChunks();
  job->Wait();

  std::unordered_map<uint64_t, double> merged;
  merged.reserve(miss_masks.size());
  for (size_t c = 0; c < num_chunks; ++c) {
    if (job->errors[c] != nullptr) std::rethrow_exception(job->errors[c]);
    merged.merge(job->results[c]);
  }
  return merged;
}

void EstimatorService::Serve(Request& req) {
  if (req.split != nullptr) {
    // Batch-split helper: join the job's work-claiming loop. Completion
    // bookkeeping (callback/stats) belongs to the serving worker of the
    // parent request.
    req.split->RunChunks();
    return;
  }
  if (req.batched) {
    ServeAndComplete(
        req, "subplans", req.masks.size(), subplan_requests_,
        [&](obs::RequestTrace* trace) {
          return ServeBatch(req.query, req.masks, trace);
        },
        req.batch_cb);
  } else {
    ServeAndComplete(
        req, "estimate", 0, requests_,
        [&](obs::RequestTrace* trace) { return ServeSingle(req.query, trace); },
        req.single_cb);
  }
}

template <typename ServeFn, typename Callback>
void EstimatorService::ServeAndComplete(Request& req, const char* kind,
                                        size_t masks,
                                        std::atomic<uint64_t>& served,
                                        const ServeFn& serve,
                                        const Callback& done) {
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
  decltype(serve(nullptr)) result{};
  std::exception_ptr error;
  try {
    result = serve(tracing ? &trace : nullptr);
    served.fetch_add(1, std::memory_order_relaxed);
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
    done(std::move(result), error);
    stage_hist_[static_cast<size_t>(obs::Stage::kRespond)].Record(
        respond.ElapsedMicros());
  } else {
    done(std::move(result), error);
  }
  bool slow = slow_log_.enabled() &&
              trace.total_micros >= slow_log_.threshold_micros();
  uint64_t finished = finished_.fetch_add(1, std::memory_order_relaxed);
  // The flight recorder keeps every Nth request plus every slow-log
  // offender: the sampled stream keeps the recent ring representative, the
  // offenders make sure the requests worth dumping are never sampled away.
  bool record = options_.flight_recorder != nullptr &&
                (slow || finished % obs::kFlightSampleEvery == 0);
  if (!slow && !record) return;
  // Fingerprinted once, and only for requests that are logged or recorded;
  // never on the fast path.
  QueryFingerprint fp = req.query.Fingerprint();
  if (slow) slow_log_.MaybeLog(kind, fp, masks, trace);
  if (record) {
    options_.flight_recorder->Append(kind, fp, masks,
                                     options_.model_name.c_str(), trace);
  }
}

uint64_t EstimatorService::NotifyUpdate(const std::string& table_name) {
  // The epoch registry bumps its global epoch exactly once per call, so the
  // epoch IS the notification count — no second counter that could drift
  // from it when a Stats() snapshot races a notification.
  return epochs_.NotifyUpdate(table_name);
}

void EstimatorService::InvalidateAll() { cache_.Clear(); }

double EstimatorService::ServeSingle(const Query& query,
                                     obs::RequestTrace* trace) {
  auto timed_estimate = [&] {
    obs::SpanTimer span;
    double estimate = estimator_.Estimate(query);
    span.Record(trace, obs::Stage::kEstimate);
    return estimate;
  };
  if (!options_.cache_enabled) return timed_estimate();
  obs::SpanTimer probe_span;
  QueryFingerprint fp = query.Fingerprint();
  auto cached = cache_.Lookup(fp);
  probe_span.Record(trace, obs::Stage::kCacheProbe);
  if (cached) return *cached;
  // Snapshot the epoch BEFORE computing: if an update lands while the
  // estimator runs, the inserted entry is tagged with the pre-update epoch
  // and dies on its next lookup instead of serving a stale estimate forever.
  uint64_t epoch = epochs_.Epoch();
  uint64_t table_bits = TableBitsOf(epochs_.AliasBits(query), ~uint64_t{0});
  double estimate = timed_estimate();
  obs::SpanTimer insert_span;
  cache_.Insert(fp, estimate, table_bits, epoch);
  insert_span.Record(trace, obs::Stage::kCacheProbe);
  return estimate;
}

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
  // Epoch snapshot before any estimation (see ServeSingle): entries
  // inserted below are invalidated by any update racing this batch.
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
    QueryFingerprint fp = BatchKey(keys.Of(mask));
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
  // the whole batch); EstimateMisses splits a large miss set into
  // per-worker chunks of that one session.
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
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.subplan_requests = subplan_requests_.load(std::memory_order_relaxed);
  stats.subplans_estimated =
      subplans_estimated_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.batches_split = batches_split_.load(std::memory_order_relaxed);
  stats.split_chunks = split_chunks_.load(std::memory_order_relaxed);
  stats.epoch = epochs_.Epoch();
  stats.pending_requests = pending_.load(std::memory_order_acquire);
  stats.queue_depth = queue_.Size();
  stats.slow_requests = slow_log_.logged();
  stats.slow_suppressed = slow_log_.suppressed();
  stats.cache = cache_.Stats();
  stats.latency = latency_.Snapshot();
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    stats.stages[i] = stage_hist_[i].Snapshot();
  }
  stats.RefreshQuantiles();
  return stats;
}

}  // namespace fj
