// EstimatorService: a concurrent serving layer over any trained
// CardinalityEstimator.
//
//   clients ──► bounded MPMC queue ──► worker pool ──► sharded LRU cache
//                                            │              │ miss
//                                            └──────────────▼
//                                                  const CardinalityEstimator
//
// The service owns a fixed pool of worker threads consuming a bounded
// request queue (back-pressure: submitters block while the queue is full).
// Every request is one sub-plan batch: a query plus the alias masks of the
// sub-plans wanted, as an optimizer asks for them (query/subplan.h); a
// caller that wants one query's estimate sends a batch of its full alias
// mask. Every sub-plan is keyed by its canonical Query::Fingerprint and
// served from a sharded LRU cache when possible, so the ~10k sub-plan
// estimates an optimizer requests per IMDB-JOB query are computed once and
// shared across parent queries and across threads.
//
// The wrapped estimator is taken by const reference: estimation is const on
// CardinalityEstimator precisely so one trained model can be shared by the
// whole pool without locking.
//
// Data updates (versioned statistics): cache entries are tagged with the
// statistics epoch they were computed under and the set of base tables
// their sub-plan touches. After updating the estimator (ApplyInsert /
// ApplyDelete), call NotifyUpdate(table) — it bumps the epoch and lazily
// invalidates exactly the entries touching that table, preserving the hit
// rate of everything else. The full protocol and its consistency guarantees
// are documented in docs/ARCHITECTURE.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/latency_histogram.h"
#include "obs/request_trace.h"
#include "query/query.h"
#include "service/mpmc_queue.h"
#include "service/service_stats.h"
#include "service/sharded_cache.h"
#include "service/table_epochs.h"
#include "stats/cardinality_estimator.h"
#include "util/timer.h"

namespace fj {

struct EstimatorServiceOptions {
  /// Worker threads consuming the request queue.
  size_t num_threads = 4;
  /// Bounded request queue length; submitters block while it is full.
  size_t queue_capacity = 1024;
  /// Total cached sub-plan estimates across the cache's kCacheShards
  /// shards.
  size_t cache_capacity = 1 << 16;
  /// Disable to measure raw estimator throughput.
  bool cache_enabled = true;
  /// Per-request stage spans (obs/request_trace.h): queue wait, cache
  /// probe, estimate kernel, and respond times recorded into the per-stage
  /// histograms of ServiceStats::stages and into any per-request trace
  /// sink. A handful of monotonic-clock reads and histogram updates per
  /// request; the throughput cost is not pinned yet (forced on, it cost
  /// perfbench plan-cold 5.6% and 8.8% in two interleaved pairs on a 4-core
  /// shared host, and obs.tracing_overhead_frac cannot resolve 2%).
  /// Disabling leaves the end-to-end latency histogram intact but the stage
  /// histograms empty and trace sinks only partially filled (total + queue
  /// wait).
  bool enable_tracing = true;
  /// Offender threshold (microseconds): every request whose end-to-end
  /// latency reaches it is kept by the service's flight recorder and
  /// logged to stderr as one structured, rate-limited line (query
  /// fingerprint, model, stage breakdown — obs/flight_recorder.h). 0: no
  /// request is an offender.
  uint64_t slow_request_micros = 0;
  /// Model name stamped on slow-log lines, the flight dump and metrics
  /// labels; "" renders as "default". ModelRegistry::AddModel fills it with
  /// the registered name automatically.
  std::string model_name = {};
};

class EstimatorService {
 public:
  /// `estimator` must outlive the service and be fully trained; the service
  /// never mutates it. Starts the worker pool immediately.
  explicit EstimatorService(const CardinalityEstimator& estimator,
                            EstimatorServiceOptions options = {});

  /// Drains accepted requests, then joins the workers.
  ~EstimatorService();

  EstimatorService(const EstimatorService&) = delete;
  EstimatorService& operator=(const EstimatorService&) = delete;

  /// The completion callback, the one way every request completes (the
  /// future overload sets a promise inside one): exactly one of (values,
  /// error) is meaningful — `error` is nullptr on success. Callbacks run
  /// ON A WORKER THREAD right after the request is served; they must be
  /// quick, must not throw, and must not call the service's blocking APIs
  /// (EstimateSubplans/Drain — the worker-thread guard turns that deadlock
  /// into std::logic_error). This is the hook the remote front end
  /// (net/server.h) uses to write each response to its socket from the
  /// worker, in completion order, without parking a thread per outstanding
  /// future; that write blocks the worker only while its client has stopped
  /// reading.
  using SubplansCallback = std::function<void(
      std::unordered_map<uint64_t, double>, std::exception_ptr)>;

  /// Enqueues one batched request for the sub-plan `masks` of `query`
  /// (Query::tables() bit order, as in EnumerateConnectedSubsets; one
  /// query's own estimate is the batch {query.AllAliases()}). Cached
  /// sub-plans are reused; the misses go to the estimator in one session
  /// (PrepareSubplans) so progressive sharing (FactorJoin) is preserved.
  /// `done` runs on the serving worker once the batch has been served.
  /// Thread-safe; blocks while the queue is full; throws std::runtime_error
  /// after Shutdown() (and then never runs `done`). `trace_sink`, when
  /// non-null, receives the request's stage breakdown: the worker records
  /// its spans directly into it, and it is fully written by the time `done`
  /// runs (stages a caller pre-filled — e.g. the net server's decode span —
  /// are preserved). The sink must not be touched by the caller between
  /// submission and completion.
  void EstimateSubplansAsync(Query query, std::vector<uint64_t> masks,
                             SubplansCallback done,
                             std::shared_ptr<obs::RequestTrace> trace_sink =
                                 nullptr);

  /// Future adapter over the callback overload: the future resolves when a
  /// worker has served the request. Same blocking/shutdown behavior.
  std::future<std::unordered_map<uint64_t, double>> EstimateSubplansAsync(
      Query query, std::vector<uint64_t> masks);

  /// Blocking convenience wrapper around EstimateSubplansAsync. Throws
  /// std::logic_error when called from one of the service's own worker
  /// threads (it would deadlock a single-thread pool).
  std::unordered_map<uint64_t, double> EstimateSubplans(
      const Query& query, const std::vector<uint64_t>& masks);

  /// Blocks until every request accepted so far has been served (queued and
  /// in-flight alike). The quiesce primitive of the update protocol: stop
  /// submitting, Drain(), then mutate the estimator — the estimator's
  /// ApplyInsert/ApplyDelete require that no estimate runs concurrently,
  /// and workers touch the estimator only while serving. Thread-safe; does
  /// not reject or pause new submissions itself (that is the caller's side
  /// of the contract). Throws std::logic_error when called from a service
  /// worker thread (it would wait on itself).
  void Drain();

  /// Records a data update to `table_name` and returns the new statistics
  /// epoch. Call AFTER the estimator's ApplyInsert/ApplyDelete completed
  /// (with estimates quiesced around the mutation — see Drain()): cached
  /// entries touching the table are then lazily invalidated on their next
  /// lookup, while entries for disjoint sub-plans keep hitting — no global
  /// clear, no stop-the-world. Thread-safe; estimates served after
  /// NotifyUpdate returns are computed from the updated statistics (or from
  /// cache entries inserted after the update). See docs/ARCHITECTURE.md.
  uint64_t NotifyUpdate(const std::string& table_name);

  /// Current statistics epoch (number of NotifyUpdate calls so far).
  /// Thread-safe.
  uint64_t Epoch() const { return epochs_.Epoch(); }

  /// Stop-the-world fallback: drops every cached estimate regardless of the
  /// tables it touches. Prefer NotifyUpdate — kept for measuring what
  /// targeted invalidation buys (bench/service_updates.cpp) and for
  /// estimator swaps the epoch protocol cannot express. Thread-safe.
  void InvalidateAll();

  /// Rejects new requests, drains accepted ones, joins workers. Idempotent;
  /// also run by the destructor.
  void Shutdown();

  /// Point-in-time metrics snapshot (request counts, cache hit/invalidation
  /// counters, latency percentiles, current epoch). Thread-safe.
  ServiceStats Stats() const;

  const CardinalityEstimator& estimator() const { return estimator_; }
  const EstimatorServiceOptions& options() const { return options_; }

  /// The service's flight recorder: every obs::kFlightSampleEvery-th
  /// completed request plus every offender. Thread-safe to read.
  const obs::FlightRecorder& flight_recorder() const { return flight_; }

 private:
  struct Request {
    Query query;
    std::vector<uint64_t> masks;
    SubplansCallback done;
    // Per-request trace destination: the worker records spans straight
    // into it so pre-filled stages (net decode) survive.
    std::shared_ptr<obs::RequestTrace> trace_sink;
    WallTimer submitted;  // end-to-end latency starts at enqueue
  };

  void Submit(std::unique_ptr<Request> req);
  /// Throws std::logic_error when the calling thread is one of the
  /// service's workers; `what` names the offending API in the message.
  void ThrowIfWorkerThread(const char* what) const;
  void WorkerLoop();
  /// The one path of a request: serves the batch (counted into
  /// subplan_requests_, or errors_ when it throws), seals the trace (total
  /// + stage histograms), records end-to-end latency, runs `req.done`
  /// (timed as the respond stage), and then offers the request to the
  /// flight recorder.
  void Serve(Request& req);
  /// `trace` may be null (tracing disabled); when set, cache-probe and
  /// estimate-kernel spans are added to it.
  std::unordered_map<uint64_t, double> ServeBatch(
      const Query& query, const std::vector<uint64_t>& masks,
      obs::RequestTrace* trace);
  /// Estimates the cache-missed masks of a batch in one estimator session
  /// and records the estimate stage.
  std::unordered_map<uint64_t, double> EstimateMisses(
      const Query& query, const std::vector<uint64_t>& miss_masks,
      obs::RequestTrace* trace);

  const CardinalityEstimator& estimator_;
  const EstimatorServiceOptions options_;
  TableEpochRegistry epochs_;  // must outlive cache_ (cache_ reads it)
  ShardedEstimateCache cache_;
  MpmcQueue<std::unique_ptr<Request>> queue_;
  std::vector<std::thread> workers_;
  // Immutable after construction; read by the worker-thread guard.
  std::vector<std::thread::id> worker_ids_;

  // Requests accepted but not yet served (queued + in-flight); Drain()
  // waits for it to reach zero.
  std::atomic<uint64_t> pending_{0};
  std::mutex drain_mu_;
  std::condition_variable drained_;

  // End-to-end latency (always recorded) and per-stage breakdowns
  // (recorded while options_.enable_tracing); lock-free on the worker path.
  obs::LatencyHistogram latency_;
  std::array<obs::LatencyHistogram, obs::kNumStages> stage_hist_;
  obs::FlightRecorder flight_;
  std::atomic<uint64_t> subplan_requests_{0};
  std::atomic<uint64_t> subplans_estimated_{0};
  std::atomic<uint64_t> errors_{0};
};

}  // namespace fj
