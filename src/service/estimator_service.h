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
// Every estimate is keyed by the canonical Query::Fingerprint and served
// from a sharded LRU cache when possible, so the ~10k sub-plan estimates an
// optimizer requests per IMDB-JOB query (see query/subplan.h) are computed
// once and shared across parent queries and across threads. Single-query
// and batched estimates use disjoint cache namespaces because an
// estimator's two code paths may compute different (equally valid) bounds
// for the same sub-plan; within each namespace a request interleaving can
// never change which API's value is served.
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
#include <cstdio>
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
#include "obs/slow_log.h"
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
  /// Total cached sub-plan estimates across all shards.
  size_t cache_capacity = 1 << 16;
  /// Cache shards (rounded up to a power of two).
  size_t cache_shards = 16;
  /// Disable to measure raw estimator throughput.
  bool cache_enabled = true;
  /// Batch-aware scheduling: every batch's misses run in one estimator
  /// session (CardinalityEstimator::PrepareSubplans — for FactorJoin, one
  /// leaf-factor computation). A batch whose cache-missed mask count
  /// reaches this threshold is split into per-worker chunks of that
  /// session, whatever the estimator, so a 10k-sub-plan batch stops
  /// monopolizing a single worker slot. Chunks are offered to idle workers
  /// and claimed work-stealing style; the serving worker always makes
  /// progress itself, so splitting never deadlocks even on a loaded
  /// single-worker pool. 0 disables splitting. Split results are
  /// bit-identical to the unsplit batch (a session's values do not depend
  /// on the mask set).
  size_t split_batch_min_masks = 512;
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
  /// Slow-request log threshold (microseconds): every request whose
  /// end-to-end latency reaches it produces one structured line (query
  /// fingerprint, model, stage breakdown — obs/slow_log.h). 0 disables.
  uint64_t slow_request_micros = 0;
  /// Slow-log destination; nullptr = stderr. Not owned. Emission is
  /// rate-limited (obs::kSlowLogLinesPerSecond): during overload nearly
  /// every request is an offender, and the cap keeps the log from flooding
  /// stderr and worsening the episode it reports.
  std::FILE* slow_log_sink = nullptr;
  /// Flight recorder (obs/flight_recorder.h) receiving every
  /// obs::kFlightSampleEvery-th completed request plus every slow-log
  /// offender — the slowest requests are exactly the ones a post-hoc dump
  /// is for; nullptr disables. Not owned — must outlive the service.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// Model name stamped on slow-log lines and metrics labels; "" renders
  /// as "default". ModelRegistry::AddModel fills it with the registered
  /// name automatically.
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

  /// Completion callbacks, the one way every request completes (the
  /// future overloads set a promise inside one): exactly one of (value,
  /// error) is meaningful — `error` is nullptr on success. Callbacks run
  /// ON A WORKER THREAD right after the request is served; they must be
  /// quick, must not throw, and must not call the service's blocking APIs
  /// (Estimate/EstimateSubplans/Drain — the worker-thread guard turns that
  /// deadlock into std::logic_error). This is the hook the remote front end
  /// (net/server.h) uses to write responses in completion order without
  /// parking a thread per outstanding future.
  using EstimateCallback = std::function<void(double, std::exception_ptr)>;
  using SubplansCallback = std::function<void(
      std::unordered_map<uint64_t, double>, std::exception_ptr)>;

  /// Enqueues a single-query estimate; `done` runs on the serving worker
  /// once it has been served (from cache or the estimator). Thread-safe;
  /// blocks while the queue is full; throws std::runtime_error after
  /// Shutdown() (and then never runs `done`). `trace_sink`, when non-null,
  /// receives the request's stage breakdown: the worker records its spans
  /// directly into it, and it is fully written by the time `done` runs
  /// (stages a caller pre-filled — e.g. the net server's decode span — are
  /// preserved). The sink must not be touched by the caller between
  /// submission and completion.
  void EstimateAsync(Query query, EstimateCallback done,
                     std::shared_ptr<obs::RequestTrace> trace_sink = nullptr);

  /// Future adapter over the callback overload: the future resolves when a
  /// worker has served the request. Same blocking/shutdown behavior.
  std::future<double> EstimateAsync(Query query);

  /// Blocking convenience wrapper around EstimateAsync. Throws
  /// std::logic_error when called from one of the service's own worker
  /// threads (it would deadlock a single-thread pool).
  double Estimate(const Query& query);

  /// Enqueues one batched request for all sub-plan masks of `query` (masks
  /// use Query::tables() bit order, as in EnumerateConnectedSubsets). Cached
  /// sub-plans are reused; the misses go to the estimator in one session
  /// (PrepareSubplans) so progressive sharing (FactorJoin) is preserved.
  /// Thread-safe; `done` and `trace_sink` as on EstimateAsync.
  void EstimateSubplansAsync(Query query, std::vector<uint64_t> masks,
                             SubplansCallback done,
                             std::shared_ptr<obs::RequestTrace> trace_sink =
                                 nullptr);

  /// Future adapter over the batched callback overload.
  std::future<std::unordered_map<uint64_t, double>> EstimateSubplansAsync(
      Query query, std::vector<uint64_t> masks);

  /// Blocking convenience wrapper around EstimateSubplansAsync. Throws
  /// std::logic_error when called from a service worker thread.
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

 private:
  /// Shared state of one split batch: contiguous mask chunks claimed by an
  /// atomic cursor (work stealing — idle workers help, the serving worker
  /// claims until empty so progress never depends on anyone else), results
  /// and errors per chunk, and a latch the serving worker waits on.
  struct SplitJob {
    const CardinalityEstimator::SubplanSession* session = nullptr;
    std::vector<std::vector<uint64_t>> chunks;
    std::vector<std::unordered_map<uint64_t, double>> results;
    std::vector<std::exception_ptr> errors;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable finished;

    /// Claims and runs chunks until none are left. Safe to call from any
    /// number of threads.
    void RunChunks();
    /// Blocks until every chunk completed (call after RunChunks returned).
    void Wait();
  };

  struct Request {
    Query query;
    std::vector<uint64_t> masks;
    bool batched = false;
    // The completion: batch_cb when batched, single_cb otherwise.
    EstimateCallback single_cb;
    SubplansCallback batch_cb;
    // Internal helper request: the worker joins this split job instead of
    // serving a client request (no completion, no stats).
    std::shared_ptr<SplitJob> split;
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
  void Serve(Request& req);
  /// The one path of a client request: runs `serve` (counted into `served`,
  /// or errors_ when it throws), seals the trace (total + stage
  /// histograms), records end-to-end latency, runs `done` (timed as the
  /// respond stage), and writes the slow-request log line if warranted.
  template <typename ServeFn, typename Callback>
  void ServeAndComplete(Request& req, const char* kind, size_t masks,
                        std::atomic<uint64_t>& served, const ServeFn& serve,
                        const Callback& done);
  /// `trace` may be null (tracing disabled); when set, cache-probe and
  /// estimate-kernel spans are added to it.
  double ServeSingle(const Query& query, obs::RequestTrace* trace);
  std::unordered_map<uint64_t, double> ServeBatch(
      const Query& query, const std::vector<uint64_t>& masks,
      obs::RequestTrace* trace);
  /// Estimates the cache-missed masks of a batch in one estimator session,
  /// split across workers when the batch is large enough (see
  /// split_batch_min_masks), and records the estimate stage.
  std::unordered_map<uint64_t, double> EstimateMisses(
      const Query& query, const std::vector<uint64_t>& miss_masks,
      obs::RequestTrace* trace);
  /// Runs `miss_masks` as `num_chunks` chunks of `session`, offered to idle
  /// workers as helper requests (see SplitJob).
  std::unordered_map<uint64_t, double> EstimateSplit(
      const CardinalityEstimator::SubplanSession& session,
      const std::vector<uint64_t>& miss_masks, size_t num_chunks);

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
  obs::SlowRequestLog slow_log_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> subplan_requests_{0};
  std::atomic<uint64_t> subplans_estimated_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> batches_split_{0};
  std::atomic<uint64_t> split_chunks_{0};
  // Completed requests, counted in ServeAndComplete — the flight recorder's
  // every-Nth sampling ticket.
  std::atomic<uint64_t> finished_{0};
};

}  // namespace fj
