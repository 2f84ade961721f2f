// Open-loop trace execution: replay a Trace (workload/loadgen.h) against a
// serving target at the trace's *scheduled* arrival times and measure what
// a client at that offered load would actually feel.
//
// The defining property is coordinated-omission avoidance: every
// operation's latency is measured from its scheduled arrival, not from
// when the driver managed to submit it. A closed-loop driver (next request
// waits for the last) silently stretches its own request stream when the
// service slows down, hiding exactly the queueing delay users experience;
// here a slow service makes subsequent requests *late*, and that lateness
// is charged to their latency. Under offered load beyond capacity the
// recorded tail therefore grows with the backlog — p99 >> service time —
// which is the number the SLO curves in bench_openloop report.
//
// The dispatcher sleeps toward each arrival (hybrid sleep + spin, so
// microsecond interarrivals stay accurate), submits reads asynchronously
// through a LoadTarget, and applies update ops synchronously (updates are
// rare, and the estimator update protocol requires a quiesced service —
// the resulting stall is part of the latency story, not an artifact).
// A read is one sub-plan batch holding only its query's full alias mask.
// Completion callbacks record into an obs::LatencyHistogram, which is
// lock-free, so recording from service workers or the client receiver
// thread never perturbs the measurement; the driver counts the reads still
// outstanding and returns once the last completion ran.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "obs/latency_histogram.h"
#include "obs/time_series.h"
#include "service/estimator_service.h"
#include "workload/loadgen.h"

namespace fj {

namespace net {
class EstimatorClient;
}  // namespace net

/// Where the driver sends traffic.
class LoadTarget {
 public:
  /// Runs when the read completed; `error` is nullptr on success. Invoked
  /// on the target's completion thread (service worker / client receiver)
  /// — keep it quick and non-blocking.
  using ReadDone = std::function<void(std::exception_ptr error)>;

  virtual ~LoadTarget() = default;

  /// Submits one read asynchronously: a batch of `query`'s full alias
  /// mask. `done` runs exactly once, even when submission itself fails.
  virtual void SubmitRead(const Query& query, ReadDone done) = 0;

  /// Applies one update op synchronously (kInsert/kDelete). Called from
  /// the dispatcher thread only, never concurrently with itself.
  virtual void ApplyUpdate(const LoadOp& op) = 0;
};

/// Drives an in-process EstimatorService. Updates run the full versioned-
/// statistics protocol: Drain() (the dispatcher is the only submitter, so
/// draining quiesces the service), mutate the table, ApplyInsert /
/// ApplyDelete on the estimator, then NotifyUpdate so cached estimates
/// touching the table are invalidated. Estimators without update support
/// skip the mutation and only take the cache invalidation.
class InProcessTarget : public LoadTarget {
 public:
  /// All three must outlive the target. `estimator` is the same estimator
  /// `service` wraps — the mutable reference is what updates go through.
  InProcessTarget(Database* db, CardinalityEstimator* estimator,
                  EstimatorService* service);

  void SubmitRead(const Query& query, ReadDone done) override;
  void ApplyUpdate(const LoadOp& op) override;

 private:
  Database* db_;
  CardinalityEstimator* estimator_;
  EstimatorService* service_;
  std::vector<std::string> table_names_;  // db table order, fixed at ctor
};

/// Drives a remote fj_server through a pipelined EstimatorClient. Reads
/// use the client's completion-callback hook (the receiver thread invokes
/// `done` as each response frame lands). Update ops cannot mutate the
/// server's estimator over today's protocol (see ROADMAP "replicated
/// updates"), so they degrade to NotifyUpdate — the cache-invalidation
/// half, which is the part that shows up in serving latency.
class RemoteTarget : public LoadTarget {
 public:
  /// `client` must outlive the target; its options.model names the model
  /// every op addresses. `table_names` maps update-op table indices (db
  /// order on the generating side).
  RemoteTarget(net::EstimatorClient* client,
               std::vector<std::string> table_names);

  void SubmitRead(const Query& query, ReadDone done) override;
  void ApplyUpdate(const LoadOp& op) override;

 private:
  net::EstimatorClient* client_;
  std::vector<std::string> table_names_;
};

struct OpenLoopResult {
  uint64_t reads = 0;
  uint64_t updates = 0;
  /// Reads whose callback reported an error plus updates that threw.
  uint64_t errors = 0;
  /// ops / last-scheduled-arrival: the load the trace asked for.
  double offered_qps = 0.0;
  /// ops / wall time to full completion: what the target sustained.
  double achieved_qps = 0.0;
  double wall_seconds = 0.0;
  /// Per-op latency in microseconds from *scheduled* arrival to
  /// completion (coordinated omission avoided; see header comment).
  obs::HistogramSnapshot latency;
  /// Per-second windows keyed by *scheduled* arrival second (so harness
  /// windows line up with the offered schedule and with the server-side
  /// /metrics/history ring, which uses the same WindowSample shape). Each
  /// window's end_micros is schedule-relative; latency quantiles cover the
  /// ops scheduled in that second, wherever they actually completed.
  std::vector<obs::WindowSample> windows;
};

/// Replays `trace` against `target`. Read ops address
/// `queries[op.index % queries.size()]`; the caller supplies the same
/// deterministic workload the trace was generated over. Blocks until every
/// operation completed: every read's `done` has run, on whichever thread
/// the target runs it. Throws std::invalid_argument when the trace has
/// read ops but `queries` is empty.
OpenLoopResult RunOpenLoop(const Trace& trace,
                           const std::vector<Query>& queries,
                           LoadTarget* target);

}  // namespace fj
