#include "workload/openloop.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/client.h"
#include "storage/database.h"
#include "util/timer.h"

namespace fj {
namespace {

/// Sleeps toward `target_micros` on `clock`, then spins the last stretch:
/// OS sleep granularity is tens of microseconds, far coarser than the
/// interarrival gaps of a high offered load, so sleeping all the way would
/// throttle the dispatcher below the schedule it is supposed to offer.
void WaitUntil(const WallTimer& clock, uint64_t target_micros) {
  constexpr uint64_t kSpinSlackMicros = 200;
  for (;;) {
    double now = clock.Micros();
    if (now >= static_cast<double>(target_micros)) return;
    uint64_t ahead = target_micros - static_cast<uint64_t>(now);
    if (ahead > kSpinSlackMicros) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(ahead - kSpinSlackMicros));
    }
    // else: spin on the clock until the arrival time passes.
  }
}

/// Appends `rows` copies of existing rows (deterministic sources) to every
/// column of `table`. Copying real rows keeps dictionaries and value
/// distributions schema-agnostic — the generator does not need to know any
/// table's column semantics.
void AppendCopiedRows(Table* table, uint32_t rows, size_t base) {
  for (const auto& col : table->columns()) {
    Column* c = table->MutableCol(col->name());
    for (uint32_t i = 0; i < rows; ++i) {
      size_t src = (static_cast<size_t>(i) * 7919 + 13) % base;
      if (c->IsNull(src)) {
        c->AppendNull();
        continue;
      }
      switch (c->type()) {
        case ColumnType::kInt64:
          c->AppendInt(c->IntAt(src));
          break;
        case ColumnType::kDouble:
          c->AppendDouble(c->DoubleAt(src));
          break;
        case ColumnType::kString: {
          std::string s = c->StringAt(src);
          c->AppendString(s);
          break;
        }
      }
    }
  }
}

}  // namespace

InProcessTarget::InProcessTarget(Database* db,
                                 CardinalityEstimator* estimator,
                                 EstimatorService* service)
    : db_(db),
      estimator_(estimator),
      service_(service),
      table_names_(db->TableNames()) {}

void InProcessTarget::SubmitRead(const Query& query, ReadDone done) {
  // `done` is shared: the service drops the completion when it rejects the
  // submission (shut down), and the read still owes its one invocation.
  auto shared = std::make_shared<ReadDone>(std::move(done));
  try {
    service_->EstimateSubplansAsync(
        query, {query.AllAliases()},
        [shared](std::unordered_map<uint64_t, double>,
                 std::exception_ptr err) { (*shared)(err); });
  } catch (...) {
    (*shared)(std::current_exception());
  }
}

void InProcessTarget::ApplyUpdate(const LoadOp& op) {
  if (table_names_.empty()) return;
  const std::string& table_name = table_names_[op.index % table_names_.size()];
  // The dispatcher is the only submitter, so Drain() completes the quiesce
  // window the estimator update protocol requires; in-flight reads finish
  // (against the pre-update statistics) before the mutation starts.
  service_->Drain();
  Table* table = db_->MutableTable(table_name);
  if (op.kind == LoadOpKind::kInsert) {
    size_t first = table->num_rows();
    if (first > 0 && op.rows > 0 && estimator_->SupportsUpdates()) {
      AppendCopiedRows(table, op.rows, first);
      estimator_->ApplyInsert(table_name, first);
    }
  } else {
    if (table->num_rows() > op.rows && estimator_->SupportsUpdates()) {
      size_t first = table->num_rows() - op.rows;
      table->Truncate(first);
      estimator_->ApplyDelete(table_name, first);
    }
  }
  service_->NotifyUpdate(table_name);
}

RemoteTarget::RemoteTarget(net::EstimatorClient* client,
                           std::vector<std::string> table_names)
    : client_(client), table_names_(std::move(table_names)) {}

void RemoteTarget::SubmitRead(const Query& query, ReadDone done) {
  // The client's callback hook never throws and runs `done` exactly once
  // (connection failures arrive as the error argument).
  client_->EstimateSubplansAsync(
      query, {query.AllAliases()},
      [done = std::move(done)](std::unordered_map<uint64_t, double>,
                               std::exception_ptr err) { done(err); });
}

void RemoteTarget::ApplyUpdate(const LoadOp& op) {
  if (table_names_.empty()) return;
  // The wire protocol cannot ship row deltas yet (ROADMAP "replicated
  // updates"), so a remote update op exercises the invalidation half only.
  client_->NotifyUpdate(table_names_[op.index % table_names_.size()]);
}

OpenLoopResult RunOpenLoop(const Trace& trace,
                           const std::vector<Query>& queries,
                           LoadTarget* target) {
  OpenLoopResult result;
  if (trace.ops.empty()) return result;
  if (queries.empty()) {
    for (const LoadOp& op : trace.ops) {
      if (op.kind == LoadOpKind::kRead) {
        throw std::invalid_argument(
            "RunOpenLoop: trace has read ops but no queries were supplied");
      }
    }
  }

  obs::LatencyHistogram latency;
  // One histogram per *scheduled* second: completion callbacks record
  // lock-free into their op's scheduled window, so the per-window series
  // charges queueing delay to the second that offered the load (the same
  // coordinated-omission discipline as the aggregate histogram). Allocated
  // before dispatch — callbacks run concurrently with the loop.
  constexpr uint64_t kWindowMicros = 1'000'000;
  size_t num_windows = static_cast<size_t>(
      trace.ops.back().scheduled_micros / kWindowMicros + 1);
  std::vector<std::unique_ptr<obs::LatencyHistogram>> window_hist;
  window_hist.reserve(num_windows);
  for (size_t i = 0; i < num_windows; ++i) {
    window_hist.push_back(std::make_unique<obs::LatencyHistogram>());
  }
  std::atomic<uint64_t> errors{0};
  // Reads submitted but not yet completed. The count only changes under
  // the mutex, so a completion is done touching this frame's state once it
  // releases the lock, and the wait below returns only after the last one.
  uint64_t outstanding = 0;
  std::mutex outstanding_mu;
  std::condition_variable idle;
  WallTimer clock;

  auto record = [&](uint64_t scheduled, uint64_t now) {
    uint64_t lat = now > scheduled ? now - scheduled : 0;
    latency.Record(lat);
    window_hist[static_cast<size_t>(scheduled / kWindowMicros)]->Record(lat);
  };

  for (const LoadOp& op : trace.ops) {
    WaitUntil(clock, op.scheduled_micros);
    uint64_t scheduled = op.scheduled_micros;
    if (op.kind == LoadOpKind::kRead) {
      ++result.reads;
      {
        std::lock_guard<std::mutex> lock(outstanding_mu);
        ++outstanding;
      }
      target->SubmitRead(
          queries[op.index % queries.size()],
          [&, scheduled](std::exception_ptr err) {
            record(scheduled, static_cast<uint64_t>(clock.Micros()));
            if (err != nullptr) errors.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(outstanding_mu);
            if (--outstanding == 0) idle.notify_all();
          });
    } else {
      ++result.updates;
      try {
        target->ApplyUpdate(op);
      } catch (...) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
      record(scheduled, static_cast<uint64_t>(clock.Micros()));
    }
  }
  // Only once every read completed is reading the stack-local histograms
  // and error counter from this thread safe.
  {
    std::unique_lock<std::mutex> lock(outstanding_mu);
    idle.wait(lock, [&] { return outstanding == 0; });
  }

  result.wall_seconds = clock.Seconds();
  result.errors = errors.load();
  result.latency = latency.Snapshot();
  result.windows.reserve(num_windows);
  for (size_t i = 0; i < num_windows; ++i) {
    obs::HistogramSnapshot snap = window_hist[i]->Snapshot();
    obs::WindowSample w;
    w.end_micros = (static_cast<uint64_t>(i) + 1) * kWindowMicros;
    w.seconds = 1.0;
    w.latency_count = snap.count;
    w.mean_micros = snap.Mean();
    w.p50_micros = snap.ValueAtQuantile(0.50);
    w.p99_micros = snap.ValueAtQuantile(0.99);
    w.p999_micros = snap.ValueAtQuantile(0.999);
    result.windows.push_back(w);
  }
  double ops = static_cast<double>(trace.ops.size());
  double offered_seconds = trace.OfferedSeconds();
  result.offered_qps = offered_seconds > 0.0 ? ops / offered_seconds : 0.0;
  result.achieved_qps =
      result.wall_seconds > 0.0 ? ops / result.wall_seconds : 0.0;
  return result;
}

}  // namespace fj
