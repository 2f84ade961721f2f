// Shared pieces of the benchmark harness: command line, result printing,
// host probes, workload inputs, the closed-loop caller pool, the update-op
// protocol, accuracy fixtures, harness-side spans and layer replays.
//
// The harness calls only the library's public headers. Every workload
// derives its request stream from --seed; the database, the query
// templates and the trained model come from the generators' own fixed
// seeds, so deterministic metrics (q-error, plan work, model size) are
// identical on every run and timing metrics vary only with the stream and
// the host. See perfbench/BENCHMARK.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "factorjoin/estimator.h"
#include "service/estimator_service.h"
#include "workload/imdb_job.h"

namespace perfbench {

// ------------------------------------------------------------------ clock

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double UsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e3;
}

// ----------------------------------------------------------- command line

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for span logs and run records (created by run.py).
  std::string out_dir = ".";
};

/// Parses --workload --seed --seconds --trace --out; throws
/// std::invalid_argument on anything else.
Args ParseArgs(int argc, char** argv);

// ------------------------------------------------------------ statistics

/// Nearest-rank quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// ---------------------------------------------------------------- report

/// Collects the printed metrics and the run record, then prints the record
/// line and, as the last line of standard output, the result object.
class Report {
 public:
  Report(const Args& args, std::string workload);

  void Metric(const std::string& name, double value, const std::string& unit);
  /// Run-record entries: numbers, strings, or a raw JSON value.
  void Num(const std::string& key, double value);
  void Str(const std::string& key, const std::string& value);
  void Raw(const std::string& key, const std::string& json);
  /// A failed correctness check: logged to stderr, flips `correct`.
  void Fail(const std::string& why);

  /// Prints both lines, writes the record next to the spans, returns the
  /// process exit code (non-zero when a check failed).
  int Finish(uint64_t attempted, uint64_t failed);

 private:
  Args args_;
  std::string workload_;
  bool correct_ = true;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> metrics_;  // name, json
  std::vector<std::pair<std::string, std::string>> record_;   // key, json
};

std::string JsonNum(double value);
std::string JsonStr(const std::string& value);

// ------------------------------------------------------------------ host

/// Host state for the run record: /proc/stat steal share and a fixed ALU
/// loop's rate. Diagnosis only; never used to normalize a metric.
class HostProbe {
 public:
  HostProbe();  // samples at construction
  /// Samples again and adds host.* entries to the record (and, when
  /// `metrics`, as per-layer metrics).
  void Finish(Report* report, bool metrics);

 private:
  uint64_t steal_ = 0, total_ = 0;
  double ref_rate_start_ = 0.0;
};

/// Returns freed heap to the kernel, then resets the peak-RSS mark
/// (clear_refs "5"); false if refused.
bool ResetPeakRss();
/// VmHWM of this process in MiB (0 when unreadable).
double PeakRssMb();

// ---------------------------------------------------------------- inputs

/// IMDB-JOB stand-in: scale 0.3, 64 queries of up to 16 aliases.
std::unique_ptr<fj::Workload> MakeImdbInputs();
/// FactorJoin with the sampling single-table model (IMDB-JOB config).
fj::FactorJoinConfig ImdbModelConfig(const fj::Database& db);

/// Whole-query requests: every connected sub-plan mask (min 1 alias).
std::vector<std::vector<uint64_t>> AllSubplanMasks(
    const std::vector<fj::Query>& queries);

/// The warm-up pass: every query's whole batch submitted at once, so the
/// service's cache holds every sub-plan.
void WarmCache(fj::EstimatorService& svc, const fj::Workload& w,
               const std::vector<std::vector<uint64_t>>& masks);

/// Seeded query-index streams, stratified so every block of the stream
/// holds the same mix and the seed only orders it: rounds of shuffled query
/// indices (every query once per round), or shuffled blocks of kZipfBlock
/// requests in which index k appears in proportion to 1/(k+1)^theta
/// (index 0 hottest). A short closed-loop run over i.i.d. draws would see
/// a different share of the rare 4,883-mask queries on every seed, and
/// those set p99.
inline constexpr size_t kZipfBlock = 250;
std::vector<uint32_t> ShuffledRounds(uint64_t seed, size_t num_queries,
                                     size_t rounds);
std::vector<uint32_t> ZipfStream(uint64_t seed, size_t num_queries,
                                 double theta, size_t blocks);

/// `stream` rotated to start at position `offset` (mod its size), so a loop
/// run in slices continues the stream where the last slice stopped.
std::vector<uint32_t> StreamFrom(const std::vector<uint32_t>& stream,
                                 uint64_t offset);

/// Min / p50 / max of a request stream's masks per request.
std::string MaskCountSummary(const std::vector<std::vector<uint64_t>>& masks);

/// Seed of the held-out stream that no tuning of this benchmark used;
/// later gain claims re-check on it.
inline constexpr uint64_t kHeldOutSeed = 7919;

/// Masks a correctness mismatch between a served batch and the expected
/// one: missing or extra masks, or any value whose bits differ.
size_t EstimateMismatches(const std::unordered_map<uint64_t, double>& got,
                          const std::unordered_map<uint64_t, double>& want);

/// Records the per-run inputs every workload shares.
void RecordInputs(const fj::Workload& w,
                  const std::vector<std::vector<uint64_t>>& masks,
                  double scale, Report* report);

// --------------------------------------------------------- closed loop

struct CallOutcome {
  bool ok = true;
  double latency_us = 0.0;
};

struct LoopResult {
  /// One entry per attempted request; failed ones are +inf so they miss
  /// every latency limit.
  std::vector<double> latency_us;
  std::vector<uint64_t> masks;  // per attempted request
  /// Completions per second of the run, in order (the last, partial
  /// second dropped).
  std::vector<double> per_second;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0.0;

  double Throughput() const {
    return elapsed_s > 0.0 ? static_cast<double>(attempted - failed) / elapsed_s
                           : 0.0;
  }
  double MasksPerRequest() const;
  /// Adds a later slice of the same loop.
  void Append(const LoopResult& more);
  /// Records the per-second completion series in the run record.
  void RecordSeries(Report* report) const;
};

/// `callers` threads take tickets from one shared counter over `stream`
/// (wrapping) until `seconds` elapse; call(caller, ticket, query_index)
/// performs and times one request.
LoopResult RunClosedLoop(
    size_t callers, double seconds, const std::vector<uint32_t>& stream,
    const std::vector<std::vector<uint64_t>>& masks,
    const std::function<CallOutcome(size_t, uint64_t, uint32_t)>& call);

// ------------------------------------------------------------------ spans

/// One harness-side span. A root span has parent 0 and is its own request;
/// `count` is the number of calls into the layer the span covers (a span
/// around a loop of per-mask calls carries the mask count).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t count = 1;
};

/// Spans held in memory (thread-safe append) and written out at exit.
class SpanLog {
 public:
  uint64_t Root(const char* name, int64_t start_ns, int64_t end_ns,
                uint64_t count = 1);
  /// Child of `parent`, in the parent's request.
  uint64_t Child(uint64_t parent, const char* name, int64_t start_ns,
                 int64_t end_ns, uint64_t count = 1);
  /// Children laid end to end from `start_ns` (stage breakdowns that carry
  /// durations but no timestamps).
  void StageChildren(uint64_t parent, int64_t start_ns,
                     const std::vector<std::pair<const char*, double>>& us);

  std::vector<Span> Snapshot() const;
  /// CSV: id,parent,request,name,start_ns,end_ns,count.
  void WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, uint64_t> request_of_;
};

/// Per-layer summary of a span log: self time is a span's duration minus
/// the time its children cover.
struct LayerStat {
  std::string phase;  // name of the root spans of the layer's requests
  double self_us = 0.0;
  uint64_t calls = 0;
  uint64_t phase_requests = 0;

  double MeanSelfUs() const {
    return calls == 0 ? 0.0 : self_us / static_cast<double>(calls);
  }
  double CallsPerRequest() const {
    return phase_requests == 0 ? 0.0
                               : static_cast<double>(calls) /
                                     static_cast<double>(phase_requests);
  }
};
std::map<std::string, LayerStat> SummarizeLayers(const std::vector<Span>& spans);

/// Reconciliation: the traced request latency against the sum of layer
/// costs (mean self time per call x calls per traced request). The run
/// record keeps the signed (latency - sum) / latency; the return value,
/// trace.unattributed_frac, is its absolute value, so lower is better in
/// either direction. Terms are the layers
/// that partition one request; `explains` names, for a coarse traced span,
/// the finer replayed layers that stand in for it. Together with the root
/// span's own uncovered time these are the candidates when the largest
/// unexplained span is named.
struct ReconTerm {
  std::string layer;
  double calls_per_request = 0.0;
};
struct ReconExplain {
  std::string span;  // traced span
  double span_us_per_request = 0.0;
  std::vector<std::string> by;  // terms standing in for it
};
/// Tolerance on |trace.unattributed_frac| before the largest unexplained
/// span is named.
inline constexpr double kReconTolerance = 0.15;
double Reconcile(const std::map<std::string, LayerStat>& layers,
                 double latency_us, const std::vector<ReconTerm>& terms,
                 const std::vector<ReconExplain>& explains, Report* report);

/// Writes the layer table (mean self time and calls per request of every
/// span name) into the run record.
void RecordLayerTable(const std::map<std::string, LayerStat>& layers,
                      Report* report);
double LayerUs(const std::map<std::string, LayerStat>& layers,
               const std::string& name);

// ------------------------------------------------------------- updates

/// Summary of the update probe. `p50_us` is update_p50_us: the median,
/// over the probe's rounds, of a round's mean time per op (drain, table
/// mutation, apply and notify). Op costs range from about 40 us to 1 ms
/// across the tables, with few ops near the overall median, so the median
/// op jumped between tables from process to process (130 to 230 us in
/// back-to-back runs); a round's mean covers every table. The rest are
/// per-step means over all ops.
struct UpdateSummary {
  size_t ops = 0;
  double p50_us = 0.0;
  double drain_us = 0.0, mutate_us = 0.0, notify_us = 0.0;
  double apply_insert_us = 0.0, apply_delete_us = 0.0;
};

/// The update probe of the read-only workloads, on its own copy of the
/// inputs, the model and a service, so its updates neither change the
/// served model (whose estimates the checks and the accuracy metrics read)
/// nor invalidate the served cache. A round is one insert/delete cycle on
/// every table, in table order, through the service's update protocol
/// (Drain -> table mutation -> ApplyInsert/ApplyDelete -> NotifyUpdate).
/// Workloads run kProbeRounds rounds in blocks between slices of the timed
/// window, so the probe samples the host over the same period as the
/// requests: run as one block after the window (under 1 s), it moved by up
/// to 40% with the host from run to run.
inline constexpr size_t kProbeRounds = 40;
class UpdateProbe {
 public:
  UpdateProbe();
  /// Runs `rounds` rounds; `spans` may be null.
  void Run(size_t rounds, SpanLog* spans);
  /// Checks that the estimator's statistics version and the service epoch
  /// advanced once per op, records the probe's inputs, and summarizes.
  UpdateSummary Finish(Report* report) const;

 private:
  std::unique_ptr<fj::Workload> w_;
  std::unique_ptr<fj::FactorJoinEstimator> est_;
  std::unique_ptr<fj::EstimatorService> svc_;
  uint64_t version0_ = 0, epoch0_ = 0;
  std::vector<double> round_mean_, drain_, mutate_, notify_, ins_, del_;
};

// ------------------------------------------------------------- accuracy

struct Accuracy {
  double qerror_p50 = 0.0;
  double qerror_p99 = 0.0;
  double underestimate_frac = 0.0;
  size_t subplans = 0;
  size_t skipped = 0;  // over the true-cardinality tuple cap
};

/// q-error over every (query, sub-plan) of at most 3 aliases whose true
/// cardinality the exact executor counts under its tuple cap; estimates
/// are the estimator's EstimateSubplans values for the whole query.
Accuracy MeasureAccuracy(const fj::Database& db,
                         const std::vector<fj::Query>& queries,
                         const fj::CardinalityEstimator& est);

/// Rows scanned, built, probed and emitted when the optimizer plans the
/// workload with `est` and the plans execute (plus the overflow penalty of
/// the simulated end-to-end time).
double ExecWorkRows(const fj::Database& db,
                    const std::vector<fj::Query>& queries,
                    fj::CardinalityEstimator* est);

/// Adds the accuracy and plan-work metrics (model must be the freshly
/// trained one, data unmodified).
void AddAccuracyMetrics(const fj::Database& db,
                        const std::vector<fj::Query>& queries,
                        fj::FactorJoinEstimator* est, Report* report);

// --------------------------------------------------------------- replays

/// Layer replays on a workload's exact requests (query indices in stream
/// order): fingerprinting, cache insert/lookup on a replica cache, query
/// serialization, the wire codec, leaf preparation, decomposition and the
/// single-table key distributions on an identically configured estimator.
/// Records one "replay" root per request with a child per layer.
struct ReplayResult {
  double codec_bytes_per_request = 0.0;  // request + response frames
  size_t requests = 0;
};
ReplayResult ReplayLayers(const fj::Database& db,
                          const std::vector<fj::Query>& queries,
                          const std::vector<std::vector<uint64_t>>& masks,
                          const std::vector<uint32_t>& request_queries,
                          const fj::FactorJoinEstimator& est, SpanLog* spans);

/// MpmcQueue push -> pop across two threads, consumer blocked between
/// items: `hops` root spans named service.queue_hop.
void ReplayQueueHops(size_t hops, SpanLog* spans);

// -------------------------------------------------------- layer metrics

/// Every per-layer metric of BENCHMARK.json. A layer a workload does not
/// exercise reports 0 (e.g. the net stages without a server).
struct LayerMetrics {
  double fingerprint_us = 0, masks_per_request = 0, serialize_us = 0;
  double key_dists_us = 0, leaves_us = 0, decompose_us = 0, train_s = 0;
  double apply_insert_us = 0, apply_delete_us = 0, mutate_us = 0;
  double queue_wait_us = 0, cache_probe_us = 0, cache_lookup_us = 0;
  double cache_insert_us = 0, estimate_us = 0, cache_hit_frac = 0;
  double split_frac = 0, split_chunks = 0;
  double drain_us = 0, notify_us = 0, queue_hop_us = 0;
  double net_decode_us = 0, net_encode_us = 0, net_socket_write_us = 0;
  double net_codec_us = 0, net_bytes_per_request = 0, net_round_trip_us = 0;
  double tracing_overhead_frac = 0, unattributed_frac = 0;

  /// Replay and queue-hop layers from a span summary.
  void FillFromSpans(const std::map<std::string, LayerStat>& layers);
  /// Update-step means.
  void FillFromUpdates(const UpdateSummary& updates);
  /// Service stages (sum per request), cache and split counters over the
  /// interval between two Stats() snapshots.
  void FillFromService(const fj::ServiceStats& before,
                       const fj::ServiceStats& after, uint64_t requests);
  void Emit(Report* report) const;
};

/// The stage mean per request of one service or server stage histogram
/// over an interval.
double StageUsPerRequest(const fj::obs::HistogramSnapshot& before,
                         const fj::obs::HistogramSnapshot& after,
                         uint64_t requests);

/// End-to-end latency metrics with their sample counts in the record.
void AddLatencyMetrics(const std::vector<double>& latency_us,
                       const std::string& what, Report* report);
/// Median of repeated set-ups, with every sample in the record.
void AddSetupMetric(const std::vector<double>& setup_s, Report* report);

// ------------------------------------------------------------ workloads

int RunPlanCold(const Args& args);
int RunServeWarm(const Args& args);

}  // namespace perfbench
