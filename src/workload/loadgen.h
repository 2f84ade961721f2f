// Open-loop workload generation: deterministic, seedable traffic traces
// over the synthetic workloads — zipf-skewed query-template streams with a
// configurable read/update mix and arrival-rate schedules — plus a framed
// on-disk trace format that turns a generated stream into a replayable,
// bit-identical regression fixture.
//
// The generator is the YCSB-style half of the open-loop harness (the
// executor lives in workload/openloop.h): it decides WHAT arrives WHEN,
// entirely up front, so the same seed always produces byte-identical
// traces and a recorded trace file replays the exact request sequence.
//
// Schedule grammar (ArrivalSchedule::Parse):
//   const:R         constant R requests/s
//   step:R1..R2@T   R1 req/s until T seconds, then R2 req/s
//   ramp:R1..R2@T   linear ramp from R1 to R2 req/s over T seconds, then R2
//   poisson:R       exponential interarrivals at mean rate R (seeded)
//
// Trace file layout (little-endian via util/bytes.h, same framing
// discipline as stats/snapshot.h):
//
//   u32 magic "FJLT" | u16 format version | u64 payload size
//   | payload bytes | u64 FNV-1a checksum of payload
//
//   payload: str workload name | u64 seed | f64 theta | str schedule
//            | u32 op count | ops
//   op:      u64 scheduled_micros | u8 kind | u32 index | u32 rows
//
// Decoding treats the file as untrusted input: wrong magic, unsupported
// version, truncation anywhere, checksum mismatch, unknown op kinds,
// non-monotone timestamps, and trailing bytes all throw SerializeError —
// a hostile trace file is rejected cleanly, never executed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"
#include "workload/stats_ceb.h"  // Workload struct

namespace fj {

/// When requests arrive, as an instantaneous-rate curve. Deterministic:
/// interarrival gaps are derived from the curve (and, for poisson, an
/// explicit Rng), never from the wall clock.
struct ArrivalSchedule {
  enum class Kind { kConstant, kStep, kRamp, kPoisson };

  Kind kind = Kind::kConstant;
  /// Requests/second: the constant/poisson rate, or the before/start rate
  /// of a step/ramp.
  double rate_qps = 1000.0;
  /// The after/end rate of a step/ramp (unused for constant/poisson).
  double rate2_qps = 0.0;
  /// Step: the switch time. Ramp: the ramp duration (rate2 from then on).
  double at_seconds = 0.0;

  static ArrivalSchedule Constant(double qps);
  static ArrivalSchedule Step(double qps_before, double qps_after,
                              double at_seconds);
  static ArrivalSchedule Ramp(double qps_from, double qps_to,
                              double over_seconds);
  static ArrivalSchedule Poisson(double qps);

  /// Parses the schedule grammar above. Throws std::invalid_argument on an
  /// unknown kind, a malformed spec, or a non-positive rate/time.
  static ArrivalSchedule Parse(const std::string& spec);

  /// Canonical spec string; Parse(ToString()) reproduces the schedule.
  std::string ToString() const;

  /// Instantaneous rate at `t` seconds into the run (requests/second).
  double RateAt(double t_seconds) const;

  /// The first `n` arrival times in microseconds, starting at 0. Monotone
  /// non-decreasing; the mean rate tracks the curve within 1% (pinned by
  /// loadgen_test). `rng` feeds poisson interarrivals only — the other
  /// kinds never draw from it, but pass one anyway so call sites don't
  /// branch on the kind.
  std::vector<uint64_t> ArrivalsMicros(size_t n, Rng* rng) const;
};

/// One scheduled operation of a trace. Reads address a query template by
/// index; updates address a base table by index and carry a row count.
enum class LoadOpKind : uint8_t {
  kRead = 0,    // a batch of queries[index % queries.size()]'s full mask
  kInsert = 1,  // append `rows` rows to table `index`, ApplyInsert
  kDelete = 2,  // truncate `rows` tail rows of table `index`, ApplyDelete
};

struct LoadOp {
  uint64_t scheduled_micros = 0;  // arrival time relative to run start
  LoadOpKind kind = LoadOpKind::kRead;
  uint32_t index = 0;
  uint32_t rows = 0;

  bool operator==(const LoadOp&) const = default;
};

/// A fully materialized request stream plus the provenance needed to
/// rebuild the matching workload (the trace stores template *indices*, not
/// queries — both sides derive the identical deterministic workload, the
/// same contract fj_server/fj_client --verify relies on).
struct Trace {
  std::string workload;  // Workload::name the indices refer to
  uint64_t seed = 0;
  double theta = 0.0;
  std::string schedule;  // ArrivalSchedule::ToString() of the generator
  std::vector<LoadOp> ops;

  /// Offered duration: the last scheduled arrival, in seconds.
  double OfferedSeconds() const {
    return ops.empty()
               ? 0.0
               : static_cast<double>(ops.back().scheduled_micros) / 1e6;
  }
};

struct LoadGenOptions {
  uint64_t seed = 42;
  /// Zipf skew over query templates: template 0 is the hottest. 0 =
  /// uniform; production query traffic is typically ~0.9-1.1.
  double zipf_theta = 0.99;
  /// Fraction of operations that are data updates (inserts/deletes applied
  /// through the estimator's update protocol). 0 = read-only.
  double update_fraction = 0.0;
  /// Among update ops, the fraction that are tail deletes (the rest are
  /// inserts).
  double delete_fraction = 0.25;
  /// Rows appended (insert) or truncated (delete) per update op.
  uint32_t update_rows = 256;
  ArrivalSchedule schedule = {};
  size_t num_ops = 10000;
};

/// Generates a trace over `workload`'s query templates and base tables.
/// Deterministic: equal (workload, options) produce byte-identical traces.
/// Throws std::invalid_argument when the workload has no queries.
Trace GenerateTrace(const Workload& workload, const LoadGenOptions& options);

/// Framed encode/decode (layout at the top of this header). Decode* treat
/// input as untrusted and throw SerializeError on anything malformed.
std::vector<uint8_t> SerializeTrace(const Trace& trace);
Trace DeserializeTrace(const std::vector<uint8_t>& bytes);

/// SerializeTrace + write to `path` / read `path` + DeserializeTrace.
/// Throw std::runtime_error on IO failure, SerializeError on bad content.
void SaveTrace(const Trace& trace, const std::string& path);
Trace LoadTrace(const std::string& path);

}  // namespace fj
