// Per-request stage spans: where did one estimate's wall time go?
//
// A RequestTrace is a fixed array of per-stage microsecond totals covering
// the life of a serving-layer request:
//
//   kQueueWait   submit → a worker popped the request
//   kCacheProbe  fingerprinting + sharded-cache lookups and inserts
//   kEstimate    inside the estimation kernel (CardinalityEstimator)
//   kRespond     running the completion callback
//   kDecode      net path: decoding the request frame body
//   kEncode      net path: encoding the response body
//   kSocketWrite net path: SendAll of the response frame
//
// Spans are recorded with SpanTimer — one steady-clock read at construction
// and one at Record — so a fully traced request costs a handful of clock
// reads on top of its actual work (the tracing-overhead bench section in
// docs/BENCHMARKS.md pins this under 2%). Stage totals aggregate into
// per-stage LatencyHistograms (ServiceStats::stages) and can ride along on
// a wire response when the client set the request's trace flag
// (net/protocol.h; fj_client --trace prints the breakdown).
//
// kRespond and kSocketWrite of a request happen after its own response body
// is sealed, so an attached trace carries zeros there; they still feed the
// aggregate histograms. See docs/OBSERVABILITY.md.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace fj::obs {

enum class Stage : uint8_t {
  kQueueWait = 0,
  kCacheProbe = 1,
  kEstimate = 2,
  kRespond = 3,
  kDecode = 4,
  kEncode = 5,
  kSocketWrite = 6,
};

inline constexpr size_t kNumStages = 7;

/// Stable snake_case stage names — used as Prometheus label values and in
/// slow-request log lines, so treat them as a public interface.
inline const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kCacheProbe:
      return "cache_probe";
    case Stage::kEstimate:
      return "estimate";
    case Stage::kRespond:
      return "respond";
    case Stage::kDecode:
      return "decode";
    case Stage::kEncode:
      return "encode";
    case Stage::kSocketWrite:
      return "socket_write";
  }
  return "unknown";
}

/// Microseconds on the monotonic clock (std::chrono::steady_clock), the
/// time base of every span in this subsystem.
inline uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Stage breakdown of one request. Plain data, single-writer: the thread
/// currently processing the request adds spans; hand-off between reader
/// thread, worker, and completion callback is sequenced by the request's
/// own life cycle, so no locking is needed.
struct RequestTrace {
  std::array<uint64_t, kNumStages> stage_micros{};
  /// End-to-end latency (submit → response fulfilled); filled by the
  /// serving worker just before completion.
  uint64_t total_micros = 0;

  void Add(Stage stage, uint64_t micros) {
    stage_micros[static_cast<size_t>(stage)] += micros;
  }
  uint64_t Get(Stage stage) const {
    return stage_micros[static_cast<size_t>(stage)];
  }
};

/// One span: starts timing at construction, Record() adds the elapsed
/// microseconds to a trace (nullptr trace → the clock was still read;
/// prefer guarding construction on the tracing flag instead).
class SpanTimer {
 public:
  SpanTimer() : start_(MonotonicMicros()) {}

  uint64_t ElapsedMicros() const { return MonotonicMicros() - start_; }

  void Record(RequestTrace* trace, Stage stage) const {
    if (trace != nullptr) trace->Add(stage, ElapsedMicros());
  }

 private:
  uint64_t start_;
};

// Wire codec (used by net/protocol.cpp for the optional response trace):
//   u64 total | u8 n | (u8 stage, u64 micros) × n     — zero stages elided.

inline void EncodeRequestTrace(const RequestTrace& trace, ByteWriter* w) {
  w->U64(trace.total_micros);
  uint8_t n = 0;
  for (uint64_t micros : trace.stage_micros) n += (micros != 0) ? 1 : 0;
  w->U8(n);
  for (size_t i = 0; i < kNumStages; ++i) {
    if (trace.stage_micros[i] == 0) continue;
    w->U8(static_cast<uint8_t>(i));
    w->U64(trace.stage_micros[i]);
  }
}

inline RequestTrace DecodeRequestTrace(ByteReader* r) {
  RequestTrace trace;
  trace.total_micros = r->U64();
  uint8_t n = r->U8();
  for (uint8_t i = 0; i < n; ++i) {
    uint8_t stage = r->U8();
    if (stage >= kNumStages) throw SerializeError("trace stage out of range");
    trace.stage_micros[stage] = r->U64();
  }
  return trace;
}

}  // namespace fj::obs
