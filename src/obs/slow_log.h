// SlowRequestLog: one structured line per request slower than a threshold.
//
// The serving worker calls MaybeLog() after fulfilling each request; when
// the end-to-end latency reaches the threshold, one line is written:
//
//   fj_slow_request model=default fp=00c3...9a masks=842
//       total_us=15234 queue_wait_us=12 cache_probe_us=301 estimate_us=14850
//
// (single line on the wire; zero stages are elided). The format is
// key=value, grep- and awk-friendly, and stable — see docs/OBSERVABILITY.md.
// Threshold 0 disables logging entirely (the default); the line count is
// exported as ServiceStats::slow_requests / fj_slow_requests_total.
//
// Emission is rate-limited by a token bucket (10 lines/s with a burst of
// 20): during an overload episode nearly EVERY request crosses the
// threshold, and an unthrottled log would hammer stderr with thousands of
// lines per second — I/O spent worsening the very overload it reports.
// Suppressed offenders are counted (ServiceStats::slow_suppressed /
// fj_slow_suppressed_total) and acknowledged in-band: the next emitted line
// is preceded by one summary line
//
//   fj_slow_request_suppressed model=default suppressed=N
//
// so a log reader knows exactly how many offenders the gap hides.
//
// Lines go to stderr unless a sink FILE* is injected (tests use
// open_memstream; fj_server --slow-log-micros leaves stderr). One mutex
// serializes whole lines so concurrent workers never interleave fragments —
// it is taken only for offenders, never on the fast path.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>

#include "obs/request_trace.h"
#include "query/query.h"

namespace fj::obs {

/// The token bucket: lines per second, and the tokens it banks at most.
inline constexpr double kSlowLogLinesPerSecond = 10.0;
inline constexpr double kSlowLogBurst = 20.0;

class SlowRequestLog {
 public:
  /// `threshold_micros` 0 disables; `sink` nullptr means stderr; `model`
  /// stamps every line (empty → "default"); `clock` overrides the time
  /// source for the bucket (tests; nullptr = MonotonicMicros).
  SlowRequestLog(uint64_t threshold_micros, std::FILE* sink,
                 std::string model,
                 std::function<uint64_t()> clock = nullptr);

  SlowRequestLog(const SlowRequestLog&) = delete;
  SlowRequestLog& operator=(const SlowRequestLog&) = delete;

  bool enabled() const { return threshold_micros_ > 0; }
  uint64_t threshold_micros() const { return threshold_micros_; }

  /// Logs one line when trace.total_micros >= threshold and the token
  /// bucket has a token. `masks` is the batch size. Returns true when a
  /// line was written (false: under threshold, or suppressed). Thread-safe.
  bool MaybeLog(const QueryFingerprint& fingerprint, size_t masks,
                const RequestTrace& trace);

  /// Lines written so far (summary lines excluded). Thread-safe.
  uint64_t logged() const { return logged_.load(std::memory_order_relaxed); }

  /// Offenders suppressed by the rate limit so far. Thread-safe.
  uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }

 private:
  const uint64_t threshold_micros_;
  std::FILE* const sink_;
  const std::string model_;
  const std::function<uint64_t()> clock_;
  std::mutex mu_;
  // Token bucket, guarded by mu_ (taken only for offenders).
  double tokens_ = kSlowLogBurst;
  uint64_t last_refill_micros_ = 0;
  uint64_t pending_suppressed_ = 0;  // since the last summary line
  std::atomic<uint64_t> logged_{0};
  std::atomic<uint64_t> suppressed_{0};
};

}  // namespace fj::obs
