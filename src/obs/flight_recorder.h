// Flight recorder: the one place a service captures requests for post-hoc
// reading. Every EstimatorService owns one and offers it each completed
// request (Record) after the completion ran. It keeps every
// kFlightSampleEvery-th request plus every offender — a request whose
// end-to-end latency reaches the slow threshold — and fingerprints only
// what it keeps. It retains the last kFlightCapacity kept requests (what
// was the server doing just now) and the slowest kept request of each of
// the last 64 one-second windows (what the worst request of each recent
// second looked like, long after a spike scrolled out of the ring).
//
// The slow-request log is the recorder's formatter: each kept offender
// becomes one stable key=value line (single line; zero stages elided; see
// docs/OBSERVABILITY.md),
//
//   fj_slow_request model=default fp=00c3...9a masks=842
//       total_us=15234 queue_wait_us=12 cache_probe_us=301 estimate_us=14850
//
// rate-limited by a token bucket (kSlowLogLinesPerSecond, burst
// kSlowLogBurst): under overload nearly every request is an offender, and
// an unthrottled log would spend I/O worsening the overload it reports. A
// suppressed offender is still recorded and counted, and the next line is
// preceded by `fj_slow_request_suppressed model=default suppressed=N`.
//
// Record runs on the serving path under concurrent workers, so it is
// lock-light and TSAN-clean: one fetch_add per request; a kept record is
// copied (~100 bytes) under its ring slot's one-byte spinlock, which only a
// reader copying that slot contends (a seqlock's racing reads would be
// undefined behaviour). The per-window reservoir takes a mutex only after
// a relaxed pre-check says the request beats its window's incumbent, and
// the slow-line mutex is taken only for offenders. DumpJson() renders both
// collections newest first, each record with its `dominant_stage`.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/request_trace.h"
#include "query/query.h"

namespace fj::obs {

/// Recent-ring slots of every recorder.
inline constexpr size_t kFlightCapacity = 256;
/// The slowest-per-window reservoir keeps one request per one-second
/// window, for the last 64 windows.
inline constexpr uint64_t kFlightWindowMicros = 1'000'000;
inline constexpr size_t kFlightWindowSlots = 64;
/// A recorder keeps every 16th request it is offered (plus every offender).
inline constexpr uint64_t kFlightSampleEvery = 16;
/// The slow-line token bucket: lines per second, and the tokens it banks
/// at most.
inline constexpr double kSlowLogLinesPerSecond = 10.0;
inline constexpr double kSlowLogBurst = 20.0;

/// One retained request: trivially copyable, fixed size (~100 bytes), no
/// heap — slots are copied under a spinlock.
struct FlightRecord {
  uint64_t seq = 0;        // append ticket, monotonically increasing
  uint64_t t_micros = 0;   // completion time (the recorder's clock)
  uint64_t total_micros = 0;
  std::array<uint64_t, kNumStages> stage_micros{};
  uint64_t fp_lo = 0;      // query fingerprint
  uint64_t fp_hi = 0;
  uint32_t masks = 0;      // batch size

  /// Stage holding the largest share of the trace (ties → first).
  Stage DominantStage() const;
};

class FlightRecorder {
 public:
  /// `model` names the recorder in its slow lines and dump ("" renders as
  /// "default"); `slow_micros` is the offender threshold (0: no request is
  /// an offender). `sink` receives the slow lines (nullptr = stderr, not
  /// owned) and `clock` stamps records and refills the token bucket
  /// (nullptr = MonotonicMicros); tests inject both.
  FlightRecorder(std::string model, uint64_t slow_micros,
                 std::FILE* sink = nullptr,
                 std::function<uint64_t()> clock = nullptr);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Offers one completed request of `masks` sub-plans: keeps it when it is
  /// the kFlightSampleEvery-th offered or an offender, and writes a kept
  /// offender's slow line (rate-limited). Returns true when kept.
  /// Thread-safe, lock-light (see header).
  bool Record(const Query& query, size_t masks, const RequestTrace& trace);

  /// The retained recent records, newest first, at most `last_n`.
  /// Thread-safe.
  std::vector<FlightRecord> Recent(size_t last_n = SIZE_MAX) const;

  /// The slowest-per-window reservoir, newest window first.
  std::vector<FlightRecord> Slowest() const;

  /// Requests kept since construction. Thread-safe.
  uint64_t appended() const {
    return ticket_.load(std::memory_order_relaxed);
  }

  /// Slow lines written (summary lines excluded). Thread-safe.
  uint64_t logged() const { return logged_.load(std::memory_order_relaxed); }

  /// Offenders whose line the rate limit swallowed. Thread-safe.
  uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }

  /// Full dump: {"model":M,"appended":N,"recent":[...],"slowest":[...]}
  /// with each record's stages (zeros elided) and dominant_stage.
  std::string DumpJson(size_t max_recent = 64) const;

 private:
  void Append(const FlightRecord& record);
  /// Writes `record`'s slow line when the token bucket has a token.
  void WriteSlowLine(const FlightRecord& record);

  const std::string model_;
  const uint64_t slow_micros_;
  std::FILE* const sink_;
  const std::function<uint64_t()> clock_;
  // Requests offered so far: the every-Nth sampling ticket.
  std::atomic<uint64_t> offered_{0};

  struct Slot {
    /// 0 = free; an appender CASes it to 1, copies, releases to 0.
    mutable std::atomic<uint8_t> lock{0};
    /// seq 0 means never written.
    FlightRecord record;
  };

  std::array<Slot, kFlightCapacity> slots_{};
  std::atomic<uint64_t> ticket_{0};

  // Slowest-per-window reservoir:
  // slot = (t / kFlightWindowMicros) % kFlightWindowSlots. window_id
  // disambiguates a reused slot from a stale epoch.
  struct WindowSlot {
    uint64_t window_id = 0;
    FlightRecord record;
  };
  /// Relaxed pre-check: the slowest total seen for the *current* window of
  /// each slot; stale values only cause a harmless extra mutex trip.
  std::array<std::atomic<uint64_t>, kFlightWindowSlots> window_best_{};
  std::array<std::atomic<uint64_t>, kFlightWindowSlots> window_ids_{};
  mutable std::mutex window_mu_;
  std::array<WindowSlot, kFlightWindowSlots> windows_{};

  // Slow-line token bucket, guarded by slow_mu_.
  std::mutex slow_mu_;
  double tokens_ = kSlowLogBurst;
  uint64_t last_refill_micros_ = 0;
  uint64_t pending_suppressed_ = 0;  // since the last summary line
  std::atomic<uint64_t> logged_{0};
  std::atomic<uint64_t> suppressed_{0};
};

}  // namespace fj::obs
