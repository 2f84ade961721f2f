// Flight recorder: the last N completed requests plus the slowest request
// of each recent window, retained in fixed memory and dumped on demand —
// so "p999 spiked at 14:02" becomes the stage breakdowns of the requests
// that were actually on the floor. The recent ring answers "what was the
// server doing just now"; the slowest-per-window reservoir answers "what
// did the worst request of each of the last ~64 seconds look like", which
// survives long after the spike has scrolled out of the ring.
//
// Append runs on the serving path (sampled — every Kth request plus every
// slow-log offender), so it must be cheap and TSAN-clean under concurrent
// workers. Each ring slot carries its own one-byte spinlock: an appender
// claims a slot by ticket (one fetch_add), spins only against a reader
// copying that same slot, and copies ~120 trivially-copyable bytes. A
// seqlock would avoid the reader spin but its racing byte reads are
// undefined behaviour that TSAN rightly flags, and this file has a tsan
// ctest label to keep; per-slot locks cost one uncontended RMW in the
// common case. The slowest-per-window path takes a mutex only after a
// relaxed atomic pre-check says this request beats the window's incumbent,
// which at steady state is rare.
//
// DumpJson() renders both collections, newest first, each record with a
// `dominant_stage` field (the stage holding the largest share of
// total_micros) — the one-word answer to "where did it go", and what
// tools/net_smoke.sh greps for after an overload burst.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/request_trace.h"
#include "query/query.h"

namespace fj::obs {

/// The slowest-per-window reservoir keeps one request per one-second
/// window, for the last 64 windows.
inline constexpr uint64_t kFlightWindowMicros = 1'000'000;
inline constexpr size_t kFlightWindowSlots = 64;
/// EstimatorService appends every 16th completed request (plus every
/// slow-log offender) to its recorder.
inline constexpr uint64_t kFlightSampleEvery = 16;

/// One retained request: trivially copyable, fixed size (~120 bytes), no
/// heap — slots are copied under a spinlock.
struct FlightRecord {
  uint64_t seq = 0;        // append ticket, monotonically increasing
  uint64_t t_micros = 0;   // completion time (MonotonicMicros)
  uint64_t total_micros = 0;
  std::array<uint64_t, kNumStages> stage_micros{};
  uint64_t fp_lo = 0;      // query fingerprint
  uint64_t fp_hi = 0;
  uint32_t masks = 0;      // batch size
  char model[16] = {};     // model name, truncated, NUL-terminated

  /// Stage holding the largest share of the trace (ties → first).
  Stage DominantStage() const;
};

class FlightRecorder {
 public:
  /// `capacity` recent-ring slots (rounded up to 1).
  explicit FlightRecorder(size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one completed request. Thread-safe, lock-light (see header).
  void Append(const QueryFingerprint& fingerprint, size_t masks,
              const char* model, const RequestTrace& trace);

  /// The retained recent records, newest first, at most `last_n`.
  /// Thread-safe; skips any slot mid-append rather than blocking it.
  std::vector<FlightRecord> Recent(size_t last_n = SIZE_MAX) const;

  /// The slowest-per-window reservoir, newest window first.
  std::vector<FlightRecord> Slowest() const;

  /// Records appended since construction. Thread-safe.
  uint64_t appended() const {
    return ticket_.load(std::memory_order_relaxed);
  }

  /// Full dump: {"appended":N,"recent":[...],"slowest":[...]} with each
  /// record's stages (zeros elided) and dominant_stage.
  std::string DumpJson(size_t max_recent = 64) const;

 private:
  struct Slot {
    /// 0 = free; an appender CASes it to 1, copies, releases to 0.
    mutable std::atomic<uint8_t> lock{0};
    /// seq 0 means never written.
    FlightRecord record;
  };

  std::vector<Slot> slots_;
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
};

}  // namespace fj::obs
