// Health + overload state machine: a three-state (`ok → degraded →
// overloaded`) signal derived from queue pressure, served at /healthz so a
// client or router can fail away from a drowning replica before the
// scale-out cluster exists to do it automatically.
//
// The inputs are the two signals PR 7's open-loop harness showed moving
// first at the capacity knee: queue occupancy (depth / capacity, the
// backpressure bound about to reject work) and queue-wait p99 over the
// last window (time on the floor before a worker picks the request up).
// Either signal crossing its threshold makes the *instantaneous* level
// degraded or overloaded; the published state only follows with
// hysteresis — kHealthEnterTicks consecutive ticks at or above a level to
// escalate, kHealthExitTicks consecutive ticks below it to de-escalate — so
// boundary load (exactly at the knee, signals straddling the threshold
// tick to tick) cannot flap the state and trigger a failover storm.
//
// Tick() is called once per second by the monitor; state() is a single
// relaxed atomic load, cheap enough for every /healthz hit and for the
// serving path itself to consult later (load shedding, ROADMAP).
#pragma once

#include <atomic>
#include <cstdint>

namespace fj::obs {

enum class HealthState : uint8_t {
  kOk = 0,
  kDegraded = 1,
  kOverloaded = 2,
};

const char* HealthStateName(HealthState state);

/// Thresholds and hysteresis: degraded when the queue is half full or
/// queue-wait p99 passes 5ms; overloaded when the queue is nearly full
/// (90%) or waits pass 50ms — by then requests spend most of their latency
/// on the floor. Escalate after 2 consecutive ticks, de-escalate after 5:
/// entering protection fast matters more than leaving it fast.
inline constexpr double kDegradedQueueFrac = 0.5;
inline constexpr double kDegradedQueueWaitP99Micros = 5'000;
inline constexpr double kOverloadedQueueFrac = 0.9;
inline constexpr double kOverloadedQueueWaitP99Micros = 50'000;
inline constexpr uint32_t kHealthEnterTicks = 2;
inline constexpr uint32_t kHealthExitTicks = 5;

/// One tick's raw signals.
struct HealthInput {
  double queue_frac = 0.0;  // queue depth / queue capacity, 0 if unbounded
  double queue_wait_p99_micros = 0.0;  // over the last window
};

class HealthTracker {
 public:
  HealthTracker() = default;

  HealthTracker(const HealthTracker&) = delete;
  HealthTracker& operator=(const HealthTracker&) = delete;

  /// Feeds one tick; returns the published (hysteresis-filtered) state.
  /// Single caller (the monitor thread).
  HealthState Tick(const HealthInput& input);

  /// Published state; any thread, wait-free.
  HealthState state() const {
    return static_cast<HealthState>(state_.load(std::memory_order_relaxed));
  }

  /// Ticks observed since the published state last changed.
  uint64_t ticks_in_state() const {
    return ticks_in_state_.load(std::memory_order_relaxed);
  }
  /// Published-state transitions so far (gauge fodder).
  uint64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }

 private:
  /// The instantaneous level implied by one tick's signals, no hysteresis.
  HealthState Classify(const HealthInput& input) const;

  std::atomic<uint8_t> state_{0};
  std::atomic<uint64_t> ticks_in_state_{0};
  std::atomic<uint64_t> transitions_{0};

  // Streak bookkeeping, monitor-thread only.
  uint32_t above_streak_ = 0;  // consecutive ticks strictly above state
  uint32_t below_streak_ = 0;  // consecutive ticks strictly below state
  HealthState above_min_ = HealthState::kOk;  // weakest level in the streak
  HealthState below_max_ = HealthState::kOk;  // strongest level in the streak
};

}  // namespace fj::obs
