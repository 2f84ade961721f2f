#include "obs/health.h"

namespace fj::obs {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kOk: return "ok";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kOverloaded: return "overloaded";
  }
  return "unknown";
}

HealthState HealthTracker::Classify(const HealthInput& input) const {
  if (input.queue_frac >= kOverloadedQueueFrac ||
      input.queue_wait_p99_micros >= kOverloadedQueueWaitP99Micros) {
    return HealthState::kOverloaded;
  }
  if (input.queue_frac >= kDegradedQueueFrac ||
      input.queue_wait_p99_micros >= kDegradedQueueWaitP99Micros) {
    return HealthState::kDegraded;
  }
  return HealthState::kOk;
}

HealthState HealthTracker::Tick(const HealthInput& input) {
  HealthState current = state();
  HealthState level = Classify(input);
  ticks_in_state_.fetch_add(1, std::memory_order_relaxed);

  if (level > current) {
    // Track the *weakest* level seen during the escalation streak: two
    // ticks of {overloaded, degraded} escalate to degraded, not overloaded
    // — every tick of the streak vouched for at least that level.
    above_min_ = (above_streak_ == 0 || level < above_min_) ? level
                                                            : above_min_;
    ++above_streak_;
    below_streak_ = 0;
  } else if (level < current) {
    // Mirror image: de-escalate to the strongest level of the streak.
    below_max_ = (below_streak_ == 0 || level > below_max_) ? level
                                                            : below_max_;
    ++below_streak_;
    above_streak_ = 0;
  } else {
    above_streak_ = 0;
    below_streak_ = 0;
  }

  HealthState next = current;
  if (above_streak_ >= kHealthEnterTicks) {
    next = above_min_;
    above_streak_ = 0;
  } else if (below_streak_ >= kHealthExitTicks) {
    next = below_max_;
    below_streak_ = 0;
  }
  if (next != current) {
    state_.store(static_cast<uint8_t>(next), std::memory_order_relaxed);
    ticks_in_state_.store(0, std::memory_order_relaxed);
    transitions_.fetch_add(1, std::memory_order_relaxed);
  }
  return next;
}

}  // namespace fj::obs
