#include "obs/slow_log.h"

#include <utility>

namespace fj::obs {

SlowRequestLog::SlowRequestLog(uint64_t threshold_micros, std::FILE* sink,
                               std::string model,
                               std::function<uint64_t()> clock)
    : threshold_micros_(threshold_micros),
      sink_(sink != nullptr ? sink : stderr),
      model_(model.empty() ? "default" : std::move(model)),
      clock_(clock ? std::move(clock) : MonotonicMicros) {}

bool SlowRequestLog::MaybeLog(const QueryFingerprint& fingerprint,
                              size_t masks, const RequestTrace& trace) {
  if (threshold_micros_ == 0 || trace.total_micros < threshold_micros_) {
    return false;
  }
  // Build the line outside the lock; hold it only for the bucket update and
  // the single write.
  char line[512];
  int len = std::snprintf(
      line, sizeof(line),
      "fj_slow_request model=%s fp=%s masks=%zu total_us=%llu",
      model_.c_str(), fingerprint.ToString().c_str(), masks,
      static_cast<unsigned long long>(trace.total_micros));
  for (size_t i = 0; i < kNumStages && len > 0 &&
                     static_cast<size_t>(len) < sizeof(line);
       ++i) {
    if (trace.stage_micros[i] == 0) continue;
    len += std::snprintf(
        line + len, sizeof(line) - static_cast<size_t>(len), " %s_us=%llu",
        StageName(static_cast<Stage>(i)),
        static_cast<unsigned long long>(trace.stage_micros[i]));
  }
  uint64_t flushed_suppressed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t now = clock_();
    if (last_refill_micros_ == 0) last_refill_micros_ = now;
    if (now > last_refill_micros_) {
      tokens_ += static_cast<double>(now - last_refill_micros_) / 1e6 *
                 kSlowLogLinesPerSecond;
      if (tokens_ > kSlowLogBurst) tokens_ = kSlowLogBurst;
      last_refill_micros_ = now;
    }
    if (tokens_ < 1.0) {
      ++pending_suppressed_;
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    tokens_ -= 1.0;
    // Acknowledge any gap the limiter created before resuming, so the line
    // stream accounts for every offender.
    flushed_suppressed = pending_suppressed_;
    pending_suppressed_ = 0;
    if (flushed_suppressed > 0) {
      std::fprintf(sink_, "fj_slow_request_suppressed model=%s suppressed=%llu\n",
                   model_.c_str(),
                   static_cast<unsigned long long>(flushed_suppressed));
    }
    std::fprintf(sink_, "%s\n", line);
    std::fflush(sink_);
  }
  logged_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace fj::obs
