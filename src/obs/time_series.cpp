#include "obs/time_series.h"

#include <algorithm>
#include <cinttypes>

#include "obs/metrics_registry.h"

namespace fj::obs {

TimeSeriesRing::TimeSeriesRing(size_t capacity)
    : slots_(capacity > 0 ? capacity : 1) {}

void TimeSeriesRing::Push(const WindowSample& sample) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_[next_] = sample;
  next_ = (next_ + 1) % slots_.size();
  ++pushed_;
}

std::vector<WindowSample> TimeSeriesRing::Window(size_t last_n) const {
  std::vector<WindowSample> out;
  ForEachNewest(last_n, [&out](const WindowSample& w) { out.push_back(w); });
  std::reverse(out.begin(), out.end());
  return out;
}

size_t TimeSeriesRing::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pushed_ < slots_.size() ? static_cast<size_t>(pushed_)
                                 : slots_.size();
}

uint64_t TimeSeriesRing::total_pushed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pushed_;
}

std::string RenderHistoryJson(const std::vector<WindowSample>& windows,
                              size_t retention_seconds) {
  std::string out;
  out.reserve(256 + windows.size() * 1280);
  AppendF(&out, "{\"retention_seconds\":%zu,\"window_count\":%zu,",
          retention_seconds, windows.size());
  out += "\"windows\":[";
  bool first_window = true;
  for (const WindowSample& w : windows) {
    if (!first_window) out += ',';
    first_window = false;
    AppendF(&out, "{\"t_us\":%" PRIu64 ",\"seconds\":%.3f,\"qps\":%.1f",
            w.end_micros, w.seconds, w.Qps());
    AppendF(&out, ",\"latency_count\":%" PRIu64 ",\"mean_us\":%.1f",
            w.latency_count, w.mean_micros);
    AppendF(&out, ",\"p50_us\":%.1f,\"p99_us\":%.1f,\"p999_us\":%.1f",
            w.p50_micros, w.p99_micros, w.p999_micros);
    AppendF(&out, ",\"hit_rate\":%.4f,\"queue_wait_p99_us\":%.1f",
            w.HitRate(), w.queue_wait_p99_micros);
    out += ",\"counters\":{";
    for (size_t i = 0; i < w.service.size(); ++i) {
      AppendF(&out, "%s\"%s\":%" PRIu64, i > 0 ? "," : "",
              kServiceCounters[i].name, w.service[i]);
    }
    for (size_t i = 0; i < w.server.size(); ++i) {
      AppendF(&out, ",\"%s\":%" PRIu64, net::kServerCounters[i].name,
              w.server[i]);
    }
    out += "},\"stages\":{";
    bool first_stage = true;
    for (size_t s = 0; s < kNumStages; ++s) {
      if (w.stage_count[s] == 0) continue;  // elide empty stages
      if (!first_stage) out += ',';
      first_stage = false;
      double mean = static_cast<double>(w.stage_sum_micros[s]) /
                    static_cast<double>(w.stage_count[s]);
      AppendF(&out, "\"%s\":{\"count\":%" PRIu64 ",\"mean_us\":%.1f}",
              StageName(static_cast<Stage>(s)), w.stage_count[s], mean);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace fj::obs
