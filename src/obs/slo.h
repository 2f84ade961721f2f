// SLO burn rates: configurable latency/availability objectives evaluated
// as multi-window burn rates, the SRE-alerting discipline applied to one
// replica. An objective defines an error budget — "p99=5ms" allows 1% of
// requests over 5ms, "avail=99.9" allows 0.1% errors — and the burn rate
// is how fast the budget is being spent: bad_fraction / budget. Burn 1.0
// means exactly on budget; burn 14 means the monthly budget would be gone
// in ~2 days. Alerting on a single window is either noisy (short window)
// or slow (long window), so each objective is evaluated over a fast window
// (60s — catches an active incident) and a slow window (1800s — catches a
// sustained simmer), the standard two-window reduction of Google's
// multiwindow burn alerts.
//
// There is no SLO-owned state. The monitor (obs/monitor.h) stores, in each
// per-second WindowSample of its one TimeSeriesRing, every latency
// objective's over-threshold count (CountOver on the window's latency
// delta, so a latency objective never false-alarms on boundary-bucket
// samples); BurnRates() sums the newest 60 and 1800 windows of that ring
// in place.
//
// Spec grammar (fj_server --slo): comma-separated objectives,
//   p50|p90|p99|p999=<value><us|ms|s>   latency: that quantile under value
//   avail=<percent>                     availability: error rate under 1-p
// e.g. "p99=5ms,avail=99.9". Parse() throws std::invalid_argument on
// malformed specs so a typo fails server startup loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fj::obs {

class TimeSeriesRing;

/// Burn windows, in seconds (one WindowSample per second).
inline constexpr size_t kSloFastWindowSeconds = 60;
inline constexpr size_t kSloSlowWindowSeconds = 1800;
/// Latency objectives a spec may hold: each window stores one
/// over-threshold count per objective in a fixed array.
inline constexpr size_t kMaxLatencyObjectives = 4;

/// One latency objective: `quantile` of requests must complete within
/// `threshold_micros`. The error budget is 1 - quantile.
struct SloObjective {
  double quantile = 0.99;        // 0.5, 0.9, 0.99, or 0.999
  uint64_t threshold_micros = 0;
  /// "p99_5ms"-style slug used in gauge labels and JSON keys.
  std::string Name() const;
  /// 1 - quantile: the fraction of requests allowed over threshold.
  double Budget() const { return 1.0 - quantile; }
};

/// A full SLO spec: up to kMaxLatencyObjectives latency objectives plus an
/// optional availability target.
struct SloSpec {
  std::vector<SloObjective> latency;
  /// Availability target as a fraction (0.999 for "avail=99.9"); 0 means
  /// no availability objective.
  double availability = 0.0;

  bool Empty() const { return latency.empty() && availability == 0.0; }
  double AvailabilityBudget() const { return 1.0 - availability; }

  /// Parses the --slo grammar above. Throws std::invalid_argument with a
  /// pointed message on any malformed token: a value that is not finite,
  /// out of range, or followed by junk; a repeated objective; or more than
  /// kMaxLatencyObjectives latency objectives.
  static SloSpec Parse(const std::string& spec);
};

/// Burn state of one objective at one instant.
struct SloBurn {
  std::string name;         // objective slug ("p99_5ms", "availability")
  double fast_burn = 0.0;   // over the fast window
  double slow_burn = 0.0;   // over the slow window
  /// The alerting condition: both windows burning above 1 means the
  /// budget is being actively spent, not just a blip.
  bool Burning() const { return fast_burn > 1.0 && slow_burn > 1.0; }
};

/// Burn rates of every objective of `spec` (latency objectives in spec
/// order, then availability) over the newest kSloFastWindowSeconds and
/// kSloSlowWindowSeconds windows of `ring`, read in place under the ring's
/// lock. A window's total is its latency_count; its bad events are
/// over_threshold[i] for latency objective i and the fj_errors_total row
/// for availability. With zero traffic in a window span the burn is 0 — no
/// requests, no budget spent. Throws std::invalid_argument when `spec` has
/// more than kMaxLatencyObjectives latency objectives.
std::vector<SloBurn> BurnRates(const SloSpec& spec,
                               const TimeSeriesRing& ring);

}  // namespace fj::obs
