#include "obs/slo.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "obs/time_series.h"

namespace fj::obs {
namespace {

/// The number `token` starts with; *rest gets what follows it. Throws
/// unless there is one and it is finite.
double LeadingNumber(const std::string& token, const std::string& what,
                     std::string* rest) {
  size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("slo: bad " + what + " '" + token + "'");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("slo: " + what + " '" + token +
                                "' is not finite");
  }
  *rest = token.substr(pos);
  return value;
}

/// "5ms" → micros. Accepts us/ms/s suffixes; bare numbers are rejected so
/// a spec never silently means the wrong unit.
uint64_t ParseDuration(const std::string& token) {
  std::string unit;
  double value = LeadingNumber(token, "duration", &unit);
  if (value < 0.0) {
    throw std::invalid_argument("slo: negative duration '" + token + "'");
  }
  double scale = 0.0;
  if (unit == "us") scale = 1.0;
  else if (unit == "ms") scale = 1e3;
  else if (unit == "s") scale = 1e6;
  else {
    throw std::invalid_argument("slo: duration '" + token +
                                "' needs a us/ms/s suffix");
  }
  // 2^64, the first value a uint64_t cannot hold.
  if (value * scale >= 18446744073709551616.0) {
    throw std::invalid_argument("slo: duration '" + token +
                                "' is out of range");
  }
  return static_cast<uint64_t>(value * scale);
}

/// The latency objective keys and the quantile each names.
struct QuantileKey {
  const char* key;
  double quantile;
};
constexpr QuantileKey kQuantileKeys[] = {
    {"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p999", 0.999}};

std::string FormatThreshold(uint64_t micros) {
  char buf[32];
  if (micros % 1000000 == 0 && micros > 0) {
    std::snprintf(buf, sizeof(buf), "%llus",
                  static_cast<unsigned long long>(micros / 1000000));
  } else if (micros % 1000 == 0 && micros > 0) {
    std::snprintf(buf, sizeof(buf), "%llums",
                  static_cast<unsigned long long>(micros / 1000));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluus",
                  static_cast<unsigned long long>(micros));
  }
  return buf;
}

}  // namespace

std::string SloObjective::Name() const {
  const char* q = "p99";
  for (const QuantileKey& k : kQuantileKeys) {
    if (k.quantile == quantile) q = k.key;
  }
  return std::string(q) + "_" + FormatThreshold(threshold_micros);
}

SloSpec SloSpec::Parse(const std::string& spec) {
  SloSpec out;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    std::string token = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    start = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (token.empty()) continue;
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("slo: objective '" + token +
                                  "' is not key=value");
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    const QuantileKey* q = std::find_if(
        std::begin(kQuantileKeys), std::end(kQuantileKeys),
        [&key](const QuantileKey& k) { return key == k.key; });
    if (key == "avail") {
      std::string rest;
      double pct = LeadingNumber(value, "availability", &rest);
      if (!rest.empty() || pct <= 0.0 || pct >= 100.0) {
        throw std::invalid_argument(
            "slo: availability must be a number in (0,100), got '" + value +
            "'");
      }
      if (out.availability != 0.0) {
        throw std::invalid_argument("slo: availability given twice");
      }
      out.availability = pct / 100.0;
    } else if (q != std::end(kQuantileKeys)) {
      SloObjective obj{q->quantile, ParseDuration(value)};
      if (obj.threshold_micros == 0) {
        throw std::invalid_argument("slo: zero threshold in '" + token + "'");
      }
      for (const SloObjective& other : out.latency) {
        if (other.Name() == obj.Name()) {
          throw std::invalid_argument("slo: objective " + obj.Name() +
                                      " given twice");
        }
      }
      if (out.latency.size() == kMaxLatencyObjectives) {
        throw std::invalid_argument(
            "slo: at most " + std::to_string(kMaxLatencyObjectives) +
            " latency objectives");
      }
      out.latency.push_back(obj);
    } else {
      throw std::invalid_argument("slo: unknown objective '" + key +
                                  "' (want p50/p90/p99/p999/avail)");
    }
  }
  return out;
}

std::vector<SloBurn> BurnRates(const SloSpec& spec,
                               const TimeSeriesRing& ring) {
  if (spec.latency.size() > kMaxLatencyObjectives) {
    throw std::invalid_argument("slo: more than " +
                                std::to_string(kMaxLatencyObjectives) +
                                " latency objectives");
  }
  constexpr size_t kErrors = ServiceCounterRow("fj_errors_total");
  struct Span {
    uint64_t total = 0;
    uint64_t errors = 0;
    std::array<uint64_t, kMaxLatencyObjectives> bad{};
    void Add(const WindowSample& w) {
      total += w.latency_count;
      errors += w.service[kErrors];
      for (size_t i = 0; i < bad.size(); ++i) bad[i] += w.over_threshold[i];
    }
  };
  Span fast;
  Span slow;
  if (!spec.Empty()) {
    size_t newer = 0;  // windows visited so far, newest first
    ring.ForEachNewest(kSloSlowWindowSeconds, [&](const WindowSample& w) {
      if (newer++ < kSloFastWindowSeconds) fast.Add(w);
      slow.Add(w);
    });
  }
  auto burn = [](uint64_t bad, uint64_t total, double budget) {
    if (total == 0 || budget <= 0.0) return 0.0;
    return (static_cast<double>(bad) / static_cast<double>(total)) / budget;
  };
  std::vector<SloBurn> burns;
  for (size_t i = 0; i < spec.latency.size(); ++i) {
    double budget = spec.latency[i].Budget();
    burns.push_back({spec.latency[i].Name(),
                     burn(fast.bad[i], fast.total, budget),
                     burn(slow.bad[i], slow.total, budget)});
  }
  if (spec.availability > 0.0) {
    double budget = spec.AvailabilityBudget();
    burns.push_back({"availability", burn(fast.errors, fast.total, budget),
                     burn(slow.errors, slow.total, budget)});
  }
  return burns;
}

}  // namespace fj::obs
