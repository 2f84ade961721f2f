#include "obs/metrics_registry.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace fj::obs {
namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

std::string FormatValue(double value) {
  char buf[64];
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      value >= -9.0e15 && value <= 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<int64_t>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  return buf;
}

/// Renders {k1="v1",k2="v2"} (empty string for no labels); `extra` appends
/// one more pair (the histogram `le`).
std::string LabelBlock(const std::vector<MetricLabel>& labels,
                       const std::string& extra_key = "",
                       const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const MetricLabel& l : labels) {
    if (!first) out += ",";
    first = false;
    out += l.key + "=\"" + Escape(l.value) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                                  ? static_cast<size_t>(n)
                                  : sizeof(buf) - 1);
}

const std::vector<uint64_t>& MetricsRegistry::PrometheusLeBoundaries() {
  // Powers of 4 from 1us to ~4.2s: 13 bucket lines per histogram, aligned
  // with fine-bucket edges (each is a power of two, always a bucket lower
  // bound) so the folded cumulative counts are exact up to the boundary.
  static const std::vector<uint64_t> kBoundaries = {
      1,    4,     16,    64,     256,     1024,   4096,
      16384, 65536, 262144, 1048576, 4194304};
  return kBoundaries;
}

void MetricsRegistry::AddCollector(Collector collector) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(collector));
}

std::vector<MetricSample> MetricsRegistry::Collect() const {
  std::vector<MetricSample> samples;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Collector& collector : collectors_) collector(&samples);
  return samples;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::vector<MetricSample> samples = Collect();
  std::string out;
  out.reserve(4096);
  // Series of one name must be contiguous with a single HELP/TYPE header;
  // group by first-seen name order.
  std::vector<std::string> order;
  std::unordered_map<std::string, std::vector<const MetricSample*>> groups;
  for (const MetricSample& s : samples) {
    auto [it, inserted] = groups.try_emplace(s.name);
    if (inserted) order.push_back(s.name);
    it->second.push_back(&s);
  }
  for (const std::string& name : order) {
    const auto& group = groups[name];
    if (!group.front()->help.empty()) {
      out += "# HELP " + name + " " + group.front()->help + "\n";
    }
    out += "# TYPE " + name + " " + KindName(group.front()->kind) + "\n";
    for (const MetricSample* s : group) {
      if (s->kind != MetricKind::kHistogram) {
        out += name + LabelBlock(s->labels) + " " + FormatValue(s->value) +
               "\n";
        continue;
      }
      // Fold the fine buckets into the coarse cumulative `le` grid: a fine
      // bucket counts toward the smallest boundary at or above its upper
      // bound. Boundaries align with fine-bucket edges, so no sample is
      // attributed below its boundary.
      const std::vector<uint64_t>& bounds = PrometheusLeBoundaries();
      uint64_t cumulative = 0;
      size_t bucket = 0;
      for (uint64_t le : bounds) {
        while (bucket < HistogramSnapshot::kNumBuckets &&
               HistogramBuckets::UpperBound(bucket) <= le) {
          cumulative += s->hist.buckets[bucket];
          ++bucket;
        }
        out += name + "_bucket" + LabelBlock(s->labels, "le",
                                             FormatValue(
                                                 static_cast<double>(le))) +
               " " + FormatValue(static_cast<double>(cumulative)) + "\n";
      }
      out += name + "_bucket" + LabelBlock(s->labels, "le", "+Inf") + " " +
             FormatValue(static_cast<double>(s->hist.count)) + "\n";
      out += name + "_sum" + LabelBlock(s->labels) + " " +
             FormatValue(static_cast<double>(s->hist.sum)) + "\n";
      out += name + "_count" + LabelBlock(s->labels) + " " +
             FormatValue(static_cast<double>(s->hist.count)) + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  std::vector<MetricSample> samples = Collect();
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricSample& s : samples) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + Escape(s.name) + "\",\"type\":\"" +
           KindName(s.kind) + "\",\"labels\":{";
    for (size_t i = 0; i < s.labels.size(); ++i) {
      if (i != 0) out += ",";
      out += "\"" + Escape(s.labels[i].key) + "\":\"" +
             Escape(s.labels[i].value) + "\"";
    }
    out += "}";
    if (s.kind == MetricKind::kHistogram) {
      out += ",\"count\":" + FormatValue(static_cast<double>(s.hist.count));
      out += ",\"sum\":" + FormatValue(static_cast<double>(s.hist.sum));
      out += ",\"max\":" + FormatValue(static_cast<double>(s.hist.max));
      out += ",\"mean\":" + FormatValue(s.hist.Mean());
      out += ",\"p50\":" + FormatValue(s.hist.ValueAtQuantile(0.50));
      out += ",\"p90\":" + FormatValue(s.hist.ValueAtQuantile(0.90));
      out += ",\"p99\":" + FormatValue(s.hist.ValueAtQuantile(0.99));
      out += ",\"p999\":" + FormatValue(s.hist.ValueAtQuantile(0.999));
    } else {
      out += ",\"value\":" + FormatValue(s.value);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace fj::obs
