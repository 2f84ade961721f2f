#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

uint64_t SpanLog::Root(const char* name, int64_t start_ns, int64_t end_ns,
                       uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  spans_.push_back(Span{id, 0, id, name, start_ns, end_ns, count});
  request_of_[id] = id;
  return id;
}

uint64_t SpanLog::Child(uint64_t parent, const char* name, int64_t start_ns,
                        int64_t end_ns, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  uint64_t request = request_of_.at(parent);
  spans_.push_back(Span{id, parent, request, name, start_ns, end_ns, count});
  request_of_[id] = request;
  return id;
}

void SpanLog::StageChildren(
    uint64_t parent, int64_t start_ns,
    const std::vector<std::pair<const char*, double>>& us) {
  int64_t at = start_ns;
  for (const auto& [name, micros] : us) {
    int64_t end = at + static_cast<int64_t>(micros * 1e3);
    Child(parent, name, at, end);
    at = end;
  }
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::WriteCsv(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  std::ofstream out(path);
  out << "id,parent,request,name,start_ns,end_ns,count\n";
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << ',' << s.count << '\n';
  }
}

std::map<std::string, LayerStat> SummarizeLayers(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> by_id;
  std::unordered_map<uint64_t, int64_t> child_ns;
  std::map<std::string, uint64_t> roots_per_phase;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    } else {
      ++roots_per_phase[s.name];
    }
  }
  std::map<std::string, LayerStat> layers;
  for (const Span& s : spans) {
    int64_t self = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    if (it != child_ns.end()) self -= it->second;
    LayerStat& layer = layers[s.name];
    layer.phase = by_id.at(s.request)->name;
    layer.self_us += static_cast<double>(std::max<int64_t>(self, 0)) / 1e3;
    layer.calls += s.count;
  }
  for (auto& [name, layer] : layers) {
    layer.phase_requests = roots_per_phase[layer.phase];
  }
  return layers;
}

double LayerUs(const std::map<std::string, LayerStat>& layers,
               const std::string& name) {
  auto it = layers.find(name);
  return it == layers.end() ? 0.0 : it->second.MeanSelfUs();
}

void RecordLayerTable(const std::map<std::string, LayerStat>& layers,
                      Report* report) {
  std::ostringstream table;
  table << "{";
  bool first = true;
  for (const auto& [name, layer] : layers) {
    table << (first ? "" : ", ") << JsonStr(name) << ": {\"phase\": "
          << JsonStr(layer.phase)
          << ", \"mean_self_us\": " << JsonNum(layer.MeanSelfUs())
          << ", \"calls_per_request\": " << JsonNum(layer.CallsPerRequest())
          << ", \"requests\": " << layer.phase_requests << "}";
    first = false;
  }
  table << "}";
  report->Raw("layers", table.str());
}

double Reconcile(const std::map<std::string, LayerStat>& layers,
                 double latency_us, const std::vector<ReconTerm>& terms,
                 const std::vector<ReconExplain>& explains, Report* report) {
  std::unordered_map<std::string, double> cost;
  double attributed = 0.0;
  std::ostringstream rows;
  rows << "[";
  for (size_t i = 0; i < terms.size(); ++i) {
    const ReconTerm& t = terms[i];
    double mean = LayerUs(layers, t.layer);
    cost[t.layer] = mean * t.calls_per_request;
    attributed += cost[t.layer];
    rows << (i == 0 ? "" : ", ") << "{\"layer\": " << JsonStr(t.layer)
         << ", \"mean_self_us\": " << JsonNum(mean)
         << ", \"calls_per_request\": " << JsonNum(t.calls_per_request)
         << ", \"us_per_request\": " << JsonNum(cost[t.layer]) << "}";
  }
  rows << "]";
  double frac = latency_us > 0.0 ? (latency_us - attributed) / latency_us : 0.0;

  // Residuals: the root's own self time (request time no traced stage
  // covers), and each coarse traced span minus the replayed layers standing
  // in for it.
  std::vector<std::pair<std::string, double>> residuals;
  residuals.emplace_back("request (not covered by any traced stage)",
                         LayerUs(layers, "request"));
  for (const ReconExplain& e : explains) {
    double explained = 0.0;
    std::string by;
    for (const std::string& layer : e.by) {
      explained += cost[layer];
      by += (by.empty() ? "" : " + ") + layer;
    }
    residuals.emplace_back(e.span + " beyond " + by,
                           e.span_us_per_request - explained);
  }
  size_t largest = 0;
  std::ostringstream res;
  res << "[";
  for (size_t i = 0; i < residuals.size(); ++i) {
    if (std::fabs(residuals[i].second) > std::fabs(residuals[largest].second)) {
      largest = i;
    }
    res << (i == 0 ? "" : ", ") << "{\"span\": " << JsonStr(residuals[i].first)
        << ", \"us_per_request\": " << JsonNum(residuals[i].second) << "}";
  }
  res << "]";

  std::ostringstream rec;
  rec << "{\"latency_us\": " << JsonNum(latency_us)
      << ", \"attributed_us\": " << JsonNum(attributed)
      << ", \"signed_unattributed_frac\": " << JsonNum(frac)
      << ", \"tolerance\": " << JsonNum(kReconTolerance)
      << ", \"terms\": " << rows.str() << ", \"residuals\": " << res.str()
      << "}";
  report->Raw("reconciliation", rec.str());
  if (std::fabs(frac) > kReconTolerance) {
    std::string msg = "largest unexplained span: " + residuals[largest].first +
                      " (" + JsonNum(residuals[largest].second) +
                      " us per request)";
    report->Str("reconciliation_exceeded", msg);
    std::fprintf(stderr, "perfbench: unattributed %.3f over tolerance %.2f; %s\n",
                 frac, kReconTolerance, msg.c_str());
  }
  return std::fabs(frac);
}

}  // namespace perfbench
