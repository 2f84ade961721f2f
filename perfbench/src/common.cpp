#include <algorithm>
#include <bit>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <malloc.h>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "query/subplan.h"
#include "util/rng.h"
#include "workload/imdb_job.h"

namespace perfbench {

// ----------------------------------------------------------- command line

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value) != 0;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(args.seconds > 0.0) || args.seconds > 120.0) {
    throw std::invalid_argument("--seconds must be in (0, 120]");
  }
  return args;
}

// ------------------------------------------------------------ statistics

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// ---------------------------------------------------------------- report

std::string JsonNum(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonStr(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

Report::Report(const Args& args, std::string workload)
    : args_(args), workload_(std::move(workload)) {}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(
      name, "{\"value\": " + JsonNum(value) + ", \"unit\": " + JsonStr(unit) +
                "}");
}

void Report::Num(const std::string& key, double value) {
  record_.emplace_back(key, JsonNum(value));
}

void Report::Str(const std::string& key, const std::string& value) {
  record_.emplace_back(key, JsonStr(value));
}

void Report::Raw(const std::string& key, const std::string& json) {
  record_.emplace_back(key, json);
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  if (failures_.size() < 20) failures_.push_back(why);
  correct_ = false;
}

int Report::Finish(uint64_t attempted, uint64_t failed) {
  if (attempted == 0) Fail("no operation was attempted");
  std::ostringstream rec;
  rec << "{\"run_record\": {\"workload\": " << JsonStr(workload_)
      << ", \"seed\": " << args_.seed
      << ", \"seconds\": " << JsonNum(args_.seconds)
      << ", \"trace\": " << (args_.trace ? 1 : 0);
  for (const auto& [key, json] : record_) rec << ", " << JsonStr(key) << ": " << json;
  rec << ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    rec << (i == 0 ? "" : ", ") << JsonStr(failures_[i]);
  }
  rec << "]}}";

  std::ostringstream result;
  result << "{\"correct\": " << (correct_ ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    result << (i == 0 ? "" : ", ") << JsonStr(metrics_[i].first) << ": "
           << metrics_[i].second;
  }
  result << "}}";

  std::string base = args_.out_dir + "/" + workload_ + "-seed" +
                     std::to_string(args_.seed) + "-trace" +
                     (args_.trace ? "1" : "0");
  std::ofstream(base + ".json") << rec.str() << "\n" << result.str() << "\n";
  std::printf("%s\n%s\n", rec.str().c_str(), result.str().c_str());
  std::fflush(stdout);
  return correct_ && failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ host

namespace {

/// user..steal of the aggregate cpu line of /proc/stat.
void ReadCpuTimes(uint64_t* steal, uint64_t* total) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t fields[8] = {};
  for (uint64_t& f : fields) in >> f;
  *steal = fields[7];
  *total = std::accumulate(std::begin(fields), std::end(fields), uint64_t{0});
}

/// A fixed dependent multiply-xorshift chain; millions of iterations/s.
double RefRate() {
  constexpr uint64_t kIters = 20'000'000;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  int64_t start = NowNs();
  for (uint64_t i = 0; i < kIters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  int64_t end = NowNs();
  asm volatile("" : : "r"(x) : "memory");
  return static_cast<double>(kIters) / (static_cast<double>(end - start) / 1e3);
}

/// THP_enabled of /proc/self/status: 1 when transparent huge pages may back
/// this process's memory, 0 when off, -1 when the kernel does not say.
double ThpEnabled() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("THP_enabled:", 0) == 0) return std::stod(line.substr(12));
  }
  return -1.0;
}

}  // namespace

HostProbe::HostProbe() {
  ReadCpuTimes(&steal_, &total_);
  ref_rate_start_ = RefRate();
}

void HostProbe::Finish(Report* report, bool metrics) {
  uint64_t steal = 0, total = 0;
  ReadCpuTimes(&steal, &total);
  double ref_rate_end = RefRate();
  double steal_frac =
      total > total_ ? static_cast<double>(steal - steal_) /
                           static_cast<double>(total - total_)
                     : 0.0;
  double ref_rate = (ref_rate_start_ + ref_rate_end) / 2.0;
  report->Num("host.steal_frac", steal_frac);
  report->Num("host.ref_rate_start", ref_rate_start_);
  report->Num("host.ref_rate_end", ref_rate_end);
  report->Num("host.nproc", std::thread::hardware_concurrency());
  report->Num("host.thp_enabled", ThpEnabled());
  if (metrics) {
    report->Metric("host.steal_frac", steal_frac, "fraction");
    report->Metric("host.ref_rate", ref_rate, "Miter/s");
  }
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- inputs

std::unique_ptr<fj::Workload> MakeImdbInputs() {
  fj::ImdbJobOptions o;
  o.scale = 0.3;
  o.num_queries = 64;
  o.max_tables_per_query = 16;
  return fj::MakeImdbJob(o);
}

fj::FactorJoinConfig ImdbModelConfig(const fj::Database& db) {
  fj::FactorJoinConfig cfg;
  cfg.num_bins = 100;
  cfg.binning = fj::BinningStrategy::kGbsa;
  cfg.estimator = fj::TableEstimatorKind::kSampling;
  // A comparable absolute sample per table at this scale (the paper
  // samples 1% of a 50M-row IMDB).
  cfg.sampling_rate = std::clamp(
      50000.0 / (static_cast<double>(db.TotalRows()) + 1.0), 0.01, 0.5);
  return cfg;
}

std::vector<std::vector<uint64_t>> AllSubplanMasks(
    const std::vector<fj::Query>& queries) {
  std::vector<std::vector<uint64_t>> masks;
  masks.reserve(queries.size());
  for (const fj::Query& q : queries) {
    masks.push_back(fj::EnumerateConnectedSubsets(q, 1));
  }
  return masks;
}

void WarmCache(fj::EstimatorService& svc, const fj::Workload& w,
               const std::vector<std::vector<uint64_t>>& masks) {
  std::vector<std::future<std::unordered_map<uint64_t, double>>> pending;
  for (size_t qi = 0; qi < w.queries.size(); ++qi) {
    pending.push_back(svc.EstimateSubplansAsync(w.queries[qi], masks[qi]));
  }
  for (auto& f : pending) f.get();
}

std::vector<uint32_t> ShuffledRounds(uint64_t seed, size_t num_queries,
                                     size_t rounds) {
  fj::Rng rng(seed, /*stream=*/0x726f756e);  // "roun"
  std::vector<uint32_t> round(num_queries);
  std::iota(round.begin(), round.end(), 0u);
  std::vector<uint32_t> stream;
  stream.reserve(num_queries * rounds);
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t i = num_queries; i > 1; --i) {
      std::swap(round[i - 1], round[rng.Below(i)]);
    }
    stream.insert(stream.end(), round.begin(), round.end());
  }
  return stream;
}

std::vector<uint32_t> ZipfStream(uint64_t seed, size_t num_queries,
                                 double theta, size_t blocks) {
  // Counts per block by largest remainder, so every block has the same mix.
  std::vector<double> weight(num_queries);
  for (size_t k = 0; k < num_queries; ++k) {
    weight[k] = 1.0 / std::pow(static_cast<double>(k + 1), theta);
  }
  double total = std::accumulate(weight.begin(), weight.end(), 0.0);
  std::vector<size_t> count(num_queries);
  std::vector<std::pair<double, size_t>> remainder;
  size_t assigned = 0;
  for (size_t k = 0; k < num_queries; ++k) {
    double exact = static_cast<double>(kZipfBlock) * weight[k] / total;
    count[k] = static_cast<size_t>(exact);
    assigned += count[k];
    remainder.emplace_back(exact - static_cast<double>(count[k]), k);
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (size_t i = 0; assigned < kZipfBlock; ++i, ++assigned) {
    ++count[remainder[i].second];
  }
  std::vector<uint32_t> block;
  for (size_t k = 0; k < num_queries; ++k) {
    block.insert(block.end(), count[k], static_cast<uint32_t>(k));
  }
  fj::Rng rng(seed, /*stream=*/0x7a697066);  // "zipf"
  std::vector<uint32_t> stream;
  stream.reserve(block.size() * blocks);
  for (size_t b = 0; b < blocks; ++b) {
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.Below(i)]);
    }
    stream.insert(stream.end(), block.begin(), block.end());
  }
  return stream;
}

std::vector<uint32_t> StreamFrom(const std::vector<uint32_t>& stream,
                                 uint64_t offset) {
  std::vector<uint32_t> out(stream);
  auto first = out.begin() + static_cast<std::ptrdiff_t>(offset % out.size());
  std::rotate(out.begin(), first, out.end());
  return out;
}

std::string MaskCountSummary(const std::vector<std::vector<uint64_t>>& masks) {
  std::vector<double> counts;
  for (const auto& m : masks) counts.push_back(static_cast<double>(m.size()));
  double total = std::accumulate(counts.begin(), counts.end(), 0.0);
  return "{\"min\": " + JsonNum(Quantile(counts, 0.0)) +
         ", \"p50\": " + JsonNum(Quantile(counts, 0.5)) +
         ", \"max\": " + JsonNum(Quantile(counts, 1.0)) +
         ", \"total\": " + JsonNum(total) + "}";
}

size_t EstimateMismatches(const std::unordered_map<uint64_t, double>& got,
                          const std::unordered_map<uint64_t, double>& want) {
  size_t bad = got.size() > want.size() ? got.size() - want.size() : 0;
  for (const auto& [mask, value] : want) {
    auto it = got.find(mask);
    if (it == got.end() || std::bit_cast<uint64_t>(it->second) !=
                               std::bit_cast<uint64_t>(value)) {
      ++bad;
    }
  }
  return bad;
}

void RecordInputs(const fj::Workload& w,
                  const std::vector<std::vector<uint64_t>>& masks,
                  double scale, Report* report) {
  report->Num("inputs.heldout_seed", static_cast<double>(kHeldOutSeed));
  report->Str("inputs.data", w.name);
  report->Num("inputs.scale", scale);
  report->Num("inputs.rows", static_cast<double>(w.db.TotalRows()));
  report->Num("inputs.queries", static_cast<double>(w.queries.size()));
  report->Raw("inputs.subplans_per_request", MaskCountSummary(masks));
}

// --------------------------------------------------------- closed loop

double LoopResult::MasksPerRequest() const {
  if (masks.empty()) return 0.0;
  double total = 0.0;
  for (uint64_t m : masks) total += static_cast<double>(m);
  return total / static_cast<double>(masks.size());
}

void LoopResult::Append(const LoopResult& more) {
  latency_us.insert(latency_us.end(), more.latency_us.begin(),
                    more.latency_us.end());
  masks.insert(masks.end(), more.masks.begin(), more.masks.end());
  per_second.insert(per_second.end(), more.per_second.begin(),
                    more.per_second.end());
  attempted += more.attempted;
  failed += more.failed;
  elapsed_s += more.elapsed_s;
}

void LoopResult::RecordSeries(Report* report) const {
  std::string series = "[";
  for (double n : per_second) {
    series += (series.size() == 1 ? "" : ", ") + JsonNum(n);
  }
  report->Raw("outcome.completions_per_second", series + "]");
}

LoopResult RunClosedLoop(
    size_t callers, double seconds, const std::vector<uint32_t>& stream,
    const std::vector<std::vector<uint64_t>>& masks,
    const std::function<CallOutcome(size_t, uint64_t, uint32_t)>& call) {
  std::atomic<uint64_t> next_ticket{0};
  std::vector<LoopResult> per_caller(callers);
  std::vector<int64_t> last_done(callers, 0);
  std::vector<std::vector<int64_t>> done_at(callers);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& mine = per_caller[c];
      while (NowNs() < deadline) {
        uint64_t ticket = next_ticket.fetch_add(1);
        uint32_t qi = stream[ticket % stream.size()];
        CallOutcome out;
        try {
          out = call(c, ticket, qi);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: request failed: %s\n", e.what());
          out.ok = false;
        }
        ++mine.attempted;
        mine.masks.push_back(masks[qi].size());
        if (!out.ok) ++mine.failed;
        mine.latency_us.push_back(
            out.ok ? out.latency_us : std::numeric_limits<double>::infinity());
        last_done[c] = NowNs();
        if (out.ok) done_at[c].push_back(last_done[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoopResult all;
  int64_t end = start;
  for (size_t c = 0; c < callers; ++c) {
    const LoopResult& r = per_caller[c];
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.latency_us.insert(all.latency_us.end(), r.latency_us.begin(),
                          r.latency_us.end());
    all.masks.insert(all.masks.end(), r.masks.begin(), r.masks.end());
    end = std::max(end, last_done[c]);
  }
  all.elapsed_s = static_cast<double>(end - start) / 1e9;
  all.per_second.assign(static_cast<size_t>(all.elapsed_s), 0.0);
  for (const auto& times : done_at) {
    for (int64_t t : times) {
      size_t second = static_cast<size_t>((t - start) / 1'000'000'000);
      if (second < all.per_second.size()) all.per_second[second] += 1.0;
    }
  }
  return all;
}

}  // namespace perfbench
