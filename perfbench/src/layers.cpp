#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "exec/true_card.h"
#include "net/protocol.h"
#include "optimizer/endtoend.h"
#include "query/serialize.h"
#include "query/subplan.h"
#include "service/mpmc_queue.h"
#include "service/sharded_cache.h"
#include "stats/sampling_estimator.h"

namespace perfbench {
namespace {

/// Appends `rows` copies of existing rows to every column of `table`
/// (deterministic sources), so inserts keep each column's value
/// distribution without knowing the schema.
void AppendCopiedRows(fj::Table* table, uint32_t rows, size_t base) {
  for (const auto& col : table->columns()) {
    fj::Column* c = table->MutableCol(col->name());
    for (uint32_t i = 0; i < rows; ++i) {
      size_t src = (static_cast<size_t>(i) * 7919 + 13) % base;
      if (c->IsNull(src)) {
        c->AppendNull();
        continue;
      }
      switch (c->type()) {
        case fj::ColumnType::kInt64:
          c->AppendInt(c->IntAt(src));
          break;
        case fj::ColumnType::kDouble:
          c->AppendDouble(c->DoubleAt(src));
          break;
        case fj::ColumnType::kString: {
          std::string s = c->StringAt(src);
          c->AppendString(s);
          break;
        }
      }
    }
  }
}

/// Timings of one update op.
struct UpdateTiming {
  bool insert = true;
  double drain_us = 0.0;
  double mutate_us = 0.0;
  double apply_reported_us = 0.0;  // seconds the apply call returned
  double notify_us = 0.0;
  double total_us = 0.0;
};

/// Rows per insert op. Updates run in cycles per table: kInsertsPerDelete
/// inserts, then one tail delete of the rows they added, so tables return
/// to their generated size.
constexpr uint32_t kUpdateRows = 256;
constexpr size_t kInsertsPerDelete = 3;

/// Inserts `rows` copies of existing rows (insert) or truncates `rows` tail
/// rows (delete) of `table`, then runs the protocol. `spans` may be null.
UpdateTiming RunUpdateOp(fj::Database* db, fj::CardinalityEstimator* est,
                         fj::EstimatorService* service,
                         const std::string& table, bool insert, uint32_t rows,
                         SpanLog* spans) {
  UpdateTiming t;
  t.insert = insert;
  int64_t a = NowNs();
  service->Drain();
  int64_t b = NowNs();
  fj::Table* tb = db->MutableTable(table);
  size_t first = 0;
  if (insert) {
    first = tb->num_rows();
    AppendCopiedRows(tb, rows, first);
  } else {
    if (tb->num_rows() <= rows) {
      throw std::logic_error("delete of " + std::to_string(rows) +
                             " rows from " + table + " would empty it");
    }
    first = tb->num_rows() - rows;
    tb->Truncate(first);
  }
  int64_t c = NowNs();
  double seconds = insert ? est->ApplyInsert(table, first)
                          : est->ApplyDelete(table, first);
  int64_t d = NowNs();
  service->NotifyUpdate(table);
  int64_t e = NowNs();

  t.drain_us = UsBetween(a, b);
  t.mutate_us = UsBetween(b, c);
  t.apply_reported_us = seconds * 1e6;
  t.notify_us = UsBetween(d, e);
  t.total_us = UsBetween(a, e);
  if (spans != nullptr) {
    uint64_t root = spans->Root("update", a, e);
    spans->Child(root, "service.drain", a, b);
    spans->Child(root, "storage.mutate", b, c);
    spans->Child(root,
                 insert ? "factorjoin.apply_insert" : "factorjoin.apply_delete",
                 c, d);
    spans->Child(root, "service.notify_update", d, e);
  }
  return t;
}

}  // namespace

// ------------------------------------------------------------- updates

UpdateProbe::UpdateProbe()
    : w_(MakeImdbInputs()),
      est_(std::make_unique<fj::FactorJoinEstimator>(w_->db,
                                                     ImdbModelConfig(w_->db))) {
  fj::EstimatorServiceOptions o;
  o.num_threads = 1;
  o.cache_enabled = false;
  o.enable_tracing = false;
  svc_ = std::make_unique<fj::EstimatorService>(*est_, o);
  version0_ = est_->StatsVersion();
  epoch0_ = svc_->Epoch();
}

void UpdateProbe::Run(size_t rounds, SpanLog* spans) {
  fj::Database* db = &w_->db;
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<UpdateTiming> ops;
    for (const std::string& table : db->TableNames()) {
      for (size_t i = 0; i < kInsertsPerDelete; ++i) {
        ops.push_back(RunUpdateOp(db, est_.get(), svc_.get(), table,
                                  /*insert=*/true, kUpdateRows, spans));
      }
      ops.push_back(RunUpdateOp(db, est_.get(), svc_.get(), table,
                                /*insert=*/false,
                                kUpdateRows * kInsertsPerDelete, spans));
    }
    std::vector<double> total;
    for (const UpdateTiming& t : ops) {
      total.push_back(t.total_us);
      drain_.push_back(t.drain_us);
      mutate_.push_back(t.mutate_us);
      notify_.push_back(t.notify_us);
      (t.insert ? ins_ : del_).push_back(t.apply_reported_us);
    }
    round_mean_.push_back(Mean(total));
  }
}

UpdateSummary UpdateProbe::Finish(Report* report) const {
  UpdateSummary s;
  s.ops = drain_.size();
  s.p50_us = Quantile(round_mean_, 0.5);
  s.drain_us = Mean(drain_);
  s.mutate_us = Mean(mutate_);
  s.notify_us = Mean(notify_);
  s.apply_insert_us = Mean(ins_);
  s.apply_delete_us = Mean(del_);
  if (est_->StatsVersion() - version0_ != s.ops) {
    report->Fail("update probe: statistics version advanced by " +
                 std::to_string(est_->StatsVersion() - version0_) + ", not " +
                 std::to_string(s.ops));
  }
  if (svc_->Epoch() - epoch0_ != s.ops) {
    report->Fail("update probe: service epoch advanced by " +
                 std::to_string(svc_->Epoch() - epoch0_) + ", not " +
                 std::to_string(s.ops));
  }
  report->Num("update.samples", static_cast<double>(s.ops));
  report->Num("update.rounds", static_cast<double>(round_mean_.size()));
  report->Str("inputs.update_probe",
              "rounds of three 256-row inserts then one 768-row tail delete "
              "on every table, in blocks between slices of the timed window, "
              "on a copy of the inputs and model");
  return s;
}

// ------------------------------------------------------------- accuracy

Accuracy MeasureAccuracy(const fj::Database& db,
                         const std::vector<fj::Query>& queries,
                         const fj::CardinalityEstimator& est) {
  std::unordered_map<fj::QueryFingerprint, std::optional<uint64_t>,
                     fj::QueryFingerprintHash>
      truth;
  fj::TrueCardOptions opts;
  opts.max_output_tuples = 25'000'000;
  std::vector<double> qerrors;
  size_t under = 0;
  Accuracy acc;
  for (const fj::Query& q : queries) {
    std::vector<uint64_t> masks;
    for (uint64_t m : fj::EnumerateConnectedSubsets(q, 1)) {
      if (std::popcount(m) <= 3) masks.push_back(m);
    }
    // The decomposition is canonical per (query, mask), so these values
    // equal the ones a whole-query request is served.
    auto ests = est.EstimateSubplans(q, masks);
    for (uint64_t m : masks) {
      fj::Query sub = q.InducedSubquery(m);
      fj::QueryFingerprint fp = sub.Fingerprint();
      auto it = truth.find(fp);
      if (it == truth.end()) {
        it = truth.emplace(fp, fj::TrueCardinality(db, sub, nullptr, opts))
                 .first;
      }
      if (!it->second.has_value()) {
        ++acc.skipped;
        continue;
      }
      double c = std::max(static_cast<double>(*it->second), 1.0);
      double e = std::max(ests.at(m), 1.0);
      qerrors.push_back(std::max(e / c, c / e));
      if (e < c) ++under;
    }
  }
  acc.subplans = qerrors.size();
  acc.qerror_p50 = Quantile(qerrors, 0.5);
  acc.qerror_p99 = Quantile(qerrors, 0.99);
  acc.underestimate_frac =
      qerrors.empty() ? 0.0
                      : static_cast<double>(under) /
                            static_cast<double>(qerrors.size());
  return acc;
}

double ExecWorkRows(const fj::Database& db,
                    const std::vector<fj::Query>& queries,
                    fj::CardinalityEstimator* est) {
  // Same tuple cap and overflow charge as the simulated end-to-end time of
  // the paper-table benches.
  constexpr size_t kTupleCap = 25'000'000;
  constexpr double kOverflowPenaltyRows = 4.0 * kTupleCap;
  fj::EndToEndOptions opts;
  opts.max_output_tuples = kTupleCap;
  fj::WorkloadRunResult r = fj::RunWorkloadEndToEnd(db, queries, est, opts);
  return static_cast<double>(r.total_work) +
         static_cast<double>(r.overflows) * kOverflowPenaltyRows;
}

void AddAccuracyMetrics(const fj::Database& db,
                        const std::vector<fj::Query>& queries,
                        fj::FactorJoinEstimator* est, Report* report) {
  int64_t start = NowNs();
  Accuracy acc = MeasureAccuracy(db, queries, *est);
  double work = ExecWorkRows(db, queries, est);
  report->Metric("qerror_p50", acc.qerror_p50, "ratio");
  report->Metric("qerror_p99", acc.qerror_p99, "ratio");
  report->Metric("underestimate_frac", acc.underestimate_frac, "fraction");
  report->Metric("exec_work_rows", work, "rows");
  report->Num("accuracy.subplans", static_cast<double>(acc.subplans));
  report->Num("accuracy.skipped_over_cap", static_cast<double>(acc.skipped));
  report->Num("accuracy.seconds", UsBetween(start, NowNs()) / 1e6);
}

// --------------------------------------------------------------- replays

namespace {

/// Single-table estimators configured exactly like the ones inside `est`
/// (the sampling model, with the same rate and seed).
std::unordered_map<std::string, std::unique_ptr<fj::TableEstimator>>
ReplicaTableEstimators(const fj::Database& db,
                       const fj::FactorJoinEstimator& est) {
  const fj::FactorJoinConfig& cfg = est.config();
  if (cfg.estimator != fj::TableEstimatorKind::kSampling) {
    throw std::logic_error("replay: unsupported single-table estimator");
  }
  std::unordered_map<std::string, std::unique_ptr<fj::TableEstimator>> out;
  for (const std::string& name : db.TableNames()) {
    out[name] = std::make_unique<fj::SamplingEstimator>(
        db.GetTable(name), cfg.sampling_rate, cfg.seed);
  }
  return out;
}

/// The key-distribution requests FactorJoin makes for one alias: every
/// member column of the alias in each query key group, with the group's
/// shared binning.
std::vector<fj::KeyDistRequest> KeyRequests(
    const fj::Query& q, size_t alias_idx,
    const std::vector<fj::QueryKeyGroup>& groups,
    const fj::FactorJoinEstimator& est) {
  const fj::TableRef& ref = q.tables()[alias_idx];
  std::vector<fj::KeyDistRequest> reqs;
  for (const fj::QueryKeyGroup& g : groups) {
    for (const fj::AliasColumn& member : g.members) {
      if (member.alias != ref.alias) continue;
      reqs.push_back(
          {member.column, est.BinningFor(fj::ColumnRef{ref.table, member.column})});
    }
  }
  return reqs;
}

}  // namespace

ReplayResult ReplayLayers(const fj::Database& db,
                          const std::vector<fj::Query>& queries,
                          const std::vector<std::vector<uint64_t>>& masks,
                          const std::vector<uint32_t>& request_queries,
                          const fj::FactorJoinEstimator& est, SpanLog* spans) {
  auto replicas = ReplicaTableEstimators(db, est);
  fj::ShardedEstimateCache cache(1 << 17, 16);
  ReplayResult result;
  double sink = 0.0;
  double total_bytes = 0.0;
  // Frame header per message: u32 length, u8 type, u64 request id.
  constexpr double kFrameHeaderBytes = 13.0;

  for (uint32_t qi : request_queries) {
    const fj::Query& q = queries[qi];
    const std::vector<uint64_t>& m = masks[qi];
    std::vector<fj::QueryFingerprint> fps(m.size());
    std::vector<int64_t> t;
    t.push_back(NowNs());
    for (size_t i = 0; i < m.size(); ++i) {
      fps[i] = q.InducedSubquery(m[i]).Fingerprint();
    }
    t.push_back(NowNs());
    for (const fj::QueryFingerprint& fp : fps) cache.Insert(fp, 1.0);
    t.push_back(NowNs());
    for (const fj::QueryFingerprint& fp : fps) {
      if (auto v = cache.Lookup(fp)) sink += *v;
    }
    t.push_back(NowNs());
    fj::Query round_trip = fj::DeserializeQuery(fj::SerializeQuery(q));
    sink += static_cast<double>(round_trip.NumTables());
    t.push_back(NowNs());
    auto session = est.PrepareSubplans(q);
    t.push_back(NowNs());
    auto values = session->EstimateSubplans(m);
    t.push_back(NowNs());
    std::vector<uint8_t> req = fj::net::EncodeSubplansReq("", q, m);
    fj::net::SubplansReq decoded_req = fj::net::DecodeSubplansReq(req);
    std::vector<uint8_t> resp = fj::net::EncodeSubplansResp(values);
    auto decoded_resp = fj::net::DecodeSubplansResp(resp);
    t.push_back(NowNs());
    sink += static_cast<double>(decoded_req.masks.size() + decoded_resp.size());
    std::vector<fj::QueryKeyGroup> groups = q.KeyGroups();
    std::vector<std::vector<fj::KeyDistRequest>> key_reqs;
    for (size_t a = 0; a < q.NumTables(); ++a) {
      key_reqs.push_back(KeyRequests(q, a, groups, est));
    }
    int64_t kd_start = NowNs();
    for (size_t a = 0; a < q.NumTables(); ++a) {
      const fj::TableRef& ref = q.tables()[a];
      fj::KeyDistResult d = replicas.at(ref.table)->EstimateKeyDists(
          *q.FilterFor(ref.alias), key_reqs[a]);
      sink += d.filtered_rows;
    }
    int64_t kd_end = NowNs();

    uint64_t root = spans->Root("replay", t.front(), kd_end);
    const uint64_t n = m.size();
    spans->Child(root, "query.fingerprint", t[0], t[1], n);
    spans->Child(root, "service.cache_insert", t[1], t[2], n);
    spans->Child(root, "service.cache_lookup", t[2], t[3], n);
    spans->Child(root, "query.serialize", t[3], t[4]);
    spans->Child(root, "factorjoin.leaves", t[4], t[5]);
    spans->Child(root, "factorjoin.decompose", t[5], t[6], n);
    spans->Child(root, "net.codec", t[6], t[7]);
    spans->Child(root, "stats.key_dists", kd_start, kd_end, q.NumTables());

    total_bytes += static_cast<double>(req.size() + resp.size()) +
                   2 * kFrameHeaderBytes;
    for (auto& [mask, v] : values) sink += v;
  }
  asm volatile("" : : "g"(&sink) : "memory");
  result.requests = request_queries.size();
  double n = std::max<double>(1.0, static_cast<double>(result.requests));
  result.codec_bytes_per_request = total_bytes / n;
  return result;
}

void ReplayQueueHops(size_t hops, SpanLog* spans) {
  fj::MpmcQueue<int64_t> queue(1024);
  std::vector<std::pair<int64_t, int64_t>> hop(hops);
  std::thread consumer([&] {
    for (size_t i = 0; i < hops; ++i) {
      std::optional<int64_t> pushed = queue.Pop();
      hop[i] = {pushed.value_or(0), NowNs()};
    }
  });
  for (size_t i = 0; i < hops; ++i) {
    queue.Push(NowNs());
    // Let the consumer block again, as an idle worker does between
    // requests.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  consumer.join();
  for (const auto& [push, pop] : hop) spans->Root("service.queue_hop", push, pop);
}

// -------------------------------------------------------- layer metrics

double StageUsPerRequest(const fj::obs::HistogramSnapshot& before,
                         const fj::obs::HistogramSnapshot& after,
                         uint64_t requests) {
  if (requests == 0) return 0.0;
  return static_cast<double>(after.DeltaSince(before).sum) /
         static_cast<double>(requests);
}

void LayerMetrics::FillFromSpans(const std::map<std::string, LayerStat>& l) {
  fingerprint_us = LayerUs(l, "query.fingerprint");
  serialize_us = LayerUs(l, "query.serialize");
  key_dists_us = LayerUs(l, "stats.key_dists");
  leaves_us = LayerUs(l, "factorjoin.leaves");
  decompose_us = LayerUs(l, "factorjoin.decompose");
  cache_lookup_us = LayerUs(l, "service.cache_lookup");
  cache_insert_us = LayerUs(l, "service.cache_insert");
  queue_hop_us = LayerUs(l, "service.queue_hop");
  net_codec_us = LayerUs(l, "net.codec");
}

void LayerMetrics::FillFromUpdates(const UpdateSummary& u) {
  apply_insert_us = u.apply_insert_us;
  apply_delete_us = u.apply_delete_us;
  mutate_us = u.mutate_us;
  drain_us = u.drain_us;
  notify_us = u.notify_us;
}

void LayerMetrics::FillFromService(const fj::ServiceStats& before,
                                   const fj::ServiceStats& after,
                                   uint64_t requests) {
  using fj::obs::Stage;
  auto stage = [&](Stage s) {
    size_t i = static_cast<size_t>(s);
    return StageUsPerRequest(before.stages[i], after.stages[i], requests);
  };
  queue_wait_us = stage(Stage::kQueueWait);
  cache_probe_us = stage(Stage::kCacheProbe);
  estimate_us = stage(Stage::kEstimate);
  uint64_t hits = after.cache.hits - before.cache.hits;
  uint64_t lookups = hits + (after.cache.misses - before.cache.misses);
  cache_hit_frac = lookups == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(lookups);
  uint64_t batches = after.subplan_requests - before.subplan_requests;
  uint64_t split = after.batches_split - before.batches_split;
  uint64_t chunks = after.split_chunks - before.split_chunks;
  split_frac = batches == 0 ? 0.0
                            : static_cast<double>(split) /
                                  static_cast<double>(batches);
  split_chunks = split == 0 ? 0.0
                            : static_cast<double>(chunks) /
                                  static_cast<double>(split);
}

void LayerMetrics::Emit(Report* r) const {
  r->Metric("query.fingerprint_us", fingerprint_us, "us");
  r->Metric("query.masks_per_request", masks_per_request, "count");
  r->Metric("query.serialize_us", serialize_us, "us");
  r->Metric("stats.key_dists_us", key_dists_us, "us");
  r->Metric("factorjoin.leaves_us", leaves_us, "us");
  r->Metric("factorjoin.decompose_us", decompose_us, "us");
  r->Metric("factorjoin.train_s", train_s, "s");
  r->Metric("factorjoin.apply_insert_us", apply_insert_us, "us");
  r->Metric("factorjoin.apply_delete_us", apply_delete_us, "us");
  r->Metric("storage.mutate_us", mutate_us, "us");
  r->Metric("service.queue_wait_us", queue_wait_us, "us");
  r->Metric("service.cache_probe_us", cache_probe_us, "us");
  r->Metric("service.cache_lookup_us", cache_lookup_us, "us");
  r->Metric("service.cache_insert_us", cache_insert_us, "us");
  r->Metric("service.estimate_us", estimate_us, "us");
  r->Metric("service.cache_hit_frac", cache_hit_frac, "fraction");
  r->Metric("service.split_frac", split_frac, "fraction");
  r->Metric("service.split_chunks", split_chunks, "count");
  r->Metric("service.drain_us", drain_us, "us");
  r->Metric("service.notify_us", notify_us, "us");
  r->Metric("service.queue_hop_us", queue_hop_us, "us");
  r->Metric("net.decode_us", net_decode_us, "us");
  r->Metric("net.encode_us", net_encode_us, "us");
  r->Metric("net.socket_write_us", net_socket_write_us, "us");
  r->Metric("net.codec_us", net_codec_us, "us");
  r->Metric("net.bytes_per_request", net_bytes_per_request, "bytes");
  r->Metric("net.round_trip_us", net_round_trip_us, "us");
  r->Metric("obs.tracing_overhead_frac", tracing_overhead_frac, "fraction");
  r->Metric("trace.unattributed_frac", unattributed_frac, "fraction");
}

void AddLatencyMetrics(const std::vector<double>& latency_us,
                       const std::string& what, Report* report) {
  report->Metric("p50_us", Quantile(latency_us, 0.50), "us");
  report->Metric("p99_us", Quantile(latency_us, 0.99), "us");
  report->Num("latency.samples", static_cast<double>(latency_us.size()));
  report->Str("latency.covers", what);
  if (latency_us.size() < 1000) {
    report->Str("latency.note", "fewer than 1000 samples: p99 has under ten "
                                "samples beyond it");
  }
}

void AddSetupMetric(const std::vector<double>& setup_s, Report* report) {
  report->Metric("setup_s", Quantile(setup_s, 0.5), "s");
  std::string all = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    all += (i == 0 ? "" : ", ") + JsonNum(setup_s[i]);
  }
  report->Raw("setup.samples_s", all + "]");
}

}  // namespace perfbench
