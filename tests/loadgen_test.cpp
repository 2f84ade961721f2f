// Open-loop workload harness (workload/loadgen.h + workload/openloop.h):
// deterministic trace generation, schedule rate accuracy, zipf skew, the
// framed trace format's hostile-input rejection, bit-identical
// record→replay (including identical serving-cache behavior), the
// coordinated-omission guard (recorded latency must include queueing
// delay), the driver's own wait for late completions, and the update-op
// path through the versioned-statistics protocol.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "factorjoin/estimator.h"
#include "service/estimator_service.h"
#include "workload/loadgen.h"
#include "workload/openloop.h"
#include "workload/stats_ceb.h"

namespace fj {
namespace {

std::unique_ptr<Workload> SmallWorkload(size_t queries = 20) {
  StatsCebOptions o;
  o.scale = 0.05;
  o.num_queries = queries;
  return MakeStatsCeb(o);
}

LoadGenOptions ReadOnlyOptions(size_t num_ops, const ArrivalSchedule& s,
                               uint64_t seed = 42) {
  LoadGenOptions o;
  o.seed = seed;
  o.schedule = s;
  o.num_ops = num_ops;
  return o;
}

// ---------------------------------------------------------------- schedules

TEST(ArrivalScheduleTest, ParseToStringRoundTrip) {
  for (const std::string& spec :
       {std::string("const:1000"), std::string("poisson:250.5"),
        std::string("step:100..4000@2.5"), std::string("ramp:10..90@1.25")}) {
    ArrivalSchedule s = ArrivalSchedule::Parse(spec);
    ArrivalSchedule again = ArrivalSchedule::Parse(s.ToString());
    EXPECT_EQ(s.kind, again.kind) << spec;
    EXPECT_DOUBLE_EQ(s.rate_qps, again.rate_qps) << spec;
    EXPECT_DOUBLE_EQ(s.rate2_qps, again.rate2_qps) << spec;
    EXPECT_DOUBLE_EQ(s.at_seconds, again.at_seconds) << spec;
  }
  EXPECT_EQ(ArrivalSchedule::Parse("const:500").kind,
            ArrivalSchedule::Kind::kConstant);
  EXPECT_EQ(ArrivalSchedule::Parse("poisson:500").kind,
            ArrivalSchedule::Kind::kPoisson);
  EXPECT_EQ(ArrivalSchedule::Parse("step:1..2@3").kind,
            ArrivalSchedule::Kind::kStep);
  EXPECT_EQ(ArrivalSchedule::Parse("ramp:1..2@3").kind,
            ArrivalSchedule::Kind::kRamp);
}

TEST(ArrivalScheduleTest, ParseRejectsMalformedSpecs) {
  for (const char* spec :
       {"", "const", "const:", "flat:100", "const:0", "const:-5",
        "const:abc", "const:1e99999", "step:100..200", "step:100@5",
        "ramp:..2@3", "ramp:1..2@", "poisson:0", "poisson:nan"}) {
    EXPECT_THROW(ArrivalSchedule::Parse(spec), std::invalid_argument)
        << "spec: '" << spec << "'";
  }
}

TEST(ArrivalScheduleTest, ConstantRateAccurateWithinOnePercent) {
  Rng rng(1, 1);
  const size_t n = 10000;
  auto arrivals = ArrivalSchedule::Constant(5000).ArrivalsMicros(n, &rng);
  ASSERT_EQ(arrivals.size(), n);
  EXPECT_EQ(arrivals.front(), 0u);
  for (size_t i = 1; i < n; ++i) {
    ASSERT_GE(arrivals[i], arrivals[i - 1]) << "non-monotone at " << i;
  }
  // n arrivals at rate R span (n-1)/R seconds.
  double expected_us = (static_cast<double>(n) - 1.0) / 5000.0 * 1e6;
  double actual_us = static_cast<double>(arrivals.back());
  EXPECT_NEAR(actual_us, expected_us, expected_us * 0.01);
}

TEST(ArrivalScheduleTest, StepSwitchesRateAtTheStepTime) {
  Rng rng(1, 1);
  const size_t n = 12000;
  auto arrivals =
      ArrivalSchedule::Step(1000, 4000, 1.0).ArrivalsMicros(n, &rng);
  size_t before = 0;
  for (uint64_t t : arrivals) {
    if (t < 1'000'000) ++before;
  }
  // 1000 req/s for the first second.
  EXPECT_NEAR(static_cast<double>(before), 1000.0, 1000.0 * 0.01);
  // The remaining arrivals run at 4000 req/s.
  double tail_seconds =
      (static_cast<double>(arrivals.back()) - 1e6) / 1e6;
  double expected_tail = static_cast<double>(n - before) / 4000.0;
  EXPECT_NEAR(tail_seconds, expected_tail, expected_tail * 0.01);
}

TEST(ArrivalScheduleTest, RampMeanRateMatchesTheMidpoint) {
  Rng rng(1, 1);
  // 1000 -> 3000 over 2s: the ramp phase carries ~avg 2000 req/s * 2s
  // = ~4000 arrivals.
  auto arrivals =
      ArrivalSchedule::Ramp(1000, 3000, 2.0).ArrivalsMicros(8000, &rng);
  size_t in_ramp = 0;
  for (uint64_t t : arrivals) {
    if (t < 2'000'000) ++in_ramp;
  }
  EXPECT_NEAR(static_cast<double>(in_ramp), 4000.0, 4000.0 * 0.01);
}

TEST(ArrivalScheduleTest, PoissonMeanRateAccurate) {
  Rng rng(2023, 7);
  const size_t n = 50000;
  auto arrivals = ArrivalSchedule::Poisson(2000).ArrivalsMicros(n, &rng);
  for (size_t i = 1; i < n; ++i) {
    ASSERT_GE(arrivals[i], arrivals[i - 1]);
  }
  // Deterministic seed, so the realized duration is stable; the standard
  // error of the sum of n exponentials is sqrt(n)/rate ~ 0.45% here.
  double expected_us = static_cast<double>(n - 1) / 2000.0 * 1e6;
  double actual_us = static_cast<double>(arrivals.back());
  EXPECT_NEAR(actual_us, expected_us, expected_us * 0.02);
  // Interarrivals must actually vary (not a constant schedule in disguise).
  uint64_t first_gap = arrivals[1] - arrivals[0];
  bool varies = false;
  for (size_t i = 2; i < 100; ++i) {
    if (arrivals[i] - arrivals[i - 1] != first_gap) varies = true;
  }
  EXPECT_TRUE(varies);
}

// --------------------------------------------------------------- generation

TEST(LoadGenTest, SameSeedProducesByteIdenticalTraces) {
  auto workload = SmallWorkload();
  LoadGenOptions options =
      ReadOnlyOptions(5000, ArrivalSchedule::Poisson(1000), /*seed=*/17);
  options.update_fraction = 0.1;
  Trace a = GenerateTrace(*workload, options);
  Trace b = GenerateTrace(*workload, options);
  EXPECT_EQ(SerializeTrace(a), SerializeTrace(b));

  options.seed = 18;
  Trace c = GenerateTrace(*workload, options);
  EXPECT_NE(SerializeTrace(a), SerializeTrace(c));
}

TEST(LoadGenTest, ZipfSkewMatchesExpectedFrequencyRanks) {
  auto workload = SmallWorkload(16);
  LoadGenOptions options =
      ReadOnlyOptions(40000, ArrivalSchedule::Constant(1000));
  options.zipf_theta = 0.99;
  Trace trace = GenerateTrace(*workload, options);

  size_t k = workload->queries.size();
  std::vector<double> counts(k, 0.0);
  for (const LoadOp& op : trace.ops) {
    ASSERT_EQ(op.kind, LoadOpKind::kRead);
    ASSERT_LT(op.index, k);
    counts[op.index] += 1.0;
  }
  // Expected P(i) ~ 1/(i+1)^theta (util/zipf.h); chi-squared against the
  // exact distribution with a generous cutoff (df = k-1; the draw is
  // deterministic per seed, the tolerance covers the sampling noise).
  double norm = 0.0;
  for (size_t i = 0; i < k; ++i) norm += std::pow(i + 1.0, -0.99);
  double chi2 = 0.0;
  for (size_t i = 0; i < k; ++i) {
    double expected =
        static_cast<double>(trace.ops.size()) * std::pow(i + 1.0, -0.99) / norm;
    chi2 += (counts[i] - expected) * (counts[i] - expected) / expected;
  }
  EXPECT_LT(chi2, 3.0 * static_cast<double>(k)) << "zipf shape is off";
  // Template 0 is the hottest rank.
  for (size_t i = 1; i < k; ++i) EXPECT_GT(counts[0], counts[i] * 0.9);
}

TEST(LoadGenTest, UpdateMixProducesUpdateOpsWithinTolerance) {
  auto workload = SmallWorkload();
  LoadGenOptions options =
      ReadOnlyOptions(20000, ArrivalSchedule::Constant(1000));
  options.update_fraction = 0.1;
  options.delete_fraction = 0.25;
  options.update_rows = 64;
  Trace trace = GenerateTrace(*workload, options);
  size_t inserts = 0;
  size_t deletes = 0;
  size_t num_tables = workload->db.TableNames().size();
  for (const LoadOp& op : trace.ops) {
    if (op.kind == LoadOpKind::kRead) continue;
    EXPECT_EQ(op.rows, 64u);
    EXPECT_LT(op.index, num_tables);
    (op.kind == LoadOpKind::kInsert ? inserts : deletes) += 1;
  }
  double updates = static_cast<double>(inserts + deletes);
  EXPECT_NEAR(updates / 20000.0, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(deletes) / updates, 0.25, 0.05);
}

// ------------------------------------------------------------- trace format

TEST(TraceFormatTest, SerializeDeserializeRoundTrip) {
  auto workload = SmallWorkload();
  LoadGenOptions options =
      ReadOnlyOptions(3000, ArrivalSchedule::Poisson(500), /*seed=*/5);
  options.update_fraction = 0.05;
  Trace trace = GenerateTrace(*workload, options);

  Trace decoded = DeserializeTrace(SerializeTrace(trace));
  EXPECT_EQ(decoded.workload, trace.workload);
  EXPECT_EQ(decoded.seed, trace.seed);
  EXPECT_DOUBLE_EQ(decoded.theta, trace.theta);
  EXPECT_EQ(decoded.schedule, trace.schedule);
  ASSERT_EQ(decoded.ops.size(), trace.ops.size());
  EXPECT_EQ(decoded.ops, trace.ops);
  // The round trip is bit-identical, not just value-equal.
  EXPECT_EQ(SerializeTrace(decoded), SerializeTrace(trace));
}

TEST(TraceFormatTest, HostileInputsRejectedCleanly) {
  auto workload = SmallWorkload();
  Trace trace = GenerateTrace(
      *workload, ReadOnlyOptions(50, ArrivalSchedule::Constant(1000)));
  std::vector<uint8_t> good = SerializeTrace(trace);

  // Wrong magic.
  {
    auto bad = good;
    bad[0] ^= 0xFF;
    EXPECT_THROW(DeserializeTrace(bad), SerializeError);
  }
  // Unsupported version.
  {
    auto bad = good;
    bad[4] = 0x7F;
    EXPECT_THROW(DeserializeTrace(bad), SerializeError);
  }
  // Truncation, at every prefix length.
  for (size_t len : {size_t{0}, size_t{3}, size_t{9}, good.size() - 9,
                     good.size() - 1}) {
    std::vector<uint8_t> bad(good.begin(), good.begin() + len);
    EXPECT_THROW(DeserializeTrace(bad), SerializeError) << "len " << len;
  }
  // Trailing garbage after the checksum.
  {
    auto bad = good;
    bad.push_back(0xAB);
    EXPECT_THROW(DeserializeTrace(bad), SerializeError);
  }
  // Payload corruption -> checksum mismatch.
  {
    auto bad = good;
    bad[bad.size() / 2] ^= 0x01;
    EXPECT_THROW(DeserializeTrace(bad), SerializeError);
  }
  // Unknown op kind: corrupt in the struct, reserialize, fix nothing —
  // the kind byte is inside the checksummed payload, so craft it at the
  // struct level instead of patching bytes.
  {
    Trace bad_trace = trace;
    bad_trace.ops[10].kind = static_cast<LoadOpKind>(9);
    EXPECT_THROW(DeserializeTrace(SerializeTrace(bad_trace)),
                 SerializeError);
  }
  // Non-monotone arrival times.
  {
    Trace bad_trace = trace;
    bad_trace.ops[20].scheduled_micros = 0;
    bad_trace.ops[19].scheduled_micros = 1'000'000;
    EXPECT_THROW(DeserializeTrace(SerializeTrace(bad_trace)),
                 SerializeError);
  }
}

TEST(TraceFormatTest, SaveLoadFileRoundTripAndIoErrors) {
  auto workload = SmallWorkload();
  Trace trace = GenerateTrace(
      *workload, ReadOnlyOptions(200, ArrivalSchedule::Constant(1000)));
  std::string path = testing::TempDir() + "/loadgen_trace_test.fjtrace";
  SaveTrace(trace, path);
  Trace loaded = LoadTrace(path);
  EXPECT_EQ(SerializeTrace(loaded), SerializeTrace(trace));
  std::remove(path.c_str());

  EXPECT_THROW(LoadTrace("/nonexistent/dir/nope.fjtrace"),
               std::runtime_error);
  EXPECT_THROW(SaveTrace(trace, "/nonexistent/dir/nope.fjtrace"),
               std::runtime_error);
}

// ---------------------------------------------------------------- open loop

/// Fixed per-request service time, so offered load above 1/delay must
/// queue: the regression guard for coordinated-omission avoidance.
class SlowEstimator : public CardinalityEstimator {
 public:
  explicit SlowEstimator(std::chrono::microseconds delay) : delay_(delay) {}
  std::string Name() const override { return "slow"; }
  double Estimate(const Query&) const override {
    std::this_thread::sleep_for(delay_);
    return 1.0;
  }

 private:
  std::chrono::microseconds delay_;
};

TEST(OpenLoopTest, LatencyIncludesQueueingDelayUnderOverload) {
  auto workload = SmallWorkload(8);
  // 2ms service time, one worker: capacity 500 req/s. Offer 2000 req/s.
  // A short queue back-pressures the dispatcher, so most reads are
  // submitted late; a driver that timestamped them at submission would see
  // no more than the queue's ~10ms.
  SlowEstimator estimator(std::chrono::microseconds(2000));
  EstimatorServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  options.cache_enabled = false;
  EstimatorService service(estimator, options);
  InProcessTarget target(&workload->db, &estimator, &service);

  Trace trace = GenerateTrace(
      *workload, ReadOnlyOptions(100, ArrivalSchedule::Constant(2000)));
  OpenLoopResult r = RunOpenLoop(trace, workload->queries, &target);

  EXPECT_EQ(r.reads, 100u);
  EXPECT_EQ(r.errors, 0u);
  // The backlog grows by ~1.5ms per request; by the end of the run the
  // wait is ~150ms. A closed-loop (or submit-timestamped) driver would
  // report ~2ms here — the queueing delay is the entire point.
  EXPECT_GT(r.latency.ValueAtQuantile(0.99), 20000.0)
      << "p99 must be far above the 2ms service time when offered load "
         "exceeds capacity";
  EXPECT_LT(r.achieved_qps, r.offered_qps);

  // Control: the same service under light load (100 req/s) has no queue,
  // so its recorded tail stays below the overloaded run's median (about
  // 75ms by the arithmetic above). The bound is relative: a sanitizer
  // build on a busy host stretches the 2ms service time itself.
  Trace light = GenerateTrace(
      *workload, ReadOnlyOptions(30, ArrivalSchedule::Constant(100)));
  OpenLoopResult lr = RunOpenLoop(light, workload->queries, &target);
  EXPECT_LT(lr.latency.ValueAtQuantile(0.99), r.latency.ValueAtQuantile(0.50));
}

/// Completes every read 20ms late, each from a thread of its own, and keeps
/// no count of the reads it still owes: the driver must wait for them.
class LateTarget : public LoadTarget {
 public:
  LateTarget() = default;
  LateTarget(const LateTarget&) = delete;
  LateTarget& operator=(const LateTarget&) = delete;
  ~LateTarget() override {
    for (std::thread& t : completers_) t.join();
  }
  void SubmitRead(const Query& /*query*/, ReadDone done) override {
    completers_.emplace_back([done = std::move(done)] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      done(nullptr);
    });
  }
  void ApplyUpdate(const LoadOp& /*op*/) override {}

 private:
  std::vector<std::thread> completers_;
};

TEST(OpenLoopTest, ReturnsOnlyAfterEveryLateCompletionRan) {
  auto workload = SmallWorkload(8);
  Trace trace = GenerateTrace(
      *workload, ReadOnlyOptions(32, ArrivalSchedule::Constant(4000)));
  LateTarget target;
  OpenLoopResult r = RunOpenLoop(trace, workload->queries, &target);
  EXPECT_EQ(r.reads, 32u);
  EXPECT_EQ(r.latency.count, r.reads);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GE(r.latency.Mean(), 20000.0);
  EXPECT_GE(r.wall_seconds, 0.02);
}

// A read the service rejects (shut down) still completes exactly once, as
// an error.
TEST(OpenLoopTest, ReadsAgainstAShutDownServiceCountAsErrors) {
  auto workload = SmallWorkload(8);
  FactorJoinConfig config;
  FactorJoinEstimator estimator(workload->db, config);
  EstimatorService service(estimator, {.num_threads = 1});
  service.Shutdown();
  InProcessTarget target(&workload->db, &estimator, &service);
  Trace trace = GenerateTrace(
      *workload, ReadOnlyOptions(10, ArrivalSchedule::Constant(5000)));
  OpenLoopResult r = RunOpenLoop(trace, workload->queries, &target);
  EXPECT_EQ(r.reads, 10u);
  EXPECT_EQ(r.errors, 10u);
  EXPECT_EQ(r.latency.count, 10u);
}

TEST(OpenLoopTest, RecordReplayIsBitIdenticalAndCacheIdentical) {
  auto workload = SmallWorkload(12);
  FactorJoinConfig config;
  FactorJoinEstimator estimator(workload->db, config);

  LoadGenOptions options =
      ReadOnlyOptions(400, ArrivalSchedule::Constant(20000), /*seed=*/31);
  options.zipf_theta = 1.0;
  Trace recorded = GenerateTrace(*workload, options);
  Trace replayed = DeserializeTrace(SerializeTrace(recorded));
  ASSERT_EQ(recorded.ops, replayed.ops);

  // Identical request sequences, by fingerprint (the serving cache key).
  std::vector<QueryFingerprint> fp_a;
  std::vector<QueryFingerprint> fp_b;
  for (const LoadOp& op : recorded.ops) {
    fp_a.push_back(
        workload->queries[op.index % workload->queries.size()].Fingerprint());
  }
  for (const LoadOp& op : replayed.ops) {
    fp_b.push_back(
        workload->queries[op.index % workload->queries.size()].Fingerprint());
  }
  EXPECT_EQ(fp_a, fp_b);

  // Replaying through two fresh single-worker services produces identical
  // cache behavior: every hit/miss lands in the same order.
  auto run = [&](ServiceStats* out) {
    EstimatorServiceOptions service_options;
    service_options.num_threads = 1;
    service_options.cache_capacity = 1 << 12;
    EstimatorService service(estimator, service_options);
    InProcessTarget target(&workload->db, &estimator, &service);
    OpenLoopResult r = RunOpenLoop(recorded, workload->queries, &target);
    EXPECT_EQ(r.errors, 0u);
    *out = service.Stats();
  };
  ServiceStats first;
  ServiceStats second;
  run(&first);
  run(&second);
  EXPECT_EQ(first.subplan_requests, second.subplan_requests);
  EXPECT_EQ(first.cache.hits, second.cache.hits);
  EXPECT_EQ(first.cache.misses, second.cache.misses);
  EXPECT_EQ(first.subplan_requests, recorded.ops.size());
  // With 12 hot templates and 400 requests the cache must actually hit.
  EXPECT_GT(first.cache.hits, 0u);
}

TEST(OpenLoopTest, UpdateOpsRunTheVersionedStatisticsProtocol) {
  auto workload = SmallWorkload(8);
  FactorJoinConfig config;
  FactorJoinEstimator estimator(workload->db, config);
  ASSERT_TRUE(estimator.SupportsUpdates());

  EstimatorServiceOptions options;
  options.num_threads = 2;
  EstimatorService service(estimator, options);
  InProcessTarget target(&workload->db, &estimator, &service);

  LoadGenOptions gen =
      ReadOnlyOptions(40, ArrivalSchedule::Constant(5000), /*seed=*/3);
  gen.update_fraction = 0.5;
  gen.update_rows = 16;
  Trace trace = GenerateTrace(*workload, gen);
  size_t updates = 0;
  for (const LoadOp& op : trace.ops) {
    if (op.kind != LoadOpKind::kRead) ++updates;
  }
  ASSERT_GT(updates, 0u);

  uint64_t version_before = estimator.StatsVersion();
  OpenLoopResult r = RunOpenLoop(trace, workload->queries, &target);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.updates, updates);
  // Every update op notified the service (cache invalidation)...
  EXPECT_EQ(service.Stats().epoch, updates);
  // ...and mutated the estimator's statistics (inserts always apply;
  // deletes can be skipped on tables smaller than the delete size).
  EXPECT_GT(estimator.StatsVersion(), version_before);
  // The service still serves after the mutations.
  const Query& q = workload->queries[0];
  EXPECT_GT(service.EstimateSubplans(q, {q.AllAliases()}).at(q.AllAliases()),
            0.0);
}

TEST(OpenLoopTest, ReadsRequireQueries) {
  auto workload = SmallWorkload(8);
  Trace trace = GenerateTrace(
      *workload, ReadOnlyOptions(10, ArrivalSchedule::Constant(1000)));
  FactorJoinConfig config;
  FactorJoinEstimator estimator(workload->db, config);
  EstimatorServiceOptions options;
  options.num_threads = 1;
  EstimatorService service(estimator, options);
  InProcessTarget target(&workload->db, &estimator, &service);
  EXPECT_THROW(RunOpenLoop(trace, {}, &target), std::invalid_argument);
}

}  // namespace
}  // namespace fj
