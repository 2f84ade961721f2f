// Golden-value regression pinning Estimate / EstimateSubplans bit patterns
// across the five estimator configurations of estimator_updates_test.cpp and
// the four greedy bound baseline configurations.
//
// The constants were captured from the pre-arena implementation (heap
// std::map<int, GroupBound> factors); the flat arena/kernel hot path must
// reproduce them BIT FOR BIT — a performance refactor must not move a single
// ulp. If an estimator's math ever changes on purpose, re-capture by
// printing std::bit_cast<uint64_t>(value) for the cases below (the workload
// builder in golden_workload.h must stay frozen).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/joinhist_estimator.h"
#include "baselines/pessimistic_estimator.h"
#include "baselines/postgres_estimator.h"
#include "baselines/truecard_estimator.h"
#include "baselines/ublock_estimator.h"
#include "baselines/wander_join.h"
#include "factorjoin/estimator.h"
#include "golden_workload.h"
#include "query/subplan.h"
#include "stats/snapshot.h"
#include "util/hash.h"
#include "workload/imdb_job.h"

namespace fj {
namespace {

using golden::MakeGoldenDb;
using golden::ThreeWayMasks;
using golden::ThreeWayQuery;
using golden::TwoWayQuery;

struct GoldenRecord {
  std::string name;
  uint64_t estimate_two_way;
  uint64_t estimate_three_way;
  // One entry per mask of ThreeWayMasks(), in enumeration order.
  std::vector<uint64_t> subplans_three_way;
};

// Captured 2026-07-26 from the pre-arena implementation (see file comment).
const std::vector<GoldenRecord>& Goldens() {
  static const std::vector<GoldenRecord> goldens = {
      {"factorjoin-bayesnet",
       0x40a76d6e88c5852dULL,  // 2998.7158872342175
       0x40aead94773e6a58ULL,  // 3926.7899722580732
       {0x40717b829e2c1dfaULL, 0x40af2b9b6732f6cbULL, 0x406113a64bcfd4b8ULL,
        0x40af2916d919f50bULL, 0x40aead94773e6a58ULL, 0x40aead94773e6a58ULL}},
      {"factorjoin-sampling",
       0x4072c00000000000ULL,  // 300
       0x409127df24f66ac8ULL,  // 1097.9679144385027
       {0x406e000000000000ULL, 0x40ad380000000000ULL, 0x405ac92492492492ULL,
        0x40ab300000000000ULL, 0x4092700000000000ULL, 0x409127df24f66ac8ULL}},
      {"postgres",
       0x40a6440000000000ULL,  // 2850
       0x40a1a4cb43958106ULL,  // 2258.3969999999999
       {0x4071900000000000ULL, 0x40af2c0000000000ULL, 0x405e36db6db6db6eULL,
        0x40a5e5f333333333ULL, 0x40a91d999999999aULL, 0x40a1a4cb43958106ULL}},
      {"wanderjoin",
       0x4092000000000000ULL,  // 1152
       0x40a0700000000000ULL,  // 2104
       {0x4071900000000000ULL, 0x40af2c0000000000ULL, 0x405f800000000000ULL,
        0x409e800000000000ULL, 0x40ab8a0000000000ULL, 0x40a0700000000000ULL}},
      {"truecard",
       0x40a3a80000000000ULL,  // 2516
       0x40a4700000000000ULL,  // 2616
       {0x4071900000000000ULL, 0x40af2c0000000000ULL, 0x405f800000000000ULL,
        0x40a83e0000000000ULL, 0x40aa460000000000ULL, 0x40a4700000000000ULL}},
      // The greedy bound baselines, captured at commit c6b93eb.
      {"pessest",
       0x40a7700000000000ULL,  // 3000
       0x40aa55ffffffffffULL,  // 3370.9999999999995
       {0x4071900000000000ULL, 0x40af2c0000000000ULL, 0x405f800000000000ULL,
        0x40af2c0000000000ULL, 0x40aa560000000000ULL, 0x40aa55ffffffffffULL}},
      {"joinhist",
       0x40a643ffffffffffULL,  // 2849.9999999999995
       0x40a1a4cb43958108ULL,  // 2258.397000000001
       {0x4071900000000000ULL, 0x40af2c0000000000ULL, 0x405e36db6db6db6eULL,
        0x40a5e5f333333334ULL, 0x40a91d999999999dULL, 0x40a1a4cb43958108ULL}},
      {"joinhist+bound+conditional",
       0x40a76297ef93a708ULL,  // 2993.2967497006794
       0x40aef331f84b0e14ULL,  // 3961.597597451657
       {0x407159f8b82eeca2ULL, 0x40af2b27efad2e1bULL, 0x4061b02bf4b44a10ULL,
        0x40af1cdc077cd2a8ULL, 0x40af016abb5afcf4ULL, 0x40aef331f84b0e14ULL}},
      {"ublock",
       0x40b2846666666666ULL,  // 4740.4
       0x40b076d593bfa260ULL,  // 4214.834285714285
       {0x4071900000000000ULL, 0x40af2c0000000000ULL, 0x405e36db6db6db6eULL,
        0x40b304e6e978d4feULL, 0x40b003e353f7cedaULL, 0x40b076d593bfa260ULL}}};
  return goldens;
}

const GoldenRecord& GoldenFor(const std::string& name) {
  for (const GoldenRecord& g : Goldens()) {
    if (g.name == name) return g;
  }
  ADD_FAILURE() << "no golden record named " << name;
  static GoldenRecord empty;
  return empty;
}

// EXPECT with bit-level diagnostics: on mismatch prints both bit patterns so
// a legitimate re-capture is a copy-paste away.
void ExpectBits(uint64_t want, double got, const std::string& what) {
  uint64_t bits = std::bit_cast<uint64_t>(got);
  EXPECT_EQ(want, bits) << what << ": golden " << std::hexfloat
                        << std::bit_cast<double>(want) << " got " << got
                        << std::defaultfloat << " (bits 0x" << std::hex << bits
                        << ")";
}

/// The snapshot half of the golden contract: serializing the trained
/// estimator and loading it into a FRESH instance must reproduce the same
/// golden bit patterns — persistence may not move a single ulp. (The
/// cross-process variant of this check is tools/net_smoke.sh: fj_client
/// --verify trains locally and compares against a server that restored
/// the model from a snapshot file.)
void CheckGoldenAfterSnapshotRoundTrip(const Database& db,
                                       const CardinalityEstimator& est,
                                       const std::string& name,
                                       void (*check)(const CardinalityEstimator&,
                                                     const std::string&)) {
  ASSERT_TRUE(est.SupportsSnapshot()) << name;
  std::vector<uint8_t> bytes = SerializeEstimator(est);
  // Exact model size: the Figure 6 metric equals the payload the snapshot
  // carries (container framing excluded).
  if (est.Name() == "factorjoin" || est.Name() == "postgres") {
    EXPECT_EQ(est.ModelSizeBytes(), est.SerializedModelSizeBytes()) << name;
    EXPECT_GT(est.ModelSizeBytes(), 0u) << name;
    EXPECT_LT(est.ModelSizeBytes(), bytes.size()) << name;
  }
  std::unique_ptr<CardinalityEstimator> loaded =
      DeserializeEstimator(db, bytes);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->Name(), est.Name());
  check(*loaded, name);
  // Determinism: the loaded model re-serializes to the identical bytes.
  EXPECT_EQ(SerializeEstimator(*loaded), bytes) << name;
}

void CheckGolden(const CardinalityEstimator& est, const std::string& name) {
  const GoldenRecord& golden = GoldenFor(name);
  Query q2 = TwoWayQuery();
  Query q3 = ThreeWayQuery();
  std::vector<uint64_t> masks = ThreeWayMasks();
  ASSERT_EQ(golden.subplans_three_way.size(), masks.size())
      << name << ": mask enumeration changed; goldens need re-capture";

  ExpectBits(golden.estimate_two_way, est.Estimate(q2), name + "/two-way");
  ExpectBits(golden.estimate_three_way, est.Estimate(q3),
             name + "/three-way");
  auto subs = est.EstimateSubplans(q3, masks);
  for (size_t i = 0; i < masks.size(); ++i) {
    ExpectBits(golden.subplans_three_way[i], subs.at(masks[i]),
               name + "/subplan mask " + std::to_string(masks[i]));
  }

  // The progressive path must be independent of the requested mask set
  // (canonical decomposition): every mask alone reproduces the batch value.
  for (size_t i = 0; i < masks.size(); ++i) {
    auto solo = est.EstimateSubplans(q3, {masks[i]});
    ExpectBits(golden.subplans_three_way[i], solo.at(masks[i]),
               name + "/solo mask " + std::to_string(masks[i]));
  }
}

TEST(GoldenEstimatesTest, FactorJoinBayesNet) {
  Database db = MakeGoldenDb();
  FactorJoinConfig cfg;
  cfg.num_bins = 32;
  cfg.estimator = TableEstimatorKind::kBayesNet;
  FactorJoinEstimator est(db, cfg);
  CheckGolden(est, "factorjoin-bayesnet");
  CheckGoldenAfterSnapshotRoundTrip(db, est, "factorjoin-bayesnet",
                                    &CheckGolden);
}

TEST(GoldenEstimatesTest, FactorJoinSampling) {
  Database db = MakeGoldenDb();
  FactorJoinConfig cfg;
  cfg.num_bins = 32;
  cfg.estimator = TableEstimatorKind::kSampling;
  cfg.sampling_rate = 0.05;
  FactorJoinEstimator est(db, cfg);
  CheckGolden(est, "factorjoin-sampling");
  CheckGoldenAfterSnapshotRoundTrip(db, est, "factorjoin-sampling",
                                    &CheckGolden);
}

TEST(GoldenEstimatesTest, Postgres) {
  Database db = MakeGoldenDb();
  PostgresEstimator est(db);
  CheckGolden(est, "postgres");
  CheckGoldenAfterSnapshotRoundTrip(db, est, "postgres", &CheckGolden);
}

TEST(GoldenEstimatesTest, WanderJoin) {
  Database db = MakeGoldenDb();
  WanderJoinEstimator est(db);
  CheckGolden(est, "wanderjoin");
  CheckGoldenAfterSnapshotRoundTrip(db, est, "wanderjoin", &CheckGolden);
}

TEST(GoldenEstimatesTest, TrueCard) {
  Database db = MakeGoldenDb();
  TrueCardEstimator est(db);
  CheckGolden(est, "truecard");
  CheckGoldenAfterSnapshotRoundTrip(db, est, "truecard", &CheckGolden);
}

// The greedy bound baselines have no snapshot support; their records pin
// the greedy join order they share with FactorJoin's Estimate.
TEST(GoldenEstimatesTest, PessEst) {
  Database db = MakeGoldenDb();
  PessimisticEstimator est(db);
  CheckGolden(est, "pessest");
}

TEST(GoldenEstimatesTest, JoinHist) {
  Database db = MakeGoldenDb();
  JoinHistEstimator est(db);
  CheckGolden(est, "joinhist");
}

TEST(GoldenEstimatesTest, JoinHistMfvBoundConditional) {
  Database db = MakeGoldenDb();
  JoinHistOptions options;
  options.use_mfv_bound = true;
  options.use_conditional = true;
  JoinHistEstimator est(db, options);
  CheckGolden(est, "joinhist+bound+conditional");
}

TEST(GoldenEstimatesTest, UBlock) {
  Database db = MakeGoldenDb();
  UBlockEstimator est(db);
  CheckGolden(est, "ublock");
}

// ------------------------------------------------ workload-scale digests
//
// The chain above has three aliases and two key groups. The progressive
// decomposition's harder cases only appear at workload scale: cyclic
// templates, self joins, key groups that close inside a sub-plan, ancestors
// computed on demand, and queries of up to 16 aliases. Each digest below is
// an order-independent sum over sub-plans of
//   Mix64(mask ^ Mix64(value bits) ^ query salt),
// so one constant pins every estimate of a mask set bit for bit. Captured
// from the std::unordered_map-memo decomposition (commit 89e9ece); the
// full-alias-mask-alone digest from the recursive flat-memo decomposition
// (commit a96c9bb).

struct ImdbDigests {
  uint64_t full = 0;        // every connected sub-plan, one call per query
  uint64_t reversed = 0;    // the same masks requested in reverse order
  uint64_t upper_half = 0;  // the larger half of the masks alone
  uint64_t every_7th = 0;   // masks 0, 7, 14, ... alone (ancestors on demand)
  uint64_t greedy = 0;      // Estimate() of each whole query
  // The full alias mask alone: a one-query request, and the longest
  // ancestor chain resolved on demand.
  uint64_t full_alone = 0;
};

const Workload& ImdbDigestWorkload() {
  static const std::unique_ptr<Workload> w = [] {
    ImdbJobOptions o;
    o.scale = 0.05;
    o.num_queries = 64;
    o.max_tables_per_query = 16;
    return MakeImdbJob(o);
  }();
  return *w;
}

ImdbDigests DigestImdbJob(const CardinalityEstimator& est,
                          const std::vector<Query>& queries) {
  ImdbDigests d;
  size_t num_masks = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Query& q = queries[qi];
    const uint64_t salt = Mix64(qi + 1);
    auto term = [&](uint64_t mask, double value) {
      return Mix64(mask ^ Mix64(std::bit_cast<uint64_t>(value)) ^ salt);
    };
    auto digest_of = [&](const std::vector<uint64_t>& masks) {
      auto values = est.EstimateSubplans(q, masks);
      EXPECT_EQ(values.size(), masks.size()) << q.ToString();
      uint64_t sum = 0;
      for (uint64_t mask : masks) sum += term(mask, values.at(mask));
      return sum;
    };
    std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);
    num_masks += masks.size();
    d.full += digest_of(masks);
    d.reversed += digest_of({masks.rbegin(), masks.rend()});
    d.upper_half += digest_of(
        {masks.begin() + static_cast<std::ptrdiff_t>(masks.size() / 2),
         masks.end()});
    std::vector<uint64_t> sparse;
    for (size_t i = 0; i < masks.size(); i += 7) sparse.push_back(masks[i]);
    d.every_7th += digest_of(sparse);
    uint64_t all = (uint64_t{1} << q.NumTables()) - 1;
    d.greedy += term(all, est.Estimate(q));
    d.full_alone += digest_of({q.AllAliases()});
  }
  EXPECT_EQ(num_masks, 44853u) << "the workload generator changed";
  return d;
}

void ExpectDigests(const ImdbDigests& want, const ImdbDigests& got) {
  EXPECT_EQ(got.full, got.reversed) << "the estimate depends on mask order";
  EXPECT_EQ(want.full, got.full) << std::hex << "full 0x" << got.full;
  EXPECT_EQ(want.reversed, got.reversed)
      << std::hex << "reversed 0x" << got.reversed;
  EXPECT_EQ(want.upper_half, got.upper_half)
      << std::hex << "upper half 0x" << got.upper_half;
  EXPECT_EQ(want.every_7th, got.every_7th)
      << std::hex << "every 7th 0x" << got.every_7th;
  EXPECT_EQ(want.greedy, got.greedy) << std::hex << "greedy 0x" << got.greedy;
  EXPECT_EQ(want.full_alone, got.full_alone)
      << std::hex << "full alone 0x" << got.full_alone;
}

TEST(GoldenEstimatesTest, ImdbJobDigestsSampling) {
  const Workload& w = ImdbDigestWorkload();
  FactorJoinConfig cfg;
  cfg.estimator = TableEstimatorKind::kSampling;
  cfg.sampling_rate = 0.1;
  FactorJoinEstimator est(w.db, cfg);
  ExpectDigests({0xf929318bd644d813ULL, 0xf929318bd644d813ULL,
                 0xbd6eb55b80e673f8ULL, 0x358866951e033be9ULL,
                 0x4f8a482d1b7ef739ULL, 0xe3861af694c86f19ULL},
                DigestImdbJob(est, w.queries));
}

TEST(GoldenEstimatesTest, ImdbJobDigestsBayesNet) {
  const Workload& w = ImdbDigestWorkload();
  FactorJoinConfig cfg;
  cfg.estimator = TableEstimatorKind::kBayesNet;
  FactorJoinEstimator est(w.db, cfg);
  ExpectDigests({0x21ec0a723515e9eaULL, 0x21ec0a723515e9eaULL,
                 0xfcd815ec76f11da1ULL, 0x5827ab08c6977863ULL,
                 0x19d6e12166f5bc02ULL, 0xe95d576bb4a761d6ULL},
                DigestImdbJob(est, w.queries));
}

// The greedy bound baselines over the same 64 queries: Estimate() of each
// whole query (up to 16 aliases) pins the shared greedy join order far
// beyond the three-alias chain. Captured at commit c6b93eb.
uint64_t GreedyDigest(const CardinalityEstimator& est,
                      const std::vector<Query>& queries) {
  uint64_t sum = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    sum += Mix64(std::bit_cast<uint64_t>(est.Estimate(queries[qi])) ^
                 Mix64(qi + 1));
  }
  return sum;
}

TEST(GoldenEstimatesTest, ImdbJobGreedyDigestsBaselines) {
  const Workload& w = ImdbDigestWorkload();
  JoinHistOptions bound_conditional;
  bound_conditional.use_mfv_bound = true;
  bound_conditional.use_conditional = true;
  EXPECT_EQ(0x6e7c840edb71ce1bULL,
            GreedyDigest(PessimisticEstimator(w.db), w.queries));
  EXPECT_EQ(0xdc3b18f2d8c2b868ULL,
            GreedyDigest(JoinHistEstimator(w.db), w.queries));
  EXPECT_EQ(0x5a10126f3367ac9dULL,
            GreedyDigest(JoinHistEstimator(w.db, bound_conditional),
                         w.queries));
  EXPECT_EQ(0x7a515067a7071c8bULL,
            GreedyDigest(UBlockEstimator(w.db), w.queries));
}

}  // namespace
}  // namespace fj
