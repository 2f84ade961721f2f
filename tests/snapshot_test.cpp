// Trained-model snapshot subsystem: the framed container must reject
// wrong-magic, truncated, corrupted, and over-long input with a clear
// SerializeError (never UB — mirroring net_test's malformed-frame style),
// file IO must round-trip, schema mismatches must be caught, and the
// ModelRegistry must route names to independent services.
//
// The save→load→estimate BIT-identity contract itself is pinned by
// golden_estimates_test.cpp across the five golden estimator configs; this
// file covers everything that can go wrong around it.
#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/postgres_estimator.h"
#include "baselines/truecard_estimator.h"
#include "baselines/wander_join.h"
#include "factorjoin/estimator.h"
#include "golden_workload.h"
#include "service/model_registry.h"
#include "stats/snapshot.h"
#include "util/bytes.h"

namespace fj {
namespace {

using golden::MakeGoldenDb;
using golden::ThreeWayQuery;
using golden::TwoWayQuery;

FactorJoinConfig SmallConfig() {
  FactorJoinConfig config;
  config.num_bins = 16;
  return config;
}

// ---------------------------------------------------------------------------
// Container robustness (untrusted input).

TEST(SnapshotTest, WrongMagicRejectedWithClearError) {
  Database db = MakeGoldenDb();
  FactorJoinEstimator est(db, SmallConfig());
  std::vector<uint8_t> bytes = SerializeEstimator(est);
  bytes[0] ^= 0xff;
  try {
    DeserializeEstimator(db, bytes);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(SnapshotTest, UnsupportedFormatVersionRejected) {
  Database db = MakeGoldenDb();
  FactorJoinEstimator est(db, SmallConfig());
  std::vector<uint8_t> bytes = SerializeEstimator(est);
  bytes[4] = 0x7f;  // the u16 format version follows the u32 magic
  try {
    DeserializeEstimator(db, bytes);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SnapshotTest, EveryTruncationThrowsNotCrashes) {
  Database db = MakeGoldenDb();
  // TrueCard keeps the payload tiny so the full O(bytes) truncation sweep
  // stays fast while still covering header, kind, size, and trailer cuts.
  TrueCardEstimator est(db);
  std::vector<uint8_t> bytes = SerializeEstimator(est);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(DeserializeEstimator(db, prefix), SerializeError)
        << "len " << len;
  }
  // A real model's payload cut mid-way must fail too (checksum, not UB).
  FactorJoinEstimator fj(db, SmallConfig());
  std::vector<uint8_t> full = SerializeEstimator(fj);
  std::vector<uint8_t> half(full.begin(),
                            full.begin() + static_cast<long>(full.size() / 2));
  EXPECT_THROW(DeserializeEstimator(db, half), SerializeError);
}

TEST(SnapshotTest, OverlongInputRejected) {
  Database db = MakeGoldenDb();
  FactorJoinEstimator est(db, SmallConfig());
  std::vector<uint8_t> bytes = SerializeEstimator(est);
  // Trailing garbage after the checksum trailer is as malformed as a
  // truncated file.
  bytes.push_back(0);
  EXPECT_THROW(DeserializeEstimator(db, bytes), SerializeError);
}

TEST(SnapshotTest, CorruptedPayloadFailsTheChecksum) {
  Database db = MakeGoldenDb();
  FactorJoinEstimator est(db, SmallConfig());
  std::vector<uint8_t> bytes = SerializeEstimator(est);
  // Flip one payload byte (past the header, before the 8-byte trailer).
  bytes[bytes.size() / 2] ^= 0x01;
  try {
    DeserializeEstimator(db, bytes);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(SnapshotTest, UnknownEstimatorKindRejected) {
  Database db = MakeGoldenDb();
  ByteWriter w;
  w.U32(kSnapshotMagic);
  w.U16(kSnapshotFormatVersion);
  w.Str("definitely-not-an-estimator");
  w.U64(0);
  w.U64(0xcbf29ce484222325ULL);  // FNV-1a seed == checksum of empty payload
  try {
    DeserializeEstimator(db, w.bytes());
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("definitely-not-an-estimator"),
              std::string::npos);
  }
}

TEST(SnapshotTest, SchemaMismatchIsCaughtNotUndefined) {
  Database db = MakeGoldenDb();
  FactorJoinEstimator est(db, SmallConfig());
  std::vector<uint8_t> bytes = SerializeEstimator(est);

  // A database missing one of the snapshot's tables.
  Database other;
  Table* users = other.AddTable("users");
  Column* id = users->AddColumn("id", ColumnType::kInt64);
  id->AppendInt(1);
  EXPECT_THROW(DeserializeEstimator(other, bytes), std::invalid_argument);
}

TEST(SnapshotTest, NonSerializableEstimatorsSaySoUpfront) {
  Database db = MakeGoldenDb();
  // The base-class default: SupportsSnapshot() false, Save throws.
  class Opaque final : public CardinalityEstimator {
   public:
    std::string Name() const override { return "opaque"; }
    double Estimate(const Query&) const override { return 1.0; }
  } opaque;
  EXPECT_FALSE(opaque.SupportsSnapshot());
  EXPECT_THROW(SerializeEstimator(opaque), std::logic_error);
  // Non-serializable estimators keep the old (here: zero) size accounting.
  EXPECT_EQ(opaque.ModelSizeBytes(), 0u);
}

// ---------------------------------------------------------------------------
// File IO.

TEST(SnapshotTest, FileRoundTripAndMissingFile) {
  Database db = MakeGoldenDb();
  FactorJoinEstimator est(db, SmallConfig());
  std::string path =
      "/tmp/fj_snapshot_test_" + std::to_string(::getpid()) + ".fjsnap";
  SaveEstimatorSnapshot(est, path);
  std::unique_ptr<CardinalityEstimator> loaded =
      LoadEstimatorSnapshot(db, path);
  Query q2 = TwoWayQuery();
  Query q3 = ThreeWayQuery();
  EXPECT_EQ(loaded->Estimate(q2), est.Estimate(q2));
  EXPECT_EQ(loaded->Estimate(q3), est.Estimate(q3));
  std::remove(path.c_str());
  EXPECT_THROW(LoadEstimatorSnapshot(db, path), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Exact model size (the Figure 6 metric).

TEST(SnapshotTest, ModelSizeBytesIsTheExactSerializedFootprint) {
  Database db = MakeGoldenDb();
  FactorJoinEstimator est(db, SmallConfig());
  // The counting writer and the materializing writer must agree byte for
  // byte, and the container adds only its framing on top.
  ByteWriter w;
  est.Save(w);
  EXPECT_EQ(est.ModelSizeBytes(), w.size());
  EXPECT_EQ(est.SerializedModelSizeBytes(), w.size());

  PostgresEstimator pg(db);
  ByteWriter pg_w;
  pg.Save(pg_w);
  EXPECT_EQ(pg.ModelSizeBytes(), pg_w.size());

  // WanderJoin deliberately keeps the paper's accounting (indexes belong
  // to the database), while still being snapshot-capable.
  WanderJoinEstimator wj(db);
  EXPECT_TRUE(wj.SupportsSnapshot());
  EXPECT_EQ(wj.ModelSizeBytes(), sizeof(WanderJoinEstimator));
  EXPECT_GT(wj.SerializedModelSizeBytes(), wj.ModelSizeBytes());
}

// ---------------------------------------------------------------------------
// ModelRegistry.

TEST(ModelRegistryTest, RoutesNamesAndDefault) {
  Database db = MakeGoldenDb();
  ModelRegistry registry;
  EXPECT_EQ(registry.Find(""), nullptr);
  EXPECT_THROW(registry.Default(), std::logic_error);

  auto est_a = std::make_unique<FactorJoinEstimator>(db, SmallConfig());
  FactorJoinConfig config_b = SmallConfig();
  config_b.num_bins = 24;
  auto est_b = std::make_unique<FactorJoinEstimator>(db, config_b);
  EstimatorService& a =
      registry.AddModel("a", std::move(est_a), {.num_threads = 1});
  EstimatorService& b =
      registry.AddModel("b", std::move(est_b), {.num_threads = 1});

  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Find("a"), &a);
  EXPECT_EQ(registry.Find("b"), &b);
  EXPECT_EQ(registry.Find(""), &a);  // default = first registered
  EXPECT_EQ(&registry.Default(), &a);
  EXPECT_EQ(registry.Find("c"), nullptr);
  EXPECT_EQ(registry.ModelNames(), (std::vector<std::string>{"a", "b"}));

  // Each model serves its own estimator.
  Query q = TwoWayQuery();
  const std::vector<uint64_t> all = {q.AllAliases()};
  const CardinalityEstimator& model_a = registry.Find("a")->estimator();
  double served_a = a.EstimateSubplans(q, all).at(all[0]);
  EXPECT_EQ(served_a, model_a.EstimateSubplans(q, all).at(all[0]));
  // 16 vs 24 bins differ here.
  EXPECT_NE(served_a, b.EstimateSubplans(q, all).at(all[0]));
}

TEST(ModelRegistryTest, DuplicateNamesAndExternalServices) {
  Database db = MakeGoldenDb();
  FactorJoinEstimator est(db, SmallConfig());
  EstimatorService external(est, {.num_threads = 1});

  ModelRegistry registry;
  registry.AddExternal("ext", external);
  EXPECT_EQ(registry.Find("ext"), &external);
  EXPECT_THROW(registry.AddExternal("ext", external), std::invalid_argument);
  EXPECT_THROW(
      registry.AddModel("ext", std::make_unique<FactorJoinEstimator>(
                                   db, SmallConfig())),
      std::invalid_argument);
  EXPECT_THROW(registry.AddModel("null", nullptr), std::invalid_argument);

  // Per-model epochs: a's updates never advance ext's epoch.
  registry.AddModel("fresh",
                    std::make_unique<FactorJoinEstimator>(db, SmallConfig()),
                    {.num_threads = 1});
  registry.Find("fresh")->NotifyUpdate("orders");
  EXPECT_EQ(registry.Find("fresh")->Epoch(), 1u);
  EXPECT_EQ(registry.Find("ext")->Epoch(), 0u);
  registry.DrainAll();  // trivially drains idle services
}

}  // namespace
}  // namespace fj
