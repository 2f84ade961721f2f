// EstimatorService: concurrent results must be bit-identical to serial
// estimation, the sharded cache must hit/evict as specified, and the
// building blocks (MpmcQueue, ShardedEstimateCache) must behave under
// contention.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "baselines/postgres_estimator.h"
#include "factorjoin/estimator.h"
#include "query/subplan.h"
#include "service/estimator_service.h"
#include "service/mpmc_queue.h"
#include "service/sharded_cache.h"
#include "service/table_epochs.h"
#include "storage/database.h"

namespace fj {
namespace {

// Three-table chain schema (users -< orders >- items) with enough skew and
// attributes that estimates are non-trivial.
Database MakeDb() {
  Database db;
  Table* users = db.AddTable("users");
  Column* u_id = users->AddColumn("id", ColumnType::kInt64);
  Column* u_age = users->AddColumn("age", ColumnType::kInt64);
  for (int i = 0; i < 500; ++i) {
    u_id->AppendInt(i);
    u_age->AppendInt(18 + (i * 7) % 60);
  }
  Table* orders = db.AddTable("orders");
  Column* o_user = orders->AddColumn("user_id", ColumnType::kInt64);
  Column* o_item = orders->AddColumn("item_id", ColumnType::kInt64);
  Column* o_amount = orders->AddColumn("amount", ColumnType::kInt64);
  for (int i = 0; i < 6000; ++i) {
    int user = (i * i + 17 * i) % 500;
    user = user % (1 + user % 50);  // skew toward low ids
    o_user->AppendInt(user);
    o_item->AppendInt((i * 13) % 200);
    o_amount->AppendInt((i * 37) % 500);
  }
  Table* items = db.AddTable("items");
  Column* i_id = items->AddColumn("id", ColumnType::kInt64);
  Column* i_price = items->AddColumn("price", ColumnType::kInt64);
  for (int i = 0; i < 200; ++i) {
    i_id->AppendInt(i);
    i_price->AppendInt((i * 11) % 90);
  }
  db.AddJoinRelation({"users", "id"}, {"orders", "user_id"});
  db.AddJoinRelation({"orders", "item_id"}, {"items", "id"});
  return db;
}

FactorJoinEstimator MakeEstimator(const Database& db) {
  FactorJoinConfig config;
  config.num_bins = 32;
  return FactorJoinEstimator(db, config);
}

Query ChainQuery(int age_lo, int amount_hi) {
  Query q;
  q.AddTable("users", "u").AddTable("orders", "o").AddTable("items", "i");
  q.AddJoin("u", "id", "o", "user_id");
  q.AddJoin("o", "item_id", "i", "id");
  q.SetFilter("u", Predicate::Cmp("age", CmpOp::kGt, Literal::Int(age_lo)));
  q.SetFilter("o", Predicate::Cmp("amount", CmpOp::kLt,
                                  Literal::Int(amount_hi)));
  return q;
}

std::vector<Query> MakeWorkload(size_t count) {
  std::vector<Query> queries;
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(ChainQuery(20 + static_cast<int>(i % 30),
                                 100 + static_cast<int>(i * 13 % 400)));
  }
  return queries;
}

TEST(MpmcQueueTest, PushPopAcrossThreads) {
  MpmcQueue<int> queue(8);
  constexpr int kItems = 2000;
  constexpr int kProducers = 4;
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = p; i < kItems; i += kProducers) queue.Push(i);
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = queue.Pop()) {
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  queue.Close();
  for (size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(popped.load(), kItems);
  EXPECT_EQ(sum.load(), static_cast<long long>(kItems) * (kItems - 1) / 2);
}

TEST(MpmcQueueTest, CloseDrainsBacklogAndRejectsNewItems) {
  MpmcQueue<int> queue(2);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  EXPECT_FALSE(queue.TryPush(9));  // full: TryPush never waits
  queue.Close();
  EXPECT_FALSE(queue.Push(3));
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(ShardedCacheTest, LruEvictionPerShard) {
  ShardedEstimateCache cache(4, 1);  // single shard, 4 entries
  auto fp = [](int i) {
    Query q;
    q.AddTable("t" + std::to_string(i));
    return q.Fingerprint();
  };
  for (int i = 0; i < 4; ++i) cache.Insert(fp(i), i);
  EXPECT_EQ(cache.Stats().entries, 4u);
  // Touch 0 so 1 becomes the LRU victim.
  EXPECT_TRUE(cache.Lookup(fp(0)).has_value());
  cache.Insert(fp(4), 4.0);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_TRUE(cache.Lookup(fp(0)).has_value());
  EXPECT_FALSE(cache.Lookup(fp(1)).has_value());
  EXPECT_TRUE(cache.Lookup(fp(4)).has_value());
}

TEST(ShardedCacheTest, ConcurrentMixedWorkloadIsConsistent) {
  ShardedEstimateCache cache(1024, 16);
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  std::vector<QueryFingerprint> fps;
  for (int i = 0; i < kKeys; ++i) {
    Query q;
    q.AddTable("t" + std::to_string(i));
    fps.push_back(q.Fingerprint());
  }
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 500; ++round) {
        int k = (round * 7 + t) % kKeys;
        cache.Insert(fps[static_cast<size_t>(k)], k);
        auto v = cache.Lookup(fps[static_cast<size_t>(k)]);
        // The value for a key is only ever written as k, so any hit must
        // return exactly k.
        if (v.has_value() && *v != static_cast<double>(k)) wrong.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cache.Stats().entries, static_cast<size_t>(kKeys));
}

TEST(ServiceTest, SingleEstimateMatchesDirectCall) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 2});
  Query q = ChainQuery(30, 250);
  EXPECT_EQ(service.Estimate(q), estimator.Estimate(q));
}

// The acceptance-criteria test: N threads x M queries through the pool agree
// bit-for-bit with serial estimation on the same trained model.
TEST(ServiceTest, ConcurrentResultsBitIdenticalToSerial) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  std::vector<Query> queries = MakeWorkload(24);

  std::vector<double> serial;
  for (const Query& q : queries) serial.push_back(estimator.Estimate(q));

  EstimatorService service(estimator,
                           {.num_threads = 8, .queue_capacity = 64});
  constexpr int kClients = 8;
  std::vector<std::vector<double>> per_client(
      kClients, std::vector<double>(queries.size(), 0.0));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client walks the workload at a different offset so cache hits
      // and misses interleave across threads.
      for (size_t i = 0; i < queries.size(); ++i) {
        size_t idx = (i + static_cast<size_t>(c) * 3) % queries.size();
        per_client[static_cast<size_t>(c)][idx] =
            service.Estimate(queries[idx]);
      }
    });
  }
  for (auto& th : clients) th.join();

  for (int c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(per_client[static_cast<size_t>(c)][i], serial[i])
          << "client " << c << " query " << i;
    }
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kClients) * queries.size());
  EXPECT_EQ(stats.errors, 0u);
  // Concurrent misses on the same query can race (both compute), so the
  // exact hit count varies — but with 8 clients replaying 24 queries, the
  // overwhelming majority of lookups must hit, and the cache holds exactly
  // one entry per distinct query.
  EXPECT_GE(stats.cache.hits, static_cast<uint64_t>(queries.size()));
  EXPECT_EQ(stats.cache.entries, queries.size());
}

TEST(ServiceTest, SubplanBatchMatchesSerialEstimateSubplans) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  Query q = ChainQuery(25, 300);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);

  auto serial = estimator.EstimateSubplans(q, masks);
  EstimatorService service(estimator, {.num_threads = 4});
  auto served = service.EstimateSubplans(q, masks);

  ASSERT_EQ(served.size(), serial.size());
  for (uint64_t mask : masks) EXPECT_EQ(served.at(mask), serial.at(mask));

  // Second batch is answered entirely from cache, identically.
  auto again = service.EstimateSubplans(q, masks);
  for (uint64_t mask : masks) EXPECT_EQ(again.at(mask), serial.at(mask));
  ServiceStats stats = service.Stats();
  EXPECT_GE(stats.cache.hits, masks.size());
  EXPECT_EQ(stats.subplan_requests, 2u);
}

// Sub-plans cached under one parent query must be reused when an *equal*
// sub-plan arrives from a different parent (the fingerprint's raison d'etre).
TEST(ServiceTest, CacheSharesSubplansAcrossParentQueries) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 2});

  Query parent = ChainQuery(30, 250);
  auto parent_masks = EnumerateConnectedSubsets(parent, 1);
  auto parent_results = service.EstimateSubplans(parent, parent_masks);
  uint64_t misses_before = service.Stats().cache.misses;

  // The {u, o} prefix of the chain as its own two-table query, requested as
  // a batch: every one of its sub-plans was already cached under the parent.
  Query prefix;
  prefix.AddTable("users", "u").AddTable("orders", "o");
  prefix.AddJoin("u", "id", "o", "user_id");
  prefix.SetFilter("u", Predicate::Cmp("age", CmpOp::kGt, Literal::Int(30)));
  prefix.SetFilter("o",
                   Predicate::Cmp("amount", CmpOp::kLt, Literal::Int(250)));
  auto prefix_masks = EnumerateConnectedSubsets(prefix, 1);
  auto served = service.EstimateSubplans(prefix, prefix_masks);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache.misses, misses_before) << "prefix should fully hit";
  // The hits return exactly what the parent's batch cached ({u, o} is
  // bits 0|1 in both parents' table orders here).
  EXPECT_EQ(served.at(0b011), parent_results.at(0b011));
  EXPECT_EQ(served.at(0b001), parent_results.at(0b001));
  EXPECT_EQ(served.at(0b010), parent_results.at(0b010));

  // Single-query Estimate uses its own cache namespace (the two estimator
  // code paths may produce different valid bounds): the same prefix query
  // through Estimate must miss instead of returning a batch-path value.
  service.Estimate(prefix);
  EXPECT_EQ(service.Stats().cache.misses, misses_before + 1);
}

TEST(ServiceTest, AsyncFuturesResolve) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 4});
  std::vector<std::future<double>> futures;
  std::vector<Query> queries = MakeWorkload(16);
  for (const Query& q : queries) futures.push_back(service.EstimateAsync(q));
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), estimator.Estimate(queries[i]));
  }
}

TEST(ServiceTest, ErrorsPropagateThroughFutures) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 2});
  // Disconnected join graph: FactorJoin throws; the future must rethrow.
  Query bad;
  bad.AddTable("users", "u").AddTable("items", "i");
  EXPECT_THROW(service.Estimate(bad), std::invalid_argument);
  EXPECT_EQ(service.Stats().errors, 1u);
}

TEST(ServiceTest, ShutdownDrainsThenRejects) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 2});
  auto future = service.EstimateAsync(ChainQuery(30, 250));
  service.Shutdown();
  EXPECT_NO_THROW(future.get());  // accepted before shutdown => served
  EXPECT_THROW(service.EstimateAsync(ChainQuery(31, 251)),
               std::runtime_error);
}

TEST(ServiceTest, StatsTrackLatencyAndHitRate) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 2});
  Query q = ChainQuery(30, 250);
  for (int i = 0; i < 10; ++i) service.Estimate(q);
  // Post-completion records (kRespond, slow log) land after the promise is
  // fulfilled; Drain() returns only after the worker fully finished.
  service.Drain();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_GT(stats.cache.HitRate(), 0.8);  // 9 of 10 hit
  // Quantiles are derived from the latency histogram; one sample per
  // request, ordered p50 <= p90 <= p99 <= p999 <= max (max is exact).
  EXPECT_EQ(stats.latency.count, 10u);
  EXPECT_GT(stats.p50_micros, 0.0);
  EXPECT_GE(stats.p90_micros, stats.p50_micros);
  EXPECT_GE(stats.p99_micros, stats.p90_micros);
  EXPECT_GE(stats.p999_micros, stats.p99_micros);
  EXPECT_GE(stats.max_micros, stats.p999_micros);
  EXPECT_EQ(stats.max_micros, static_cast<double>(stats.latency.max));
  // Tracing is on by default: service-owned stages carry every request;
  // net-only stages (decode/encode/socket_write) stay empty in-process.
  using obs::Stage;
  auto stage = [&](Stage s) {
    return stats.stages[static_cast<size_t>(s)];
  };
  // Zero-microsecond spans are elided, so queue_wait/cache_probe/estimate
  // are bounded by the request count; respond is recorded per request.
  EXPECT_LE(stage(Stage::kQueueWait).count, 10u);
  EXPECT_LE(stage(Stage::kCacheProbe).count, 10u);
  EXPECT_GE(stage(Stage::kEstimate).count, 1u);  // the one cache miss
  EXPECT_EQ(stage(Stage::kRespond).count, 10u);
  EXPECT_EQ(stage(Stage::kDecode).count, 0u);
  EXPECT_EQ(stage(Stage::kEncode).count, 0u);
  EXPECT_EQ(stage(Stage::kSocketWrite).count, 0u);
}

TEST(ServiceTest, TracingDisabledStillFillsLatencyHistogram) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator,
                           {.num_threads = 2, .enable_tracing = false});
  Query q = ChainQuery(30, 250);
  for (int i = 0; i < 5; ++i) service.Estimate(q);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.latency.count, 5u);
  EXPECT_GT(stats.p50_micros, 0.0);
  for (const obs::HistogramSnapshot& stage : stats.stages) {
    EXPECT_EQ(stage.count, 0u);
  }
}

TEST(ServiceTest, SlowRequestLogEmitsStructuredLines) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  char* buf = nullptr;
  size_t buf_size = 0;
  std::FILE* sink = open_memstream(&buf, &buf_size);
  ASSERT_NE(sink, nullptr);
  {
    // Threshold 1us: every request is an offender.
    EstimatorServiceOptions options;
    options.num_threads = 2;
    options.slow_request_micros = 1;
    options.slow_log_sink = sink;
    options.model_name = "slowtest";
    EstimatorService service(estimator, options);
    Query q = ChainQuery(30, 250);
    service.Estimate(q);
    auto masks = EnumerateConnectedSubsets(q, 1);
    service.EstimateSubplans(q, masks);
    service.Drain();  // slow-log lines land after promise fulfillment
    ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.slow_requests, 2u);
  }
  std::fclose(sink);
  std::string log(buf, buf_size);
  free(buf);
  EXPECT_NE(log.find("fj_slow_request model=slowtest kind=estimate"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("fj_slow_request model=slowtest kind=subplans"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("total_us="), std::string::npos) << log;
}

// ---------------------------------------------------------------------------
// Versioned statistics: epoch registry, tagged cache entries, and the
// ApplyInsert -> NotifyUpdate protocol.

// Appends `count` drastically skewed orders rows; returns the first new row.
size_t AppendSkewedOrders(Database* db, int count) {
  Table* orders = db->MutableTable("orders");
  size_t first = orders->num_rows();
  for (int i = 0; i < count; ++i) {
    orders->MutableCol("user_id")->AppendInt(1);
    orders->MutableCol("item_id")->AppendInt(3);
    orders->MutableCol("amount")->AppendInt(7);
  }
  return first;
}

TEST(TableEpochRegistryTest, PerTableEpochsDriveStaleness) {
  TableEpochRegistry reg;
  EXPECT_EQ(reg.Epoch(), 0u);
  uint64_t users = reg.BitsFor({"users"});
  uint64_t orders = reg.BitsFor({"orders"});
  uint64_t both = reg.BitsFor({"users", "orders"});
  EXPECT_EQ(both, users | orders);
  EXPECT_NE(users, orders);
  EXPECT_EQ(reg.NumRegisteredTables(), 2u);

  // An entry tagged with epoch 0 goes stale only when a touched table moves.
  EXPECT_FALSE(reg.IsStale(users, 0));
  EXPECT_EQ(reg.NotifyUpdate("orders"), 1u);
  EXPECT_FALSE(reg.IsStale(users, 0));
  EXPECT_TRUE(reg.IsStale(orders, 0));
  EXPECT_TRUE(reg.IsStale(both, 0));
  // Entries created at the current epoch are fresh again.
  EXPECT_FALSE(reg.IsStale(orders, reg.Epoch()));
}

// Both serving paths tag entries from AliasBits: tables register in alias
// order, self-joined aliases share a bit, and the OR over every alias is the
// bitmap of the query's distinct base tables.
TEST(TableEpochRegistryTest, AliasBitsFollowAliasOrder) {
  Query q;
  q.AddTable("orders", "o1").AddTable("users", "u").AddTable("orders", "o2");
  q.AddJoin("o1", "user_id", "u", "id").AddJoin("o2", "user_id", "u", "id");

  TableEpochRegistry reg;
  std::vector<uint64_t> bits = reg.AliasBits(q);
  ASSERT_EQ(bits.size(), 3u);
  EXPECT_EQ(bits[0], uint64_t{1} << 0);  // orders registered first
  EXPECT_EQ(bits[1], uint64_t{1} << 1);
  EXPECT_EQ(bits[2], bits[0]);
  EXPECT_EQ(reg.NumRegisteredTables(), 2u);

  TableEpochRegistry by_name;
  EXPECT_EQ(by_name.BitsFor(q.BaseTables()), bits[0] | bits[1] | bits[2]);
  EXPECT_EQ(by_name.AliasBits(q), bits);
}

TEST(ShardedCacheTest, StaleEntriesAreLazilyInvalidated) {
  TableEpochRegistry reg;
  ShardedEstimateCache cache(64, 4, &reg);
  Query qa;
  qa.AddTable("users");
  Query qb;
  qb.AddTable("items");
  cache.Insert(qa.Fingerprint(), 1.0, reg.BitsFor({"users"}), reg.Epoch());
  cache.Insert(qb.Fingerprint(), 2.0, reg.BitsFor({"items"}), reg.Epoch());

  reg.NotifyUpdate("users");
  EXPECT_FALSE(cache.Lookup(qa.Fingerprint()).has_value());
  EXPECT_EQ(cache.Lookup(qb.Fingerprint()).value(), 2.0);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 1u);  // the stale entry was erased

  // Re-inserting at the current epoch serves again.
  cache.Insert(qa.Fingerprint(), 3.0, reg.BitsFor({"users"}), reg.Epoch());
  EXPECT_EQ(cache.Lookup(qa.Fingerprint()).value(), 3.0);
}

// The acceptance-criteria test: after ApplyInsert + NotifyUpdate, a served
// estimate is bit-identical to the estimator's fresh result — no stale hit.
TEST(ServiceTest, EstimateAfterInsertAndNotifyIsFresh) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 2});
  Query q = ChainQuery(20, 250);
  double before = service.Estimate(q);
  EXPECT_EQ(service.Estimate(q), before);  // warm: served from cache

  size_t first = AppendSkewedOrders(&db, 3000);
  // Update protocol: quiesce (nothing in flight here), update the estimator,
  // then notify the service.
  estimator.ApplyInsert("orders", first);
  service.NotifyUpdate("orders");

  double fresh = estimator.Estimate(q);
  EXPECT_NE(fresh, before) << "insert was drastic enough to move the bound";
  EXPECT_EQ(service.Estimate(q), fresh);
  // And the fresh value is cached again.
  EXPECT_EQ(service.Estimate(q), fresh);
}

TEST(ServiceTest, UnrelatedEntriesSurviveInvalidation) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 2});

  Query users_q;
  users_q.AddTable("users", "u");
  users_q.SetFilter("u", Predicate::Cmp("age", CmpOp::kGt, Literal::Int(40)));
  Query items_q;
  items_q.AddTable("items", "i");
  items_q.SetFilter("i", Predicate::Cmp("price", CmpOp::kLt, Literal::Int(50)));
  service.Estimate(users_q);
  service.Estimate(items_q);

  Table* users = db.MutableTable("users");
  size_t first = users->num_rows();
  for (int i = 0; i < 200; ++i) {
    users->MutableCol("id")->AppendInt(static_cast<int64_t>(first + i));
    users->MutableCol("age")->AppendInt(50);
  }
  estimator.ApplyInsert("users", first);
  service.NotifyUpdate("users");

  // The items entry is untouched by the users update: it must still hit.
  ServiceStats s1 = service.Stats();
  EXPECT_EQ(service.Estimate(items_q), estimator.Estimate(items_q));
  ServiceStats s2 = service.Stats();
  EXPECT_EQ(s2.cache.hits, s1.cache.hits + 1);
  EXPECT_EQ(s2.cache.misses, s1.cache.misses);
  EXPECT_EQ(s2.cache.invalidations, 0u);

  // The users entry is stale: lazily invalidated, then served fresh.
  EXPECT_EQ(service.Estimate(users_q), estimator.Estimate(users_q));
  ServiceStats s3 = service.Stats();
  EXPECT_EQ(s3.cache.misses, s2.cache.misses + 1);
  EXPECT_EQ(s3.cache.invalidations, 1u);
}

// Hit-rate retention on the batch path: only sub-plans touching the updated
// table are invalidated; the rest of the warm batch keeps hitting.
TEST(ServiceTest, BatchInvalidationIsTargeted) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 2});
  Query q = ChainQuery(20, 250);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);
  ASSERT_EQ(masks.size(), 6u);  // {u},{o},{i},{uo},{oi},{uoi}
  service.EstimateSubplans(q, masks);

  Table* items = db.MutableTable("items");
  size_t first = items->num_rows();
  for (int i = 0; i < 300; ++i) {
    items->MutableCol("id")->AppendInt(static_cast<int64_t>(first + i));
    items->MutableCol("price")->AppendInt(10);
  }
  estimator.ApplyInsert("items", first);
  service.NotifyUpdate("items");

  auto fresh = estimator.EstimateSubplans(q, masks);
  ServiceStats before = service.Stats();
  auto served = service.EstimateSubplans(q, masks);
  for (uint64_t mask : masks) {
    EXPECT_EQ(served.at(mask), fresh.at(mask)) << "mask " << mask;
  }
  ServiceStats after = service.Stats();
  // {u}, {o}, {u,o} don't touch items: retained and hit. {i}, {o,i},
  // {u,o,i} touch items: lazily invalidated and recomputed.
  EXPECT_EQ(after.cache.hits, before.cache.hits + 3);
  EXPECT_EQ(after.cache.misses, before.cache.misses + 3);
  EXPECT_EQ(after.cache.invalidations - before.cache.invalidations, 3u);
}

// Masks arrive from remote clients unchecked, and the default session
// ignores bits past the query's aliases (as InducedSubquery does). Such a
// mask keys like its in-range part, and its entry is tagged with the tables
// of the aliases that exist.
TEST(ServiceTest, MaskBitsPastTheAliasesKeyAndTagLikeTheirAliases) {
  class CountingEstimator : public CardinalityEstimator {
   public:
    std::string Name() const override { return "counting"; }
    double Estimate(const Query& query) const override {
      calls.fetch_add(1);
      return static_cast<double>(query.NumTables());
    }
    mutable std::atomic<int> calls{0};
  };
  CountingEstimator estimator;
  EstimatorService service(estimator, {.num_threads = 1});
  Query q;
  q.AddTable("users", "u").AddTable("orders", "o");
  q.AddJoin("u", "id", "o", "user_id");
  const uint64_t wide = 0b01 | (uint64_t{1} << 40);  // {u} and a stray bit

  EXPECT_EQ(service.EstimateSubplans(q, {wide}).at(wide), 1.0);
  EXPECT_EQ(service.EstimateSubplans(q, {0b01}).at(0b01), 1.0);  // a hit
  EXPECT_EQ(estimator.calls.load(), 1);

  service.NotifyUpdate("orders");  // {u} does not touch orders
  service.EstimateSubplans(q, {wide});
  EXPECT_EQ(estimator.calls.load(), 1);
  service.NotifyUpdate("users");
  service.EstimateSubplans(q, {wide});
  EXPECT_EQ(estimator.calls.load(), 2);
}

TEST(ServiceTest, NotifyUpdateBumpsEpochAndCounters) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 1});
  EXPECT_EQ(service.Epoch(), 0u);
  EXPECT_EQ(service.NotifyUpdate("orders"), 1u);
  EXPECT_EQ(service.NotifyUpdate("users"), 2u);
  EXPECT_EQ(service.Stats().epoch, 2u);
}

// The epoch is the one update counter (fj_updates_notified_total is read
// from it): concurrent NotifyUpdate calls must each bump it exactly once.
TEST(ServiceTest, EpochAndUpdatesNotifiedNeverDisagreeUnderRaces) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 1});

  constexpr int kNotifiers = 4;
  constexpr int kPerNotifier = 500;
  std::vector<std::thread> notifiers;
  for (int t = 0; t < kNotifiers; ++t) {
    notifiers.emplace_back([&service, t] {
      const char* tables[] = {"users", "orders", "items"};
      for (int i = 0; i < kPerNotifier; ++i) {
        service.NotifyUpdate(tables[(t + i) % 3]);
      }
    });
  }
  for (std::thread& t : notifiers) t.join();
  EXPECT_EQ(service.Stats().epoch,
            static_cast<uint64_t>(kNotifiers) * kPerNotifier);
}

// Drain() must be callable while other threads keep submitting: each call
// returns once everything accepted *before some point during the call* is
// served, and nothing deadlocks or crashes.
TEST(ServiceTest, DrainRacesConcurrentSubmitters) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator,
                           {.num_threads = 4, .queue_capacity = 16});
  std::vector<Query> queries = MakeWorkload(8);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 60;
  std::atomic<bool> stop_draining{false};
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<double>>> futures(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        futures[static_cast<size_t>(s)].push_back(
            service.EstimateAsync(queries[static_cast<size_t>(i) %
                                          queries.size()]));
      }
    });
  }
  std::thread drainer([&] {
    while (!stop_draining.load()) service.Drain();
  });
  for (auto& t : submitters) t.join();
  stop_draining.store(true);
  drainer.join();

  // Everything submitted resolves; a final drain leaves nothing pending.
  service.Drain();
  for (auto& per_submitter : futures) {
    for (auto& f : per_submitter) {
      EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      EXPECT_NO_THROW(f.get());
    }
  }
  EXPECT_EQ(service.Stats().pending_requests, 0u);
}

// Shutdown() while submitters are mid-burst: every future obtained before
// the submit that threw must resolve (accepted work is drained), every
// submit after the close throws, and nothing hangs.
TEST(ServiceTest, ShutdownRacesInFlightSubmitters) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator,
                           {.num_threads = 2, .queue_capacity = 8});
  std::vector<Query> queries = MakeWorkload(8);

  constexpr int kSubmitters = 4;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < 200; ++i) {
        try {
          auto f = service.EstimateAsync(
              queries[static_cast<size_t>(s + i) % queries.size()]);
          accepted.fetch_add(1);
          // Accepted before shutdown completed => must be served, not
          // abandoned.
          EXPECT_NO_THROW(f.get());
        } catch (const std::runtime_error&) {
          rejected.fetch_add(1);
          break;  // queue closed: every later submit would throw too
        }
      }
    });
  }
  // Let the burst get going, then slam the door.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.Shutdown();
  for (auto& t : submitters) t.join();

  EXPECT_GT(accepted.load(), 0u);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests + stats.errors, accepted.load());
  EXPECT_EQ(stats.pending_requests, 0u);
  EXPECT_THROW(service.Estimate(queries[0]), std::runtime_error);
}

// The worker-thread guard: blocking APIs called from a worker (here: from
// inside a completion callback, which runs on one) must throw immediately
// instead of silently deadlocking the pool.
TEST(ServiceTest, BlockingCallsFromWorkerThreadThrow) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 1});
  Query q = ChainQuery(30, 250);

  std::promise<void> done;
  std::string estimate_msg, subplans_msg, drain_msg;
  service.EstimateAsync(q, [&](double, std::exception_ptr) {
    try {
      service.Estimate(q);
    } catch (const std::logic_error& e) {
      estimate_msg = e.what();
    }
    try {
      service.EstimateSubplans(q, {0b1});
    } catch (const std::logic_error& e) {
      subplans_msg = e.what();
    }
    try {
      service.Drain();
    } catch (const std::logic_error& e) {
      drain_msg = e.what();
    }
    done.set_value();
  });
  done.get_future().get();
  EXPECT_NE(estimate_msg.find("worker thread"), std::string::npos)
      << estimate_msg;
  EXPECT_NE(subplans_msg.find("worker thread"), std::string::npos);
  EXPECT_NE(drain_msg.find("worker thread"), std::string::npos);
  // From a non-worker thread the same calls still work.
  EXPECT_NO_THROW(service.Estimate(q));
}

TEST(ServiceTest, CallbackVariantsMatchFutureVariants) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 2});
  Query q = ChainQuery(25, 300);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);

  std::promise<double> single;
  service.EstimateAsync(q, [&](double value, std::exception_ptr error) {
    ASSERT_EQ(error, nullptr);
    single.set_value(value);
  });
  EXPECT_EQ(single.get_future().get(), estimator.Estimate(q));

  std::promise<std::unordered_map<uint64_t, double>> batch;
  service.EstimateSubplansAsync(
      q, masks,
      [&](std::unordered_map<uint64_t, double> values,
          std::exception_ptr error) {
        ASSERT_EQ(error, nullptr);
        batch.set_value(std::move(values));
      });
  auto served = batch.get_future().get();
  auto direct = estimator.EstimateSubplans(q, masks);
  for (uint64_t mask : masks) EXPECT_EQ(served.at(mask), direct.at(mask));

  // Error path: the callback receives the exception instead of a value.
  Query bad;
  bad.AddTable("users", "u").AddTable("items", "i");
  std::promise<std::exception_ptr> failed;
  service.EstimateAsync(bad, [&](double, std::exception_ptr error) {
    failed.set_value(error);
  });
  std::exception_ptr error = failed.get_future().get();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::invalid_argument);
}

TEST(ServiceTest, PendingGaugeRisesAndDrainsToZero) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 1});

  // Park the only worker inside a completion callback so the backlog is
  // observable deterministically (polling for it races the worker on a
  // single-CPU host: one preemption and the backlog is gone).
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  service.EstimateAsync(ChainQuery(19, 300),
                        [&](double, std::exception_ptr) {
                          entered.set_value();
                          gate.wait();
                        });
  entered.get_future().get();

  std::vector<std::future<double>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(service.EstimateAsync(ChainQuery(20 + i, 300)));
  }
  // 16 queued + the one in flight (a request counts as pending until its
  // callback returned).
  ServiceStats backlog = service.Stats();
  EXPECT_EQ(backlog.pending_requests, 17u);
  EXPECT_EQ(backlog.queue_depth, 16u);

  release.set_value();
  service.Drain();
  ServiceStats drained = service.Stats();
  EXPECT_EQ(drained.pending_requests, 0u);
  EXPECT_EQ(drained.queue_depth, 0u);
  for (auto& f : futures) f.get();
}

TEST(ServiceTest, DrainWaitsForAllAcceptedRequests) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator, {.num_threads = 2});
  std::vector<std::future<double>> futures;
  std::vector<Query> queries = MakeWorkload(16);
  for (const Query& q : queries) futures.push_back(service.EstimateAsync(q));
  service.Drain();
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
  service.Drain();  // idle drain returns immediately
}

TEST(ServiceTest, InvalidateAllDropsEverything) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  // Two entries in one shard: the third distinct estimate evicts one.
  EstimatorService service(
      estimator, {.num_threads = 2, .cache_capacity = 2, .cache_shards = 1});
  service.Estimate(ChainQuery(20, 250));
  service.Estimate(ChainQuery(25, 300));
  Query q = ChainQuery(30, 350);
  EXPECT_EQ(service.Estimate(q), estimator.Estimate(q));
  EXPECT_EQ(service.Stats().cache.entries, 2u);
  EXPECT_EQ(service.Stats().cache.evictions, 1u);
  service.InvalidateAll();
  EXPECT_EQ(service.Stats().cache.entries, 0u);
}

TEST(ServiceTest, CacheDisabledStillCorrect) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorService service(estimator,
                           {.num_threads = 2, .cache_enabled = false});
  Query q = ChainQuery(30, 250);
  EXPECT_EQ(service.Estimate(q), estimator.Estimate(q));
  EXPECT_EQ(service.Estimate(q), estimator.Estimate(q));
  EXPECT_EQ(service.Stats().cache.hits, 0u);
}

// ---------------------------------------------------------------------------
// Batch-aware scheduling: large batches split across workers via the
// estimator's PrepareSubplans session.

TEST(ServiceTest, SubplanSessionMatchesBatchBitForBit) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  Query q = ChainQuery(25, 300);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);
  auto serial = estimator.EstimateSubplans(q, masks);

  auto session = estimator.PrepareSubplans(q);
  ASSERT_NE(session, nullptr);
  // Any chunking of the mask set must reproduce the batch values exactly
  // (canonical decomposition) — including one mask at a time.
  for (size_t chunk = 1; chunk <= masks.size(); ++chunk) {
    std::unordered_map<uint64_t, double> merged;
    for (size_t b = 0; b < masks.size(); b += chunk) {
      std::vector<uint64_t> part(
          masks.begin() + static_cast<long>(b),
          masks.begin() + static_cast<long>(std::min(b + chunk, masks.size())));
      auto got = session->EstimateSubplans(part);
      merged.insert(got.begin(), got.end());
    }
    ASSERT_EQ(merged.size(), serial.size());
    for (const auto& [mask, value] : serial) {
      EXPECT_EQ(merged.at(mask), value) << "chunk size " << chunk
                                        << ", mask " << mask;
    }
  }
}

TEST(ServiceTest, SplitBatchBitIdenticalToUnsplit) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  Query q = ChainQuery(25, 300);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);
  auto serial = estimator.EstimateSubplans(q, masks);

  EstimatorServiceOptions options;
  options.num_threads = 4;
  options.cache_enabled = false;
  options.split_batch_min_masks = 2;  // force splitting for the small batch
  EstimatorService service(estimator, options);
  auto split = service.EstimateSubplans(q, masks);
  ASSERT_EQ(split.size(), serial.size());
  for (const auto& [mask, value] : serial) {
    EXPECT_EQ(split.at(mask), value) << "mask " << mask;
  }
  ServiceStats stats = service.Stats();
  EXPECT_GE(stats.batches_split, 1u);
  EXPECT_GE(stats.split_chunks, 2u);
}

TEST(ServiceTest, SplitBatchPopulatesCacheLikeUnsplit) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  Query q = ChainQuery(25, 300);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);

  EstimatorServiceOptions split_options;
  split_options.num_threads = 4;
  split_options.split_batch_min_masks = 2;
  EstimatorService split_service(estimator, split_options);
  EstimatorServiceOptions plain_options;
  plain_options.num_threads = 4;
  plain_options.split_batch_min_masks = 0;  // splitting disabled
  EstimatorService plain_service(estimator, plain_options);

  auto split_cold = split_service.EstimateSubplans(q, masks);
  auto plain_cold = plain_service.EstimateSubplans(q, masks);
  auto split_warm = split_service.EstimateSubplans(q, masks);
  for (uint64_t mask : masks) {
    EXPECT_EQ(split_cold.at(mask), plain_cold.at(mask)) << "mask " << mask;
    EXPECT_EQ(split_warm.at(mask), plain_cold.at(mask)) << "mask " << mask;
  }
  EXPECT_EQ(plain_service.Stats().batches_split, 0u);
  EXPECT_GE(split_service.Stats().cache.hits, masks.size());
}

TEST(ServiceTest, SplitBatchOnSingleWorkerPoolFallsBack) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  Query q = ChainQuery(25, 300);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);
  EstimatorServiceOptions options;
  options.num_threads = 1;
  options.cache_enabled = false;
  options.split_batch_min_masks = 2;
  EstimatorService service(estimator, options);
  auto got = service.EstimateSubplans(q, masks);
  auto serial = estimator.EstimateSubplans(q, masks);
  for (uint64_t mask : masks) EXPECT_EQ(got.at(mask), serial.at(mask));
  EXPECT_EQ(service.Stats().batches_split, 0u);
}

// A batch's estimate stage covers the session's shared work (for
// FactorJoin, every leaf factor), not only the decomposition: a stub whose
// PrepareSubplans sleeps 20 ms shows at least that much, whether the batch
// is split or runs as one chunk.
TEST(ServiceTest, SplitBatchEstimateStageCoversSessionSetup) {
  class SlowSessionEstimator : public CardinalityEstimator {
   public:
    std::string Name() const override { return "slow-session"; }
    double Estimate(const Query& query) const override {
      return static_cast<double>(query.NumTables());
    }
    std::unique_ptr<SubplanSession> PrepareSubplans(
        const Query& /*query*/) const override {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return std::make_unique<Session>();
    }

   private:
    class Session : public SubplanSession {
     public:
      std::unordered_map<uint64_t, double> EstimateSubplans(
          const std::vector<uint64_t>& masks) const override {
        std::unordered_map<uint64_t, double> out;
        for (uint64_t mask : masks) {
          out[mask] = static_cast<double>(std::popcount(mask));
        }
        return out;
      }
    };
  };
  SlowSessionEstimator estimator;
  Query q = ChainQuery(25, 300);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);
  // split_batch_min_masks 2 splits the batch; 0 runs it as one chunk.
  for (size_t min_masks : {size_t{2}, size_t{0}}) {
    EstimatorServiceOptions options;
    options.num_threads = 2;
    options.cache_enabled = false;
    options.split_batch_min_masks = min_masks;
    EstimatorService service(estimator, options);

    auto trace = std::make_shared<obs::RequestTrace>();
    std::promise<size_t> served;
    service.EstimateSubplansAsync(
        q, masks,
        [&served](std::unordered_map<uint64_t, double> values,
                  std::exception_ptr error) {
          if (error != nullptr) {
            served.set_exception(error);
          } else {
            served.set_value(values.size());
          }
        },
        trace);
    EXPECT_EQ(served.get_future().get(), masks.size());
    EXPECT_EQ(service.Stats().batches_split, min_masks == 0 ? 0u : 1u);
    EXPECT_GE(trace->Get(obs::Stage::kEstimate), 20000u)
        << "split_batch_min_masks " << min_masks;
  }
}

// An estimator without shared state splits like FactorJoin: its default
// session estimates each mask on its own, so the chunks reproduce per-mask
// Estimate bit for bit.
TEST(ServiceTest, SplitBatchOfIndependentEstimatorMatchesEstimate) {
  Database db = MakeDb();
  PostgresEstimator estimator(db);
  Query q = ChainQuery(25, 300);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);
  EstimatorServiceOptions options;
  options.num_threads = 4;
  options.cache_enabled = false;
  options.split_batch_min_masks = 2;
  EstimatorService service(estimator, options);
  auto split = service.EstimateSubplans(q, masks);
  ASSERT_EQ(split.size(), masks.size());
  for (uint64_t mask : masks) {
    EXPECT_EQ(std::bit_cast<uint64_t>(split.at(mask)),
              std::bit_cast<uint64_t>(
                  estimator.Estimate(q.InducedSubquery(mask))))
        << "mask " << mask;
  }
  EXPECT_GE(service.Stats().batches_split, 1u);
}

// TSAN target: split batches fan work across workers while updates bump
// epochs and invalidate cache entries — the scheduling, the epoch registry
// and the shared session must stay race-free.
TEST(ServiceTest, SplitBatchesRaceNotifyUpdate) {
  Database db = MakeDb();
  FactorJoinEstimator estimator = MakeEstimator(db);
  EstimatorServiceOptions options;
  options.num_threads = 4;
  options.split_batch_min_masks = 2;
  EstimatorService service(estimator, options);
  std::vector<Query> queries = MakeWorkload(8);
  std::vector<std::vector<uint64_t>> masks;
  for (const Query& q : queries) {
    masks.push_back(EnumerateConnectedSubsets(q, 1));
  }

  std::atomic<bool> stop{false};
  std::thread updater([&] {
    while (!stop.load()) {
      service.NotifyUpdate("orders");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < 20; ++r) {
        size_t i = static_cast<size_t>(c + r) % queries.size();
        auto got = service.EstimateSubplans(queries[i], masks[i]);
        EXPECT_EQ(got.size(), masks[i].size());
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  updater.join();
  service.Drain();
  EXPECT_GE(service.Stats().batches_split, 1u);
}

// Overwriting an entry refreshes it like a lookup does, so the victim is
// the tail of the recency list, not the oldest insertion.
TEST(ShardedCacheTest, PlainLruStillEvictsTail) {
  ShardedEstimateCache cache(4, 1);
  for (uint64_t i = 1; i <= 4; ++i) {
    cache.Insert({i, i * 10}, static_cast<double>(i));
  }
  cache.Insert({1, 10}, 1.5);  // overwrite: {2, 20} is now the tail
  cache.Insert({9, 90}, 9.0);
  EXPECT_FALSE(cache.Lookup({2, 20}).has_value());
  EXPECT_EQ(cache.Lookup({1, 10}), 1.5);
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

}  // namespace
}  // namespace fj
