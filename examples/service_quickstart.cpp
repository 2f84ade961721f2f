// Serving-layer quickstart: train FactorJoin once, wrap it in an
// EstimatorService, and serve sub-plan batches from a worker pool with a
// sharded sub-plan cache.
//
//   $ ./service_quickstart
#include <cstdio>
#include <future>
#include <unordered_map>
#include <vector>

#include "factorjoin/estimator.h"
#include "query/subplan.h"
#include "service/estimator_service.h"

using namespace fj;

int main() {
  // 1. The quickstart database: users and their orders (skewed foreign key).
  Database db;
  Table* users = db.AddTable("users");
  Column* u_id = users->AddColumn("id", ColumnType::kInt64);
  Column* u_age = users->AddColumn("age", ColumnType::kInt64);
  for (int i = 0; i < 1000; ++i) {
    u_id->AppendInt(i);
    u_age->AppendInt(18 + (i * 7) % 60);
  }
  Table* orders = db.AddTable("orders");
  Column* o_user = orders->AddColumn("user_id", ColumnType::kInt64);
  Column* o_amount = orders->AddColumn("amount", ColumnType::kInt64);
  for (int i = 0; i < 20000; ++i) {
    int user = (i * i + 17 * i) % 1000;
    user = user % (1 + user % 100);
    o_user->AppendInt(user);
    o_amount->AppendInt((i * 37) % 500);
  }
  db.AddJoinRelation({"users", "id"}, {"orders", "user_id"});

  // 2. Offline phase, once; the trained model is immutable and shared by
  //    every worker thread (Estimate is const).
  FactorJoinConfig config;
  config.num_bins = 64;
  FactorJoinEstimator estimator(db, config);

  // 3. The serving layer: 4 workers, bounded queue, 16-way sharded LRU cache.
  EstimatorServiceOptions options;
  options.num_threads = 4;
  EstimatorService service(estimator, options);

  // 4. Fire a burst of async requests — filtered variants of the same join.
  //    Every request is a sub-plan batch; one query's own estimate is the
  //    batch of its full alias mask.
  std::vector<Query> burst;
  for (int lo = 20; lo < 60; ++lo) {
    Query q;
    q.AddTable("users").AddTable("orders");
    q.AddJoin("users", "id", "orders", "user_id");
    q.SetFilter("users", Predicate::Cmp("age", CmpOp::kGt, Literal::Int(lo)));
    burst.push_back(std::move(q));
  }
  std::vector<std::future<std::unordered_map<uint64_t, double>>> futures;
  // The burst twice: every repeated query is a cache hit.
  for (int round = 0; round < 2; ++round) {
    for (const Query& q : burst) {
      futures.push_back(service.EstimateSubplansAsync(q, {q.AllAliases()}));
    }
  }
  std::vector<double> results;
  for (size_t i = 0; i < futures.size(); ++i) {
    const Query& q = burst[i % burst.size()];
    results.push_back(futures[i].get().at(q.AllAliases()));
  }
  std::printf("age > 20 join estimate: %.0f rows\n", results.front());

  // 5. A whole sub-plan set at once — what an optimizer asks for.
  Query q;
  q.AddTable("users").AddTable("orders");
  q.AddJoin("users", "id", "orders", "user_id");
  q.SetFilter("orders",
              Predicate::Cmp("amount", CmpOp::kLt, Literal::Int(100)));
  auto subplans =
      service.EstimateSubplans(q, EnumerateConnectedSubsets(q, 1));
  for (const auto& [mask, card] : subplans) {
    std::printf("  sub-plan mask %llx -> %.0f rows\n",
                static_cast<unsigned long long>(mask), card);
  }

  // 6. Service metrics.
  ServiceStats stats = service.Stats();
  std::printf("subplan_requests=%llu hit_rate=%.0f%% p50=%.1fus p99=%.1fus\n",
              static_cast<unsigned long long>(stats.subplan_requests),
              stats.cache.HitRate() * 100.0, stats.p50_micros,
              stats.p99_micros);
  return 0;
}
