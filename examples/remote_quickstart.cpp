// Remote-estimation quickstart: put a trained estimator behind a TCP
// socket with EstimatorServer, connect an EstimatorClient (in a real
// deployment this is another process — see tools/fj_server.cpp and
// tools/fj_client.cpp), and issue pipelined estimate requests.
//
//   $ ./remote_quickstart
#include <cstdio>
#include <future>
#include <unordered_map>
#include <vector>

#include "factorjoin/estimator.h"
#include "net/client.h"
#include "net/server.h"
#include "query/subplan.h"
#include "service/estimator_service.h"

using namespace fj;

int main() {
  // 1. Data + offline training, once, server-side (same schema as
  //    examples/service_quickstart.cpp).
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
  FactorJoinConfig config;
  config.num_bins = 64;
  FactorJoinEstimator estimator(db, config);

  // 2. Serving stack: service (worker pool + cache) behind a TCP server on
  //    an ephemeral loopback port.
  EstimatorService service(estimator, {.num_threads = 4});
  net::EstimatorServerOptions server_options;
  server_options.endpoint.port = 0;  // kernel picks; read back below
  net::EstimatorServer server(service, server_options);
  server.Start();
  std::printf("server listening on %s\n",
              server.endpoint().ToString().c_str());

  // 3. The client side: connects and speaks the versioned wire protocol.
  //    An optimizer process embeds exactly this object.
  net::EstimatorClientOptions client_options;
  client_options.endpoint = server.endpoint();
  net::EstimatorClient client(client_options);
  client.Connect();

  // 4. Pipelined one-query estimates, each the batch of its query's full
  //    alias mask: all requests in flight at once, one connection; the
  //    server responds in completion order.
  std::vector<Query> burst;
  std::vector<std::future<std::unordered_map<uint64_t, double>>> futures;
  for (int lo = 20; lo < 60; ++lo) {
    Query q;
    q.AddTable("users").AddTable("orders");
    q.AddJoin("users", "id", "orders", "user_id");
    q.SetFilter("users", Predicate::Cmp("age", CmpOp::kGt, Literal::Int(lo)));
    futures.push_back(client.EstimateSubplansAsync(q, {q.AllAliases()}));
    burst.push_back(std::move(q));
  }
  std::vector<double> results;
  for (size_t i = 0; i < futures.size(); ++i) {
    results.push_back(futures[i].get().at(burst[i].AllAliases()));
  }
  std::printf("age > 20 join estimate (remote): %.0f rows\n",
              results.front());

  // 5. A whole sub-plan set at once — what an optimizer asks for, remoted.
  Query q;
  q.AddTable("users").AddTable("orders");
  q.AddJoin("users", "id", "orders", "user_id");
  q.SetFilter("orders",
              Predicate::Cmp("amount", CmpOp::kLt, Literal::Int(100)));
  auto masks = EnumerateConnectedSubsets(q, 1);
  auto remote = client.EstimateSubplans(q, masks);
  // Values are bit-identical to asking the in-process service directly.
  auto local = service.EstimateSubplans(q, masks);
  bool identical = true;
  for (uint64_t mask : masks) {
    if (remote.at(mask) != local.at(mask)) identical = false;
  }
  std::printf("remote == in-process for %zu sub-plans: %s\n", masks.size(),
              identical ? "yes (bit-identical)" : "NO");

  // 6. Remote service metrics.
  ServiceStats stats = client.Stats();
  std::printf("remote stats: subplan_requests=%llu hit_rate=%.0f%% "
              "pending=%llu\n",
              static_cast<unsigned long long>(stats.subplan_requests),
              stats.cache.HitRate() * 100.0,
              static_cast<unsigned long long>(stats.pending_requests));

  client.Disconnect();
  server.Stop();
  return identical ? 0 : 1;
}
