// Reproduces Table 3: end-to-end performance of all CardEst methods on the
// STATS-CEB(-like) workload. Expected shape (paper): Postgres slowest among
// the serious contenders, TrueCard optimal, FactorJoin within a few percent
// of TrueCard with Postgres-like planning time; learned data-driven analogs
// close on execution but heavier; WJSample worst; bound-based methods good
// execution, PessEst with outsized planning time.
#include <cstdio>

#include "method_zoo.h"

using namespace fj;
using namespace fj::bench;

int main() {
  auto w = StatsWorkload();
  std::printf("== Table 3: end-to-end on %s (%zu rows, %zu queries) ==\n",
              w->name.c_str(), w->db.TotalRows(), w->queries.size());

  std::vector<MethodRow> rows;

  PostgresEstimator postgres(w->db);
  rows.push_back(RunMethod(w->db, w->queries, &postgres));

  {
    TrueCardEstimator truecard(w->db);
    MethodRow r = RunMethod(w->db, w->queries, &truecard,
                            /*charge_planning=*/false);
    r.name = "truecard(optimal)";
    rows.push_back(std::move(r));
  }
  {
    JoinHistOptions o;
    o.num_bins = 100;
    JoinHistEstimator joinhist(w->db, o);
    rows.push_back(RunMethod(w->db, w->queries, &joinhist));
  }
  {
    WanderJoinOptions o;
    o.walks = 400;
    WanderJoinEstimator wj(w->db, o);
    rows.push_back(RunMethod(w->db, w->queries, &wj));
  }
  {
    StatsCebOptions shadow_opts;
    shadow_opts.scale = EnvScale();
    shadow_opts.seed = 77;  // shadow workload for supervised training
    shadow_opts.num_queries = 60;
    auto shadow = MakeStatsCeb(shadow_opts);
    auto examples = MscnTrainingSet(w->db, *shadow);
    MscnEstimator mscn(w->db, examples);
    rows.push_back(RunMethod(w->db, w->queries, &mscn));
  }
  {
    auto bayescard = MakeDenormAnalog(w->db, w->queries, "bayescard*", 2000);
    rows.push_back(RunMethod(w->db, w->queries, bayescard.get()));
    auto deepdb = MakeDenormAnalog(w->db, w->queries, "deepdb*", 10000);
    rows.push_back(RunMethod(w->db, w->queries, deepdb.get()));
    auto flat = MakeDenormAnalog(w->db, w->queries, "flat*", 40000);
    rows.push_back(RunMethod(w->db, w->queries, flat.get()));
  }
  {
    PessimisticEstimator pessest(w->db);
    rows.push_back(RunMethod(w->db, w->queries, &pessest));
  }
  {
    UBlockEstimator ublock(w->db);
    rows.push_back(RunMethod(w->db, w->queries, &ublock));
  }
  {
    auto factorjoin = MakeFactorJoinStats(w->db);
    rows.push_back(RunMethod(w->db, w->queries, factorjoin.get()));
  }

  PrintEndToEndTable(rows, "postgres");
  std::printf("\n(learned data-driven analogs marked *; see docs/BENCHMARKS.md)\n");
  return 0;
}
