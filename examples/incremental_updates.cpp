// Incremental updates (Section 4.3): train FactorJoin, append new rows to a
// table, fold them into the model in milliseconds — no re-binning, no join
// denormalization — and watch the estimates track the new data.
//
// The second half shows the same update flowing through the serving layer:
// ApplyInsert updates the model, NotifyUpdate bumps the service's statistics
// epoch so cached estimates touching the table are lazily invalidated —
// entries for other tables keep hitting (no global cache clear).
//
//   $ ./incremental_updates
#include <cstdio>

#include "exec/true_card.h"
#include "factorjoin/estimator.h"
#include "service/estimator_service.h"
#include "workload/stats_ceb.h"

using namespace fj;

namespace {

// Appends `count` badges rows, all for user 1 — a drastic skew change.
size_t AppendBadges(Database* db, int count) {
  Table* badges = db->MutableTable("badges");
  size_t first_new = badges->num_rows();
  for (int i = 0; i < count; ++i) {
    badges->MutableCol("Id")->AppendInt(static_cast<int64_t>(first_new + i + 1));
    badges->MutableCol("UserId")->AppendInt(1);
    badges->MutableCol("Date")->AppendInt(2500);
  }
  return first_new;
}

}  // namespace

int main() {
  StatsCebOptions options;
  options.scale = 0.05;
  options.num_queries = 1;
  auto workload = MakeStatsCeb(options);
  Database& db = workload->db;

  FactorJoinConfig config;
  config.num_bins = 100;
  FactorJoinEstimator estimator(db, config);

  Query q;
  q.AddTable("users").AddTable("badges");
  q.AddJoin("users", "Id", "badges", "UserId");
  std::printf("query: %s\n\n", q.ToString().c_str());

  auto report = [&](const char* label) {
    auto truth = TrueCardinality(db, q);
    std::printf("%-22s estimate=%12.0f   true=%12llu\n", label,
                estimator.Estimate(q),
                static_cast<unsigned long long>(truth.value_or(0)));
  };
  report("before insert:");

  size_t first_new = AppendBadges(&db, 5000);
  double seconds = estimator.ApplyInsert("badges", first_new);
  std::printf("\ninserted 5000 rows; model updated in %.2f ms "
              "(stats version %llu)\n\n",
              seconds * 1e3,
              static_cast<unsigned long long>(estimator.StatsVersion()));
  report("after insert:");

  // ---- The same update, through the serving layer. -----------------------
  std::printf("\n== serving layer: targeted cache invalidation ==\n");
  EstimatorService service(estimator, {.num_threads = 2});

  Query unrelated;  // touches neither users nor badges
  unrelated.AddTable("votes");
  // Each request is a sub-plan batch; one query's estimate is the batch of
  // its full alias mask.
  auto serve = [&](const Query& query) {
    return service.EstimateSubplans(query, {query.AllAliases()})
        .at(query.AllAliases());
  };
  serve(q);          // cached
  serve(unrelated);  // cached

  // Update protocol: quiesce (stop submitting + Drain), mutate, update the
  // estimator, then notify the service — NOT service.InvalidateAll().
  service.Drain();
  size_t more = AppendBadges(&db, 5000);
  estimator.ApplyInsert("badges", more);
  service.NotifyUpdate("badges");

  double served = serve(q);  // recomputed: its entry went stale
  serve(unrelated);          // still a cache hit
  ServiceStats stats = service.Stats();
  std::printf("served fresh estimate=%12.0f (epoch %llu)\n", served,
              static_cast<unsigned long long>(stats.epoch));
  std::printf("cache: %llu hits, %llu misses, %llu invalidated "
              "(only entries touching 'badges')\n",
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              static_cast<unsigned long long>(stats.cache.invalidations));
  return 0;
}
