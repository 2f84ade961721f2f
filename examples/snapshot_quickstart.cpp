// Save a trained model to disk, load it back without retraining, and serve
// several loaded models side by side through a ModelRegistry.
//
//   $ ./snapshot_quickstart
//
// The load path produces estimates BIT-IDENTICAL to the trained original
// (golden_estimates_test pins this across every serializable estimator) —
// a serving process can restart in milliseconds instead of repaying
// training time.
#include <cstdio>
#include <memory>

#include "factorjoin/estimator.h"
#include "service/model_registry.h"
#include "stats/snapshot.h"
#include "util/timer.h"
#include "workload/stats_ceb.h"

int main() {
  using namespace fj;

  // Train one FactorJoin model on the STATS-CEB-style workload.
  StatsCebOptions workload_options;
  workload_options.scale = 0.05;
  workload_options.num_queries = 4;
  auto workload = MakeStatsCeb(workload_options);
  FactorJoinConfig config;
  config.num_bins = 32;
  FactorJoinEstimator trained(workload->db, config);
  std::printf("trained in %.1f ms, exact model size %zu bytes\n",
              trained.TrainSeconds() * 1e3, trained.ModelSizeBytes());

  // Persist it. The snapshot is a framed, versioned, checksummed binary
  // file (stats/snapshot.h); SaveEstimatorSnapshot/LoadEstimatorSnapshot
  // are the file-level entry points fj_server's --save-model/--load-model
  // flags use.
  const char* path = "/tmp/snapshot_quickstart.fjsnap";
  SaveEstimatorSnapshot(trained, path);

  // Load it back — no retraining, just decode + validation against the
  // bound database (which must be the same logical data).
  WallTimer load_timer;
  std::unique_ptr<CardinalityEstimator> loaded =
      LoadEstimatorSnapshot(workload->db, path);
  std::printf("loaded in %.1f ms\n", load_timer.Seconds() * 1e3);

  const Query& q = workload->queries.front();
  double a = trained.Estimate(q);
  double b = loaded->Estimate(q);
  std::printf("trained: %.6f, loaded: %.6f (%s)\n", a, b,
              a == b ? "bit-identical" : "MISMATCH!");

  // Multi-model serving: one registry, two independent models — each with
  // its own worker pool, cache, and update epochs. The remote front end
  // (net/EstimatorServer) routes requests to them by name; in process,
  // Find() resolves the service directly.
  ModelRegistry registry;
  registry.AddModel("snapshot", std::move(loaded), {.num_threads = 2});
  FactorJoinConfig wide = config;
  wide.num_bins = 64;
  registry.AddModel("wide",
                    std::make_unique<FactorJoinEstimator>(workload->db, wide),
                    {.num_threads = 2});
  std::printf("serving models:");
  for (const auto& name : registry.ModelNames()) {
    std::printf(" %s", name.c_str());
  }
  // A served request is a sub-plan batch: here, of q's full alias mask.
  auto serve = [&](const char* model) {
    return registry.Find(model)
        ->EstimateSubplans(q, {q.AllAliases()})
        .at(q.AllAliases());
  };
  std::printf("\nsnapshot-model estimate: %.1f, wide-model estimate: %.1f\n",
              serve("snapshot"), serve("wide"));
  return a == b ? 0 : 1;
}
