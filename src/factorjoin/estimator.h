// FactorJoin: the paper's cardinality estimation framework.
//
// Offline phase (Section 3.3): discover equivalent key groups from the
// schema, bin every group's key domain (GBSA by default; the bin budget can
// be allocated per group from workload frequencies, Section 4.2), scan
// per-bin MFV/total summaries, and train one single-table estimator per
// table (Bayesian network, sampling, or exact scan).
//
// Online phase: a query is translated into per-alias bound factors over its
// key groups; sub-plans are estimated progressively by joining cached factors
// pairwise (Section 5.2), each join applying the probabilistic bound of
// Equation 5. Cyclic templates and self joins are supported (Section 3.1,
// appendix cases 4-5).
//
// Incremental updates (Section 4.3) fold newly appended rows into the bin
// summaries and the single-table models without rebinning; tail deletions
// are folded in table-locally (see ApplyDelete). Every update bumps the
// inherited StatsVersion() epoch.
//
// Thread-safety: after training, all const methods are safe to call
// concurrently from any number of threads. ApplyInsert/ApplyDelete require
// exclusive access — no estimate may be in flight while they run.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "factorjoin/arena.h"
#include "factorjoin/bin_stats.h"
#include "factorjoin/binning.h"
#include "factorjoin/factor.h"
#include "stats/bayes_net.h"
#include "stats/cardinality_estimator.h"
#include "stats/table_estimator.h"
#include "storage/database.h"

namespace fj {

struct FactorJoinConfig {
  /// Bins per equivalent key group (the paper's k; default 100).
  uint32_t num_bins = 100;
  BinningStrategy binning = BinningStrategy::kGbsa;
  TableEstimatorKind estimator = TableEstimatorKind::kBayesNet;
  /// Sampling rate when estimator == kSampling.
  double sampling_rate = 0.01;
  /// When true and a workload is provided to the constructor, `num_bins`
  /// becomes a total budget K split across groups as k_i = K * n_i / sum n_j.
  bool workload_aware_budget = false;
  BayesNetOptions bayes_net;
  uint64_t seed = 42;
};

class FactorJoinEstimator : public CardinalityEstimator {
 public:
  /// Trains on `db` (which must outlive the estimator). `workload`, when
  /// given, drives the workload-aware bin budget split. Training is the only
  /// phase that reads other tables; afterwards updates are table-local.
  FactorJoinEstimator(const Database& db, FactorJoinConfig config,
                      const std::vector<Query>* workload = nullptr);

  /// Snapshot-loading path: binds to `db` without training — Load() must
  /// run before any estimate (the config is part of the snapshot).
  static std::unique_ptr<FactorJoinEstimator> MakeUntrained(const Database& db);

  std::string Name() const override { return "factorjoin"; }

  /// Greedy smallest-leaf-first bound (Equation 5). Thread-safe and
  /// deterministic: concurrent calls on the same trained model return
  /// bit-identical results. Must not run concurrently with an update.
  double Estimate(const Query& query) const override;

  /// Progressive sub-plan estimation (Section 5.2), the one batch path:
  /// the session builds every leaf factor of `query` once (the expensive,
  /// mask-independent part) into a session-owned arena, and each
  /// EstimateSubplans call on it runs the canonical decomposition against
  /// the shared leaves with a per-call join arena. Thread-safe and
  /// bit-identical on any mask subset — the serving layer uses this to
  /// split one large batch across its worker pool. Note the batch and
  /// Estimate may produce different (equally valid) bounds for the same
  /// sub-plan — see EstimatorService's cache namespaces.
  std::unique_ptr<SubplanSession> PrepareSubplans(
      const Query& query) const override;

  /// Exact (serialized) model size — the paper's Figure 6 metric — via the
  /// base class's counting-writer measurement of Save().
  double TrainSeconds() const override { return train_seconds_; }

  /// FactorJoin supports both incremental inserts and tail deletions.
  bool SupportsUpdates() const override { return true; }

  /// Full trained-state snapshot: config, group binnings, per-column bin
  /// summaries, and every single-table model (BayesNet / sampling /
  /// truescan). A Load()ed estimator bound to the same logical database
  /// estimates bit-identically to the trained original.
  bool SupportsSnapshot() const override { return true; }
  void Save(ByteWriter& w) const override;
  void Load(ByteReader& r) override;

  /// Incremental update after rows were appended to `table_name`:
  /// `first_new_row` is the index of the first appended row. O(|new rows|):
  /// folds the new key values into the per-bin summaries (bins stay fixed —
  /// no rebinning) and incrementally updates the single-table model
  /// (BayesNet CPT counts; other kinds refresh). Returns the update wall
  /// time in seconds. Requires exclusive access: quiesce concurrent
  /// estimates first. Bumps StatsVersion() exactly once.
  double ApplyInsert(const std::string& table_name,
                     size_t first_new_row) override;

  /// Tail deletion: the table has already been truncated to
  /// `first_deleted_row` rows (Table::Truncate). Table-local O(|table|):
  /// rebuilds this table's per-bin summaries from the retained rows (exact —
  /// MFV counts do not drift) and refreshes its single-table model. No
  /// rebinning, no other table is touched. Returns the update wall time in
  /// seconds. Requires exclusive access. Bumps StatsVersion() exactly once.
  double ApplyDelete(const std::string& table_name,
                     size_t first_deleted_row) override;

  /// The shared binning of the group that `ref` belongs to (nullptr if `ref`
  /// is not a join key). Thread-safe after training.
  const Binning* BinningFor(const ColumnRef& ref) const;

  /// Offline per-bin summaries of a join-key column (for tests/baselines).
  /// The pointer is invalidated by ApplyDelete on the same table.
  const ColumnBinStats* BinStatsFor(const ColumnRef& ref) const;

  const FactorJoinConfig& config() const { return config_; }
  size_t num_key_groups() const { return group_binnings_.size(); }

 private:
  class Session;  // the progressive decomposition over shared leaves

  struct UntrainedTag {};
  FactorJoinEstimator(const Database& db, UntrainedTag) : db_(&db) {}

  /// Everything mask-independent a decomposition of one query reads, built
  /// once per request: a leaf factor per alias (memoized spans), the alias
  /// adjacency, and each query key group's alias mask.
  struct Leaves {
    std::vector<BoundFactor> factors;
    std::vector<uint64_t> adj;
    std::vector<uint64_t> group_masks;
  };

  /// Builds the leaf bound factor for one alias of `query`, with every
  /// per-bin array allocated from `arena`. The factor covers every query
  /// key group with a member column on this alias.
  BoundFactor MakeLeafFactor(const Query& query, size_t alias_idx,
                             const std::vector<QueryKeyGroup>& groups,
                             FactorArena* arena) const;

  /// The leaves of every alias of `query`, per-bin arrays from `arena`.
  Leaves MakeLeaves(const Query& query, FactorArena* arena) const;

  /// Maps a query key group to the global group id (via any member column).
  int GlobalGroupOf(const Query& query, const QueryKeyGroup& group) const;

  const Database* db_;  // not owned
  FactorJoinConfig config_;

  // Offline state.
  std::vector<Binning> group_binnings_;
  std::unordered_map<ColumnRef, int, ColumnRefHash> column_to_group_;
  std::unordered_map<ColumnRef, ColumnBinStats, ColumnRefHash> bin_stats_;
  std::unordered_map<std::string, std::unique_ptr<TableEstimator>> estimators_;
  double train_seconds_ = 0.0;
};

}  // namespace fj
