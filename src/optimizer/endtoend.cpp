#include "optimizer/endtoend.h"

#include "query/subplan.h"
#include "util/timer.h"

namespace fj {

Relation ExecutePlan(const Database& db, const Query& query,
                     const PlanNode& plan, ExecStats* stats,
                     size_t max_output_tuples) {
  if (plan.IsLeaf()) {
    const TableRef& ref = query.tables()[static_cast<size_t>(plan.leaf_alias)];
    return ScanFilter(db, ref.table, ref.alias, *query.FilterFor(ref.alias),
                      stats);
  }
  Relation left = ExecutePlan(db, query, *plan.left, stats, max_output_tuples);
  Relation right =
      ExecutePlan(db, query, *plan.right, stats, max_output_tuples);
  auto keys = ConnectingKeys(query, left.aliases(), right.aliases());
  if (keys.empty()) {
    throw std::invalid_argument("plan contains a cross product");
  }
  if (plan.algo == JoinAlgo::kNestedLoop) {
    return NestedLoopJoin(db, query, left, right, keys, stats,
                          max_output_tuples);
  }
  return HashJoin(db, query, left, right, keys, stats, max_output_tuples);
}

QueryRunResult RunQueryEndToEnd(const Database& db, const Query& query,
                                CardinalityEstimator* estimator,
                                const EndToEndOptions& options) {
  QueryRunResult result;

  // Planning: estimate every connected sub-plan, then join ordering.
  WallTimer plan_timer;
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(query, 1);
  result.num_subplans = masks.size();
  auto cards = estimator->EstimateSubplans(query, masks);
  auto plan = OptimizeJoinOrder(query, cards, options.optimizer);
  if (options.charge_planning) result.plan_seconds = plan_timer.Seconds();

  auto full_it = cards.find(query.AllAliases());
  result.estimated_card = full_it != cards.end() ? full_it->second : 0.0;
  std::vector<std::string> alias_names;
  for (const auto& ref : query.tables()) alias_names.push_back(ref.alias);
  result.plan_text = plan->ToString(alias_names);

  // Execution.
  WallTimer exec_timer;
  try {
    Relation out = ExecutePlan(db, query, *plan, &result.exec_stats,
                               options.max_output_tuples);
    result.true_card = out.size();
  } catch (const ExecutionOverflow&) {
    result.overflow = true;
  }
  result.exec_seconds = exec_timer.Seconds();
  return result;
}

WorkloadRunResult RunWorkloadEndToEnd(const Database& db,
                                      const std::vector<Query>& workload,
                                      CardinalityEstimator* estimator,
                                      const EndToEndOptions& options) {
  WorkloadRunResult result;
  result.per_query.reserve(workload.size());
  for (const Query& q : workload) {
    result.per_query.push_back(RunQueryEndToEnd(db, q, estimator, options));
    const QueryRunResult& r = result.per_query.back();
    result.total_plan_seconds += r.plan_seconds;
    result.total_exec_seconds += r.exec_seconds;
    result.total_work += r.exec_stats.TotalWork();
    if (r.overflow) ++result.overflows;
  }
  return result;
}

}  // namespace fj
