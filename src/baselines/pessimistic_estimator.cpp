#include "baselines/pessimistic_estimator.h"

#include <unordered_map>

#include "factorjoin/kernels.h"
#include "query/filter_eval.h"
#include "query/subplan.h"

namespace fj {
namespace {

uint32_t HashPartition(int64_t value, uint32_t partitions) {
  uint64_t h = static_cast<uint64_t>(value) * 0x9e3779b97f4a7c15ull;
  return static_cast<uint32_t>(h >> 33) % partitions;
}

}  // namespace

PessimisticEstimator::PessimisticEstimator(const Database& db,
                                           PessimisticOptions options)
    : db_(&db), options_(options) {}

BoundFactor PessimisticEstimator::MakeLeafSketch(
    const Query& query, size_t alias_idx,
    const std::vector<QueryKeyGroup>& groups, FactorArena* arena) const {
  const TableRef& ref = query.tables()[alias_idx];
  const Table& table = db_->GetTable(ref.table);

  // Materialize the filter (this is where PessEst pays its latency).
  std::vector<uint32_t> rows = EvalSelection(table, *query.FilterFor(ref.alias));

  BoundFactor factor;
  factor.alias_mask = uint64_t{1} << alias_idx;
  factor.card = static_cast<double>(rows.size());

  for (size_t g = 0; g < groups.size(); ++g) {
    for (const AliasColumn& member : groups[g].members) {
      if (member.alias != ref.alias) continue;
      const Column& col = table.Col(member.column);
      // Exact degree sketch on the filtered rows.
      std::unordered_map<int64_t, uint64_t> degrees;
      degrees.reserve(rows.size());
      for (uint32_t r : rows) {
        int64_t v = col.IntAt(r);
        if (v != kNullInt64) ++degrees[v];
      }
      double* mass = arena->AllocZeroed(options_.partitions);
      double* mfv = arena->AllocZeroed(options_.partitions);
      for (const auto& [v, d] : degrees) {
        uint32_t p = HashPartition(v, options_.partitions);
        mass[p] += static_cast<double>(d);
        mfv[p] = std::max(mfv[p], static_cast<double>(d));
      }
      GroupSpan* existing = factor.FindGroup(static_cast<int>(g));
      if (existing == nullptr) {
        factor.groups.push_back(GroupSpan{static_cast<int>(g),
                                          options_.partitions, mass, mfv});
      } else {
        kernels::MinInto(existing->mass, mass, options_.partitions);
        kernels::MinInto(existing->mfv, mfv, options_.partitions);
      }
    }
  }
  return factor;
}

double PessimisticEstimator::Estimate(const Query& query) const {
  if (query.NumTables() == 0) return 0.0;
  std::vector<QueryKeyGroup> groups = query.KeyGroups();
  FactorArena arena;
  std::vector<BoundFactor> leaves;
  leaves.reserve(query.NumTables());
  for (size_t i = 0; i < query.NumTables(); ++i) {
    leaves.push_back(MakeLeafSketch(query, i, groups, &arena));
  }
  if (query.NumTables() == 1) return leaves[0].card;

  std::vector<uint64_t> group_masks = KeyGroupAliasMasks(query, groups);
  std::vector<double> cards;
  cards.reserve(leaves.size());
  for (const BoundFactor& leaf : leaves) cards.push_back(leaf.card);
  std::vector<size_t> order = GreedyJoinOrder(cards, query.AliasAdjacency());
  BoundFactor current = leaves[order[0]];
  std::vector<int> connecting;
  for (size_t i = 1; i < order.size(); ++i) {
    const BoundFactor& next = leaves[order[i]];
    connecting.clear();
    for (const GroupSpan& g : next.groups) {
      if (current.FindGroup(g.gid) != nullptr) connecting.push_back(g.gid);
    }
    current =
        JoinBoundFactors(current, next, connecting, group_masks, &arena);
  }
  return current.card;
}

}  // namespace fj
