#include "optimizer/dp_optimizer.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "query/subplan.h"

namespace fj {
namespace {

double CardOf(const std::unordered_map<uint64_t, double>& cards,
              uint64_t mask) {
  auto it = cards.find(mask);
  if (it != cards.end()) return std::max(it->second, 1.0);
  // Pessimistic fallback: product of the singleton cardinalities.
  double card = 1.0;
  uint64_t m = mask;
  while (m != 0) {
    size_t a = static_cast<size_t>(std::countr_zero(m));
    m &= m - 1;
    auto sit = cards.find(uint64_t{1} << a);
    card *= sit != cards.end() ? std::max(sit->second, 1.0) : 1.0;
  }
  return card;
}

std::unique_ptr<PlanNode> MakeLeaf(size_t alias, double card,
                                   const CostModelParams& params) {
  auto node = std::make_unique<PlanNode>();
  node->mask = uint64_t{1} << alias;
  node->leaf_alias = static_cast<int>(alias);
  node->est_card = card;
  node->cost = card * params.scan_cost_per_row;
  return node;
}

std::unique_ptr<PlanNode> ClonePlan(const PlanNode& node) {
  auto copy = std::make_unique<PlanNode>();
  copy->mask = node.mask;
  copy->leaf_alias = node.leaf_alias;
  copy->est_card = node.est_card;
  copy->cost = node.cost;
  if (node.left) copy->left = ClonePlan(*node.left);
  if (node.right) copy->right = ClonePlan(*node.right);
  return copy;
}

// Picks the cheaper physical operator for the (estimated) input sizes.
std::unique_ptr<PlanNode> MakeJoin(std::unique_ptr<PlanNode> left,
                                   std::unique_ptr<PlanNode> right,
                                   double out_card,
                                   const CostModelParams& params) {
  auto node = std::make_unique<PlanNode>();
  node->mask = left->mask | right->mask;
  node->est_card = out_card;
  double hash = HashJoinCost(left->est_card, right->est_card, out_card, params);
  double nl = NestedLoopCost(left->est_card, right->est_card, out_card, params);
  node->algo = nl < hash ? JoinAlgo::kNestedLoop : JoinAlgo::kHashJoin;
  node->cost = left->cost + right->cost + std::min(hash, nl);
  node->left = std::move(left);
  node->right = std::move(right);
  return node;
}

// Greedy left-deep plan for very large queries: start from the smallest
// estimated leaf, repeatedly join the connected alias minimizing the
// estimated intermediate result.
std::unique_ptr<PlanNode> GreedyPlan(
    const Query& query, const std::unordered_map<uint64_t, double>& cards,
    const OptimizerOptions& options) {
  size_t n = query.NumTables();
  std::vector<uint64_t> adj = query.AliasAdjacency();

  size_t start = 0;
  double best_card = std::numeric_limits<double>::max();
  for (size_t i = 0; i < n; ++i) {
    double c = CardOf(cards, uint64_t{1} << i);
    if (c < best_card) {
      best_card = c;
      start = i;
    }
  }
  auto plan = MakeLeaf(start, best_card, options.cost);
  uint64_t remaining = query.AllAliases() & ~plan->mask;
  while (remaining != 0) {
    int pick = -1;
    double pick_card = std::numeric_limits<double>::max();
    uint64_t m = remaining;
    while (m != 0) {
      size_t a = static_cast<size_t>(std::countr_zero(m));
      m &= m - 1;
      if ((adj[a] & plan->mask) == 0) continue;
      double c = CardOf(cards, plan->mask | (uint64_t{1} << a));
      if (c < pick_card) {
        pick_card = c;
        pick = static_cast<int>(a);
      }
    }
    if (pick < 0) {
      throw std::invalid_argument("optimizer: disconnected join graph");
    }
    auto leaf = MakeLeaf(static_cast<size_t>(pick),
                         CardOf(cards, uint64_t{1} << pick), options.cost);
    plan = MakeJoin(std::move(plan), std::move(leaf), pick_card, options.cost);
    remaining &= ~(uint64_t{1} << pick);
  }
  return plan;
}

}  // namespace

double HashJoinCost(double left_card, double right_card, double out_card,
                    const CostModelParams& params) {
  double build = std::min(left_card, right_card) * params.build_cost_per_row;
  double probe = std::max(left_card, right_card) * params.probe_cost_per_row;
  return build + probe + out_card * params.output_cost_per_row;
}

double NestedLoopCost(double left_card, double right_card, double out_card,
                      const CostModelParams& params) {
  return left_card * right_card * params.nested_loop_cost_per_pair +
         out_card * params.output_cost_per_row;
}

std::unique_ptr<PlanNode> OptimizeJoinOrder(
    const Query& query,
    const std::unordered_map<uint64_t, double>& cardinalities,
    const OptimizerOptions& options) {
  size_t n = query.NumTables();
  if (n == 0) return nullptr;
  if (n == 1) return MakeLeaf(0, CardOf(cardinalities, 1), options.cost);
  if (n > options.dp_table_limit) {
    return GreedyPlan(query, cardinalities, options);
  }

  // DP over connected subsets.
  std::vector<uint64_t> subsets = EnumerateConnectedSubsets(query, 1);
  std::unordered_map<uint64_t, std::unique_ptr<PlanNode>> best;
  std::vector<uint64_t> adj = query.AliasAdjacency();

  for (uint64_t mask : subsets) {
    if (std::popcount(mask) == 1) {
      size_t a = static_cast<size_t>(std::countr_zero(mask));
      best[mask] = MakeLeaf(a, CardOf(cardinalities, mask), options.cost);
      continue;
    }
    double out_card = CardOf(cardinalities, mask);
    std::unique_ptr<PlanNode> best_plan;
    // Enumerate proper sub-splits (sub, mask \ sub); consider each unordered
    // pair once.
    for (uint64_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      uint64_t rest = mask & ~sub;
      if (sub < rest) continue;  // dedupe unordered pairs
      auto ls = best.find(sub);
      auto rs = best.find(rest);
      if (ls == best.end() || rs == best.end()) continue;  // not connected
      // The two sides must actually join (no cross products).
      bool connected = false;
      uint64_t m = sub;
      while (m != 0 && !connected) {
        size_t a = static_cast<size_t>(std::countr_zero(m));
        m &= m - 1;
        connected = (adj[a] & rest) != 0;
      }
      if (!connected) continue;
      double join_cost =
          std::min(HashJoinCost(ls->second->est_card, rs->second->est_card,
                                out_card, options.cost),
                   NestedLoopCost(ls->second->est_card, rs->second->est_card,
                                  out_card, options.cost));
      double cost = ls->second->cost + rs->second->cost + join_cost;
      if (!best_plan || cost < best_plan->cost) {
        best_plan = MakeJoin(ClonePlan(*ls->second), ClonePlan(*rs->second),
                             out_card, options.cost);
      }
    }
    if (best_plan) best[mask] = std::move(best_plan);
  }

  auto it = best.find(query.AllAliases());
  if (it == best.end()) {
    throw std::invalid_argument("optimizer: query join graph not connected");
  }
  return std::move(it->second);
}

}  // namespace fj
